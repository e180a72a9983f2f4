//! Time-series statistics for vehicle-usage analysis.
//!
//! This crate implements the statistical toolkit the paper's methodology and
//! data-characterization sections rely on:
//!
//! - [`acf`](mod@acf): the sample autocorrelation function used by the
//!   statistics-based feature-selection step (paper §3, Fig. 2);
//! - [`cdf`]: empirical cumulative distribution functions (Fig. 1a);
//! - [`boxplot`]: five-number summaries with 1.5·IQR outlier fences
//!   (Fig. 1b/1c);
//! - [`corr`]: cross-series Pearson correlation (Fig. 1d's
//!   "uncorrelated" claim);
//! - [`decompose`]: additive trend + weekly-seasonal + residual
//!   decomposition used to explain per-unit series;
//! - [`pacf`]: partial autocorrelation (Durbin–Levinson), the sharper
//!   companion diagnostic to the ACF;
//! - [`stationarity`]: the split-half drift diagnostic backing the
//!   paper's claim that per-unit usage is non-stationary;
//! - [`series`]: a day-indexed utilization series with its utilization
//!   rate and weekly aggregation (Fig. 1d). The working-day filter is the
//!   scenarios' own (`vup_core::scenario::WORKING_DAY_THRESHOLD`).
//!
//! All estimators are deterministic and operate on plain `f64` slices or on
//! [`series::DailySeries`].

#![warn(missing_docs)]

pub mod acf;
pub mod boxplot;
pub mod cdf;
pub mod corr;
pub mod decompose;
pub mod pacf;
pub mod series;
pub mod stationarity;
pub mod stats;

pub use acf::{acf, significance_bound, top_k_lags};
pub use boxplot::BoxplotSummary;
pub use cdf::EmpiricalCdf;
pub use series::DailySeries;
