//! From-scratch regression algorithms for vehicle-usage prediction.
//!
//! The paper trains four scikit-learn regressors per vehicle — Linear
//! Regression, Lasso, ε-Support-Vector Regression and Gradient Boosting —
//! plus two naive baselines (last value, moving average). The Rust ML
//! ecosystem is thin, so this crate reimplements all of them on top of
//! `vup-linalg`:
//!
//! - [`linear::LinearRegression`] — ordinary least squares via Householder
//!   QR, with an automatic ridge fallback for rank-deficient designs;
//! - [`lasso::Lasso`] — cyclic coordinate descent with soft thresholding,
//!   minimizing `1/(2n)·‖y − Xβ‖² + α·‖β‖₁` (scikit-learn's objective);
//! - [`svr::Svr`] — ε-SVR solved with SMO (maximal-violating-pair working
//!   set selection, LibSVM-style), RBF and linear kernels;
//! - [`gbm::GradientBoosting`] — Friedman's TreeBoost over depth-limited
//!   regression trees, with least-squares and LAD (the paper's `loss=lad`)
//!   losses;
//! - [`forest::RandomForest`] — the Random-Forest comparator the paper's
//!   related work uses for on-road fleets (bootstrap + per-tree feature
//!   subspaces);
//! - [`baseline`] — the LV and MA series forecasters;
//! - [`logistic`] — multinomial softmax classification (the paper's §5
//!   future-work item on discrete usage levels);
//! - [`scaler`], [`metrics`], [`grid`], [`dataset`] — supporting pieces
//!   (z-score standardization, which is the paper's normalization step and
//!   is fitted on each training window; the paper's Percentage Error
//!   metric; grid search; dataset handling);
//! - [`instrument`] — fit/predict timing histograms ([`instrument::MlTimers`])
//!   recorded into a `vup-obs` registry, no-op when observability is off.
//!
//! Every estimator implements the [`Regressor`] trait and can be built
//! uniformly from a [`RegressorSpec`], which is how `vup-core` instantiates
//! per-vehicle models.

#![warn(missing_docs)]

pub mod arena;
pub mod baseline;
pub mod dataset;
mod error;
pub mod forest;
pub mod gbm;
pub mod grid;
pub mod instrument;
pub mod kernel;
pub mod lasso;
pub mod linear;
pub mod logistic;
pub mod metrics;
mod regressor;
pub mod scaler;
pub mod svr;
pub mod tree;

pub use arena::{ArenaStats, TrainArena};
pub use dataset::Dataset;
pub use error::MlError;
pub use regressor::{Regressor, RegressorSpec, SavedModel};

/// Convenience result alias for fallible ML operations.
pub type Result<T> = std::result::Result<T, MlError>;
