//! Columnar table and the paper's data-preparation pipeline.
//!
//! The paper (§2, "Data preparation") prepares raw CAN-bus streams for
//! machine learning in five steps:
//!
//! 1. **Cleaning** — handle missing values, unify formats, remove
//!    inconsistencies (connectivity loss corrupts field data);
//! 2. **Normalization** — make continuous features comparable (done by
//!    `vup_ml::scaler::StandardScaler`, fitted on each training window so
//!    no test-day statistics leak into the model, not by this crate);
//! 3. **Aggregation** — aggregate the 10-minute reports to daily values
//!    and derive daily utilization hours from the sample counts;
//! 4. **Enrichment** — attach multi-faceted contextual information
//!    (day of week, country-dependent holiday flag, week/month/season/
//!    year, location);
//! 5. **Transformation** — produce a relational dataset.
//!
//! Step 5 produces a small in-memory columnar table ([`table::Table`]):
//! typed columns with bit-packed null bitmaps, profiled by [`describe`]
//! and exported by [`csv::to_csv`]. The other steps ([`cleaning`],
//! [`aggregate`], [`enrich`], orchestrated by [`pipeline`]) feed it.

#![warn(missing_docs)]

pub mod aggregate;
pub mod cleaning;
pub mod column;
pub mod csv;
pub mod describe;
pub mod enrich;
mod error;
pub mod pipeline;
pub mod schema;
pub mod table;
pub mod value;

pub use error::PrepError;
pub use schema::{DataType, Field, Schema};
pub use table::Table;
pub use value::Value;

/// Convenience result alias for fallible preparation operations.
pub type Result<T> = std::result::Result<T, PrepError>;
