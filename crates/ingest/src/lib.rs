//! Streaming telemetry ingest for the vehicle-usage prediction stack.
//!
//! The batch pipeline (fleetsim → dataprep → core → serve) regenerates
//! every vehicle's history on demand; a deployed fleet instead streams
//! 10-minute CAN reports continuously. This crate is that streaming
//! front end:
//!
//! - [`log`] — a durable append-only **commit log**: CRC-framed,
//!   length-prefixed records in size-capped segments, written
//!   through `vup-serve`'s [`vup_serve::StorageBackend`] seam so the
//!   seeded disk-chaos harness applies unchanged. Crash recovery
//!   truncates to the longest valid prefix and quarantines damage —
//!   never deletes it.
//! - [`aggregate`] — **incremental daily aggregation**: raw reports
//!   fold into per-vehicle daily records as the log's watermark
//!   advances, one `clean_and_aggregate_day` per (vehicle, day), no
//!   re-reading of history.
//! - [`views`] — serves predictions **from the ingested data** by
//!   adapting the aggregated histories to `vup-serve`'s `ViewSource`.
//! - [`scheduler`] — **drift-triggered retraining**: sealed slots feed
//!   forecast residuals to the fleet monitor, and a CUSUM or
//!   degrade-ratio firing enqueues that vehicle for retraining
//!   immediately instead of waiting out the fixed cadence.
//! - [`replay`] — **deterministic replay**: folding any log prefix
//!   through the stack reproduces aggregates, retrain decisions,
//!   serve journal and model bytes bit-for-bit, at any thread count,
//!   observability on or off.
//! - [`stream`] — simulated telemetry streams (with optional usage
//!   shifts to provoke drift) for tests, the CLI and CI smoke runs.

pub mod aggregate;
pub mod log;
pub mod replay;
pub mod scheduler;
pub mod stream;
pub mod views;

pub use aggregate::{FleetAggregator, SealedSlot, SharedHistories};
pub use log::{
    CommitLog, LogDefect, LogOptions, LogRecord, LogRecovery, QuarantinedLogFile, SEGMENT_MAGIC,
    SEGMENT_VERSION,
};
pub use replay::{replay, ModelDigest, ReplayConfig, ReplayReport};
pub use scheduler::{RetrainDecision, RetrainReason, RetrainScheduler, SchedulerConfig};
pub use stream::{ingest_stream, IngestStats, StreamConfig, UsageShift};
pub use views::AggregatedViews;
