//! Vehicle-usage prediction: a full reproduction of *Heterogeneous
//! Industrial Vehicle Usage Predictions: A Real Case* (EDBT/ICDT
//! Workshops 2019) in Rust.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`fleetsim`] — synthetic heterogeneous fleet + CAN-bus telemetry
//!   (substitute for the paper's proprietary Tierra dataset);
//! - [`dataprep`] — columnar table and the data-preparation pipeline;
//! - [`tseries`] — autocorrelation, CDFs, boxplot statistics;
//! - [`ml`] — from-scratch LR / Lasso / SVR / GB regressors plus the LV
//!   and MA baselines;
//! - [`core`] — the paper's methodology: per-vehicle windowed training
//!   data, ACF-based lag selection, next-day / next-working-day
//!   scenarios, sliding / expanding evaluation;
//! - [`serve`] — online batch prediction service with a per-vehicle
//!   model cache, dispatched on the same lock-free executor as the
//!   offline fleet evaluation; hardened by retries, deadlines, circuit
//!   breakers, and a baseline fallback, all testable under a seeded
//!   deterministic fault injector;
//! - [`obs`] — std-only observability: a lock-free metrics registry
//!   (counters, gauges, fixed-bucket histograms, timing spans) with
//!   Prometheus-text and JSON exporters, threaded through the executor,
//!   the model store, and the prediction service. Disabled registries
//!   make every instrumented path a no-op;
//! - [`net`] — std-only HTTP/1.1 serving daemon (`vup serve`): a
//!   hand-rolled incremental parser, bounded admission queue with
//!   `503 + Retry-After` load shedding, fixed worker pool with graceful
//!   SIGTERM drain, and a seeded closed-loop load generator
//!   (`vup loadgen`);
//! - [`ingest`] — streaming telemetry front end (`vup ingest` /
//!   `vup replay`): a durable CRC-framed commit log of 10-minute CAN
//!   reports with quarantine-never-delete crash recovery, incremental
//!   per-vehicle daily aggregation, and a drift-triggered retrain
//!   scheduler whose replays are bit-for-bit deterministic at any
//!   thread count;
//! - [`shard`] — fleet sharding (`vup shard-eval` / `vup shard
//!   rebalance` / `serve-batch --shards`): rendezvous-hash vehicle
//!   partitioning, a coordinator fanning batches over per-shard
//!   prediction services with deterministic request-order merges, a
//!   supervisor that degrades and warm-restarts dead shards under the
//!   seeded fault plan, and atomic snapshot rebalancing when the shard
//!   count changes;
//! - [`bench`] — the experiment/benchmark harness behind the paper
//!   binaries and `vup bench`: canonical seeded workloads, profile-count
//!   extraction, and the schema-versioned `BENCH_*.json` perf
//!   trajectories with a threshold-gated `bench compare`.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md`
//! for the experiment index.
//!
//! ```
//! use vehicle_usage_prediction::prelude::*;
//!
//! let fleet = Fleet::generate(FleetConfig::small(3, 7));
//! let view = VehicleView::build(&fleet, VehicleId(0), Scenario::NextWorkingDay);
//! assert!(view.len() > 100);
//! ```

#![warn(missing_docs)]

pub use vup_bench as bench;
pub use vup_core as core;
pub use vup_dataprep as dataprep;
pub use vup_fleetsim as fleetsim;
pub use vup_ingest as ingest;
pub use vup_linalg as linalg;
pub use vup_ml as ml;
pub use vup_net as net;
pub use vup_obs as obs;
pub use vup_serve as serve;
pub use vup_shard as shard;
pub use vup_tseries as tseries;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use vup_core::{
        evaluate::evaluate_vehicle, fleet_eval::evaluate_fleet, FeatureConfig, FittedPredictor,
        ModelSpec, PipelineConfig, Scenario, Strategy, VehicleView,
    };
    pub use vup_fleetsim::{Fleet, FleetConfig, Vehicle, VehicleId, VehicleType};
    pub use vup_ingest::{
        ingest_stream, replay, CommitLog, FleetAggregator, LogOptions, LogRecovery, ReplayConfig,
        ReplayReport, RetrainReason, RetrainScheduler, StreamConfig, UsageShift,
    };
    pub use vup_ml::baseline::BaselineSpec;
    pub use vup_ml::RegressorSpec;
    pub use vup_obs::{FleetMonitor, MonitorConfig, Registry, Tracer};
    pub use vup_serve::{
        ellipsize, BatchRequest, DiskBackend, FaultPlan, FaultyBackend, ModelStore,
        PredictionService, Provenance, ResilienceConfig, RetryPolicy, ServeJournal, ServeOutcome,
        ServePath, SnapshotDefect, StorageBackend,
    };
    pub use vup_shard::{Partitioner, ShardOptions, ShardedService};
}
