//! Online batch serving of per-vehicle utilization predictions.
//!
//! The offline side of this repository evaluates the paper's methodology
//! ([`vup_core::fleet_eval`]); this crate is the online counterpart: a
//! [`PredictionService`] that answers batches of `(vehicle, horizon)`
//! requests, caching one fitted model per vehicle in a [`ModelStore`] and
//! retraining only when the vehicle's series has advanced past the
//! configured `retrain_every` cadence. Work is dispatched on the same
//! lock-free executor as offline evaluation ([`vup_core::executor`]), so
//! the serving hot path takes no mutex.
//!
//! The serve path is resilient ([`resilience`]): per-vehicle fit episodes
//! retry with deterministic virtual-time backoff under a per-request
//! deadline budget, a per-vehicle circuit breaker sheds repeatedly
//! failing primaries, and a serde-saved baseline fallback serves
//! [`ServePath::Degraded`] forecasts instead of failing. A seeded fault
//! injector ([`faults`]) makes all of it testable: chaos runs are
//! reproducible bit for bit at every thread count.
//!
//! The fourth resilience pillar is durability ([`persist`]): a
//! [`ModelStore`] opened on a directory writes every cached model
//! through to a checksummed, versioned snapshot file and warm-starts
//! from the surviving snapshots after a crash, quarantining (never
//! deleting) anything torn, bit-flipped or from an unknown format.
//! Disk faults are injected through the same seeded plan as the fit
//! faults, so crash-and-recover chaos runs stay bit-reproducible.

#![warn(missing_docs)]

pub mod faults;
pub mod frame;
pub mod persist;
pub mod resilience;
pub mod service;
pub mod store;

pub use faults::{
    DiskFaultPlan, FaultInjector, FaultPlan, FitFault, ShardFate, ShardFaultPlan, ShardKill,
};
pub use frame::{
    crc32, decode_frame_at, decode_frame_exact, encode_frame, retry_io, FrameDefect, HEADER_LEN,
    MAX_IO_ATTEMPTS,
};
pub use persist::{
    audit, parse_snapshot_name, storage_backend, verify_snapshot, AppendTarget, AuditEntry,
    DiskBackend, FaultyBackend, QuarantinedFile, RecoveryStats, SnapshotDefect, SnapshotStore,
    StorageBackend,
};
pub use resilience::{
    splitmix64, BreakerConfig, BreakerDecision, BreakerState, BreakerTransition, CircuitBreaker,
    ResilienceConfig, RetryPolicy,
};
pub use service::{
    ellipsize, BatchRequest, FleetViews, Forecast, PredictionService, Provenance, ServeJournal,
    ServeOutcome, ServePath, StageNanos, ViewSource,
};
pub use store::{Lookup, ModelStore, StoredModel};
