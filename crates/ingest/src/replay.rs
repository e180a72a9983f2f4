//! Deterministic replay of a commit-log prefix.
//!
//! [`replay`] drives the full streaming stack — aggregation, residual
//! monitoring, retrain scheduling, batched serving — over a slice of
//! log records and distills the outcome into a [`ReplayReport`].
//!
//! **The determinism contract** (pinned by `tests/streaming.rs`):
//! replaying the same record prefix yields a bit-identical report —
//! same aggregates, same retrain-decision stream (order included),
//! same serve journal, same model bytes — at any thread count, with
//! observability live or disabled. Everything downstream of the log is
//! a pure fold: the only admissible sources of divergence (wall-clock,
//! thread interleaving, iteration order of unordered maps) are
//! excluded by construction, and timing-carrying fields are excluded
//! from the report's equality.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vup_core::PipelineConfig;
use vup_fleetsim::fleet::Fleet;
use vup_obs::{MonitorConfig, Registry, Tracer};
use vup_serve::frame::{fnv1a, FNV_PRIME};
use vup_serve::{PredictionService, ServeJournal, ServeOutcome};

use crate::aggregate::{FleetAggregator, SealedSlot};
use crate::log::{LogRecord, LogRecovery};
use crate::scheduler::{RetrainDecision, RetrainScheduler, SchedulerConfig};
use crate::views::AggregatedViews;

/// Everything a replay run needs besides the records.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The serving pipeline (scenario, window, model, cadence).
    pub pipeline: PipelineConfig,
    /// Drift-monitor tunables.
    pub monitor: MonitorConfig,
    /// Scheduler tunables (warmup, staleness, horizon).
    pub scheduler: SchedulerConfig,
    /// Worker threads for the batched serve calls. Replay results are
    /// identical at any thread count — that is the contract.
    pub threads: usize,
}

impl ReplayConfig {
    /// A replay config deriving the scheduler from the pipeline.
    pub fn new(pipeline: PipelineConfig, monitor: MonitorConfig, threads: usize) -> ReplayConfig {
        ReplayConfig {
            scheduler: SchedulerConfig::from_pipeline(&pipeline),
            pipeline,
            monitor,
            threads,
        }
    }
}

/// Content fingerprint of one vehicle's final model: FNV-1a over the
/// serialized predictor, so "bit-identical model bytes" is a string
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelDigest {
    /// The vehicle the model belongs to.
    pub vehicle_id: u32,
    /// Slot count of the view the model was trained on.
    pub trained_at: usize,
    /// Hex FNV-1a digest of the serialized predictor.
    pub digest: String,
}

/// The distilled outcome of one replay run. `PartialEq` covers every
/// field; two reports compare equal only if aggregates, the decision
/// stream, the journal and the model digests all match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Records folded in.
    pub records_replayed: u64,
    /// Days sealed across the fleet.
    pub days_sealed: u64,
    /// Sealed days that entered a scenario series.
    pub slots_sealed: u64,
    /// Records rejected as out-of-order (day already sealed).
    pub out_of_order: u64,
    /// The full retrain-decision stream, in decision order.
    pub decisions: Vec<RetrainDecision>,
    /// Provenance journal of every serve outcome, in serve order.
    pub journal: ServeJournal,
    /// Final model fingerprints, sorted by vehicle.
    pub models: Vec<ModelDigest>,
    /// Log recovery stats of the open that fed this replay, when the
    /// records came from disk (None for in-memory replays).
    pub recovery: Option<LogRecovery>,
}

impl ReplayReport {
    /// Count of decisions with the given reason.
    pub fn decisions_with(&self, reason: crate::scheduler::RetrainReason) -> usize {
        self.decisions.iter().filter(|d| d.reason == reason).count()
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("replay report serializes")
    }

    /// Parses a report back from [`ReplayReport::to_json`] output.
    pub fn from_json(text: &str) -> Result<ReplayReport, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Replays `records` through the full streaming stack and distills the
/// result. Feed it any prefix of a log — determinism is per prefix.
pub fn replay(
    records: &[LogRecord],
    fleet: &Fleet,
    config: &ReplayConfig,
    registry: &Registry,
    tracer: &Tracer,
) -> vup_core::Result<ReplayReport> {
    let mut aggregator =
        FleetAggregator::new(fleet.config().start.day_index(), config.pipeline.scenario);
    let views = AggregatedViews::new(aggregator.histories());
    let service =
        PredictionService::new_observed(fleet, config.pipeline.clone(), config.threads, registry)?
            .with_tracer(tracer.clone())
            .with_views(Arc::new(views));
    let mut scheduler =
        RetrainScheduler::new(config.monitor.clone(), config.scheduler.clone(), registry);

    let mut outcomes: Vec<ServeOutcome> = Vec::new();
    let mut slots_sealed = 0u64;
    let mut fold = |sealed: Vec<SealedSlot>,
                    scheduler: &mut RetrainScheduler,
                    outcomes: &mut Vec<ServeOutcome>| {
        if !sealed.is_empty() {
            // One `ingest_seal` span per non-empty seal fold: a
            // deterministic count (the seal stream is a pure function of
            // the record prefix), weighted by slot-hours sealed.
            let mut span = tracer.root("ingest_seal");
            span.arg("slots", sealed.len());
            span.add_bytes((sealed.len() * std::mem::size_of::<SealedSlot>()) as u64);
            slots_sealed += sealed.len() as u64;
            for slot in &sealed {
                scheduler.on_sealed(slot);
            }
        }
        if scheduler.has_pending() {
            outcomes.extend(scheduler.drain(&service));
        }
    };
    for record in records {
        let sealed = aggregator.observe(record);
        fold(sealed, &mut scheduler, &mut outcomes);
    }
    let sealed = aggregator.seal_all();
    fold(sealed, &mut scheduler, &mut outcomes);

    let mut models = Vec::new();
    for vehicle in scheduler.modeled_vehicles() {
        if let Some(stored) = service
            .store()
            .peek(vup_fleetsim::fleet::VehicleId(vehicle), service.config())
        {
            let saved =
                serde_json::to_string(&stored.predictor.save()).expect("predictor serializes");
            models.push(ModelDigest {
                vehicle_id: vehicle,
                trained_at: stored.trained_at,
                digest: format!("{:016x}", fnv1a(FNV_PRIME, saved.as_bytes())),
            });
        }
    }

    Ok(ReplayReport {
        records_replayed: records.len() as u64,
        days_sealed: aggregator.days_sealed(),
        slots_sealed,
        out_of_order: aggregator.out_of_order(),
        decisions: scheduler.decisions().to_vec(),
        journal: ServeJournal::from_outcomes(&outcomes),
        models,
        recovery: None,
    })
}
