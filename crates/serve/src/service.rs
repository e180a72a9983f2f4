//! Batched fleet prediction service.
//!
//! [`PredictionService::serve_batch`] answers a batch of
//! `(vehicle, horizon)` requests in two phases, both dispatched on the
//! lock-free [`vup_core::executor`]:
//!
//! 1. **Prepare** — the distinct vehicles of the batch get their scenario
//!    views built in parallel; the coordinating thread then consults the
//!    [`ModelStore`] and schedules a parallel (re)training pass for every
//!    vehicle whose model is missing or has aged past `retrain_every`.
//!    Freshly trained models are inserted back into the store in one pass
//!    on the coordinating thread.
//! 2. **Serve** — every request rolls its vehicle's model forward with
//!    [`vup_core::forecast::forecast_horizon`], reading only `Arc`
//!    snapshots. No lock of any kind is taken inside executor workers.
//!
//! The serve path degrades instead of failing. Each (re)train runs as a
//! *fit episode* under the service's [`ResilienceConfig`]: bounded
//! retries with deterministic virtual-time backoff, an optional
//! virtual-nanosecond deadline budget, and a per-vehicle
//! [`CircuitBreaker`] that sheds a repeatedly failing primary. When the
//! primary path fails terminally (or the breaker rejects it), the
//! configured baseline fallback fits on the same view and serves a
//! [`ServePath::Degraded`] forecast; only when no fallback is configured
//! (or it fails too) does the request end as [`ServeOutcome::Failed`].
//! [`PredictionService::serve_degraded`] takes the same fallback step for
//! a whole request slice, which is how a shard coordinator answers for a
//! shard that did not.
//! A panic while training is captured by the executor and handled like
//! any other failed attempt; a panic while serving surfaces as that
//! request's [`ServeOutcome::Failed`]. The rest of the batch is
//! unaffected either way. [`ServeOutcome::Skipped`] is reserved for
//! requests that never reach the model path (unknown vehicle, zero
//! horizon, view-build panic).
//!
//! `serve_batch` may be called from many threads at once. A batch is
//! *admitted* before it runs: it waits until no batch in flight holds
//! any of its vehicles, then holds them all and takes the next batch
//! index, in one critical section. Batches on disjoint vehicles run
//! concurrently; batches that share a vehicle run one after the other
//! in batch-index order. Every piece of state a batch touches — a
//! vehicle's store entry, breaker state, fault stream, fit scratch — is
//! keyed by vehicle, so each vehicle sees its batches in index order and
//! every outcome equals that of a serial run in index order (`DESIGN.md`
//! §4.4).
//!
//! Every outcome — served, degraded, skipped, or failed — carries a
//! [`Provenance`] record
//! answering "which model produced this number and why": the config
//! fingerprint, the path through the cache ([`ServePath`]), the training
//! window bounds, the selected lags, and per-stage wall-clock nanos.
//! [`ServeJournal`] collects a batch's records for serialization.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use serde::{Deserialize, Serialize};
use vup_core::forecast::forecast_horizon;
use vup_core::{
    executor, FittedPredictor, ModelSpec, PipelineConfig, Scenario, Strategy, VehicleView,
};
use vup_fleetsim::fleet::{Fleet, VehicleId};
use vup_ml::baseline::BaselineSpec;
use vup_ml::instrument::MlTimers;
use vup_obs::{Buckets, Counter, Gauge, Histogram, Registry, SpanCtx, Tracer};

use crate::faults::{FaultInjector, FaultPlan, FitFault};
use crate::persist::RecoveryStats;
use crate::resilience::{
    BreakerDecision, BreakerState, BreakerTransition, CircuitBreaker, ResilienceConfig,
};
use crate::store::{Lookup, ModelStore, StoredModel};

/// Registry handles for the service's own metrics. All no-ops for a
/// service built with [`PredictionService::new`].
struct ServeMetrics {
    /// `vup_serve_batches_total` — `serve_batch` calls.
    batches: Counter,
    /// `vup_serve_requests_total` — individual requests across batches.
    requests: Counter,
    /// `vup_serve_outcomes_total{outcome="served"}` — cache-hit serves.
    served: Counter,
    /// `vup_serve_outcomes_total{outcome="retrained"}` — retrain-then-serve.
    retrained: Counter,
    /// `vup_serve_outcomes_total{outcome="skipped"}` — requests that
    /// never reached the model path.
    skipped: Counter,
    /// `vup_serve_outcomes_total{outcome="degraded"}` — requests served
    /// by the baseline fallback after the primary path failed.
    degraded: Counter,
    /// `vup_serve_outcomes_total{outcome="failed"}` — requests whose
    /// primary path failed with no (working) fallback.
    failed: Counter,
    /// `vup_serve_retries_total` — fit attempts beyond each episode's
    /// first.
    retries: Counter,
    /// `vup_serve_deadline_exceeded_total` — fit episodes stopped by the
    /// virtual-time deadline budget.
    deadline_exceeded: Counter,
    /// `vup_serve_faults_injected_total` — injected faults that fired
    /// (errors, panics, delays, store poisonings).
    faults_injected: Counter,
    /// `vup_serve_breaker_transitions_total{to="open"}`.
    breaker_to_open: Counter,
    /// `vup_serve_breaker_transitions_total{to="half_open"}`.
    breaker_to_half_open: Counter,
    /// `vup_serve_breaker_transitions_total{to="closed"}`.
    breaker_to_closed: Counter,
    /// `vup_serve_breaker_rejections_total` — primary paths shed by an
    /// open breaker.
    breaker_rejections: Counter,
    /// `vup_serve_breaker_open` — vehicles whose breaker is currently
    /// open; the [`CircuitBreaker`] sets it.
    breaker_open: Gauge,
    /// `vup_serve_stage_nanos{stage="view_build"}` — per-vehicle scenario
    /// view construction (the feature-build stage).
    stage_view: Histogram,
    /// `vup_serve_stage_nanos{stage="fit"}` — per-vehicle (re)training.
    stage_fit: Histogram,
    /// `vup_serve_stage_nanos{stage="predict"}` — per-request horizon
    /// roll-forward.
    stage_predict: Histogram,
}

impl ServeMetrics {
    fn register(registry: &Registry) -> ServeMetrics {
        registry.describe(
            "vup_serve_batches_total",
            "Batches answered by PredictionService::serve_batch.",
        );
        registry.describe(
            "vup_serve_requests_total",
            "Individual prediction requests across all batches.",
        );
        registry.describe(
            "vup_serve_outcomes_total",
            "Request outcomes by kind; the series sum to the request count.",
        );
        registry.describe(
            "vup_serve_stage_nanos",
            "Serve pipeline stage latency (view_build, fit, predict).",
        );
        registry.describe(
            "vup_serve_retries_total",
            "Fit attempts beyond each episode's first.",
        );
        registry.describe(
            "vup_serve_deadline_exceeded_total",
            "Fit episodes stopped by the virtual-time deadline budget.",
        );
        registry.describe(
            "vup_serve_faults_injected_total",
            "Injected chaos faults that fired (errors, panics, delays, poisonings).",
        );
        registry.describe(
            "vup_serve_breaker_transitions_total",
            "Circuit-breaker state transitions by target state.",
        );
        registry.describe(
            "vup_serve_breaker_rejections_total",
            "Primary fit paths shed by an open circuit breaker.",
        );
        registry.describe(
            "vup_serve_breaker_open",
            "Vehicles whose circuit breaker is currently open.",
        );
        let transition = |to: &'static str| {
            registry.counter_with("vup_serve_breaker_transitions_total", &[("to", to)])
        };
        let stage = |name: &'static str| {
            registry.histogram_with(
                "vup_serve_stage_nanos",
                &[("stage", name)],
                Buckets::latency(),
            )
        };
        ServeMetrics {
            batches: registry.counter("vup_serve_batches_total"),
            requests: registry.counter("vup_serve_requests_total"),
            served: registry.counter_with("vup_serve_outcomes_total", &[("outcome", "served")]),
            retrained: registry
                .counter_with("vup_serve_outcomes_total", &[("outcome", "retrained")]),
            skipped: registry.counter_with("vup_serve_outcomes_total", &[("outcome", "skipped")]),
            degraded: registry.counter_with("vup_serve_outcomes_total", &[("outcome", "degraded")]),
            failed: registry.counter_with("vup_serve_outcomes_total", &[("outcome", "failed")]),
            retries: registry.counter("vup_serve_retries_total"),
            deadline_exceeded: registry.counter("vup_serve_deadline_exceeded_total"),
            faults_injected: registry.counter("vup_serve_faults_injected_total"),
            breaker_to_open: transition("open"),
            breaker_to_half_open: transition("half_open"),
            breaker_to_closed: transition("closed"),
            breaker_rejections: registry.counter("vup_serve_breaker_rejections_total"),
            breaker_open: registry.gauge("vup_serve_breaker_open"),
            stage_view: stage("view_build"),
            stage_fit: stage("fit"),
            stage_predict: stage("predict"),
        }
    }
}

/// One prediction request: the next `horizon` scenario days of a vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRequest {
    /// The vehicle to predict for.
    pub vehicle_id: VehicleId,
    /// How many scenario days ahead to predict (≥ 1).
    pub horizon: usize,
}

/// Which path a request took through the model cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServePath {
    /// Served from a model already fresh in the [`ModelStore`].
    CacheHit,
    /// No cached model existed; the vehicle was trained this batch.
    RetrainedAbsent,
    /// A cached model existed but had aged past `retrain_every`; the
    /// vehicle was retrained this batch.
    RetrainedStale,
    /// The primary path failed (or the circuit breaker rejected it) and
    /// the baseline fallback served instead.
    Degraded,
    /// The request produced no forecast.
    Failed,
}

impl ServePath {
    /// Stable lowercase label (journal summaries, CLI output).
    pub fn as_str(&self) -> &'static str {
        match self {
            ServePath::CacheHit => "cache_hit",
            ServePath::RetrainedAbsent => "retrained_absent",
            ServePath::RetrainedStale => "retrained_stale",
            ServePath::Degraded => "degraded",
            ServePath::Failed => "failed",
        }
    }
}

/// Wall-clock nanoseconds a request spent in each serve stage.
///
/// All zero when the service was built without a live registry (the
/// disabled path never reads the clock). Stages shared by several
/// requests of one vehicle (view build, fit) repeat the per-vehicle cost
/// in each request's record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageNanos {
    /// Scenario view construction for the request's vehicle.
    pub view_build: u64,
    /// Model (re)training for the request's vehicle (0 on a cache hit).
    pub fit: u64,
    /// Horizon roll-forward for this request.
    pub predict: u64,
}

/// Where a forecast came from: the full decision trail of one request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provenance {
    /// The vehicle the request was for.
    pub vehicle_id: u32,
    /// Requested horizon.
    pub horizon: usize,
    /// Fingerprint of the serving [`PipelineConfig`]
    /// ([`ModelStore::fingerprint`]) — ties the record to the exact
    /// model/feature/window configuration. It is the store's
    /// FNV-1a-shaped hash with [`crate::frame::STORE_HASH_PRIME`], not the
    /// published FNV-1a.
    pub config_fingerprint: u64,
    /// Display label of the model family (`"LR"`, `"RF"`, `"LV"`, …).
    pub model_label: String,
    /// How the request travelled through the cache.
    pub path: ServePath,
    /// Slot the serving model's training window ended at (exclusive);
    /// `None` when no model served the request.
    pub trained_at: Option<usize>,
    /// Slot the training window started at; `None` when no model served
    /// the request.
    pub train_from: Option<usize>,
    /// Autocorrelation lags the serving model selected (empty for
    /// baselines and failed requests).
    pub selected_lags: Vec<usize>,
    /// Failure reason for [`ServePath::Failed`] records.
    pub reason: Option<String>,
    /// Per-stage wall-clock cost (zeros without a live registry).
    pub stage_nanos: StageNanos,
}

impl Provenance {
    fn failed(
        vehicle_id: u32,
        horizon: usize,
        config_fingerprint: u64,
        model_label: &str,
        reason: String,
        stage_nanos: StageNanos,
    ) -> Provenance {
        Provenance {
            vehicle_id,
            horizon,
            config_fingerprint,
            model_label: model_label.to_string(),
            path: ServePath::Failed,
            trained_at: None,
            train_from: None,
            selected_lags: Vec::new(),
            reason: Some(reason),
            stage_nanos,
        }
    }
}

/// Equality ignores `stage_nanos`: wall-clock timings are machine noise,
/// not forecast semantics, so observed and unobserved runs of the same
/// batch compare equal.
impl PartialEq for Provenance {
    fn eq(&self, other: &Provenance) -> bool {
        self.vehicle_id == other.vehicle_id
            && self.horizon == other.horizon
            && self.config_fingerprint == other.config_fingerprint
            && self.model_label == other.model_label
            && self.path == other.path
            && self.trained_at == other.trained_at
            && self.train_from == other.train_from
            && self.selected_lags == other.selected_lags
            && self.reason == other.reason
    }
}

/// A batch's provenance records in request order, ready to serialize.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeJournal {
    /// One record per request, in request order.
    pub records: Vec<Provenance>,
    /// Startup recovery of the durable store this batch served from, if
    /// the service warm-started from disk ([`crate::ModelStore::open`]).
    pub recovery: Option<RecoveryStats>,
}

impl ServeJournal {
    /// Collects the provenance of every outcome (served and skipped) in
    /// request order.
    pub fn from_outcomes(outcomes: &[ServeOutcome]) -> ServeJournal {
        ServeJournal {
            records: outcomes.iter().map(|o| o.provenance().clone()).collect(),
            recovery: None,
        }
    }

    /// Attaches the durable store's startup [`RecoveryStats`] so the
    /// journal records not just what was served but what survived the
    /// last crash.
    pub fn with_recovery(mut self, recovery: Option<RecoveryStats>) -> ServeJournal {
        self.recovery = recovery;
        self
    }

    /// Pretty-printed JSON of the journal.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("journal serialization cannot fail")
    }

    /// Parses a journal back from [`ServeJournal::to_json`] output.
    pub fn from_json(text: &str) -> Result<ServeJournal, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// A served multi-step forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// The vehicle the forecast is for.
    pub vehicle_id: u32,
    /// Requested horizon.
    pub horizon: usize,
    /// Predicted utilization hours, nearest scenario day first.
    pub hours: Vec<f64>,
    /// Slot the serving model's training window ended at.
    pub trained_at: usize,
    /// Where the forecast came from.
    pub provenance: Provenance,
}

/// Per-request outcome of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// Served from a model already cached in the [`ModelStore`].
    Served(Forecast),
    /// The cached model was absent or stale; the vehicle was retrained
    /// during this batch, then served.
    RetrainedThenServed(Forecast),
    /// The primary model path failed (fit error, deadline, open breaker)
    /// and the baseline fallback served this forecast instead. The
    /// provenance path is [`ServePath::Degraded`] and its `reason` holds
    /// the primary failure.
    Degraded(Forecast),
    /// The request never reached the model path (unknown vehicle, zero
    /// horizon, view-build panic).
    Skipped {
        /// The vehicle of the unserveable request.
        vehicle_id: u32,
        /// Why it was skipped.
        reason: String,
        /// Provenance of the failure (path is [`ServePath::Failed`]).
        provenance: Provenance,
    },
    /// The primary path failed and no fallback was configured (or the
    /// fallback failed too); the request produced no forecast.
    Failed {
        /// The vehicle of the failed request.
        vehicle_id: u32,
        /// The underlying error, preserved verbatim for the CLI table
        /// and the [`ServeJournal`].
        error: String,
        /// Provenance of the failure (path is [`ServePath::Failed`],
        /// `reason` repeats the error).
        provenance: Provenance,
    },
}

impl ServeOutcome {
    /// The forecast, if one was produced (degraded serves included).
    pub fn forecast(&self) -> Option<&Forecast> {
        match self {
            ServeOutcome::Served(f)
            | ServeOutcome::RetrainedThenServed(f)
            | ServeOutcome::Degraded(f) => Some(f),
            ServeOutcome::Skipped { .. } | ServeOutcome::Failed { .. } => None,
        }
    }

    /// Whether this outcome was served straight from the cache.
    pub fn is_cache_hit(&self) -> bool {
        matches!(self, ServeOutcome::Served(_))
    }

    /// Whether the baseline fallback served this request.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ServeOutcome::Degraded(_))
    }

    /// The provenance record — present on every outcome, failed or not.
    pub fn provenance(&self) -> &Provenance {
        match self {
            ServeOutcome::Served(f)
            | ServeOutcome::RetrainedThenServed(f)
            | ServeOutcome::Degraded(f) => &f.provenance,
            ServeOutcome::Skipped { provenance, .. } | ServeOutcome::Failed { provenance, .. } => {
                provenance
            }
        }
    }
}

/// How a vehicle left the prepare phase.
enum Prepared {
    /// A model (primary or fallback) is ready to serve. `path` is
    /// [`ServePath::Degraded`] exactly when `degraded_reason` is set.
    Ready {
        view: Arc<VehicleView>,
        model: Arc<StoredModel>,
        path: ServePath,
        view_nanos: u64,
        fit_nanos: u64,
        degraded_reason: Option<String>,
    },
    /// The request never reached the model path → [`ServeOutcome::Skipped`].
    Invalid { reason: String, view_nanos: u64 },
    /// The model path failed with no working fallback
    /// → [`ServeOutcome::Failed`].
    Failed {
        reason: String,
        view_nanos: u64,
        fit_nanos: u64,
    },
}

/// How one vehicle's fit episode (all retry attempts) ended.
enum FitEpisode {
    /// Some attempt produced a model (boxed: a fitted predictor dwarfs
    /// the failure variants).
    Fitted {
        predictor: Box<FittedPredictor>,
        attempts: u32,
        injected: u64,
    },
    /// Every attempt failed; `error` is the last attempt's.
    Failed {
        error: String,
        attempts: u32,
        injected: u64,
    },
    /// The virtual-time budget ran out before the attempts did.
    DeadlineExceeded {
        error: String,
        attempts: u32,
        injected: u64,
    },
}

/// Where the service gets a vehicle's scenario view from. The default
/// ([`FleetViews`]) regenerates the full synthetic history on every
/// build; a streaming deployment substitutes a source backed by
/// incrementally aggregated telemetry (see `vup-ingest`), which serves
/// the same views without re-reading history.
///
/// Implementations must be deterministic: the same `(fleet, id,
/// scenario)` and underlying data must yield the same view bit for
/// bit, because views are built in parallel and the serve path's
/// reproducibility contract rests on them.
pub trait ViewSource: Send + Sync {
    /// Builds the full scenario view for `id`, or `None` if the
    /// vehicle is unknown to this source.
    fn build_view(&self, fleet: &Fleet, id: VehicleId, scenario: Scenario) -> Option<VehicleView>;

    /// Whether a vehicle's full view is immutable for the source's
    /// lifetime. Static sources let the service memoize built views
    /// across batches (the dominant cost of a warm cache hit); live
    /// sources — e.g. telemetry aggregation that appends sealed days —
    /// must keep the default `false` so every batch sees fresh data.
    fn is_static(&self) -> bool {
        false
    }
}

/// The default [`ViewSource`]: regenerate each view from the synthetic
/// fleet history.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetViews;

impl ViewSource for FleetViews {
    fn build_view(&self, fleet: &Fleet, id: VehicleId, scenario: Scenario) -> Option<VehicleView> {
        fleet.vehicle(id)?;
        Some(VehicleView::build(fleet, id, scenario))
    }

    /// Synthetic histories are a pure function of `(fleet, id,
    /// scenario)`, so memoization is exact.
    fn is_static(&self) -> bool {
        true
    }
}

/// Per-vehicle batch admission (see the module docs): the vehicles held
/// by batches in flight, the next batch index, and the signal that some
/// vehicles were released.
#[derive(Default)]
struct Admission {
    state: Mutex<InFlight>,
    released: Condvar,
}

#[derive(Default)]
struct InFlight {
    held: HashSet<VehicleId>,
    /// Monotone batch index — the breaker's and fault injector's notion
    /// of time.
    next_batch: u64,
}

impl Admission {
    /// Waits until no batch in flight holds any of `vehicles`, then
    /// holds them all and takes the next batch index. The returned guard
    /// releases the vehicles when dropped, also while unwinding.
    fn admit<'a>(&'a self, vehicles: &'a [VehicleId]) -> (u64, Admitted<'a>) {
        let mut state = self.state.lock().expect("admission lock");
        while vehicles.iter().any(|id| state.held.contains(id)) {
            state = self.released.wait(state).expect("admission lock");
        }
        state.held.extend(vehicles.iter().copied());
        let batch = state.next_batch;
        state.next_batch += 1;
        (
            batch,
            Admitted {
                admission: self,
                vehicles,
            },
        )
    }
}

/// The vehicles an admitted batch holds.
struct Admitted<'a> {
    admission: &'a Admission,
    vehicles: &'a [VehicleId],
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        let mut state = self.admission.state.lock().expect("admission lock");
        for id in self.vehicles {
            state.held.remove(id);
        }
        drop(state);
        self.admission.released.notify_all();
    }
}

/// Batched per-vehicle prediction over one fleet.
pub struct PredictionService<'f> {
    fleet: &'f Fleet,
    config: PipelineConfig,
    views: Arc<dyn ViewSource>,
    store: ModelStore,
    n_threads: usize,
    metrics: ServeMetrics,
    ml_timers: MlTimers,
    executor_metrics: executor::ExecutorMetrics,
    tracer: Tracer,
    resilience: ResilienceConfig,
    faults: FaultInjector,
    breaker: CircuitBreaker,
    admission: Admission,
    /// Memoized full views, populated only when the source
    /// [`ViewSource::is_static`]; `as_of` truncation happens per batch on
    /// top of the cached full view.
    view_cache: RwLock<HashMap<VehicleId, Arc<VehicleView>>>,
    /// Per-vehicle [`TrainArena`]s reused across a vehicle's fit
    /// episodes; taken out for the duration of an episode, so the lock is
    /// only held for the map operations. Scratch only — contents never
    /// influence what is fitted.
    fit_scratch: Mutex<HashMap<VehicleId, vup_ml::TrainArena>>,
}

impl<'f> PredictionService<'f> {
    /// Creates a service for `fleet` under `config`. `n_threads` caps the
    /// executor workers (0 = available parallelism).
    pub fn new(
        fleet: &'f Fleet,
        config: PipelineConfig,
        n_threads: usize,
    ) -> vup_core::Result<PredictionService<'f>> {
        Self::new_observed(fleet, config, n_threads, &Registry::disabled())
    }

    /// [`PredictionService::new`] with observability: batch/request and
    /// per-outcome counters, per-stage latency histograms
    /// (`vup_serve_stage_nanos{stage="view_build"|"fit"|"predict"}`),
    /// model-store cache counters, ML fit/predict timing, and executor
    /// worker stats under `pool="serve"` — all recorded into `registry`.
    /// With a disabled registry this is exactly [`PredictionService::new`]:
    /// forecasts are bit-identical and no clock is read.
    pub fn new_observed(
        fleet: &'f Fleet,
        config: PipelineConfig,
        n_threads: usize,
        registry: &Registry,
    ) -> vup_core::Result<PredictionService<'f>> {
        config.validate()?;
        Ok(PredictionService {
            fleet,
            config,
            views: Arc::new(FleetViews),
            store: ModelStore::observed(registry),
            n_threads,
            metrics: ServeMetrics::register(registry),
            ml_timers: MlTimers::register(registry),
            executor_metrics: executor::ExecutorMetrics::register(registry, "serve"),
            tracer: Tracer::disabled(),
            resilience: ResilienceConfig::default(),
            faults: FaultInjector::default(),
            breaker: CircuitBreaker::default(),
            admission: Admission::default(),
            view_cache: RwLock::new(HashMap::new()),
            fit_scratch: Mutex::new(HashMap::new()),
        })
    }

    /// Installs a resilience profile: bounded retries with deterministic
    /// virtual-time backoff for fit episodes, an optional
    /// virtual-nanosecond deadline budget, a per-vehicle circuit
    /// breaker, and a baseline fallback that serves
    /// [`ServePath::Degraded`] forecasts when the primary path fails.
    /// The default config reproduces the legacy single-attempt
    /// behaviour exactly.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> PredictionService<'f> {
        self.breaker =
            CircuitBreaker::observed(resilience.breaker, self.metrics.breaker_open.clone());
        self.resilience = resilience;
        self
    }

    /// Installs a seeded chaos plan: every injection decision is a pure
    /// hash of `(seed, vehicle, batch, attempt)`, so a chaos run repeats
    /// bit for bit at any thread count.
    pub fn with_faults(mut self, plan: FaultPlan) -> PredictionService<'f> {
        self.faults = FaultInjector::new(plan);
        self
    }

    /// The active resilience configuration.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// The per-vehicle circuit breaker (disabled under the default
    /// resilience config).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Attaches a tracer: every batch records a `serve_batch` span tree
    /// (prepare → per-vehicle `view_build`/`fit`, serve → per-request
    /// `predict`, plus `executor_worker` and nested `ml_fit` spans).
    /// A disabled tracer keeps the span path clock-free; forecasts are
    /// bit-identical either way.
    pub fn with_tracer(mut self, tracer: Tracer) -> PredictionService<'f> {
        self.tracer = tracer;
        self
    }

    /// Replaces the service's model cache — the way to serve from a
    /// durable, warm-started store ([`ModelStore::open`] /
    /// [`ModelStore::open_with`]): recovered models serve as cache hits,
    /// and every retrain is written through to disk with a
    /// `store_persist` span under the batch's prepare phase. Build the
    /// store against the same registry as the service so its metrics
    /// land in one place.
    pub fn with_store(mut self, store: ModelStore) -> PredictionService<'f> {
        self.store = store;
        self
    }

    /// Retires a service that a successor built against the same
    /// registry replaces (a restarted shard): its cached models and
    /// open breakers leave the shared `vup_store_models` and
    /// `vup_serve_breaker_open` gauges, which the successor's recovered
    /// store and fresh breaker then count.
    pub fn retire(self) {
        self.store.untrack_gauge();
        self.breaker.untrack_gauge();
    }

    /// Replaces where views come from (default: [`FleetViews`]). A
    /// streaming deployment points this at incrementally aggregated
    /// telemetry so serving never regenerates history.
    pub fn with_views(mut self, views: Arc<dyn ViewSource>) -> PredictionService<'f> {
        self.views = views;
        // Memoized views belong to the previous source.
        self.view_cache.get_mut().expect("view cache lock").clear();
        self
    }

    /// The service's model cache.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// The configuration every request is served under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Serves a batch of requests, returning one outcome per request in
    /// request order.
    ///
    /// `as_of` bounds each vehicle's series to its first `as_of` slots,
    /// replaying the service "as of" an earlier day (`None` = the full
    /// observed series). Models are cached across calls: a vehicle whose
    /// cached model is still within `retrain_every` slots of the series
    /// end is served without retraining.
    ///
    /// Safe to call from many threads: the batch first waits for every
    /// batch in flight that shares one of its vehicles (see the module
    /// docs), and runs alongside the rest.
    pub fn serve_batch(
        &self,
        requests: &[BatchRequest],
        as_of: Option<usize>,
    ) -> Vec<ServeOutcome> {
        let vehicles = distinct_vehicles(requests);
        let (batch, _admitted) = self.admission.admit(&vehicles);
        self.metrics.batches.inc();
        self.metrics.requests.add(requests.len() as u64);
        let mut batch_span = self.tracer.root("serve_batch");
        batch_span.arg("requests", requests.len());
        batch_span.arg("batch", batch);

        let prepared = self.prepare(&vehicles, as_of, &batch_span.ctx(), batch);
        let outcomes = self.serve_prepared(requests, &prepared, &batch_span.ctx());

        // One counting pass on the coordinating thread; every request
        // lands in exactly one outcome series, so the five series sum to
        // the request count.
        let (mut served, mut retrained, mut degraded, mut skipped, mut failed) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for outcome in &outcomes {
            match outcome {
                ServeOutcome::Served(_) => served += 1,
                ServeOutcome::RetrainedThenServed(_) => retrained += 1,
                ServeOutcome::Degraded(_) => degraded += 1,
                ServeOutcome::Skipped { .. } => skipped += 1,
                ServeOutcome::Failed { .. } => failed += 1,
            }
        }
        self.metrics.served.add(served);
        self.metrics.retrained.add(retrained);
        self.metrics.degraded.add(degraded);
        self.metrics.skipped.add(skipped);
        self.metrics.failed.add(failed);
        batch_span.arg("served", served);
        batch_span.arg("retrained", retrained);
        batch_span.arg("degraded", degraded);
        batch_span.arg("skipped", skipped);
        batch_span.arg("failed", failed);
        outcomes
    }

    /// Phase 2: serves every request from the prepared snapshots under a
    /// `serve` span, in request order. A panicking request becomes that
    /// request's [`ServeOutcome::Failed`].
    fn serve_prepared(
        &self,
        requests: &[BatchRequest],
        prepared: &HashMap<VehicleId, Prepared>,
        parent: &SpanCtx,
    ) -> Vec<ServeOutcome> {
        let fingerprint = ModelStore::fingerprint(&self.config);
        let config_label = self.config.model.label();
        let serve_span = parent.child("serve");
        let serve_ctx = serve_span.ctx();
        let (outcomes, _) = executor::run(
            requests.len(),
            self.n_threads,
            &self.executor_metrics,
            &serve_ctx,
            |i| {
                let request = &requests[i];
                let id = request.vehicle_id.0;
                let mut span = serve_ctx.child("predict");
                span.arg("vehicle", id);
                span.arg("horizon", request.horizon);
                if request.horizon == 0 {
                    let reason = "horizon must be at least 1".to_string();
                    return ServeOutcome::Skipped {
                        vehicle_id: id,
                        reason: reason.clone(),
                        provenance: Provenance::failed(
                            id,
                            0,
                            fingerprint,
                            config_label,
                            reason,
                            StageNanos::default(),
                        ),
                    };
                }
                match prepared.get(&request.vehicle_id) {
                    Some(Prepared::Ready {
                        view,
                        model,
                        path,
                        view_nanos,
                        fit_nanos,
                        degraded_reason,
                    }) => {
                        let timer = self.metrics.stage_predict.start_timer();
                        let rolled =
                            forecast_horizon(&model.predictor, view, self.fleet, request.horizon);
                        let stage_nanos = StageNanos {
                            view_build: *view_nanos,
                            fit: *fit_nanos,
                            predict: timer.stop(),
                        };
                        match rolled {
                            Ok(hours) => {
                                let provenance = Provenance {
                                    vehicle_id: id,
                                    horizon: request.horizon,
                                    config_fingerprint: fingerprint,
                                    model_label: model.predictor.label().to_string(),
                                    path: *path,
                                    trained_at: Some(model.trained_at),
                                    train_from: Some(self.train_window_start(model.trained_at)),
                                    selected_lags: model.predictor.selected_lags().to_vec(),
                                    reason: degraded_reason.clone(),
                                    stage_nanos,
                                };
                                let forecast = Forecast {
                                    vehicle_id: id,
                                    horizon: request.horizon,
                                    hours,
                                    trained_at: model.trained_at,
                                    provenance,
                                };
                                match path {
                                    ServePath::CacheHit => ServeOutcome::Served(forecast),
                                    ServePath::Degraded => ServeOutcome::Degraded(forecast),
                                    _ => ServeOutcome::RetrainedThenServed(forecast),
                                }
                            }
                            Err(e) => {
                                let error = e.to_string();
                                ServeOutcome::Failed {
                                    vehicle_id: id,
                                    error: error.clone(),
                                    provenance: Provenance::failed(
                                        id,
                                        request.horizon,
                                        fingerprint,
                                        model.predictor.label(),
                                        error,
                                        stage_nanos,
                                    ),
                                }
                            }
                        }
                    }
                    Some(Prepared::Invalid { reason, view_nanos }) => ServeOutcome::Skipped {
                        vehicle_id: id,
                        reason: reason.clone(),
                        provenance: Provenance::failed(
                            id,
                            request.horizon,
                            fingerprint,
                            config_label,
                            reason.clone(),
                            StageNanos {
                                view_build: *view_nanos,
                                fit: 0,
                                predict: 0,
                            },
                        ),
                    },
                    Some(Prepared::Failed {
                        reason,
                        view_nanos,
                        fit_nanos,
                    }) => ServeOutcome::Failed {
                        vehicle_id: id,
                        error: reason.clone(),
                        provenance: Provenance::failed(
                            id,
                            request.horizon,
                            fingerprint,
                            config_label,
                            reason.clone(),
                            StageNanos {
                                view_build: *view_nanos,
                                fit: *fit_nanos,
                                predict: 0,
                            },
                        ),
                    },
                    None => unreachable!("every request vehicle was prepared"),
                }
            },
        );
        drop(serve_span);

        outcomes
            .into_iter()
            .zip(requests)
            .map(|(result, request)| {
                result.unwrap_or_else(|message| {
                    let error = format!("worker panicked: {message}");
                    ServeOutcome::Failed {
                        vehicle_id: request.vehicle_id.0,
                        error: error.clone(),
                        provenance: Provenance::failed(
                            request.vehicle_id.0,
                            request.horizon,
                            fingerprint,
                            config_label,
                            error,
                            StageNanos::default(),
                        ),
                    }
                })
            })
            .collect()
    }

    /// Serves `requests` on the `fallback` baseline without consulting
    /// the primary model, the store or the circuit breaker: each known
    /// vehicle gets one `fallback_fit` (the same `degrade` step a
    /// failed primary takes inside a batch) and every request on it is
    /// answered [`ServeOutcome::Degraded`] with `reason` in its
    /// provenance. Unknown vehicles and zero horizons are skipped as in
    /// [`PredictionService::serve_batch`].
    ///
    /// A shard coordinator calls this on a shard that died, stalled or
    /// refused, so its vehicles are still answered. The requests are not
    /// counted in `vup_serve_requests_total` or
    /// `vup_serve_outcomes_total`: a stalled shard has already counted
    /// them in its own late `serve_batch`.
    pub fn serve_degraded(
        &self,
        requests: &[BatchRequest],
        as_of: Option<usize>,
        reason: &str,
        fallback: BaselineSpec,
    ) -> Vec<ServeOutcome> {
        let mut span = self.tracer.root("serve_degraded");
        span.arg("requests", requests.len());
        let ctx = span.ctx();
        let vehicles = distinct_vehicles(requests);
        let views = self.resolve_views(&vehicles, as_of, &ctx);
        let prepared: HashMap<VehicleId, Prepared> = vehicles
            .into_iter()
            .zip(views)
            .map(|(id, resolved)| {
                let entry = match resolved {
                    Ok((view, view_nanos)) => self.degrade(
                        view,
                        reason.to_string(),
                        view_nanos,
                        0,
                        Some(fallback),
                        &ctx,
                    ),
                    Err(invalid) => invalid,
                };
                (id, entry)
            })
            .collect();
        self.serve_prepared(requests, &prepared, &ctx)
    }

    /// Resolves the views of `vehicles` in parallel (the expensive part
    /// of a cache hit when the source cannot be memoized), truncated to
    /// `as_of`, each with its `view_build` nanos. A vehicle that is not
    /// in the fleet, or whose view build panicked, comes back as its
    /// [`Prepared::Invalid`] entry. The `view_build` span is emitted —
    /// with the same byte weight — on memoized resolutions too, so
    /// profile shapes and counts are independent of the cache's warmth.
    fn resolve_views(
        &self,
        vehicles: &[VehicleId],
        as_of: Option<usize>,
        parent: &SpanCtx,
    ) -> Vec<Result<(Arc<VehicleView>, u64), Prepared>> {
        let (views, _) = executor::run(
            vehicles.len(),
            self.n_threads,
            &self.executor_metrics,
            parent,
            |i| {
                let id = vehicles[i];
                let mut span = parent.child("view_build");
                span.arg("vehicle", id.0);
                let timer = self.metrics.stage_view.start_timer();
                let view = self.resolve_view(id).map(|full| match as_of {
                    Some(n) => Arc::new(full.truncated(n)),
                    None => full,
                });
                if let Some(view) = &view {
                    // Wall-free workload weight for the profile layer:
                    // the slots the view exposes, in bytes.
                    span.add_bytes(
                        (view.len() * std::mem::size_of::<vup_core::view::Slot>()) as u64,
                    );
                }
                (view, timer.stop())
            },
        );
        vehicles
            .iter()
            .zip(views)
            .map(|(id, result)| match result {
                Ok((Some(view), view_nanos)) => Ok((view, view_nanos)),
                Ok((None, view_nanos)) => Err(Prepared::Invalid {
                    reason: format!("vehicle {} not in fleet", id.0),
                    view_nanos,
                }),
                Err(message) => Err(Prepared::Invalid {
                    reason: format!("worker panicked: {message}"),
                    view_nanos: 0,
                }),
            })
            .collect()
    }

    /// Phase 1: builds views for the distinct vehicles, reuses fresh
    /// cached models, retrains the rest in parallel, and records the new
    /// models in the store.
    fn prepare(
        &self,
        vehicles: &[VehicleId],
        as_of: Option<usize>,
        parent: &SpanCtx,
        batch: u64,
    ) -> HashMap<VehicleId, Prepared> {
        let mut prepare_span = parent.child("prepare");
        prepare_span.arg("vehicles", vehicles.len());
        let prepare_ctx = prepare_span.ctx();

        // Fault hook: poison cached models before the lookups, in
        // vehicle-sorted order on the coordinating thread.
        if self.faults.plan().is_active() {
            for &id in vehicles {
                if self.faults.poisons_store(id.0, batch) && self.store.poison(id, &self.config) {
                    self.metrics.faults_injected.inc();
                }
            }
        }

        // 1a: resolve the scenario views in parallel.
        let views = self.resolve_views(vehicles, as_of, &prepare_ctx);

        // 1b: consult the cache and the circuit breaker on the
        // coordinating thread, in vehicle-sorted order, so the breaker's
        // transition stream is deterministic at every thread count. The
        // lookup keeps the miss cause (absent vs stale) for provenance.
        let mut prepared: HashMap<VehicleId, Prepared> = HashMap::with_capacity(vehicles.len());
        let mut to_train: Vec<(VehicleId, Arc<VehicleView>, u64, ServePath)> = Vec::new();
        for (&id, resolved) in vehicles.iter().zip(views) {
            match resolved {
                Ok((view, view_nanos)) => {
                    let now = view.len();
                    match self.store.lookup(id, &self.config, now) {
                        Lookup::Hit(model) => {
                            prepared.insert(
                                id,
                                Prepared::Ready {
                                    view,
                                    model,
                                    path: ServePath::CacheHit,
                                    view_nanos,
                                    fit_nanos: 0,
                                    degraded_reason: None,
                                },
                            );
                        }
                        miss => {
                            let path = if matches!(miss, Lookup::Stale(_)) {
                                ServePath::RetrainedStale
                            } else {
                                ServePath::RetrainedAbsent
                            };
                            let (decision, transition) = self.breaker.admit(id.0, batch);
                            if let Some(t) = transition {
                                self.publish_transition(t, &prepare_ctx);
                            }
                            if decision == BreakerDecision::Reject {
                                self.metrics.breaker_rejections.inc();
                                let entry = self.degrade(
                                    view,
                                    format!("circuit breaker open for vehicle {}", id.0),
                                    view_nanos,
                                    0,
                                    self.resilience.fallback,
                                    &prepare_ctx,
                                );
                                prepared.insert(id, entry);
                            } else {
                                to_train.push((id, view, view_nanos, path));
                            }
                        }
                    }
                }
                Err(invalid) => {
                    prepared.insert(id, invalid);
                }
            }
        }

        // 1c: (re)train the misses in parallel, one retrying fit
        // episode per vehicle.
        let retrains = to_train.len();
        let (trained, _) = executor::run(
            to_train.len(),
            self.n_threads,
            &self.executor_metrics,
            &prepare_ctx,
            |i| {
                let (id, view, _, _) = &to_train[i];
                let mut span = prepare_ctx.child("fit");
                span.arg("vehicle", id.0);
                let timers = self.ml_timers.for_span(&span.ctx());
                let timer = self.metrics.stage_fit.start_timer();
                let episode = self.fit_episode(view, id.0, batch, &timers);
                (episode, timer.stop())
            },
        );

        // 1d: publish episode outcomes (store inserts, breaker records,
        // fallback fits) on the coordinating thread, vehicle-sorted.
        for ((id, view, view_nanos, path), result) in to_train.into_iter().zip(trained) {
            let entry = match result {
                Ok((
                    FitEpisode::Fitted {
                        predictor,
                        attempts,
                        injected,
                    },
                    fit_nanos,
                )) => {
                    self.metrics
                        .retries
                        .add(u64::from(attempts.saturating_sub(1)));
                    self.metrics.faults_injected.add(injected);
                    if let Some(t) = self.breaker.record(id.0, batch, true) {
                        self.publish_transition(t, &prepare_ctx);
                    }
                    let trained_at = view.len();
                    let model =
                        self.store
                            .insert(id, &self.config, *predictor, trained_at, &prepare_ctx);
                    Prepared::Ready {
                        view,
                        model,
                        path,
                        view_nanos,
                        fit_nanos,
                        degraded_reason: None,
                    }
                }
                Ok((
                    FitEpisode::Failed {
                        error,
                        attempts,
                        injected,
                    },
                    fit_nanos,
                )) => {
                    self.metrics
                        .retries
                        .add(u64::from(attempts.saturating_sub(1)));
                    self.metrics.faults_injected.add(injected);
                    self.finish_failed_episode(
                        id,
                        view,
                        error,
                        view_nanos,
                        fit_nanos,
                        batch,
                        &prepare_ctx,
                    )
                }
                Ok((
                    FitEpisode::DeadlineExceeded {
                        error,
                        attempts,
                        injected,
                    },
                    fit_nanos,
                )) => {
                    self.metrics
                        .retries
                        .add(u64::from(attempts.saturating_sub(1)));
                    self.metrics.faults_injected.add(injected);
                    self.metrics.deadline_exceeded.inc();
                    self.finish_failed_episode(
                        id,
                        view,
                        error,
                        view_nanos,
                        fit_nanos,
                        batch,
                        &prepare_ctx,
                    )
                }
                Err(message) => {
                    if message.contains("injected panic") {
                        self.metrics.faults_injected.inc();
                    }
                    self.finish_failed_episode(
                        id,
                        view,
                        format!("worker panicked: {message}"),
                        view_nanos,
                        0,
                        batch,
                        &prepare_ctx,
                    )
                }
            };
            prepared.insert(id, entry);
        }
        prepare_span.arg("retrained", retrains);
        prepared
    }

    /// One vehicle's (re)train under the retry policy, deadline budget,
    /// and fault plan. Runs inside an executor worker; all time here is
    /// *virtual* (injected delays + backoffs), so the episode is a pure
    /// function of `(vehicle, batch)` and the view. An injected panic
    /// unwinds to the executor's per-slot capture — the episode ends
    /// without in-task retries, by design (a panicking fit stage is not
    /// presumed retry-safe).
    fn fit_episode(
        &self,
        view: &VehicleView,
        vehicle: u32,
        batch: u64,
        timers: &MlTimers,
    ) -> FitEpisode {
        // Borrow the vehicle's training arena for the episode; the lock
        // guards only the map operations, never the fit itself. A panic
        // mid-episode drops the arena — the next episode starts fresh.
        let mut arena = self
            .fit_scratch
            .lock()
            .expect("fit scratch lock")
            .remove(&VehicleId(vehicle))
            .unwrap_or_default();
        let episode = self.fit_episode_inner(view, vehicle, batch, timers, &mut arena);
        self.fit_scratch
            .lock()
            .expect("fit scratch lock")
            .insert(VehicleId(vehicle), arena);
        episode
    }

    fn fit_episode_inner(
        &self,
        view: &VehicleView,
        vehicle: u32,
        batch: u64,
        timers: &MlTimers,
        arena: &mut vup_ml::TrainArena,
    ) -> FitEpisode {
        let policy = &self.resilience.retry;
        let deadline = self.resilience.deadline_nanos;
        let mut virtual_nanos: u64 = 0;
        let mut injected: u64 = 0;
        let mut attempt: u32 = 1;
        loop {
            let delay = self.faults.fit_delay_nanos(vehicle, batch, attempt);
            if delay > 0 {
                injected += 1;
                virtual_nanos = virtual_nanos.saturating_add(delay);
            }
            if let Some(budget) = deadline.filter(|&b| virtual_nanos > b) {
                return FitEpisode::DeadlineExceeded {
                    error: format!(
                        "deadline exceeded before attempt {attempt}: \
                         {virtual_nanos} virtual ns > {budget} ns budget"
                    ),
                    attempts: attempt - 1,
                    injected,
                };
            }
            let result = match self.faults.fit_fault(vehicle, batch, attempt) {
                Some(FitFault::Panic) => {
                    panic!("injected panic (vehicle {vehicle}, batch {batch}, attempt {attempt})")
                }
                Some(FitFault::Error) => {
                    injected += 1;
                    Err(format!(
                        "injected fit error (batch {batch}, attempt {attempt})"
                    ))
                }
                None => self.train(view, timers, arena).map_err(|e| e.to_string()),
            };
            match result {
                Ok(predictor) => {
                    return FitEpisode::Fitted {
                        predictor: Box::new(predictor),
                        attempts: attempt,
                        injected,
                    }
                }
                Err(error) => {
                    if attempt >= policy.max_attempts.max(1) {
                        return FitEpisode::Failed {
                            error,
                            attempts: attempt,
                            injected,
                        };
                    }
                    virtual_nanos = virtual_nanos.saturating_add(policy.backoff_nanos(attempt));
                    if let Some(budget) = deadline.filter(|&b| virtual_nanos > b) {
                        return FitEpisode::DeadlineExceeded {
                            error: format!(
                                "{error}; deadline exceeded after attempt {attempt}: \
                                 {virtual_nanos} virtual ns > {budget} ns budget"
                            ),
                            attempts: attempt,
                            injected,
                        };
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Records a failed episode with the breaker, then degrades (or
    /// fails) the vehicle. Coordinator-thread only.
    #[allow(clippy::too_many_arguments)]
    fn finish_failed_episode(
        &self,
        id: VehicleId,
        view: Arc<VehicleView>,
        error: String,
        view_nanos: u64,
        fit_nanos: u64,
        batch: u64,
        ctx: &SpanCtx,
    ) -> Prepared {
        if let Some(t) = self.breaker.record(id.0, batch, false) {
            self.publish_transition(t, ctx);
        }
        self.degrade(
            view,
            error,
            view_nanos,
            fit_nanos,
            self.resilience.fallback,
            ctx,
        )
    }

    /// Fits the `fallback` baseline on the vehicle's view and readies it
    /// under [`ServePath::Degraded`] with `reason`, under a
    /// `fallback_fit` span timed into the service's [`MlTimers`]. With no
    /// fallback the vehicle fails with `reason`. The fallback model is
    /// deliberately *not* inserted into the store: the next batch retries
    /// the primary. Coordinator-thread only.
    fn degrade(
        &self,
        view: Arc<VehicleView>,
        reason: String,
        view_nanos: u64,
        fit_nanos: u64,
        fallback: Option<BaselineSpec>,
        ctx: &SpanCtx,
    ) -> Prepared {
        let Some(spec) = fallback else {
            return Prepared::Failed {
                reason,
                view_nanos,
                fit_nanos,
            };
        };
        let mut fallback = self.config.clone();
        fallback.model = ModelSpec::Baseline(spec);
        let now = view.len();
        // Unlike the primary, the fallback window clamps instead of
        // erroring on short series — degradation should absorb exactly
        // the failures the primary cannot.
        let train_from = self.train_window_start(now);
        let mut span = ctx.child("fallback_fit");
        span.arg("vehicle", view.vehicle_id.0);
        let timers = self.ml_timers.for_span(&span.ctx());
        match FittedPredictor::fit_arena_observed(
            &view,
            &fallback,
            train_from,
            now,
            &timers,
            &mut vup_ml::TrainArena::new(),
        ) {
            Ok(predictor) => Prepared::Ready {
                view,
                model: Arc::new(StoredModel {
                    predictor,
                    trained_at: now,
                }),
                path: ServePath::Degraded,
                view_nanos,
                fit_nanos,
                degraded_reason: Some(reason),
            },
            Err(e) => Prepared::Failed {
                reason: format!("{reason}; fallback fit failed: {e}"),
                view_nanos,
                fit_nanos,
            },
        }
    }

    /// Publishes a breaker transition as a counter bump and an instant
    /// trace event.
    fn publish_transition(&self, transition: BreakerTransition, ctx: &SpanCtx) {
        let counter = match transition.to {
            BreakerState::Open => &self.metrics.breaker_to_open,
            BreakerState::HalfOpen => &self.metrics.breaker_to_half_open,
            BreakerState::Closed => &self.metrics.breaker_to_closed,
        };
        counter.inc();
        let mut event = ctx.instant("breaker_transition");
        event.arg("vehicle", transition.vehicle_id);
        event.arg("to", transition.to.as_str());
    }

    /// Fits a model on the window ending at the view's last slot,
    /// recording into `timers` (a per-span clone of the service timers).
    /// The arena is the vehicle's reusable fit scratch — successive
    /// retrains of one vehicle recover the overlapping window rows.
    fn train(
        &self,
        view: &VehicleView,
        timers: &MlTimers,
        arena: &mut vup_ml::TrainArena,
    ) -> vup_core::Result<FittedPredictor> {
        let now = view.len();
        let train_from = match self.config.strategy {
            Strategy::Sliding => {
                if now < self.config.train_window {
                    return Err(vup_ml::MlError::NotEnoughSamples {
                        required: self.config.train_window,
                        actual: now,
                    });
                }
                now - self.config.train_window
            }
            Strategy::Expanding => 0,
        };
        FittedPredictor::fit_arena_observed(view, &self.config, train_from, now, timers, arena)
    }

    /// Resolves a vehicle's *full* view, memoizing it when the source is
    /// static. Sources are deterministic (trait contract), so concurrent
    /// fills of the same vehicle insert identical views and first-insert
    /// wins; live sources bypass the cache entirely.
    fn resolve_view(&self, id: VehicleId) -> Option<Arc<VehicleView>> {
        let memoize = self.views.is_static();
        if memoize {
            if let Some(view) = self.view_cache.read().expect("view cache lock").get(&id) {
                return Some(Arc::clone(view));
            }
        }
        let built = Arc::new(
            self.views
                .build_view(self.fleet, id, self.config.scenario)?,
        );
        if memoize {
            return Some(Arc::clone(
                self.view_cache
                    .write()
                    .expect("view cache lock")
                    .entry(id)
                    .or_insert(built),
            ));
        }
        Some(built)
    }

    /// Aggregated allocation/reuse counters over the per-vehicle fit
    /// arenas — the observable the allocation-budget test harness
    /// asserts on (flat `grows` across warm batches = steady-state fits
    /// allocate no design-matrix storage).
    pub fn scratch_stats(&self) -> vup_ml::ArenaStats {
        self.fit_scratch
            .lock()
            .expect("fit scratch lock")
            .values()
            .fold(vup_ml::ArenaStats::default(), |acc, arena| {
                acc.merged(arena.stats())
            })
    }

    /// First slot of the training window that ended at `trained_at`,
    /// mirroring [`PredictionService::train`]'s window arithmetic.
    fn train_window_start(&self, trained_at: usize) -> usize {
        match self.config.strategy {
            Strategy::Sliding => trained_at.saturating_sub(self.config.train_window),
            Strategy::Expanding => 0,
        }
    }
}

/// The distinct vehicles of a batch, sorted by id.
fn distinct_vehicles(requests: &[BatchRequest]) -> Vec<VehicleId> {
    let mut vehicles: Vec<VehicleId> = requests.iter().map(|r| r.vehicle_id).collect();
    vehicles.sort_unstable();
    vehicles.dedup();
    vehicles
}

/// Truncates `text` to at most `max_chars` characters, replacing the
/// tail with `…` when anything was cut. Counts characters, not bytes,
/// so multibyte text (fault-injection reasons carry `→` and friends)
/// is never split mid-code-point.
pub fn ellipsize(text: &str, max_chars: usize) -> String {
    if text.chars().count() <= max_chars {
        return text.to_string();
    }
    let keep = max_chars.saturating_sub(1);
    let mut out: String = text.chars().take(keep).collect();
    out.push('…');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_core::ModelSpec;
    use vup_fleetsim::fleet::FleetConfig;
    use vup_ml::baseline::BaselineSpec;
    use vup_ml::RegressorSpec;

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            model: ModelSpec::Learned(RegressorSpec::Linear),
            train_window: 120,
            max_lag: 30,
            k: 10,
            retrain_every: 7,
            ..PipelineConfig::default()
        }
    }

    fn requests(ids: &[u32], horizon: usize) -> Vec<BatchRequest> {
        ids.iter()
            .map(|&id| BatchRequest {
                vehicle_id: VehicleId(id),
                horizon,
            })
            .collect()
    }

    #[test]
    fn first_batch_retrains_second_batch_serves_from_cache() {
        let fleet = Fleet::generate(FleetConfig::small(4, 11));
        let service = PredictionService::new(&fleet, fast_config(), 0).unwrap();
        let batch = requests(&[0, 1, 2, 3], 2);

        let first = service.serve_batch(&batch, None);
        assert_eq!(first.len(), 4);
        for outcome in &first {
            assert!(
                matches!(outcome, ServeOutcome::RetrainedThenServed(_)),
                "{outcome:?}"
            );
        }
        assert_eq!(service.store().len(), 4);

        let second = service.serve_batch(&batch, None);
        for (a, b) in first.iter().zip(&second) {
            assert!(b.is_cache_hit(), "{b:?}");
            let (fa, fb) = (a.forecast().unwrap(), b.forecast().unwrap());
            assert_eq!(fa.hours.len(), 2);
            let bits = |f: &Forecast| f.hours.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fa), bits(fb), "cached serve must match fresh serve");
            assert_eq!(fa.trained_at, fb.trained_at);
        }
    }

    #[test]
    fn duplicate_vehicles_in_one_batch_train_once() {
        let fleet = Fleet::generate(FleetConfig::small(2, 12));
        let service = PredictionService::new(&fleet, fast_config(), 2).unwrap();
        // Same vehicle four times with different horizons.
        let batch = vec![
            BatchRequest {
                vehicle_id: VehicleId(0),
                horizon: 1,
            },
            BatchRequest {
                vehicle_id: VehicleId(0),
                horizon: 3,
            },
            BatchRequest {
                vehicle_id: VehicleId(1),
                horizon: 1,
            },
            BatchRequest {
                vehicle_id: VehicleId(0),
                horizon: 2,
            },
        ];
        let outcomes = service.serve_batch(&batch, None);
        assert_eq!(service.store().len(), 2);
        for (request, outcome) in batch.iter().zip(&outcomes) {
            let forecast = outcome.forecast().unwrap();
            assert_eq!(forecast.vehicle_id, request.vehicle_id.0);
            assert_eq!(forecast.hours.len(), request.horizon);
        }
        // Shared-model consistency: the horizon-3 forecast starts with
        // the horizon-1 forecast.
        let h1 = outcomes[0].forecast().unwrap();
        let h3 = outcomes[1].forecast().unwrap();
        assert_eq!(h1.hours[0].to_bits(), h3.hours[0].to_bits());
    }

    #[test]
    fn bad_requests_are_skipped_with_reasons() {
        let fleet = Fleet::generate(FleetConfig::small(2, 13));
        let service = PredictionService::new(&fleet, fast_config(), 1).unwrap();
        let batch = vec![
            // Unknown vehicle.
            BatchRequest {
                vehicle_id: VehicleId(99),
                horizon: 1,
            },
            // Zero horizon.
            BatchRequest {
                vehicle_id: VehicleId(0),
                horizon: 0,
            },
            // Fine.
            BatchRequest {
                vehicle_id: VehicleId(0),
                horizon: 1,
            },
        ];
        let outcomes = service.serve_batch(&batch, None);
        match &outcomes[0] {
            ServeOutcome::Skipped {
                vehicle_id, reason, ..
            } => {
                assert_eq!(*vehicle_id, 99);
                assert!(reason.contains("not in fleet"), "{reason}");
            }
            other => panic!("expected skip, got {other:?}"),
        }
        assert!(matches!(&outcomes[1], ServeOutcome::Skipped { .. }));
        assert!(outcomes[2].forecast().is_some());
    }

    #[test]
    fn too_short_series_fails_with_the_error_not_fatal() {
        let fleet = Fleet::generate(FleetConfig::small(1, 14));
        let service = PredictionService::new(&fleet, fast_config(), 1).unwrap();
        // as_of smaller than the training window; no fallback configured
        // under the default resilience profile, so the fit error is a
        // Failed outcome carrying the underlying error.
        let outcomes = service.serve_batch(&requests(&[0], 1), Some(50));
        match &outcomes[0] {
            ServeOutcome::Failed {
                error, provenance, ..
            } => {
                assert!(error.contains("need at least"), "{error}");
                assert_eq!(provenance.path, ServePath::Failed);
                assert_eq!(provenance.reason.as_deref(), Some(error.as_str()));
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(service.store().is_empty());
    }

    #[test]
    fn fallback_degrades_a_failing_primary() {
        let fleet = Fleet::generate(FleetConfig::small(1, 14));
        let resilience = ResilienceConfig {
            fallback: Some(BaselineSpec::LastValue),
            ..ResilienceConfig::default()
        };
        let service = PredictionService::new(&fleet, fast_config(), 1)
            .unwrap()
            .with_resilience(resilience);
        // Same too-short series as above, but now the saved last-value
        // baseline absorbs the failure.
        let outcomes = service.serve_batch(&requests(&[0], 2), Some(50));
        match &outcomes[0] {
            ServeOutcome::Degraded(f) => {
                assert_eq!(f.hours.len(), 2);
                assert_eq!(f.provenance.path, ServePath::Degraded);
                assert_eq!(f.provenance.model_label, "LV");
                let reason = f.provenance.reason.as_deref().unwrap();
                assert!(reason.contains("need at least"), "{reason}");
            }
            other => panic!("expected degraded serve, got {other:?}"),
        }
        // The fallback never enters the cache: the next batch retries
        // the primary.
        assert!(service.store().is_empty());
    }

    #[test]
    fn injected_errors_retry_then_degrade_deterministically() {
        let fleet = Fleet::generate(FleetConfig::small(2, 31));
        let registry = Registry::new();
        let plan = FaultPlan {
            fail_vehicles: vec![0],
            ..FaultPlan::default()
        };
        let resilience = ResilienceConfig {
            retry: crate::resilience::RetryPolicy::with_attempts(2),
            fallback: Some(BaselineSpec::LastValue),
            ..ResilienceConfig::default()
        };
        let service = PredictionService::new_observed(&fleet, fast_config(), 2, &registry)
            .unwrap()
            .with_resilience(resilience)
            .with_faults(plan);
        let outcomes = service.serve_batch(&requests(&[0, 1], 1), None);
        assert!(outcomes[0].is_degraded(), "{:?}", outcomes[0]);
        assert!(
            matches!(&outcomes[1], ServeOutcome::RetrainedThenServed(_)),
            "{:?}",
            outcomes[1]
        );
        let counter = |name: &str| registry.counter(name).get();
        assert_eq!(
            counter("vup_serve_retries_total"),
            1,
            "one retry for vehicle 0"
        );
        assert_eq!(
            counter("vup_serve_faults_injected_total"),
            2,
            "both attempts faulted"
        );
        assert_eq!(
            registry
                .counter_with("vup_serve_outcomes_total", &[("outcome", "degraded")])
                .get(),
            1
        );
        // Only the healthy vehicle's model was cached.
        assert_eq!(service.store().len(), 1);
    }

    #[test]
    fn breaker_sheds_a_persistently_failing_vehicle() {
        let fleet = Fleet::generate(FleetConfig::small(2, 32));
        let registry = Registry::new();
        let plan = FaultPlan {
            fail_vehicles: vec![0],
            ..FaultPlan::default()
        };
        let resilience = ResilienceConfig {
            breaker: crate::resilience::BreakerConfig {
                failure_threshold: 2,
                cooldown_batches: 2,
            },
            fallback: Some(BaselineSpec::LastValue),
            ..ResilienceConfig::default()
        };
        let config = PipelineConfig {
            retrain_every: 1, // every batch is a fresh episode
            ..fast_config()
        };
        let service = PredictionService::new_observed(&fleet, config, 1, &registry)
            .unwrap()
            .with_resilience(resilience)
            .with_faults(plan);
        let batch = requests(&[0, 1], 1);
        // Batches 0,1 fail vehicle 0's episodes; the second opens the
        // breaker. Batch 2 is rejected outright (cooldown), batch 3
        // half-opens, probes, fails, and re-opens.
        for as_of in [200, 201, 202, 203] {
            let outcomes = service.serve_batch(&batch, Some(as_of));
            assert!(
                outcomes[0].is_degraded(),
                "as_of {as_of}: {:?}",
                outcomes[0]
            );
            assert!(outcomes[1].forecast().is_some());
        }
        assert_eq!(service.breaker().state(0), BreakerState::Open);
        assert_eq!(service.breaker().state(1), BreakerState::Closed);
        let transitions = |to: &str| {
            registry
                .counter_with("vup_serve_breaker_transitions_total", &[("to", to)])
                .get()
        };
        assert_eq!(transitions("open"), 2, "opened at batch 1, re-opened at 3");
        assert_eq!(transitions("half_open"), 1, "probed at batch 3");
        assert_eq!(transitions("closed"), 0);
        assert_eq!(
            registry.counter("vup_serve_breaker_rejections_total").get(),
            1
        );
        assert_eq!(registry.gauge("vup_serve_breaker_open").get(), 1.0);
    }

    #[test]
    fn virtual_deadline_stops_retry_episodes() {
        let fleet = Fleet::generate(FleetConfig::small(1, 33));
        let registry = Registry::new();
        let plan = FaultPlan {
            seed: 5,
            slow_rate: 1.0,
            slow_fit_nanos: 10_000,
            fail_vehicles: vec![0],
            ..FaultPlan::default()
        };
        let resilience = ResilienceConfig {
            retry: crate::resilience::RetryPolicy::with_attempts(5),
            deadline_nanos: Some(5_000),
            fallback: None,
            ..ResilienceConfig::default()
        };
        let service = PredictionService::new_observed(&fleet, fast_config(), 1, &registry)
            .unwrap()
            .with_resilience(resilience)
            .with_faults(plan);
        let outcomes = service.serve_batch(&requests(&[0], 1), None);
        match &outcomes[0] {
            ServeOutcome::Failed { error, .. } => {
                assert!(error.contains("deadline exceeded"), "{error}");
            }
            other => panic!("expected deadline failure, got {other:?}"),
        }
        assert_eq!(
            registry.counter("vup_serve_deadline_exceeded_total").get(),
            1
        );
    }

    #[test]
    fn advancing_as_of_past_retrain_every_retrains() {
        let fleet = Fleet::generate(FleetConfig::small(1, 15));
        let mut config = fast_config();
        config.model = ModelSpec::Baseline(BaselineSpec::LastValue);
        let retrain_every = config.retrain_every;
        let service = PredictionService::new(&fleet, config, 1).unwrap();
        let batch = requests(&[0], 1);

        let t0 = 200;
        assert!(!service.serve_batch(&batch, Some(t0))[0].is_cache_hit());
        // Within the cadence: cache hits.
        for dt in 1..retrain_every {
            assert!(
                service.serve_batch(&batch, Some(t0 + dt))[0].is_cache_hit(),
                "dt = {dt}"
            );
        }
        // At the cadence boundary: retrained.
        let outcome = &service.serve_batch(&batch, Some(t0 + retrain_every))[0];
        assert!(
            matches!(outcome, ServeOutcome::RetrainedThenServed(_)),
            "{outcome:?}"
        );
        assert_eq!(
            outcome.forecast().unwrap().trained_at,
            t0 + retrain_every,
            "retrained on the advanced window"
        );
    }

    #[test]
    fn batches_are_deterministic_across_thread_counts() {
        let fleet = Fleet::generate(FleetConfig::small(6, 16));
        let batch = requests(&[0, 1, 2, 3, 4, 5], 3);
        let reference: Vec<ServeOutcome> = {
            let service = PredictionService::new(&fleet, fast_config(), 1).unwrap();
            service.serve_batch(&batch, None)
        };
        for threads in [2usize, 4, 0] {
            let service = PredictionService::new(&fleet, fast_config(), threads).unwrap();
            let outcomes = service.serve_batch(&batch, None);
            assert_eq!(outcomes, reference, "threads = {threads}");
        }
    }

    #[test]
    fn observed_service_counts_outcomes_and_stages() {
        let fleet = Fleet::generate(FleetConfig::small(3, 21));
        let registry = Registry::new();
        let service = PredictionService::new_observed(&fleet, fast_config(), 2, &registry).unwrap();
        let batch = vec![
            BatchRequest {
                vehicle_id: VehicleId(0),
                horizon: 2,
            },
            BatchRequest {
                vehicle_id: VehicleId(1),
                horizon: 1,
            },
            BatchRequest {
                vehicle_id: VehicleId(99), // skipped: not in fleet
                horizon: 1,
            },
        ];
        service.serve_batch(&batch, None); // all misses → retrains
        service.serve_batch(&batch, None); // vehicles 0 and 1 → cache hits

        let counter =
            |name: &str, labels: &[(&str, &str)]| registry.counter_with(name, labels).get();
        assert_eq!(counter("vup_serve_batches_total", &[]), 2);
        assert_eq!(counter("vup_serve_requests_total", &[]), 6);
        let outcome = |o: &str| counter("vup_serve_outcomes_total", &[("outcome", o)]);
        assert_eq!(outcome("retrained"), 2);
        assert_eq!(outcome("served"), 2);
        assert_eq!(outcome("skipped"), 2);
        // The three outcome series always sum to the requests served.
        assert_eq!(
            registry
                .snapshot()
                .counter_total("vup_serve_outcomes_total"),
            counter("vup_serve_requests_total", &[])
        );

        // Stage histograms saw work: one view build per known vehicle per
        // batch, one fit per miss, one predict per resolvable request.
        let stage = |s: &str| {
            registry
                .histogram_with("vup_serve_stage_nanos", &[("stage", s)], Buckets::latency())
                .count()
        };
        assert_eq!(stage("view_build"), 6);
        assert_eq!(stage("fit"), 2);
        assert_eq!(stage("predict"), 4);
        // ML timers fired underneath the fit/predict stages.
        assert_eq!(
            registry
                .histogram("vup_ml_fit_nanos", Buckets::latency())
                .count(),
            2
        );
        assert!(
            registry
                .histogram("vup_ml_predict_nanos", Buckets::latency())
                .count()
                >= 4
        );
        // Store counters: 2 retrains, 2 hits, 2 absent misses.
        assert_eq!(counter("vup_store_retrains_total", &[]), 2);
        assert_eq!(counter("vup_store_hits_total", &[]), 2);
        assert_eq!(registry.gauge("vup_store_models").get(), 2.0);
    }

    #[test]
    fn observed_service_forecasts_match_unobserved_bitwise() {
        let fleet = Fleet::generate(FleetConfig::small(4, 22));
        let batch = requests(&[0, 1, 2, 3], 3);
        let plain = PredictionService::new(&fleet, fast_config(), 2).unwrap();
        let registry = Registry::new();
        let observed =
            PredictionService::new_observed(&fleet, fast_config(), 2, &registry).unwrap();
        for round in 0..2 {
            let a = plain.serve_batch(&batch, None);
            let b = observed.serve_batch(&batch, None);
            assert_eq!(
                a, b,
                "round {round}: instrumentation must not perturb forecasts"
            );
        }
        assert!(registry.counter("vup_serve_requests_total").get() > 0);
    }

    #[test]
    fn invalidation_forces_a_retrain() {
        let fleet = Fleet::generate(FleetConfig::small(1, 17));
        let service = PredictionService::new(&fleet, fast_config(), 1).unwrap();
        let batch = requests(&[0], 1);
        service.serve_batch(&batch, None);
        assert!(service.serve_batch(&batch, None)[0].is_cache_hit());
        service.store().invalidate(VehicleId(0));
        assert!(!service.serve_batch(&batch, None)[0].is_cache_hit());
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let fleet = Fleet::generate(FleetConfig::small(1, 18));
        let mut config = fast_config();
        config.retrain_every = 0;
        assert!(PredictionService::new(&fleet, config, 1).is_err());
    }

    #[test]
    fn provenance_distinguishes_cache_paths_and_window_bounds() {
        let fleet = Fleet::generate(FleetConfig::small(1, 23));
        let config = fast_config();
        let (train_window, retrain_every) = (config.train_window, config.retrain_every);
        let fingerprint = ModelStore::fingerprint(&config);
        let service = PredictionService::new(&fleet, config, 1).unwrap();
        let batch = requests(&[0], 2);

        let t0 = 200;
        // First sight of the vehicle: the cache has no entry.
        let first = &service.serve_batch(&batch, Some(t0))[0];
        let p = first.provenance();
        assert_eq!(p.path, ServePath::RetrainedAbsent);
        assert_eq!(p.vehicle_id, 0);
        assert_eq!(p.horizon, 2);
        assert_eq!(p.config_fingerprint, fingerprint);
        assert_eq!(p.model_label, "LR");
        assert_eq!(p.trained_at, Some(t0));
        assert_eq!(p.train_from, Some(t0 - train_window));
        assert_eq!(p.selected_lags.len(), 10);
        assert_eq!(p.reason, None);

        // Same day again: fresh model, straight cache hit.
        let second = &service.serve_batch(&batch, Some(t0))[0];
        assert_eq!(second.provenance().path, ServePath::CacheHit);
        assert_eq!(second.provenance().trained_at, Some(t0));

        // Past the cadence: the entry exists but aged out.
        let third = &service.serve_batch(&batch, Some(t0 + retrain_every))[0];
        let p3 = third.provenance();
        assert_eq!(p3.path, ServePath::RetrainedStale);
        assert_eq!(p3.trained_at, Some(t0 + retrain_every));
        assert_eq!(p3.train_from, Some(t0 + retrain_every - train_window));
    }

    #[test]
    fn skipped_outcomes_carry_failed_provenance() {
        let fleet = Fleet::generate(FleetConfig::small(2, 24));
        let service = PredictionService::new(&fleet, fast_config(), 1).unwrap();
        let batch = vec![
            BatchRequest {
                vehicle_id: VehicleId(99), // not in fleet
                horizon: 1,
            },
            BatchRequest {
                vehicle_id: VehicleId(0), // zero horizon
                horizon: 0,
            },
            BatchRequest {
                vehicle_id: VehicleId(1),
                horizon: 1,
            },
        ];
        let outcomes = service.serve_batch(&batch, None);

        let p0 = outcomes[0].provenance();
        assert_eq!(p0.path, ServePath::Failed);
        assert_eq!(p0.vehicle_id, 99);
        assert!(p0.reason.as_deref().unwrap().contains("not in fleet"));
        assert_eq!(p0.trained_at, None);
        assert_eq!(p0.train_from, None);
        assert!(p0.selected_lags.is_empty());

        let p1 = outcomes[1].provenance();
        assert_eq!(p1.path, ServePath::Failed);
        assert!(p1.reason.is_some());

        // The journal covers every request, failures included, in order.
        let journal = ServeJournal::from_outcomes(&outcomes);
        assert_eq!(journal.records.len(), outcomes.len());
        assert_eq!(
            journal
                .records
                .iter()
                .map(|r| r.vehicle_id)
                .collect::<Vec<_>>(),
            vec![99, 0, 1]
        );
        let failed = journal
            .records
            .iter()
            .filter(|r| r.path == ServePath::Failed)
            .count();
        assert_eq!(failed, 2);
    }

    #[test]
    fn journal_round_trips_through_json() {
        let fleet = Fleet::generate(FleetConfig::small(2, 25));
        let service = PredictionService::new(&fleet, fast_config(), 1).unwrap();
        let batch = vec![
            BatchRequest {
                vehicle_id: VehicleId(0),
                horizon: 2,
            },
            BatchRequest {
                vehicle_id: VehicleId(42), // skipped
                horizon: 1,
            },
        ];
        let journal = ServeJournal::from_outcomes(&service.serve_batch(&batch, None));
        let text = journal.to_json();
        assert!(text.contains("\"config_fingerprint\""));
        assert!(text.contains("\"RetrainedAbsent\""));
        assert!(text.contains("\"Failed\""));
        let parsed = ServeJournal::from_json(&text).unwrap();
        assert_eq!(parsed, journal);
    }

    #[test]
    fn traced_batches_match_untraced_and_record_a_span_tree() {
        let fleet = Fleet::generate(FleetConfig::small(3, 26));
        let batch = requests(&[0, 1, 2], 2);
        let plain = PredictionService::new(&fleet, fast_config(), 2).unwrap();
        let reference = plain.serve_batch(&batch, None);

        let tracer = Tracer::new();
        let traced = PredictionService::new(&fleet, fast_config(), 2)
            .unwrap()
            .with_tracer(tracer.clone());
        let outcomes = traced.serve_batch(&batch, None);
        assert_eq!(outcomes, reference, "tracing must not perturb forecasts");

        let snapshot = tracer.snapshot();
        let count = |name: &str| snapshot.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("serve_batch"), 1);
        assert_eq!(count("prepare"), 1);
        assert_eq!(count("serve"), 1);
        assert_eq!(count("view_build"), 3);
        assert_eq!(count("fit"), 3);
        assert_eq!(count("predict"), 3);
        assert_eq!(count("ml_fit"), 3, "ml fits nest under the fit spans");

        // Parent linkage: every view_build/fit hangs off the prepare
        // span; every predict hangs off the serve span.
        let id_of = |name: &str| {
            snapshot
                .events
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.id)
                .unwrap()
        };
        let (prepare_id, serve_id) = (id_of("prepare"), id_of("serve"));
        for event in &snapshot.events {
            match event.name {
                "view_build" | "fit" => assert_eq!(event.parent, prepare_id, "{event:?}"),
                "predict" => assert_eq!(event.parent, serve_id, "{event:?}"),
                _ => {}
            }
        }

        // The tree renders and exports without panicking.
        assert!(snapshot.to_text_tree().contains("serve_batch"));
        assert!(snapshot.to_chrome_json().contains("\"traceEvents\""));
    }

    #[test]
    fn disabled_tracer_service_records_nothing() {
        let fleet = Fleet::generate(FleetConfig::small(1, 27));
        let tracer = Tracer::disabled();
        let service = PredictionService::new(&fleet, fast_config(), 1)
            .unwrap()
            .with_tracer(tracer.clone());
        let outcomes = service.serve_batch(&requests(&[0], 1), None);
        assert!(outcomes[0].forecast().is_some());
        assert!(tracer.snapshot().is_empty());
        // Without a live registry every stage reads as zero: the disabled
        // path never touched the clock.
        assert_eq!(outcomes[0].provenance().stage_nanos, StageNanos::default());
    }

    #[test]
    fn with_store_serves_through_a_durable_store_across_restarts() {
        let dir = std::env::temp_dir().join(format!("vup-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = Fleet::generate(FleetConfig::small(3, 28));
        let batch = requests(&[0, 1, 2], 2);

        // First "process": train, serve, persist.
        let first = {
            let service = PredictionService::new(&fleet, fast_config(), 1)
                .unwrap()
                .with_store(ModelStore::open(&dir).unwrap());
            let outcomes = service.serve_batch(&batch, None);
            for outcome in &outcomes {
                assert!(
                    matches!(outcome, ServeOutcome::RetrainedThenServed(_)),
                    "{outcome:?}"
                );
            }
            outcomes
        };

        // Second "process": warm start — every request is a cache hit
        // and the forecasts are bit-identical to the pre-crash ones.
        let store = ModelStore::open(&dir).unwrap();
        let recovery = store.recovery().cloned();
        assert_eq!(recovery.as_ref().unwrap().recovered, 3);
        let service = PredictionService::new(&fleet, fast_config(), 1)
            .unwrap()
            .with_store(store);
        let second = service.serve_batch(&batch, None);
        for (a, b) in first.iter().zip(&second) {
            assert!(b.is_cache_hit(), "warm-started model must serve: {b:?}");
            let bits = |f: &Forecast| f.hours.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(a.forecast().unwrap()),
                bits(b.forecast().unwrap()),
                "recovered model must reproduce pre-crash forecasts"
            );
        }

        // The journal can carry the recovery report alongside the records.
        let journal = ServeJournal::from_outcomes(&second).with_recovery(recovery);
        let parsed = ServeJournal::from_json(&journal.to_json()).unwrap();
        assert_eq!(parsed, journal);
        assert_eq!(parsed.recovery.unwrap().recovered, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journals_without_recovery_omit_it_and_round_trip() {
        let journal = ServeJournal::default();
        assert!(journal.recovery.is_none());
        let parsed = ServeJournal::from_json(&journal.to_json()).unwrap();
        assert!(parsed.recovery.is_none());
    }

    #[test]
    fn ellipsize_cuts_on_char_boundaries() {
        // ASCII: short strings pass through, long ones end in `…`.
        assert_eq!(ellipsize("short", 10), "short");
        assert_eq!(ellipsize("exactly-10", 10), "exactly-10");
        assert_eq!(ellipsize("elevenchars", 10), "elevencha…");

        // Multibyte: the cut lands between characters, never inside one.
        // "breaker open → shed vehicle №7" has 2- and 3-byte characters.
        let reason = "breaker open → shed vehicle №7";
        let cut = ellipsize(reason, 16);
        assert_eq!(cut, "breaker open → …");
        assert_eq!(cut.chars().count(), 16);
        // The result is valid UTF-8 by construction; also check we keep
        // whole multibyte chars when the boundary lands right after one.
        assert_eq!(ellipsize("№№№№", 3), "№№…");
        assert_eq!(ellipsize("№№№№", 4), "№№№№");
        assert_eq!(ellipsize("", 0), "");
        assert_eq!(ellipsize("ab", 0), "…");
    }

    /// A live view source that parks every build of one vehicle until
    /// [`ParkingViews::release`], and logs when each build starts and
    /// ends.
    struct ParkingViews {
        parked: VehicleId,
        released: Mutex<bool>,
        opened: Condvar,
        log: Mutex<Vec<(VehicleId, bool)>>,
    }

    impl ParkingViews {
        fn new(parked: u32) -> ParkingViews {
            ParkingViews {
                parked: VehicleId(parked),
                released: Mutex::new(false),
                opened: Condvar::new(),
                log: Mutex::new(Vec::new()),
            }
        }

        fn release(&self) {
            *self.released.lock().unwrap() = true;
            self.opened.notify_all();
        }

        /// Builds of `id` started so far.
        fn starts(&self, id: u32) -> usize {
            let log = self.log.lock().unwrap();
            log.iter()
                .filter(|&&(v, start)| v == VehicleId(id) && start)
                .count()
        }

        fn wait_for_start(&self, id: u32) {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while self.starts(id) == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "vehicle {id} never built"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    impl ViewSource for ParkingViews {
        fn build_view(
            &self,
            fleet: &Fleet,
            id: VehicleId,
            scenario: Scenario,
        ) -> Option<VehicleView> {
            self.log.lock().unwrap().push((id, true));
            if id == self.parked {
                let mut released = self.released.lock().unwrap();
                while !*released {
                    released = self.opened.wait(released).unwrap();
                }
            }
            let view = FleetViews.build_view(fleet, id, scenario);
            self.log.lock().unwrap().push((id, false));
            view
        }
    }

    #[test]
    fn batches_wait_only_for_batches_that_share_a_vehicle() {
        let fleet = Fleet::generate(FleetConfig::small(4, 41));
        let views = Arc::new(ParkingViews::new(1));
        let service = PredictionService::new(&fleet, fast_config(), 1)
            .unwrap()
            .with_views(Arc::clone(&views) as Arc<dyn ViewSource>);
        std::thread::scope(|scope| {
            let first = scope.spawn(|| service.serve_batch(&requests(&[1], 1), None));
            views.wait_for_start(1);

            // Vehicle 1's batch is parked mid-build; one on vehicle 0
            // runs to completion beside it. (Were it to wait instead, the
            // test would hang here, not fail.)
            let other = service.serve_batch(&requests(&[0], 1), None);
            assert!(
                matches!(&other[0], ServeOutcome::RetrainedThenServed(_)),
                "{other:?}"
            );

            // A second batch on vehicle 1 is not admitted — none of its
            // vehicles reaches the view source — until the first is done.
            let second = scope.spawn(|| service.serve_batch(&requests(&[2, 1], 1), None));
            std::thread::sleep(std::time::Duration::from_millis(100));
            let early = (views.starts(1), views.starts(2));
            views.release();
            assert_eq!(early.0, 1, "the second batch built vehicle 1 early");
            assert_eq!(early.1, 0, "the second batch was admitted in part");
            let first = first.join().unwrap();
            let second = second.join().unwrap();
            assert!(
                matches!(&first[0], ServeOutcome::RetrainedThenServed(_)),
                "{first:?}"
            );
            assert!(second[1].is_cache_hit(), "{second:?}");
        });
        let log = views.log.lock().unwrap();
        let one: Vec<bool> = log
            .iter()
            .filter(|(id, _)| *id == VehicleId(1))
            .map(|&(_, start)| start)
            .collect();
        assert_eq!(
            one,
            [true, false, true, false],
            "builds of vehicle 1 overlapped"
        );
        assert!(service.admission.state.lock().unwrap().held.is_empty());
    }

    /// A disk whose writes panic while `armed` is set.
    struct PanickingWrites(Arc<std::sync::atomic::AtomicBool>);

    impl crate::persist::StorageBackend for PanickingWrites {
        fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
            crate::DiskBackend.read(path)
        }
        fn write(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
            assert!(
                !self.0.load(std::sync::atomic::Ordering::SeqCst),
                "injected write panic"
            );
            crate::DiskBackend.write(path, bytes)
        }
        fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
            crate::DiskBackend.rename(from, to)
        }
        fn remove(&self, path: &std::path::Path) -> std::io::Result<()> {
            crate::DiskBackend.remove(path)
        }
        fn list(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
            crate::DiskBackend.list(dir)
        }
        fn create_dir_all(&self, dir: &std::path::Path) -> std::io::Result<()> {
            crate::DiskBackend.create_dir_all(dir)
        }
    }

    #[test]
    fn a_panic_on_the_coordinating_path_releases_the_batch_vehicles() {
        let dir = std::env::temp_dir().join(format!("vup-serve-admit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = Fleet::generate(FleetConfig::small(2, 42));
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let store = ModelStore::open_with(
            Box::new(PanickingWrites(Arc::clone(&armed))),
            &dir,
            &Registry::disabled(),
            &Tracer::disabled(),
        )
        .unwrap();
        let service = PredictionService::new(&fleet, fast_config(), 1)
            .unwrap()
            .with_store(store);
        let batch = requests(&[0, 1], 1);

        // The write-through persist of the first retrained model panics
        // on the coordinating thread, out of `serve_batch`.
        armed.store(true, std::sync::atomic::Ordering::SeqCst);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.serve_batch(&batch, None)
        }));
        assert!(panicked.is_err(), "the persist panic must unwind");
        assert!(
            service.admission.state.lock().unwrap().held.is_empty(),
            "an unwound batch still holds its vehicles"
        );

        // Both vehicles are admitted again; vehicle 0's model reached
        // the cache before its persist panicked.
        armed.store(false, std::sync::atomic::Ordering::SeqCst);
        let outcomes = service.serve_batch(&batch, None);
        assert!(outcomes[0].is_cache_hit(), "{:?}", outcomes[0]);
        assert!(
            matches!(&outcomes[1], ServeOutcome::RetrainedThenServed(_)),
            "{:?}",
            outcomes[1]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
