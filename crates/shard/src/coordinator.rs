//! The shard coordinator: fan-out, merge, and supervision.
//!
//! A [`ShardedService`] owns one [`PredictionService`] per shard, each
//! built by [`build_service`] (the same assembly the unsharded CLI
//! serves from) with its own [`ModelStore`], snapshot directory
//! (`shard-{i:03}` under the store root) and [`FleetMonitor`]. A batch
//! is partitioned by the rendezvous hash ([`Partitioner`]), fanned out
//! shard by shard **in index order on the coordinating thread** (each
//! shard is internally parallel on the lock-free executor), and merged
//! back into one fleet view: outcomes and [`ServeJournal`] records in
//! request order, and recovery stats absorbed across every shard's
//! store. Each vehicle's model is fitted on its own history only, so
//! while no shard fault fires the merged batch equals what one service
//! serves; and because the only cross-shard ordering is this fixed
//! sequential fan-out, a sharded batch is bit-identical at any executor
//! thread count.
//!
//! **Supervision.** Shard fates come from the same seeded fault plan
//! as everything else ([`FaultInjector::shard_fate`]):
//!
//! - **Die** — the shard is lost mid-batch: its primary path never
//!   runs; every vehicle of the sub-batch is served
//!   [`Degraded`](vup_serve::ServePath::Degraded) through the shard
//!   service's own fallback step
//!   ([`PredictionService::serve_degraded`]), then the supervisor
//!   restarts the shard warm from its snapshot directory. The restart's
//!   [`RecoveryStats`] surface in the shard report and in the next
//!   merged journal.
//! - **Stall** — the shard finishes *after* the batch deadline: its
//!   results are discarded (the sub-batch degrades like above) but its
//!   side effects — trained models, written snapshots — stick.
//! - **Refuse** — the shard rejects the batch outright and self-heals:
//!   the sub-batch degrades, nothing runs, no restart needed.
//!
//! Each shard's monitor tracks *serve quality*: every outcome feeds a
//! residual of 0 (healthy serve) or 1 (degraded/failed), against a
//! baseline of 1, so a shard whose vehicles degrade batch after batch
//! raises CUSUM drift flags under its `shard=` metric labels.

use std::io;
use std::path::{Path, PathBuf};

use vup_core::PipelineConfig;
use vup_fleetsim::Fleet;
use vup_ml::baseline::BaselineSpec;
use vup_obs::{Counter, FleetMonitor, MonitorConfig, Registry, Tracer, VehicleHealth};
use vup_serve::{
    storage_backend, BatchRequest, FaultInjector, FaultPlan, ModelStore, PredictionService,
    RecoveryStats, ResilienceConfig, ServeJournal, ServeOutcome, ServePath, ShardFate,
};

use crate::partition::Partitioner;
use crate::rebalance::shard_dir;

/// How to build served services: the shard count for a
/// [`ShardedService`], and the executor cap, resilience profile, fault
/// plan and store root every service is built under by
/// [`build_service`], whether it serves alone or as one of `N` shards.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of shards (≥ 1).
    pub shards: u32,
    /// Executor worker cap per service (0 = available parallelism).
    pub threads: usize,
    /// Resilience profile installed on every service.
    pub resilience: ResilienceConfig,
    /// Seeded chaos plan shared by every service (fit faults hash per
    /// vehicle, shard fates per shard — all coordinator-visible). Its
    /// disk section runs under every store, each through its own
    /// [`storage_backend`].
    pub faults: FaultPlan,
    /// Snapshot root: a lone service's store directory, or the root
    /// under which each of `N > 1` shards owns `shard-{i:03}`; `None`
    /// serves memory-only (restarts are then cold).
    pub store_root: Option<PathBuf>,
}

impl ShardOptions {
    /// Memory-only options for `shards` shards with defaults elsewhere.
    pub fn new(shards: u32) -> ShardOptions {
        ShardOptions {
            shards,
            threads: 0,
            resilience: ResilienceConfig::default(),
            faults: FaultPlan::default(),
            store_root: None,
        }
    }
}

/// Builds one serving [`PredictionService`] under `options`: its
/// resilience profile, fault plan and tracer, plus a durable store
/// warm-started from `store_dir` when given (through
/// [`storage_backend`], so the plan's disk section wraps that store's
/// I/O alone). Every service the CLI and the coordinator serve from is
/// built here, so one shard and `N` shards serve under the same profile.
/// `options.shards` and `options.store_root` are not read: the caller
/// picks the directory.
pub fn build_service<'f>(
    fleet: &'f Fleet,
    config: PipelineConfig,
    options: &ShardOptions,
    store_dir: Option<&Path>,
    registry: &Registry,
    tracer: &Tracer,
) -> io::Result<PredictionService<'f>> {
    let service = PredictionService::new_observed(fleet, config, options.threads, registry)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
        .with_resilience(options.resilience.clone())
        .with_faults(options.faults.clone())
        .with_tracer(tracer.clone());
    let Some(dir) = store_dir else {
        return Ok(service);
    };
    let store = ModelStore::open_with(storage_backend(&options.faults), dir, registry, tracer)
        .map_err(|e| {
            let context = format!("cannot open snapshot store '{}': {e}", dir.display());
            io::Error::new(e.kind(), context)
        })?;
    Ok(service.with_store(store))
}

/// Per-shard counters under a `shard=` label. No-ops when the registry
/// is disabled.
struct ShardMetrics {
    /// `vup_shard_requests_total{shard=}` — requests routed to the shard.
    requests: Counter,
    /// `vup_shard_deaths_total{shard=}` — batches the shard died in.
    deaths: Counter,
    /// `vup_shard_stalls_total{shard=}` — batches discarded past deadline.
    stalls: Counter,
    /// `vup_shard_refusals_total{shard=}` — batches the shard refused.
    refusals: Counter,
    /// `vup_shard_restarts_total{shard=}` — supervisor warm restarts.
    restarts: Counter,
}

impl ShardMetrics {
    fn register(registry: &Registry, shard: u32) -> ShardMetrics {
        let label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        registry.describe(
            "vup_shard_requests_total",
            "Requests routed to each shard by the coordinator.",
        );
        registry.describe("vup_shard_deaths_total", "Batches a shard died in.");
        registry.describe(
            "vup_shard_stalls_total",
            "Batches a shard finished past the deadline (results discarded).",
        );
        registry.describe("vup_shard_refusals_total", "Batches a shard refused.");
        registry.describe(
            "vup_shard_restarts_total",
            "Warm restarts performed by the shard supervisor.",
        );
        ShardMetrics {
            requests: registry.counter_with("vup_shard_requests_total", labels),
            deaths: registry.counter_with("vup_shard_deaths_total", labels),
            stalls: registry.counter_with("vup_shard_stalls_total", labels),
            refusals: registry.counter_with("vup_shard_refusals_total", labels),
            restarts: registry.counter_with("vup_shard_restarts_total", labels),
        }
    }
}

/// One shard: its service, monitor, and supervision counters.
struct ShardSlot<'f> {
    service: PredictionService<'f>,
    monitor: FleetMonitor,
    metrics: ShardMetrics,
    deaths: u64,
    restarts: u64,
}

/// What happened to one shard during one coordinated batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// The shard's fate this batch.
    pub fate: ShardFate,
    /// Requests the coordinator routed to it.
    pub requests: usize,
    /// Whether the supervisor restarted it after this batch.
    pub restarted: bool,
    /// What the warm restart recovered from the shard's snapshot
    /// directory (`None` when no restart happened or the shard serves
    /// memory-only).
    pub recovery: Option<RecoveryStats>,
}

/// A merged, fleet-level batch result.
#[derive(Debug, Clone)]
pub struct ShardedBatch {
    /// One outcome per request, in request order.
    pub outcomes: Vec<ServeOutcome>,
    /// Merged journal: records in request order, recovery stats
    /// absorbed across every shard's store.
    pub journal: ServeJournal,
    /// Per-shard fate reports, in shard-index order.
    pub reports: Vec<ShardReport>,
}

/// A fleet of per-shard [`PredictionService`]s behind one batch API.
pub struct ShardedService<'f> {
    fleet: &'f Fleet,
    config: PipelineConfig,
    options: ShardOptions,
    partitioner: Partitioner,
    injector: FaultInjector,
    registry: Registry,
    tracer: Tracer,
    slots: Vec<ShardSlot<'f>>,
    /// Coordinator batch counter — the shard-fate notion of time.
    batch: u64,
    /// Baseline that answers for a dead, stalled or refusing shard: the
    /// resilience profile's fallback, or last-value when it has none,
    /// because such a shard must still answer.
    fallback: BaselineSpec,
}

impl<'f> ShardedService<'f> {
    /// Builds the coordinator and its shards. With a store root, every
    /// shard warm-starts from its own `shard-{i:03}` directory.
    pub fn build(
        fleet: &'f Fleet,
        config: PipelineConfig,
        options: ShardOptions,
        registry: &Registry,
        tracer: &Tracer,
    ) -> io::Result<ShardedService<'f>> {
        assert!(options.shards > 0, "at least one shard");
        let fallback = options
            .resilience
            .fallback
            .unwrap_or(BaselineSpec::LastValue);
        let mut service = ShardedService {
            fleet,
            config,
            partitioner: Partitioner::new(options.shards),
            injector: FaultInjector::new(options.faults.clone()),
            registry: registry.clone(),
            tracer: tracer.clone(),
            slots: Vec::with_capacity(options.shards as usize),
            batch: 0,
            fallback,
            options,
        };
        for shard in 0..service.options.shards {
            let slot = service.build_slot(shard)?;
            service.slots.push(slot);
        }
        Ok(service)
    }

    /// Builds (or rebuilds, for the supervisor) one shard's slot,
    /// warm-starting from its snapshot directory when durable.
    fn build_slot(&self, shard: u32) -> io::Result<ShardSlot<'f>> {
        let dir = self
            .options
            .store_root
            .as_ref()
            .map(|root| shard_dir(root, shard));
        let service = build_service(
            self.fleet,
            self.config.clone(),
            &self.options,
            dir.as_deref(),
            &self.registry,
            &self.tracer,
        )?;
        let label = shard.to_string();
        let monitor = FleetMonitor::observed_scoped(
            &self.registry,
            MonitorConfig::default(),
            &[("shard", label.as_str())],
        );
        Ok(ShardSlot {
            service,
            monitor,
            metrics: ShardMetrics::register(&self.registry, shard),
            deaths: 0,
            restarts: 0,
        })
    }

    /// The partitioner routing vehicles to shards.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The configuration every shard serves under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Lifetime `(deaths, restarts)` per shard, in index order.
    pub fn supervision(&self) -> Vec<(u64, u64)> {
        self.slots.iter().map(|s| (s.deaths, s.restarts)).collect()
    }

    /// Fitted models cached across every shard's store.
    pub fn cached_models(&self) -> usize {
        self.slots.iter().map(|s| s.service.store().len()).sum()
    }

    /// Merged monitor health across every shard, sorted by vehicle id
    /// (each vehicle lives on exactly one shard, so the merge is a
    /// disjoint union).
    pub fn health(&self) -> Vec<VehicleHealth> {
        let mut all: Vec<VehicleHealth> = self
            .slots
            .iter()
            .flat_map(|slot| slot.monitor.health())
            .collect();
        all.sort_by_key(|h| h.vehicle_id);
        all
    }

    /// Recovery stats absorbed across every shard's store, fleet-wide:
    /// the per-store balance invariant
    /// `recovered + quarantined == files_seen` survives the fold.
    pub fn merged_recovery(&self) -> Option<RecoveryStats> {
        let mut merged: Option<RecoveryStats> = None;
        for slot in &self.slots {
            if let Some(stats) = slot.service.store().recovery() {
                merged
                    .get_or_insert_with(RecoveryStats::default)
                    .absorb(stats);
            }
        }
        merged
    }

    /// Serves one coordinated batch: partition, fan out shard by shard
    /// in index order, supervise fates, merge. Outcomes and journal
    /// records come back in request order, as one service returns them.
    pub fn serve_batch(&mut self, requests: &[BatchRequest], as_of: Option<usize>) -> ShardedBatch {
        let batch = self.batch;
        self.batch += 1;

        // Route requests, remembering their original positions.
        let mut routed: Vec<Vec<(usize, BatchRequest)>> =
            vec![Vec::new(); self.options.shards as usize];
        for (i, request) in requests.iter().enumerate() {
            let shard = self.partitioner.shard_of(request.vehicle_id);
            routed[shard as usize].push((i, *request));
        }

        let mut outcomes: Vec<Option<ServeOutcome>> = vec![None; requests.len()];
        let mut reports = Vec::with_capacity(self.slots.len());
        for shard in 0..self.options.shards {
            let sub = &routed[shard as usize];
            let fate = self.injector.shard_fate(shard, batch);
            let slot = &self.slots[shard as usize];
            slot.metrics.requests.add(sub.len() as u64);
            let sub_requests: Vec<BatchRequest> = sub.iter().map(|(_, r)| *r).collect();
            let degraded_reason = match fate {
                ShardFate::Healthy => None,
                ShardFate::Stall => {
                    // The shard does the work — models train, snapshots
                    // persist — but past the deadline, so its answers
                    // are discarded and the sub-batch degrades.
                    slot.metrics.stalls.inc();
                    let _ = slot.service.serve_batch(&sub_requests, as_of);
                    Some(format!("shard {shard} stalled past the batch deadline"))
                }
                ShardFate::Refuse => {
                    slot.metrics.refusals.inc();
                    Some(format!("shard {shard} refused the batch"))
                }
                ShardFate::Die => {
                    slot.metrics.deaths.inc();
                    Some(format!("shard {shard} died mid-batch"))
                }
            };
            let shard_outcomes = match degraded_reason {
                None => slot.service.serve_batch(&sub_requests, as_of),
                Some(reason) => {
                    slot.service
                        .serve_degraded(&sub_requests, as_of, &reason, self.fallback)
                }
            };
            // Serve-quality monitor: 1 when the fallback (or nothing)
            // answered, 0 on a healthy serve.
            let slot = &mut self.slots[shard as usize];
            for outcome in &shard_outcomes {
                let vehicle = outcome.provenance().vehicle_id;
                slot.monitor.set_baseline(vehicle, 1.0);
                let residual = match outcome.provenance().path {
                    ServePath::Degraded | ServePath::Failed => 1.0,
                    _ => 0.0,
                };
                slot.monitor.observe_residual(vehicle, residual);
            }
            for ((position, _), outcome) in sub.iter().zip(shard_outcomes) {
                outcomes[*position] = Some(outcome);
            }
            // Supervisor: a dead shard restarts warm before the next
            // batch; its snapshot directory is the source of truth.
            let mut report = ShardReport {
                shard,
                fate,
                requests: sub.len(),
                restarted: false,
                recovery: None,
            };
            if fate == ShardFate::Die {
                slot.deaths += 1;
                let rebuilt = self
                    .build_slot(shard)
                    .expect("shard restart reopens its own snapshot directory");
                let slot = &mut self.slots[shard as usize];
                let deaths = slot.deaths;
                let restarts = slot.restarts + 1;
                std::mem::replace(slot, rebuilt).service.retire();
                slot.deaths = deaths;
                slot.restarts = restarts;
                slot.metrics.restarts.inc();
                report.restarted = true;
                report.recovery = slot.service.store().recovery().cloned();
            }
            reports.push(report);
        }

        let outcomes: Vec<ServeOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every request routed to exactly one shard"))
            .collect();
        let journal = ServeJournal::from_outcomes(&outcomes).with_recovery(self.merged_recovery());
        ShardedBatch {
            outcomes,
            journal,
            reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_core::ModelSpec;
    use vup_fleetsim::FleetConfig;

    fn baseline_config() -> PipelineConfig {
        PipelineConfig {
            model: ModelSpec::Baseline(BaselineSpec::LastValue),
            ..PipelineConfig::default()
        }
    }

    fn requests(n: u32, horizon: usize) -> Vec<BatchRequest> {
        (0..n)
            .map(|id| BatchRequest {
                vehicle_id: vup_fleetsim::VehicleId(id),
                horizon,
            })
            .collect()
    }

    #[test]
    fn sharded_serving_matches_a_single_service_fleet_wide() {
        let fleet = Fleet::generate(FleetConfig::small(30, 7));
        let config = baseline_config();
        // Descending ids: a merge that reorders records would show.
        let mut reqs = requests(30, 3);
        reqs.reverse();
        let single = PredictionService::new(&fleet, config.clone(), 1).unwrap();
        let plain = single.serve_batch(&reqs, Some(400));

        let mut sharded = ShardedService::build(
            &fleet,
            config,
            ShardOptions::new(4),
            &Registry::disabled(),
            &Tracer::disabled(),
        )
        .unwrap();
        let merged = sharded.serve_batch(&reqs, Some(400));
        assert_eq!(merged.outcomes.len(), 30);
        for (a, b) in plain.iter().zip(&merged.outcomes) {
            assert_eq!(
                a.forecast().map(|f| &f.hours),
                b.forecast().map(|f| &f.hours),
                "sharding must not change any forecast"
            );
        }
        // The merged journal is the one service's journal: same
        // records, in request order.
        assert_eq!(merged.journal, ServeJournal::from_outcomes(&plain));
    }

    #[test]
    fn a_refusing_shard_degrades_only_its_own_vehicles_and_self_heals() {
        let fleet = Fleet::generate(FleetConfig::small(24, 7));
        let mut options = ShardOptions::new(3);
        options.faults.seed = 11;
        options.faults.shards = Some(vup_serve::ShardFaultPlan {
            refuse_rate: 0.0,
            stall_rate: 0.0,
            death_rate: 0.0,
            kills: Vec::new(),
        });
        // Pin a refusal by reusing the kill list semantics via rate 0 —
        // instead drive refusal deterministically with rate 1 on batch
        // parity: simplest is refuse_rate 1.0 and observe batch 0.
        options.faults.shards.as_mut().unwrap().refuse_rate = 1.0;
        let mut sharded = ShardedService::build(
            &fleet,
            baseline_config(),
            options,
            &Registry::disabled(),
            &Tracer::disabled(),
        )
        .unwrap();
        let merged = sharded.serve_batch(&requests(24, 2), Some(400));
        // Every shard refused (rate 1.0) ⇒ everything degraded, nothing
        // failed, and every forecast still has numbers.
        for outcome in &merged.outcomes {
            assert!(outcome.is_degraded(), "{outcome:?}");
            assert!(!outcome.forecast().unwrap().hours.is_empty());
        }
        for report in &merged.reports {
            assert_eq!(report.fate, ShardFate::Refuse);
            assert!(!report.restarted, "refusal self-heals without restart");
        }
        assert_eq!(sharded.supervision(), vec![(0, 0); 3]);
    }

    #[test]
    fn a_stalled_shard_counts_its_requests_once() {
        let fleet = Fleet::generate(FleetConfig::small(12, 7));
        let mut options = ShardOptions::new(2);
        options.faults.shards = Some(vup_serve::ShardFaultPlan {
            stall_rate: 1.0,
            ..vup_serve::ShardFaultPlan::default()
        });
        let registry = Registry::new();
        let mut sharded = ShardedService::build(
            &fleet,
            baseline_config(),
            options,
            &registry,
            &Tracer::disabled(),
        )
        .unwrap();
        let merged = sharded.serve_batch(&requests(12, 2), Some(400));
        assert!(merged.outcomes.iter().all(ServeOutcome::is_degraded));
        // The late serve_batch counted each request; the degraded answer
        // that replaced it did not count it again.
        assert_eq!(registry.counter("vup_serve_requests_total").get(), 12);
        assert_eq!(
            registry
                .snapshot()
                .counter_total("vup_serve_outcomes_total"),
            12
        );
    }

    #[test]
    fn a_pinned_kill_degrades_the_shard_and_the_supervisor_restarts_it() {
        let fleet = Fleet::generate(FleetConfig::small(24, 7));
        let dir = std::env::temp_dir().join(format!("vup-shard-coord-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut options = ShardOptions::new(2);
        options.store_root = Some(dir.clone());
        options.faults.shards = Some(vup_serve::ShardFaultPlan::kill(1, 1));
        let registry = Registry::new();
        let mut sharded = ShardedService::build(
            &fleet,
            baseline_config(),
            options,
            &registry,
            &Tracer::disabled(),
        )
        .unwrap();
        let models = || registry.gauge("vup_store_models").get();
        let reqs = requests(24, 2);
        // Batch 0: healthy; models persist to both shard dirs.
        let first = sharded.serve_batch(&reqs, Some(400));
        assert!(first.outcomes.iter().all(|o| !o.is_degraded()));
        // Batch 1: shard 1 dies; exactly its vehicles degrade.
        let second = sharded.serve_batch(&reqs, Some(400));
        let partitioner = Partitioner::new(2);
        for (request, outcome) in reqs.iter().zip(&second.outcomes) {
            let on_dead = partitioner.shard_of(request.vehicle_id) == 1;
            assert_eq!(outcome.is_degraded(), on_dead, "{request:?} → {outcome:?}");
        }
        let report = &second.reports[1];
        assert_eq!(report.fate, ShardFate::Die);
        assert!(report.restarted);
        let recovery = report.recovery.as_ref().expect("warm restart audited");
        assert!(recovery.recovered > 0, "snapshots survive the crash");
        assert_eq!(
            recovery.recovered + recovery.quarantined.len(),
            recovery.files_seen
        );
        // The models gauge counts the fleet: the dead shard's store
        // left it, its warm-started successor joined it.
        assert_eq!(models(), sharded.cached_models() as f64);
        // Batch 2: the restarted shard serves again from its snapshots.
        let third = sharded.serve_batch(&reqs, Some(400));
        assert!(third.outcomes.iter().all(|o| !o.is_degraded()));
        assert_eq!(models(), sharded.cached_models() as f64);
        assert_eq!(sharded.supervision()[1], (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
