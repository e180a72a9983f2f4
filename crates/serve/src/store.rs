//! Per-vehicle cache of fitted predictors.
//!
//! One entry per `(vehicle, configuration)` pair, where the configuration
//! is identified by a stable fingerprint: two stores built from equal
//! [`PipelineConfig`]s agree on every key, and any config change (model,
//! window, features, …) silently maps to a different key instead of
//! serving a stale model.
//!
//! Entries carry the slot the model was trained at. A lookup passes the
//! current end of the vehicle's series; once that has advanced
//! `retrain_every` slots past the training point the entry no longer
//! qualifies — the same cadence [`vup_core::evaluate`] uses for offline
//! evaluation, so a served prediction is always one an offline replay
//! would also have produced.
//!
//! Lock discipline: a single `RwLock` around the map, taken only on
//! lookup/insert/invalidate. [`crate::PredictionService`] performs these
//! on its coordinating thread; the executor workers that train and
//! predict in parallel only ever touch `Arc` snapshots handed to them, so
//! no lock is acquired on the hot path.
//!
//! Durability is optional: a store built by [`ModelStore::open`] (or
//! [`ModelStore::open_with`]) writes every insert through to a
//! [`crate::persist::SnapshotStore`] and warm-starts from the surviving
//! snapshots at open — see [`crate::persist`] for the file format,
//! crash-safety protocol and corruption-tolerant recovery.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock};

use vup_core::{FittedPredictor, PipelineConfig};
use vup_fleetsim::fleet::VehicleId;
use vup_obs::{Counter, Gauge, Registry, SpanCtx, Tracer};

use crate::frame;
use crate::persist::{DiskBackend, RecoveryStats, SnapshotStore, StorageBackend};

/// Registry handles for the store's cache metrics. All no-ops by default
/// (the un-observed store); see [`ModelStore::observed`].
#[derive(Default)]
struct StoreMetrics {
    /// `vup_store_hits_total` — fresh cached model served.
    hits: Counter,
    /// `vup_store_misses_total{reason="absent"}` — no entry at all.
    miss_absent: Counter,
    /// `vup_store_misses_total{reason="stale"}` — entry aged past the
    /// retrain cadence (or trained beyond the requested `now`).
    miss_stale: Counter,
    /// `vup_store_retrains_total` — models inserted after (re)training.
    retrains: Counter,
    /// `vup_store_invalidations_total` — entries dropped by
    /// [`ModelStore::invalidate`] / [`ModelStore::clear`].
    invalidations: Counter,
    /// `vup_store_models` — *servable* models currently cached:
    /// poisoned (force-aged) entries do not count, so the gauge, the
    /// poison counter and the invalidation counter stay consistent.
    /// Every shard's store shares the one gauge, so each change moves
    /// it by its own delta under the entries lock.
    models: Gauge,
    /// `vup_store_poisoned_total` — entries force-aged by
    /// [`ModelStore::poison`] (fault injection).
    poisons: Counter,
}

impl StoreMetrics {
    fn register(registry: &Registry) -> StoreMetrics {
        registry.describe("vup_store_hits_total", "Fresh cached models served.");
        registry.describe("vup_store_misses_total", "Cache misses, by reason.");
        registry.describe(
            "vup_store_retrains_total",
            "Models inserted after (re)training.",
        );
        registry.describe(
            "vup_store_invalidations_total",
            "Cached models dropped by invalidation.",
        );
        registry.describe("vup_store_models", "Models currently cached.");
        registry.describe(
            "vup_store_poisoned_total",
            "Cached models force-aged to stale by fault injection.",
        );
        StoreMetrics {
            hits: registry.counter("vup_store_hits_total"),
            miss_absent: registry.counter_with("vup_store_misses_total", &[("reason", "absent")]),
            miss_stale: registry.counter_with("vup_store_misses_total", &[("reason", "stale")]),
            retrains: registry.counter("vup_store_retrains_total"),
            invalidations: registry.counter("vup_store_invalidations_total"),
            models: registry.gauge("vup_store_models"),
            poisons: registry.counter("vup_store_poisoned_total"),
        }
    }
}

/// Freshness-qualified result of a [`ModelStore::lookup`] — unlike the
/// plain `Option` of [`ModelStore::get`], it distinguishes the two miss
/// causes, which provenance records and retrain accounting care about.
pub enum Lookup {
    /// A fresh cached model.
    Hit(Arc<StoredModel>),
    /// An entry exists but aged past the retrain cadence (or was trained
    /// beyond the requested `now`).
    Stale(Arc<StoredModel>),
    /// No entry at all.
    Absent,
}

/// A cached fitted model plus the training position it is valid from.
#[derive(Clone)]
pub struct StoredModel {
    /// The fitted per-vehicle predictor.
    pub predictor: FittedPredictor,
    /// Slot index the training window ended at (exclusive): the model was
    /// fitted on data strictly before this slot.
    pub trained_at: usize,
}

/// Thread-safe cache of one fitted model per vehicle and configuration.
#[derive(Default)]
pub struct ModelStore {
    entries: RwLock<HashMap<(VehicleId, u64), Arc<StoredModel>>>,
    metrics: StoreMetrics,
    /// Durable side, present only for stores built by
    /// [`ModelStore::open`] / [`ModelStore::open_with`].
    persist: Option<SnapshotStore>,
    /// What startup recovery found, for the same stores.
    recovery: Option<RecoveryStats>,
}

/// How many of `entries` are actually servable: poisoning force-ages
/// an entry to `trained_at == usize::MAX`, which no lookup can match.
fn servable<'a>(entries: impl IntoIterator<Item = &'a Arc<StoredModel>>) -> usize {
    entries
        .into_iter()
        .filter(|e| e.trained_at != usize::MAX)
        .count()
}

impl ModelStore {
    /// Creates an empty store.
    pub fn new() -> ModelStore {
        ModelStore::default()
    }

    /// Creates an empty store that records hit/miss/retrain/invalidation
    /// counters and the cached-model gauge into `registry`. With a
    /// disabled registry this is exactly [`ModelStore::new`].
    pub fn observed(registry: &Registry) -> ModelStore {
        ModelStore {
            entries: RwLock::default(),
            metrics: StoreMetrics::register(registry),
            persist: None,
            recovery: None,
        }
    }

    /// Opens a durable store rooted at `dir` on the real filesystem,
    /// running startup recovery: every surviving snapshot warm-starts
    /// the cache, every damaged file is quarantined (see
    /// [`crate::persist`]). Un-observed and un-traced; use
    /// [`ModelStore::open_with`] for metrics, spans or fault injection.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ModelStore> {
        Self::open_with(
            Box::new(DiskBackend),
            dir.as_ref(),
            &Registry::disabled(),
            &Tracer::disabled(),
        )
    }

    /// [`ModelStore::open`] through an explicit [`StorageBackend`]
    /// (e.g. a [`crate::persist::FaultyBackend`] running a disk-fault
    /// plan), recording store and persistence metrics into `registry`
    /// and the `store_recover` span into `tracer`.
    ///
    /// Only an unlistable store directory is an error; damaged files
    /// are quarantined, not fatal. After a successful open,
    /// [`ModelStore::recovery`] reports what recovery found.
    pub fn open_with(
        backend: Box<dyn StorageBackend>,
        dir: &Path,
        registry: &Registry,
        tracer: &Tracer,
    ) -> io::Result<ModelStore> {
        let snapshots = SnapshotStore::new(backend, dir, registry);
        let (recovered, stats) = snapshots.recover(tracer)?;
        let mut entries = HashMap::new();
        for (vehicle, fingerprint, model) in recovered {
            entries.insert((vehicle, fingerprint), Arc::new(model));
        }
        let metrics = StoreMetrics::register(registry);
        metrics.models.add(servable(entries.values()) as f64);
        Ok(ModelStore {
            entries: RwLock::new(entries),
            metrics,
            persist: Some(snapshots),
            recovery: Some(stats),
        })
    }

    /// What startup recovery found, for stores built by
    /// [`ModelStore::open`] / [`ModelStore::open_with`].
    pub fn recovery(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Whether inserts are written through to disk.
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// Stable fingerprint of a pipeline configuration (FNV-1a with the
    /// store's [`frame::STORE_HASH_PRIME`] over its canonical debug
    /// rendering — identical configs agree across processes, unlike
    /// `DefaultHasher`'s unspecified algorithm).
    pub fn fingerprint(config: &PipelineConfig) -> u64 {
        frame::fnv1a(frame::STORE_HASH_PRIME, format!("{config:?}").as_bytes())
    }

    /// Returns the cached model for `vehicle` under `config` if it is
    /// still fresh at `now` (the current exclusive end of the vehicle's
    /// series): trained at or before `now`, and fewer than
    /// `config.retrain_every` slots ago. Stale entries stay in place
    /// until the next [`Self::insert`] overwrites them.
    pub fn get(
        &self,
        vehicle: VehicleId,
        config: &PipelineConfig,
        now: usize,
    ) -> Option<Arc<StoredModel>> {
        match self.lookup(vehicle, config, now) {
            Lookup::Hit(entry) => Some(entry),
            Lookup::Stale(_) | Lookup::Absent => None,
        }
    }

    /// [`ModelStore::get`] preserving the miss cause: a usable entry is a
    /// [`Lookup::Hit`], an aged-out one a [`Lookup::Stale`] (the stale
    /// model is returned for inspection, not for serving), and a missing
    /// one [`Lookup::Absent`]. Updates the same hit/miss counters.
    pub fn lookup(&self, vehicle: VehicleId, config: &PipelineConfig, now: usize) -> Lookup {
        let Some(entry) = self.peek(vehicle, config) else {
            self.metrics.miss_absent.inc();
            return Lookup::Absent;
        };
        let fresh = now >= entry.trained_at && now - entry.trained_at < config.retrain_every;
        if fresh {
            self.metrics.hits.inc();
            Lookup::Hit(entry)
        } else {
            self.metrics.miss_stale.inc();
            Lookup::Stale(entry)
        }
    }

    /// Returns the cached model regardless of freshness.
    pub fn peek(&self, vehicle: VehicleId, config: &PipelineConfig) -> Option<Arc<StoredModel>> {
        let key = (vehicle, Self::fingerprint(config));
        self.entries.read().expect("store lock").get(&key).cloned()
    }

    /// Caches a model trained for `vehicle` with its training window
    /// ending at `trained_at`, replacing any previous entry for the same
    /// vehicle and configuration. Returns the shared handle.
    ///
    /// On a durable store the model is also persisted, and the
    /// write-through `store_persist` span nests under `ctx`
    /// ([`SpanCtx::disabled`] when the caller traces nothing). A
    /// persistence failure never fails the insert — the entry serves
    /// from memory and the failure counts into
    /// `vup_store_persist_failed_total`.
    pub fn insert(
        &self,
        vehicle: VehicleId,
        config: &PipelineConfig,
        predictor: FittedPredictor,
        trained_at: usize,
        ctx: &SpanCtx,
    ) -> Arc<StoredModel> {
        let entry = Arc::new(StoredModel {
            predictor,
            trained_at,
        });
        let fingerprint = Self::fingerprint(config);
        {
            let mut entries = self.entries.write().expect("store lock");
            let replaced = entries.insert((vehicle, fingerprint), Arc::clone(&entry));
            let delta = servable([&entry]) as f64 - servable(&replaced) as f64;
            self.metrics.models.add(delta);
        }
        self.metrics.retrains.inc();
        if let Some(snapshots) = &self.persist {
            snapshots.persist(vehicle, fingerprint, trained_at, &entry.predictor, ctx);
        }
        entry
    }

    /// Fault-injection hook: force-ages `vehicle`'s cached entry under
    /// `config` so the next [`ModelStore::lookup`] reports it
    /// [`Lookup::Stale`] (and the service retrains), exercising the
    /// stale-miss path on demand. The model itself is untouched — only
    /// its training position is moved beyond any reachable `now`; on a
    /// durable store the on-disk snapshot is deliberately left intact
    /// (the disk copy is not what is being poisoned).
    /// Returns whether an entry existed to poison.
    ///
    /// A poisoned entry is no longer servable, so the `vup_store_models`
    /// gauge drops with it; the next insert for the key restores both.
    pub fn poison(&self, vehicle: VehicleId, config: &PipelineConfig) -> bool {
        let key = (vehicle, Self::fingerprint(config));
        let poisoned = {
            let mut entries = self.entries.write().expect("store lock");
            match entries.get_mut(&key) {
                None => false,
                Some(entry) => {
                    self.metrics.models.add(-(servable([&*entry]) as f64));
                    *entry = Arc::new(StoredModel {
                        predictor: entry.predictor.clone(),
                        trained_at: usize::MAX,
                    });
                    true
                }
            }
        };
        if poisoned {
            self.metrics.poisons.inc();
        }
        poisoned
    }

    /// Drops every cached model of one vehicle (all configurations),
    /// including their on-disk snapshots on a durable store; returns
    /// how many entries were removed.
    pub fn invalidate(&self, vehicle: VehicleId) -> usize {
        let dropped = {
            let mut entries = self.entries.write().expect("store lock");
            let mut dropped = Vec::new();
            let mut servable_dropped = 0;
            entries.retain(|&(v, fingerprint), entry| {
                if v == vehicle {
                    dropped.push(fingerprint);
                    servable_dropped += servable([&*entry]);
                    false
                } else {
                    true
                }
            });
            self.metrics.models.add(-(servable_dropped as f64));
            dropped
        };
        self.metrics.invalidations.add(dropped.len() as u64);
        if let Some(snapshots) = &self.persist {
            for fingerprint in &dropped {
                snapshots.remove_entry(vehicle, *fingerprint);
            }
        }
        dropped.len()
    }

    /// Takes this store's servable models back out of the shared
    /// `vup_store_models` gauge, for a store about to be replaced by a
    /// successor that adds its own ([`crate::PredictionService::retire`]).
    pub(crate) fn untrack_gauge(&self) {
        let entries = self.entries.read().expect("store lock");
        self.metrics
            .models
            .add(-(servable(entries.values()) as f64));
    }

    /// Drops every cached model (and, on a durable store, every
    /// snapshot file).
    pub fn clear(&self) {
        let dropped: Vec<(VehicleId, u64)> = {
            let mut entries = self.entries.write().expect("store lock");
            let keys = entries.keys().copied().collect();
            self.metrics
                .models
                .add(-(servable(entries.values()) as f64));
            entries.clear();
            keys
        };
        self.metrics.invalidations.add(dropped.len() as u64);
        if let Some(snapshots) = &self.persist {
            for (vehicle, fingerprint) in &dropped {
                snapshots.remove_entry(*vehicle, *fingerprint);
            }
        }
    }

    /// Number of cached models.
    pub fn len(&self) -> usize {
        self.entries.read().expect("store lock").len()
    }

    /// Whether the store holds no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vup_core::{ModelSpec, VehicleView};
    use vup_fleetsim::fleet::{Fleet, FleetConfig};
    use vup_ml::baseline::BaselineSpec;

    fn config() -> PipelineConfig {
        PipelineConfig {
            model: ModelSpec::Baseline(BaselineSpec::LastValue),
            train_window: 60,
            max_lag: 10,
            k: 5,
            retrain_every: 7,
            ..PipelineConfig::default()
        }
    }

    fn cheap_predictor(cfg: &PipelineConfig) -> FittedPredictor {
        let fleet = Fleet::generate(FleetConfig::small(1, 7));
        let view = VehicleView::build(&fleet, VehicleId(0), cfg.scenario);
        FittedPredictor::fit(&view, cfg, 0, 60).unwrap()
    }

    /// Caches a cheap model for `vehicle`, untraced.
    fn insert(store: &ModelStore, vehicle: u32, cfg: &PipelineConfig, trained_at: usize) {
        let predictor = cheap_predictor(cfg);
        store.insert(
            VehicleId(vehicle),
            cfg,
            predictor,
            trained_at,
            &SpanCtx::disabled(),
        );
    }

    #[test]
    fn get_respects_the_retrain_cadence() {
        let store = ModelStore::new();
        let cfg = config();
        insert(&store, 0, &cfg, 100);

        assert!(store.get(VehicleId(0), &cfg, 100).is_some());
        assert!(store.get(VehicleId(0), &cfg, 106).is_some());
        // Window advanced past retrain_every: stale.
        assert!(store.get(VehicleId(0), &cfg, 107).is_none());
        // A "now" before the training point is equally unusable.
        assert!(store.get(VehicleId(0), &cfg, 99).is_none());
        // The stale entry is still visible to peek.
        assert!(store.peek(VehicleId(0), &cfg).is_some());
    }

    #[test]
    fn different_configs_do_not_collide() {
        let store = ModelStore::new();
        let cfg_a = config();
        let mut cfg_b = config();
        cfg_b.train_window = 61;
        assert_ne!(
            ModelStore::fingerprint(&cfg_a),
            ModelStore::fingerprint(&cfg_b)
        );

        insert(&store, 0, &cfg_a, 100);
        assert!(store.get(VehicleId(0), &cfg_b, 100).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn invalidate_removes_all_entries_of_a_vehicle() {
        let store = ModelStore::new();
        let cfg_a = config();
        let mut cfg_b = config();
        cfg_b.retrain_every = 14;
        insert(&store, 0, &cfg_a, 100);
        insert(&store, 0, &cfg_b, 100);
        insert(&store, 1, &cfg_a, 100);
        assert_eq!(store.len(), 3);

        assert_eq!(store.invalidate(VehicleId(0)), 2);
        assert_eq!(store.len(), 1);
        assert!(store.get(VehicleId(1), &cfg_a, 100).is_some());
        assert_eq!(store.invalidate(VehicleId(0)), 0);

        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn observed_store_counts_hits_misses_retrains_and_invalidations() {
        let registry = Registry::new();
        let store = ModelStore::observed(&registry);
        let cfg = config();

        assert!(store.get(VehicleId(0), &cfg, 100).is_none()); // absent
        insert(&store, 0, &cfg, 100);
        assert!(store.get(VehicleId(0), &cfg, 100).is_some()); // hit
        assert!(store.get(VehicleId(0), &cfg, 120).is_none()); // stale
        store.invalidate(VehicleId(0));

        let counter =
            |name: &str, labels: &[(&str, &str)]| registry.counter_with(name, labels).get();
        assert_eq!(counter("vup_store_hits_total", &[]), 1);
        assert_eq!(
            counter("vup_store_misses_total", &[("reason", "absent")]),
            1
        );
        assert_eq!(counter("vup_store_misses_total", &[("reason", "stale")]), 1);
        assert_eq!(counter("vup_store_retrains_total", &[]), 1);
        assert_eq!(counter("vup_store_invalidations_total", &[]), 1);
        assert_eq!(registry.gauge("vup_store_models").get(), 0.0);

        insert(&store, 1, &cfg, 100);
        assert_eq!(registry.gauge("vup_store_models").get(), 1.0);
        store.clear();
        assert_eq!(counter("vup_store_invalidations_total", &[]), 2);
        assert_eq!(registry.gauge("vup_store_models").get(), 0.0);
    }

    #[test]
    fn lookup_distinguishes_hit_stale_and_absent() {
        let store = ModelStore::new();
        let cfg = config();
        assert!(matches!(
            store.lookup(VehicleId(0), &cfg, 100),
            Lookup::Absent
        ));
        insert(&store, 0, &cfg, 100);
        match store.lookup(VehicleId(0), &cfg, 103) {
            Lookup::Hit(m) => assert_eq!(m.trained_at, 100),
            _ => panic!("expected a hit"),
        }
        match store.lookup(VehicleId(0), &cfg, 150) {
            Lookup::Stale(m) => assert_eq!(m.trained_at, 100, "stale entry is inspectable"),
            _ => panic!("expected stale"),
        }
        // And get() agrees with lookup() at every freshness state.
        assert!(store.get(VehicleId(0), &cfg, 103).is_some());
        assert!(store.get(VehicleId(0), &cfg, 150).is_none());
    }

    #[test]
    fn poison_forces_a_stale_lookup_until_the_next_insert() {
        let registry = Registry::new();
        let store = ModelStore::observed(&registry);
        let cfg = config();
        assert!(!store.poison(VehicleId(0), &cfg), "nothing to poison yet");
        insert(&store, 0, &cfg, 100);
        assert!(store.get(VehicleId(0), &cfg, 100).is_some());

        assert!(store.poison(VehicleId(0), &cfg));
        assert!(
            matches!(store.lookup(VehicleId(0), &cfg, 100), Lookup::Stale(_)),
            "poisoned entry must read as stale"
        );
        assert!(store.peek(VehicleId(0), &cfg).is_some(), "entry survives");

        // A retrain heals it.
        insert(&store, 0, &cfg, 100);
        assert!(store.get(VehicleId(0), &cfg, 100).is_some());
        assert_eq!(registry.counter("vup_store_poisoned_total").get(), 1);
    }

    #[test]
    fn poison_and_invalidate_keep_the_models_gauge_consistent() {
        let registry = Registry::new();
        let store = ModelStore::observed(&registry);
        let cfg = config();
        let gauge = || registry.gauge("vup_store_models").get();

        insert(&store, 0, &cfg, 100);
        insert(&store, 1, &cfg, 100);
        assert_eq!(gauge(), 2.0);

        // Poisoning removes the entry from the servable count …
        assert!(store.poison(VehicleId(0), &cfg));
        assert_eq!(gauge(), 1.0, "poisoned model is not servable");
        assert_eq!(registry.counter("vup_store_poisoned_total").get(), 1);
        assert_eq!(store.len(), 2, "the entry itself survives");

        // … poisoning it again changes nothing further …
        assert!(store.poison(VehicleId(0), &cfg));
        assert_eq!(gauge(), 1.0);

        // … a retrain restores it …
        insert(&store, 0, &cfg, 100);
        assert_eq!(gauge(), 2.0);

        // … and invalidating a *poisoned* entry does not double-drop.
        store.poison(VehicleId(1), &cfg);
        assert_eq!(gauge(), 1.0);
        assert_eq!(store.invalidate(VehicleId(1)), 1);
        assert_eq!(gauge(), 1.0, "gauge already excluded the poisoned entry");
        assert_eq!(registry.counter("vup_store_invalidations_total").get(), 1);
        store.clear();
        assert_eq!(gauge(), 0.0);
    }

    #[test]
    fn stores_sharing_one_registry_sum_their_models() {
        let registry = Registry::new();
        let gauge = || registry.gauge("vup_store_models").get();
        let cfg = config();
        let (a, b) = (
            ModelStore::observed(&registry),
            ModelStore::observed(&registry),
        );
        insert(&a, 0, &cfg, 100);
        insert(&a, 1, &cfg, 100);
        insert(&b, 2, &cfg, 100);
        assert_eq!(gauge(), 3.0, "two shards' models add up");
        insert(&b, 2, &cfg, 107);
        assert_eq!(gauge(), 3.0, "a retrain replaces, it does not add");
        b.poison(VehicleId(2), &cfg);
        assert_eq!(gauge(), 2.0);
        b.clear();
        assert_eq!(gauge(), 2.0, "clearing one store leaves the other's models");
        // A retired store (a restarted shard's) takes its models along.
        a.untrack_gauge();
        assert_eq!(gauge(), 0.0);
    }

    #[test]
    fn open_warm_starts_from_persisted_snapshots() {
        let dir = std::env::temp_dir().join(format!("vup-store-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = config();

        // First process: durable store, two inserts, then "kill".
        {
            let store = ModelStore::open(&dir).unwrap();
            assert!(store.is_durable());
            assert_eq!(store.recovery().unwrap().recovered, 0);
            insert(&store, 0, &cfg, 100);
            insert(&store, 1, &cfg, 107);
        }

        // Second process: warm start recovers both entries verbatim.
        let registry = Registry::new();
        let store = ModelStore::open_with(
            Box::new(crate::persist::DiskBackend),
            &dir,
            &registry,
            &vup_obs::Tracer::disabled(),
        )
        .unwrap();
        let stats = store.recovery().unwrap();
        assert_eq!(stats.recovered, 2);
        assert_eq!(stats.quarantined, vec![]);
        assert_eq!(stats.generation, 2);
        assert_eq!(registry.counter("vup_store_recovered_total").get(), 2);
        assert_eq!(registry.gauge("vup_store_models").get(), 2.0);
        assert_eq!(store.len(), 2);
        assert_eq!(store.peek(VehicleId(0), &cfg).unwrap().trained_at, 100);
        assert_eq!(store.peek(VehicleId(1), &cfg).unwrap().trained_at, 107);
        assert!(store.get(VehicleId(1), &cfg, 108).is_some());

        // Invalidation also removes the snapshot from disk.
        store.invalidate(VehicleId(0));
        let reopened = ModelStore::open(&dir).unwrap();
        assert_eq!(reopened.recovery().unwrap().recovered, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_stores_are_not_durable() {
        let store = ModelStore::new();
        assert!(!store.is_durable());
        assert!(store.recovery().is_none());
    }

    #[test]
    fn insert_replaces_and_fingerprint_is_stable() {
        let store = ModelStore::new();
        let cfg = config();
        insert(&store, 0, &cfg, 100);
        insert(&store, 0, &cfg, 107);
        assert_eq!(store.len(), 1);
        assert_eq!(store.peek(VehicleId(0), &cfg).unwrap().trained_at, 107);
        // Equal configs fingerprint equally.
        assert_eq!(
            ModelStore::fingerprint(&cfg),
            ModelStore::fingerprint(&config())
        );
    }
}
