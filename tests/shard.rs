//! Chaos tests for the fleet shard coordinator: a seeded shard-death
//! plan must produce bit-identical merged outcomes at every thread
//! count and across coordinator rebuilds; a dead shard's vehicles are
//! all served degraded (never failed), the supervisor warm-restarts the
//! shard from its snapshot dir and recovers them next batch; the
//! degraded answers come from the shard service's own traced fallback;
//! the merged journal's recovery block must balance fleet-wide; a
//! plan's disk faults reach every shard's store; and a rebalance to one
//! more shard must leave every shard dir audit-clean.

use std::path::PathBuf;

use vehicle_usage_prediction::obs::Buckets;
use vehicle_usage_prediction::prelude::*;
use vehicle_usage_prediction::serve::{audit, DiskFaultPlan, ShardFate, ShardFaultPlan, ShardKill};
use vehicle_usage_prediction::shard::{rebalance, remapped, shard_dir};

const VEHICLES: usize = 24;
const SHARDS: u32 = 3;
const KILLED_SHARD: u32 = 1;
const KILL_BATCH: u64 = 1;

fn fleet() -> Fleet {
    Fleet::generate(FleetConfig::small(VEHICLES, 7))
}

/// Last-value baseline keeps fits cheap; every fitted model still
/// persists a snapshot, which is what the supervisor recovers from.
/// The short train window lets even the sparsest generated vehicle
/// fit, so healthy batches have zero degradations.
fn config() -> PipelineConfig {
    PipelineConfig {
        model: ModelSpec::Baseline(BaselineSpec::LastValue),
        train_window: 60,
        max_lag: 20,
        ..PipelineConfig::default()
    }
}

fn kill_plan() -> FaultPlan {
    FaultPlan {
        seed: 41,
        shards: Some(ShardFaultPlan {
            kills: vec![ShardKill {
                shard: KILLED_SHARD,
                batch: KILL_BATCH,
            }],
            ..ShardFaultPlan::default()
        }),
        ..FaultPlan::default()
    }
}

fn requests() -> Vec<BatchRequest> {
    (0..VEHICLES as u32)
        .map(|id| BatchRequest {
            vehicle_id: VehicleId(id),
            horizon: 3,
        })
        .collect()
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vup-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(threads: usize, store_root: Option<PathBuf>) -> ShardOptions {
    ShardOptions {
        threads,
        faults: kill_plan(),
        store_root,
        ..ShardOptions::new(SHARDS)
    }
}

fn forecast_bits(outcomes: &[ServeOutcome]) -> Vec<Vec<u64>> {
    outcomes
        .iter()
        .map(|o| {
            o.forecast()
                .map(|f| f.hours.iter().map(|h| h.to_bits()).collect())
                .unwrap_or_default()
        })
        .collect()
}

/// Serve `batches` coordinator batches against a fresh store root and
/// return per-batch forecast bits plus the final journal.
fn run(threads: usize, tag: &str, batches: usize) -> (Vec<Vec<Vec<u64>>>, ServeJournal) {
    let fleet = fleet();
    let registry = Registry::disabled();
    let tracer = Tracer::disabled();
    let root = temp_root(tag);
    let mut service = ShardedService::build(
        &fleet,
        config(),
        options(threads, Some(root.clone())),
        &registry,
        &tracer,
    )
    .expect("coordinator builds");
    let requests = requests();
    let mut bits = Vec::new();
    let mut journal = None;
    for _ in 0..batches {
        let batch = service.serve_batch(&requests, None);
        bits.push(forecast_bits(&batch.outcomes));
        journal = Some(batch.journal);
    }
    let _ = std::fs::remove_dir_all(&root);
    (bits, journal.expect("at least one batch"))
}

#[test]
fn shard_death_outcomes_are_bit_identical_at_any_thread_count_and_across_rebuilds() {
    let (reference, reference_journal) = run(1, "det-t1", 3);
    for threads in [2usize, 4] {
        let (other, other_journal) = run(threads, &format!("det-t{threads}"), 3);
        assert_eq!(reference, other, "forecasts diverged at {threads} threads");
        assert_eq!(
            reference_journal.to_json(),
            other_journal.to_json(),
            "merged journal diverged at {threads} threads"
        );
    }
    // A rebuilt coordinator replaying the same batch sequence against a
    // fresh store root reproduces the run bit for bit.
    let (again, again_journal) = run(1, "det-rebuild", 3);
    assert_eq!(reference, again);
    assert_eq!(reference_journal.to_json(), again_journal.to_json());
}

#[test]
fn a_dead_shard_degrades_exactly_its_vehicles_and_recovers_next_batch() {
    let fleet = fleet();
    let registry = Registry::disabled();
    let tracer = Tracer::disabled();
    let root = temp_root("kill");
    let mut service = ShardedService::build(
        &fleet,
        config(),
        options(2, Some(root.clone())),
        &registry,
        &tracer,
    )
    .expect("coordinator builds");
    let partitioner = *service.partitioner();
    let requests = requests();

    // Batch 0 is healthy: every vehicle trains and snapshots.
    let warm = service.serve_batch(&requests, None);
    assert!(warm
        .outcomes
        .iter()
        .all(|o| matches!(o, ServeOutcome::RetrainedThenServed(_))));

    // Batch 1: the pinned kill takes shard 1 down mid-batch. Its
    // vehicles — exactly its vehicles — are served degraded, never
    // failed, and the supervisor restarts the shard warm.
    let killed = service.serve_batch(&requests, None);
    for (request, outcome) in requests.iter().zip(&killed.outcomes) {
        let owner = partitioner.shard_of(request.vehicle_id);
        if owner == KILLED_SHARD {
            let ServeOutcome::Degraded(f) = outcome else {
                panic!(
                    "vehicle {:?} on dead shard must degrade, got {outcome:?}",
                    request.vehicle_id
                );
            };
            let reason = f.provenance.reason.as_deref().unwrap_or_default();
            assert!(reason.contains("died mid-batch"), "reason: {reason}");
        } else {
            assert!(
                matches!(outcome, ServeOutcome::Served(_)),
                "vehicle {:?} on a healthy shard must serve from cache, got {outcome:?}",
                request.vehicle_id
            );
        }
    }
    let report = &killed.reports[KILLED_SHARD as usize];
    assert_eq!(report.fate, ShardFate::Die);
    assert!(report.restarted, "supervisor must restart the dead shard");
    let recovery = report.recovery.as_ref().expect("restart records recovery");
    assert!(
        recovery.recovered > 0,
        "warm restart must recover the batch-0 snapshots"
    );

    // Every journal record from the dead shard is explicitly Degraded.
    let degraded_in_journal = killed
        .journal
        .records
        .iter()
        .filter(|r| partitioner.shard_of(VehicleId(r.vehicle_id)) == KILLED_SHARD)
        .count();
    assert_eq!(
        degraded_in_journal,
        partitioner.census(VEHICLES as u32)[KILLED_SHARD as usize]
    );

    // Batch 2: the restarted shard serves its vehicles from the
    // recovered snapshots — cache hits, no refits.
    let healed = service.serve_batch(&requests, None);
    assert!(
        healed
            .outcomes
            .iter()
            .all(|o| matches!(o, ServeOutcome::Served(_))),
        "all vehicles must serve from cache after the restart"
    );
    assert_eq!(service.supervision()[KILLED_SHARD as usize], (1, 1));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_dead_shard_is_answered_by_its_services_traced_fallback() {
    let fleet = fleet();
    let registry = Registry::new();
    let tracer = Tracer::new();
    let config = PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        ..config()
    };
    let mut service = ShardedService::build(&fleet, config, options(2, None), &registry, &tracer)
        .expect("coordinator builds");
    let requests = requests();

    // Batch 0 is healthy and fits every primary; batch 1 kills a shard
    // while the healthy shards serve from cache, so every fit it makes
    // is a fallback fit.
    service.serve_batch(&requests, None);
    let fits = registry.histogram("vup_ml_fit_nanos", Buckets::latency());
    let fits_before = fits.count();
    let killed = service.serve_batch(&requests, None);

    let degraded: Vec<&Provenance> = killed
        .journal
        .records
        .iter()
        .filter(|r| r.path == ServePath::Degraded)
        .collect();
    let partitioner = *service.partitioner();
    assert_eq!(
        degraded.len(),
        partitioner.census(VEHICLES as u32)[KILLED_SHARD as usize]
    );
    for record in &degraded {
        assert_eq!(
            record.model_label, "LV",
            "vehicle {} must carry the fallback's label",
            record.vehicle_id
        );
    }

    let snapshot = tracer.snapshot();
    assert_eq!(snapshot.dropped, 0);
    let fallback_fits = snapshot
        .events
        .iter()
        .filter(|e| e.name == "fallback_fit")
        .count();
    assert_eq!(
        fallback_fits,
        degraded.len(),
        "one fallback fit per vehicle"
    );
    assert_eq!(fits.count() - fits_before, degraded.len() as u64);
}

#[test]
fn merged_journal_recovery_balances_fleet_wide() {
    let fleet = fleet();
    let registry = Registry::disabled();
    let tracer = Tracer::disabled();
    let root = temp_root("recovery-balance");

    // First run trains and snapshots every vehicle, then is dropped.
    {
        let mut service = ShardedService::build(
            &fleet,
            config(),
            options(1, Some(root.clone())),
            &registry,
            &tracer,
        )
        .expect("coordinator builds");
        service.serve_batch(&requests(), None);
    }

    // A fresh coordinator over the same root warm-starts every shard;
    // the merged journal's recovery block is the fleet-wide sum and
    // must balance: recovered + quarantined == files_seen.
    let mut service = ShardedService::build(
        &fleet,
        config(),
        options(1, Some(root.clone())),
        &registry,
        &tracer,
    )
    .expect("coordinator rebuilds");
    let batch = service.serve_batch(&requests(), None);
    let recovery = batch
        .journal
        .recovery
        .as_ref()
        .expect("merged journal carries the summed recovery block");
    assert_eq!(
        recovery.recovered + recovery.quarantined_count(),
        recovery.files_seen,
        "fleet-wide recovery must account for every snapshot file"
    );
    assert_eq!(recovery.recovered, VEHICLES);
    // Warm-started shards serve everything from the recovered cache.
    assert!(batch
        .outcomes
        .iter()
        .all(|o| matches!(o, ServeOutcome::Served(_))));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rebalancing_to_one_more_shard_leaves_every_dir_audit_clean() {
    let fleet = fleet();
    let registry = Registry::disabled();
    let tracer = Tracer::disabled();
    let root = temp_root("rebalance");
    {
        let mut service = ShardedService::build(
            &fleet,
            config(),
            options(1, Some(root.clone())),
            &registry,
            &tracer,
        )
        .expect("coordinator builds");
        service.serve_batch(&requests(), None);
    }

    let report = rebalance(&DiskBackend, &root, SHARDS, SHARDS + 1).expect("rebalance succeeds");
    assert!(report.skipped_corrupt.is_empty());
    assert_eq!(
        report.moved.len(),
        remapped(VEHICLES as u32, SHARDS, SHARDS + 1).len(),
        "rebalance moves exactly the remapped set"
    );

    // Every shard dir — including the new one — audits clean, and each
    // snapshot lives on the shard the grown partitioner assigns it to.
    let grown = Partitioner::new(SHARDS + 1);
    let mut seen = 0usize;
    for shard in 0..=SHARDS {
        let dir = shard_dir(&root, shard);
        if !dir.exists() {
            continue;
        }
        for entry in audit(&DiskBackend, &dir).expect("audit runs") {
            assert_eq!(
                entry.verdict,
                Ok(()),
                "corrupt file after rebalance: {}",
                entry.file
            );
            let vehicle = VehicleId(entry.vehicle_id.expect("snapshot names carry the vehicle"));
            assert_eq!(
                grown.shard_of(vehicle),
                shard,
                "vehicle {vehicle:?} is on the wrong shard after rebalance"
            );
            seen += 1;
        }
    }
    assert_eq!(seen, VEHICLES, "no snapshot lost or duplicated");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_full_disk_under_every_shard_store_fails_persists_never_requests() {
    let fleet = fleet();
    let registry = Registry::new();
    let root = temp_root("full-disk");
    // Each shard store gets its own budget: the manifest and a few
    // snapshots fit, the rest of the shard's vehicles do not.
    const BUDGET: u64 = 2_000;
    let plan = FaultPlan {
        seed: 41,
        disk: Some(DiskFaultPlan {
            full_disk_after_bytes: Some(BUDGET),
            ..DiskFaultPlan::default()
        }),
        ..FaultPlan::default()
    };
    let mut service = ShardedService::build(
        &fleet,
        config(),
        ShardOptions {
            threads: 2,
            faults: plan,
            store_root: Some(root.clone()),
            ..ShardOptions::new(SHARDS)
        },
        &registry,
        &Tracer::disabled(),
    )
    .expect("coordinator builds");
    let batch = service.serve_batch(&requests(), None);
    assert!(
        batch
            .outcomes
            .iter()
            .all(|o| matches!(o, ServeOutcome::RetrainedThenServed(_))),
        "a full disk must not fail a request: {:?}",
        batch.outcomes
    );
    let persisted = registry.counter("vup_store_persisted_total").get();
    let failed = registry.counter("vup_store_persist_failed_total").get();
    assert!(failed > 0, "the budget must run out");
    assert_eq!(persisted + failed, VEHICLES as u64);
    // The budget is per store: every shard persisted something.
    for shard in 0..SHARDS {
        let snapshots = std::fs::read_dir(shard_dir(&root, shard))
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("snap".as_ref()))
            .count();
        assert!(snapshots > 0, "shard {shard} persisted nothing");
    }
    let _ = std::fs::remove_dir_all(&root);
}
