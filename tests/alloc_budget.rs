//! Allocation discipline of the serving hot path (the speed-pass PR's
//! test harness).
//!
//! A counting global allocator wraps `System` so tests can meter how
//! many heap allocations one `serve_batch` call performs. The contract
//! under test:
//!
//! - after the first fit episode per vehicle, further retrain episodes
//!   perform **zero design-matrix (re)allocations** — the per-vehicle
//!   [`TrainArena`]s reach steady state and their `grows` counter stays
//!   flat while fits keep happening;
//! - a fully warm cache-hit batch allocates strictly less than the cold
//!   batch that populated it, and identically from batch to batch;
//! - a warm cache-hit batch allocates the same bytes however long the
//!   served history is: serving "as of" a day shares the memoized series
//!   instead of copying it;
//! - arena-built datasets are *exactly* (bit-for-bit) what the
//!   per-record builder produces, across arbitrary window slides
//!   (proptest);
//! - a warm commit log appends without allocating until it rolls a
//!   segment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vehicle_usage_prediction::core::window::{build_dataset, build_dataset_arena};
use vehicle_usage_prediction::fleetsim::dropout::DropoutConfig;
use vehicle_usage_prediction::fleetsim::generator::generate_day_raw_reports_scaled;
use vehicle_usage_prediction::ml::arena::fingerprint;
use vehicle_usage_prediction::ml::TrainArena;
use vehicle_usage_prediction::prelude::*;
use vehicle_usage_prediction::serve::PredictionService;

use proptest::prelude::*;

/// `System`, with per-thread counters of the calls to every allocation
/// entry point and of the bytes they asked for.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Counted per thread so that other
    /// threads of the test harness (or concurrently running tests) never
    /// land in a measured window; every metered call below runs on the
    /// calling thread (`n_threads = 1`, synchronous log appends). The
    /// `const` initializer and drop-free `Cell` keep the access itself
    /// allocation-free.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a realloc counts its new size).
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    ALLOC_CALLS.with(|calls| calls.set(calls.get() + 1));
    ALLOC_BYTES.with(|total| total.set(total.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Bytes the calling thread's allocations have asked for so far.
fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

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
fn warm_store_fits_do_not_reallocate_design_matrices() {
    let fleet = Fleet::generate(FleetConfig::small(8, 4242));
    let config = fast_config();
    let view_len =
        vehicle_usage_prediction::core::VehicleView::build(&fleet, VehicleId(0), config.scenario)
            .len();
    // Enough room for several stale-model retrain rounds.
    assert!(
        view_len >= config.train_window + 60,
        "series too short: {view_len}"
    );
    let service = PredictionService::new(&fleet, config.clone(), 1).unwrap();
    let reqs = requests(&[0, 1, 2, 3], 3);

    // Round 0: cold — every vehicle fits once, arenas grow from empty.
    let first_as_of = config.train_window + 10;
    service.serve_batch(&reqs, Some(first_as_of));
    let after_first = service.scratch_stats();
    assert_eq!(after_first.builds, 4, "one fit per vehicle expected");
    assert!(after_first.grows > 0, "first episodes must allocate");

    // Rounds 1..6: each advances `as_of` by exactly `retrain_every`, so
    // every vehicle's cached model is stale and refits. The window size
    // and feature width are unchanged — the arenas must not grow again.
    for round in 1..=5u64 {
        let as_of = first_as_of + round as usize * config.retrain_every;
        let outcomes = service.serve_batch(&reqs, Some(as_of));
        assert!(
            outcomes.iter().all(|o| o.forecast().is_some()),
            "round {round} failed"
        );
        let stats = service.scratch_stats();
        assert_eq!(
            stats.builds,
            4 * (round + 1),
            "round {round}: fits should keep running"
        );
        assert_eq!(
            stats.grows, after_first.grows,
            "round {round}: a warm fit episode (re)allocated design-matrix storage"
        );
    }
}

#[test]
fn warm_cache_hit_batches_allocate_less_than_cold_and_steadily() {
    let fleet = Fleet::generate(FleetConfig::small(8, 99));
    let service = PredictionService::new(&fleet, fast_config(), 1).unwrap();
    let reqs = requests(&[0, 1, 2, 3, 4], 3);

    let before_cold = allocs();
    service.serve_batch(&reqs, None);
    let cold = allocs() - before_cold;

    // First warm batch still touches lazily initialized state; measure
    // from the second on.
    service.serve_batch(&reqs, None);
    let before_warm2 = allocs();
    service.serve_batch(&reqs, None);
    let warm2 = allocs() - before_warm2;
    let before_warm3 = allocs();
    service.serve_batch(&reqs, None);
    let warm3 = allocs() - before_warm3;

    assert_eq!(
        service.scratch_stats().builds,
        5,
        "warm batches must not refit"
    );
    assert!(
        warm2 * 2 < cold,
        "a warm cache-hit batch should allocate far less than the cold batch \
         (cold {cold}, warm {warm2})"
    );
    assert_eq!(
        warm2, warm3,
        "consecutive fully-warm batches must have identical allocation counts"
    );
}

#[test]
fn warm_cache_hit_batches_allocate_the_same_bytes_however_long_the_history() {
    let fleet = Fleet::generate(FleetConfig::small(8, 99));
    let service = PredictionService::new(&fleet, fast_config(), 1).unwrap();
    let reqs = requests(&[0, 1, 2, 3, 4, 5, 6, 7], 3);
    let warm_bytes = |as_of: usize| {
        service.serve_batch(&reqs, Some(as_of)); // (re)trains
        service.serve_batch(&reqs, Some(as_of)); // first warm batch
        let before = alloc_bytes();
        let outcomes = service.serve_batch(&reqs, Some(as_of));
        let bytes = alloc_bytes() - before;
        assert!(
            outcomes.iter().all(|o| o.is_cache_hit()),
            "as_of {as_of}: {outcomes:?}"
        );
        bytes
    };
    let (short, long) = (warm_bytes(200), warm_bytes(400));
    assert_eq!(
        short, long,
        "a warm hit batch allocated {short} bytes as of slot 200 but {long} as of slot 400: \
         serving copies history"
    );
}

#[test]
fn warm_commit_log_appends_that_do_not_roll_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("vup-alloc-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut log, _) = CommitLog::open(
        Box::new(DiskBackend),
        &dir,
        LogOptions::default(),
        &Registry::disabled(),
        &Tracer::disabled(),
    )
    .unwrap();
    let fleet = Fleet::generate(FleetConfig::small(2, 31));
    let reports: Vec<_> = (400..414)
        .flat_map(|day| {
            let date = fleet.config().start.plus_days(day);
            generate_day_raw_reports_scaled(
                &fleet,
                VehicleId(0),
                date,
                &DropoutConfig::default(),
                1.0,
            )
        })
        .collect();
    assert!(reports.len() >= 100, "only {} reports", reports.len());
    // Warm-up: the first append opens the first segment.
    for report in &reports[..4] {
        log.append(0, report).unwrap();
    }
    let before = allocs();
    for report in &reports[4..] {
        log.append(0, report).unwrap();
    }
    let during = allocs() - before;
    assert_eq!(log.segment_count(), 1, "the measured appends must not roll");
    assert_eq!(
        during,
        0,
        "{} warm appends allocated {during} times",
        reports.len() - 4
    );
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Arena reuse is exact: over an arbitrary sequence of window
    /// slides (forward, backward, widening, shrinking), the arena-built
    /// dataset is bit-for-bit the per-record-built one.
    #[test]
    fn prop_arena_built_matrix_equals_per_record_build(
        lags in proptest::collection::vec(1usize..=30, 1..8),
        starts in proptest::collection::vec(30usize..260, 1..10),
        width in 35usize..90,
    ) {
            let fleet = Fleet::generate(FleetConfig::small(3, 777));
        let config = fast_config();
        let view = vehicle_usage_prediction::core::VehicleView::build(
            &fleet, VehicleId(1), config.scenario,
        );
        let features = &config.features;
        let key = fingerprint(lags.iter().map(|&l| l as u64));
        let max_lag = lags.iter().copied().max().unwrap();
        let mut arena = TrainArena::new();
        for &start in &starts {
            let from = start.max(max_lag);
            let to = (from + width).min(view.len());
            prop_assume!(from < to);
            let direct = build_dataset(&view, from, to, &lags, features).unwrap();
            let pooled =
                build_dataset_arena(&mut arena, key, &view, from, to, &lags, features).unwrap();
            prop_assert_eq!(pooled.x().shape(), direct.x().shape());
            prop_assert_eq!(pooled.x().as_slice(), direct.x().as_slice());
            prop_assert_eq!(pooled.y(), direct.y());
            arena.reclaim(pooled);
        }
    }
}
