//! Lock-free work dispatch over scoped threads.
//!
//! Both offline fleet evaluation ([`crate::fleet_eval`]) and online batch
//! serving (`vup-serve`) run many independent per-vehicle tasks and need
//! their results back in input order. [`run`] does that without any
//! mutex on the hot path:
//!
//! - **Dispatch** is a single `AtomicUsize` cursor. Workers claim one
//!   task index at a time with `fetch_add`, so there is no dispatch lock
//!   and no per-task allocation; one task per claim gives the best load
//!   balance for heavy, uneven tasks such as per-vehicle model training.
//! - **Collection** writes into a pre-allocated per-slot output vector.
//!   Each index is claimed by exactly one worker, so slot writes never
//!   contend; there is no result lock and no post-hoc sort — outputs
//!   land in input order by construction.
//! - **Panics are isolated.** Each task runs under `catch_unwind`; a
//!   panicking task yields an `Err` with the captured message in its own
//!   slot while every other task completes normally.
//!
//! Determinism: task `i` always computes the same value regardless of
//! thread count or scheduling, and slot `i` always holds task `i`'s
//! result, so the returned vector is identical for any thread count.
//!
//! **Observability.** Each worker counts its executed tasks locally
//! (plain `u64`s, no shared state on the hot path) and, when the supplied
//! [`ExecutorMetrics`] are live, times its busy and idle spans. The stats
//! are folded into a [`RunSummary`] and published to the metrics registry
//! once per run, on the coordinating thread. Every worker runs under an
//! `executor_worker` span parented to the caller's [`SpanCtx`]. Callers
//! without observability pass [`ExecutorMetrics::disabled`] and
//! [`SpanCtx::disabled`]: then no clock is ever read, and the task
//! results are bit-identical either way — the stats are write-only.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vup_obs::{Counter, Gauge, Registry, SpanCtx};

/// Outcome of one task: its value, or the captured panic message.
pub type TaskResult<T> = std::result::Result<T, String>;

/// A shared shutdown flag: clones observe the same state, and once
/// [`CancelToken::cancel`] is called every clone reports cancelled.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A token that has not been cancelled.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token; every subsequent check reports cancelled.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What one executor worker did during one run.
///
/// The task count is always collected (one local `u64` add per task).
/// The nanosecond spans are only measured when the run's
/// [`ExecutorMetrics`] are live; otherwise they stay 0 and the clock is
/// never read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker claimed and executed.
    pub tasks_run: u64,
    /// Nanoseconds spent inside task bodies.
    pub busy_nanos: u64,
    /// Nanoseconds spent outside task bodies (claim overhead plus waiting
    /// for `thread::scope` to wind down).
    pub idle_nanos: u64,
}

/// Per-worker stats of one [`run`] call.
///
/// Worker entries are in completion order, which is scheduler-dependent;
/// the totals are what to assert on. Summed over all workers,
/// `tasks_run` is always `n_tasks`, for every thread count.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// One entry per worker that participated in the run.
    pub workers: Vec<WorkerStats>,
}

impl RunSummary {
    /// Total tasks executed across all workers.
    pub fn tasks_run(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_run).sum()
    }

    /// Total nanoseconds spent inside task bodies (0 when untimed).
    pub fn busy_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).sum()
    }

    /// Total nanoseconds spent outside task bodies (0 when untimed).
    pub fn idle_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_nanos).sum()
    }
}

/// Registry handles for one executor pool's metrics.
///
/// Register once per pool (e.g. `"fleet_eval"`, `"serve"`) and reuse for
/// every run; the `pool` label keeps independent dispatch sites apart in
/// one registry. [`ExecutorMetrics::disabled`] records nothing and keeps
/// runs clock-free.
pub struct ExecutorMetrics {
    enabled: bool,
    runs: Counter,
    claims: Counter,
    tasks: Counter,
    busy_nanos: Counter,
    idle_nanos: Counter,
    workers: Gauge,
}

impl ExecutorMetrics {
    /// Registers the executor metric family under `pool`.
    pub fn register(registry: &Registry, pool: &str) -> ExecutorMetrics {
        registry.describe("vup_executor_runs_total", "Executor runs, by pool.");
        registry.describe(
            "vup_executor_chunks_claimed_total",
            "Claims from the dispatch cursor (one task each).",
        );
        registry.describe("vup_executor_tasks_total", "Tasks executed.");
        registry.describe(
            "vup_executor_busy_nanos_total",
            "Worker nanoseconds spent inside task bodies.",
        );
        registry.describe(
            "vup_executor_idle_nanos_total",
            "Worker nanoseconds spent outside task bodies.",
        );
        registry.describe(
            "vup_executor_workers",
            "Workers that participated in the last run.",
        );
        let labels = [("pool", pool)];
        ExecutorMetrics {
            enabled: registry.is_enabled(),
            runs: registry.counter_with("vup_executor_runs_total", &labels),
            claims: registry.counter_with("vup_executor_chunks_claimed_total", &labels),
            tasks: registry.counter_with("vup_executor_tasks_total", &labels),
            busy_nanos: registry.counter_with("vup_executor_busy_nanos_total", &labels),
            idle_nanos: registry.counter_with("vup_executor_idle_nanos_total", &labels),
            workers: registry.gauge_with("vup_executor_workers", &labels),
        }
    }

    /// Metrics that record nothing and suppress all timing.
    pub fn disabled() -> ExecutorMetrics {
        ExecutorMetrics::register(&Registry::disabled(), "")
    }

    /// Whether runs under these metrics measure and record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Publishes one run's summary (single update pass, coordinator only).
    fn record(&self, summary: &RunSummary) {
        if !self.enabled {
            return;
        }
        self.runs.inc();
        self.claims.add(summary.tasks_run());
        self.tasks.add(summary.tasks_run());
        self.busy_nanos.add(summary.busy_nanos());
        self.idle_nanos.add(summary.idle_nanos());
        self.workers.set(summary.workers.len() as f64);
    }
}

/// Saturating nanosecond reading of an elapsed [`Instant`] span.
fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Pre-allocated output slots, one per task.
///
/// Safety contract: index `i` is written by exactly one worker (the one
/// that claimed it from the atomic cursor) and only read after
/// `thread::scope` has joined every worker, so no cell is ever aliased
/// mutably. This is what lets the executor require only `T: Send` —
/// `OnceLock` slots would demand `T: Sync`, which task outputs have no
/// reason to satisfy.
struct Slots<T> {
    cells: Vec<UnsafeCell<Option<T>>>,
}

unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(n: usize) -> Slots<T> {
        Slots {
            cells: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// Writes slot `i`. Caller must be the unique claimant of `i`.
    unsafe fn write(&self, i: usize, value: T) {
        unsafe { *self.cells[i].get() = Some(value) };
    }

    /// Consumes the slots after all workers have been joined.
    fn into_values(self) -> impl Iterator<Item = Option<T>> {
        self.cells.into_iter().map(UnsafeCell::into_inner)
    }
}

/// Resolves a requested thread count: `0` means the machine's available
/// parallelism, and the result is never larger than the task count.
pub fn effective_threads(n_threads: usize, n_tasks: usize) -> usize {
    let requested = if n_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        n_threads
    };
    requested.min(n_tasks).max(1)
}

/// Runs `n_tasks` independent tasks on `n_threads` workers (0 = auto)
/// and returns their results in task-index order, plus a [`RunSummary`]
/// of what each worker did.
///
/// Every worker (including the single-threaded inline path) runs under
/// an `executor_worker` span parented to `parent`, annotated with the
/// tasks it ran. When `metrics` are live the workers also time their
/// busy/idle spans and the summary is published to the registry; with
/// disabled metrics and a disabled `parent` no clock is read. The task
/// results are identical either way.
pub fn run<T, F>(
    n_tasks: usize,
    n_threads: usize,
    metrics: &ExecutorMetrics,
    parent: &SpanCtx,
    task: F,
) -> (Vec<TaskResult<T>>, RunSummary)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_tasks == 0 {
        let summary = RunSummary::default();
        metrics.record(&summary);
        return (Vec::new(), summary);
    }
    let n_threads = effective_threads(n_threads, n_tasks);
    let timed = metrics.is_enabled();

    let run_one = |i: usize| -> TaskResult<T> {
        catch_unwind(AssertUnwindSafe(|| task(i))).map_err(|payload| panic_message(&*payload))
    };

    if n_threads == 1 {
        // Same semantics (per-task panic isolation), no thread overhead.
        let mut span = parent.child("executor_worker");
        let started = timed.then(Instant::now);
        let results: Vec<TaskResult<T>> = (0..n_tasks).map(run_one).collect();
        let summary = RunSummary {
            workers: vec![WorkerStats {
                tasks_run: n_tasks as u64,
                busy_nanos: started.map_or(0, elapsed_nanos),
                idle_nanos: 0,
            }],
        };
        span.arg("tasks", summary.tasks_run());
        metrics.record(&summary);
        return (results, summary);
    }

    let slots: Slots<TaskResult<T>> = Slots::new(n_tasks);
    let cursor = AtomicUsize::new(0);
    // Cold path: each worker pushes its local stats exactly once, after
    // its last claim fails. Never touched while tasks run.
    let worker_stats: Mutex<Vec<WorkerStats>> = Mutex::new(Vec::with_capacity(n_threads));

    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| {
                let mut span = parent.child("executor_worker");
                let worker_started = timed.then(Instant::now);
                let mut stats = WorkerStats::default();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n_tasks {
                        break;
                    }
                    stats.tasks_run += 1;
                    let task_started = timed.then(Instant::now);
                    let result = run_one(i);
                    // Sound: this worker is the unique claimant of i
                    // (fetch_add hands out each index once).
                    unsafe { slots.write(i, result) };
                    if let Some(t0) = task_started {
                        stats.busy_nanos += elapsed_nanos(t0);
                    }
                }
                if let Some(t0) = worker_started {
                    stats.idle_nanos = elapsed_nanos(t0).saturating_sub(stats.busy_nanos);
                }
                span.arg("tasks", stats.tasks_run);
                worker_stats.lock().expect("stats lock").push(stats);
            });
        }
    });

    let summary = RunSummary {
        workers: worker_stats.into_inner().expect("stats lock"),
    };
    metrics.record(&summary);

    let results = slots
        .into_values()
        .map(|slot| slot.expect("every index is claimed and written before its worker is joined"))
        .collect();
    (results, summary)
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An untraced, unmetered run's task values (panics unwrap).
    fn values<T: Send>(
        n_tasks: usize,
        n_threads: usize,
        task: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        run(
            n_tasks,
            n_threads,
            &ExecutorMetrics::disabled(),
            &SpanCtx::disabled(),
            task,
        )
        .0
        .into_iter()
        .map(|r| r.unwrap())
        .collect()
    }

    #[test]
    fn results_are_in_task_order_for_all_thread_counts() {
        for threads in [1usize, 2, 4, 0] {
            let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(
                values(100, threads, |i| i * i),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn claiming_covers_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        for threads in [1usize, 2, 4, 8] {
            let calls: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
            let results = values(97, threads, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(results.len(), 97);
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "threads {threads}, index {i}");
            }
        }
    }

    #[test]
    fn a_panicking_task_is_isolated_to_its_slot() {
        for threads in [1usize, 4] {
            let (results, _) = run(
                10,
                threads,
                &ExecutorMetrics::disabled(),
                &SpanCtx::disabled(),
                |i| {
                    if i % 3 == 0 {
                        panic!("task {i} exploded");
                    }
                    i + 1
                },
            );
            for (i, r) in results.iter().enumerate() {
                if i % 3 == 0 {
                    let message = r.as_ref().unwrap_err();
                    assert!(
                        message.contains(&format!("task {i} exploded")),
                        "got: {message}"
                    );
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i + 1, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn untimed_runs_count_every_task_and_read_no_clock() {
        for threads in [1usize, 4, 0] {
            let (results, summary) = run(
                97,
                threads,
                &ExecutorMetrics::disabled(),
                &SpanCtx::disabled(),
                |i| i * 2,
            );
            assert_eq!(results.len(), 97, "threads {threads}");
            // The task total is deterministic for every schedule.
            assert_eq!(summary.tasks_run(), 97, "threads {threads}");
            assert_eq!(summary.busy_nanos(), 0);
            assert_eq!(summary.idle_nanos(), 0);
        }
    }

    #[test]
    fn live_metrics_accumulate_run_totals() {
        let registry = Registry::new();
        let metrics = ExecutorMetrics::register(&registry, "test_pool");
        let (_, first) = run(20, 4, &metrics, &SpanCtx::disabled(), |i| i);
        let (_, second) = run(10, 2, &metrics, &SpanCtx::disabled(), |i| i);
        assert!(first.workers.len() <= 4 && !first.workers.is_empty());

        let labels = [("pool", "test_pool")];
        let counter = |name: &str| registry.counter_with(name, &labels).get();
        assert_eq!(counter("vup_executor_runs_total"), 2);
        assert_eq!(counter("vup_executor_tasks_total"), 30);
        assert_eq!(counter("vup_executor_chunks_claimed_total"), 30);
        assert_eq!(
            counter("vup_executor_busy_nanos_total"),
            first.busy_nanos() + second.busy_nanos()
        );
        assert_eq!(
            registry.gauge_with("vup_executor_workers", &labels).get(),
            second.workers.len() as f64
        );
    }

    #[test]
    fn an_empty_run_still_counts_the_run() {
        let registry = Registry::new();
        let metrics = ExecutorMetrics::register(&registry, "empty");
        let (results, summary) = run(0, 4, &metrics, &SpanCtx::disabled(), |_: usize| -> u8 {
            unreachable!()
        });
        assert!(results.is_empty() && summary.workers.is_empty());
        let labels = [("pool", "empty")];
        assert_eq!(
            registry
                .counter_with("vup_executor_runs_total", &labels)
                .get(),
            1
        );
        assert_eq!(
            registry
                .counter_with("vup_executor_tasks_total", &labels)
                .get(),
            0
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_records_worker_spans() {
        use vup_obs::Tracer;
        for threads in [1usize, 4] {
            let tracer = Tracer::new();
            let root = tracer.root("run");
            let (traced, summary) = run(
                40,
                threads,
                &ExecutorMetrics::disabled(),
                &root.ctx(),
                |i| i * 3,
            );
            drop(root);
            let traced: Vec<usize> = traced.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(
                traced,
                values(40, threads, |i| i * 3),
                "threads = {threads}"
            );

            let snapshot = tracer.snapshot();
            let workers: Vec<_> = snapshot
                .events
                .iter()
                .filter(|e| e.name == "executor_worker")
                .collect();
            assert_eq!(workers.len(), summary.workers.len(), "threads = {threads}");
            // Worker spans carry the same totals the summary reports.
            let tasks: u64 = workers
                .iter()
                .map(|e| {
                    e.args
                        .iter()
                        .find(|(k, _)| *k == "tasks")
                        .unwrap()
                        .1
                        .parse::<u64>()
                        .unwrap()
                })
                .sum();
            assert_eq!(tasks, 40);
        }
    }

    #[test]
    fn cancel_token_clones_share_one_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled() && clone.is_cancelled());
    }

    #[test]
    fn effective_threads_resolves_auto_and_caps() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
    }
}
