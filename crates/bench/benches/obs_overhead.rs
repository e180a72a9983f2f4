//! Criterion bench of the observability layer's overhead.
//!
//! Five comparisons back the "zero cost when disabled" claim:
//!
//! 1. raw metric operations — counter increments and histogram observes
//!    against their no-op (disabled-registry) counterparts;
//! 2. the executor — `executor::run` with disabled vs. live
//!    `ExecutorMetrics` and `SpanCtx` on identical task sets;
//! 3. end-to-end fleet evaluation — `evaluate_fleet` with a disabled vs.
//!    a live registry and tracer;
//! 4. tracer spans — live ring-buffer records vs. the clock-free no-op
//!    spans of a disabled tracer;
//! 5. drift monitors — per-residual CUSUM updates and full fleet health
//!    reports.
//!
//! The disabled variants are the uninstrumented baseline; the live
//! variants bound what full instrumentation costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vup_bench::{evaluable_ids, small_fleet};
use vup_core::executor::{self, ExecutorMetrics};
use vup_core::fleet_eval::evaluate_fleet;
use vup_core::{ModelSpec, PipelineConfig};
use vup_ml::RegressorSpec;
use vup_obs::{Buckets, FleetMonitor, MonitorConfig, Registry, SpanCtx, Tracer};

fn bench_metric_ops(c: &mut Criterion) {
    let registry = Registry::new();
    let live_counter = registry.counter_with("bench_counter", &[]);
    let live_hist = registry.histogram_with("bench_hist", &[], Buckets::latency());
    let disabled = Registry::disabled();
    let noop_counter = disabled.counter_with("bench_counter", &[]);
    let noop_hist = disabled.histogram_with("bench_hist", &[], Buckets::latency());

    let mut group = c.benchmark_group("metric_ops");
    group.bench_function("counter_inc/live", |b| b.iter(|| live_counter.inc()));
    group.bench_function("counter_inc/noop", |b| b.iter(|| noop_counter.inc()));
    group.bench_function("histogram_observe/live", |b| {
        b.iter(|| live_hist.observe(black_box(4_096)))
    });
    group.bench_function("histogram_observe/noop", |b| {
        b.iter(|| noop_hist.observe(black_box(4_096)))
    });
    group.bench_function("histogram_time/live", |b| {
        b.iter(|| live_hist.time(|| black_box(17u64).wrapping_mul(13)))
    });
    group.bench_function("histogram_time/noop", |b| {
        b.iter(|| noop_hist.time(|| black_box(17u64).wrapping_mul(13)))
    });
    group.finish();
}

fn bench_executor_observed(c: &mut Criterion) {
    const N_TASKS: usize = 512;
    let work = |i: usize| -> u64 {
        let mut acc = i as u64;
        for _ in 0..200 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    };

    let mut group = c.benchmark_group("executor_observed");
    group.sample_size(20);
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("disabled", threads), &threads, |b, &t| {
            let metrics = ExecutorMetrics::disabled();
            let parent = SpanCtx::disabled();
            b.iter(|| black_box(executor::run(N_TASKS, t, &metrics, &parent, work)))
        });
        group.bench_with_input(BenchmarkId::new("live", threads), &threads, |b, &t| {
            let registry = Registry::new();
            let metrics = ExecutorMetrics::register(&registry, "bench");
            let tracer = Tracer::new();
            b.iter(|| {
                let root = tracer.root("bench_run");
                black_box(executor::run(N_TASKS, t, &metrics, &root.ctx(), work))
            })
        });
    }
    group.finish();
}

fn bench_fleet_eval_observed(c: &mut Criterion) {
    let fleet = small_fleet(120);
    let config = PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::lasso_paper()),
        retrain_every: 30,
        eval_tail: Some(120),
        ..PipelineConfig::default()
    };
    let ids = evaluable_ids(&fleet, &config, config.scenario, 8);

    let mut group = c.benchmark_group("fleet_eval_observed");
    group.sample_size(10);
    group.bench_function("disabled", |b| {
        let (registry, tracer) = (Registry::disabled(), Tracer::disabled());
        b.iter(|| {
            black_box(evaluate_fleet(
                black_box(&fleet),
                &ids,
                &config,
                4,
                &registry,
                &tracer,
            ))
        })
    });
    group.bench_function("live", |b| {
        let (registry, tracer) = (Registry::new(), Tracer::new());
        b.iter(|| {
            black_box(evaluate_fleet(
                black_box(&fleet),
                &ids,
                &config,
                4,
                &registry,
                &tracer,
            ))
        })
    });
    group.finish();
}

fn bench_span_ops(c: &mut Criterion) {
    // The live tracer's ring saturates after its capacity of events;
    // past that, records take the drop-newest branch — which is exactly
    // the steady-state cost of tracing a long run. The noop variants
    // must be near-free and never read the clock.
    let live = Tracer::new();
    let noop = Tracer::disabled();

    let mut group = c.benchmark_group("span_ops");
    group.bench_function("root_span/live", |b| {
        b.iter(|| live.root(black_box("bench_root")))
    });
    group.bench_function("root_span/noop", |b| {
        b.iter(|| noop.root(black_box("bench_root")))
    });
    let live_root = live.root("bench_parent");
    group.bench_function("child_span_with_arg/live", |b| {
        b.iter(|| {
            let mut span = live_root.child("child");
            span.arg("i", black_box(7u64));
        })
    });
    let noop_root = noop.root("bench_parent");
    group.bench_function("child_span_with_arg/noop", |b| {
        b.iter(|| {
            let mut span = noop_root.child("child");
            span.arg("i", black_box(7u64));
        })
    });
    group.finish();
}

fn bench_monitor_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor");
    group.bench_function("observe_residual", |b| {
        let monitor = FleetMonitor::new(MonitorConfig::default());
        monitor.set_baseline(0, 1.0);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            monitor.observe_residual(0, black_box((i % 7) as f64 * 0.3));
        })
    });
    group.bench_function("health_100_vehicles", |b| {
        let monitor = FleetMonitor::new(MonitorConfig::default());
        for vehicle in 0..100u32 {
            monitor.set_baseline(vehicle, 1.0);
            for i in 0..50 {
                monitor.observe_residual(vehicle, f64::from(i % 5) * 0.4);
            }
        }
        b.iter(|| black_box(monitor.health()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_metric_ops,
    bench_executor_observed,
    bench_fleet_eval_observed,
    bench_span_ops,
    bench_monitor_updates
);
criterion_main!(benches);
