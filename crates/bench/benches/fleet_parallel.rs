//! Criterion bench of the parallel fleet evaluation: wall-clock of
//! `evaluate_fleet` at 1, 2, 4, and 8 worker threads over the same
//! vehicle set. Vehicles are embarrassingly parallel (the paper trains
//! per vehicle), so throughput should scale until the core count or the
//! per-vehicle generation cost dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vup_bench::{evaluable_ids, small_fleet};
use vup_core::fleet_eval::evaluate_fleet;
use vup_core::{ModelSpec, PipelineConfig};
use vup_ml::RegressorSpec;
use vup_obs::{Registry, Tracer};

fn bench_fleet_parallel(c: &mut Criterion) {
    let fleet = small_fleet(120);
    let config = PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::lasso_paper()),
        retrain_every: 30,
        eval_tail: Some(120),
        ..PipelineConfig::default()
    };
    let ids = evaluable_ids(&fleet, &config, config.scenario, 12);
    let (registry, tracer) = (Registry::disabled(), Tracer::disabled());

    let mut group = c.benchmark_group("evaluate_fleet");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(evaluate_fleet(
                        black_box(&fleet),
                        black_box(&ids),
                        &config,
                        threads,
                        &registry,
                        &tracer,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_parallel);
criterion_main!(benches);
