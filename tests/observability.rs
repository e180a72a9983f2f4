//! Observability must be a write-only side channel: fleet evaluations
//! and served forecasts have to be bit-identical whether metrics are
//! recorded into a live registry or dropped by the no-op one, at every
//! thread count. These are the regression tests for that invariant.

use vehicle_usage_prediction::core::fleet_eval::{evaluate_fleet, FleetEvaluation};
use vehicle_usage_prediction::prelude::*;

fn eval_config() -> PipelineConfig {
    PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        train_window: 120,
        max_lag: 30,
        k: 10,
        retrain_every: 60,
        eval_tail: Some(90),
        ..PipelineConfig::default()
    }
}

/// Fleet evaluation with a disabled registry and tracer.
fn untraced(
    fleet: &Fleet,
    ids: &[VehicleId],
    cfg: &PipelineConfig,
    threads: usize,
) -> FleetEvaluation {
    evaluate_fleet(
        fleet,
        ids,
        cfg,
        threads,
        &Registry::disabled(),
        &Tracer::disabled(),
    )
    .0
}

fn assert_bit_identical(a: &FleetEvaluation, b: &FleetEvaluation, label: &str) {
    assert_eq!(a.members.len(), b.members.len(), "{label}");
    for (ma, mb) in a.members.iter().zip(&b.members) {
        assert_eq!(ma.vehicle_id, mb.vehicle_id, "{label}");
        match (&ma.outcome, &mb.outcome) {
            (Ok(ea), Ok(eb)) => {
                assert_eq!(
                    ea.percentage_error.to_bits(),
                    eb.percentage_error.to_bits(),
                    "{label}: PE diverged for vehicle {}",
                    ma.vehicle_id
                );
                assert_eq!(ea.mae.to_bits(), eb.mae.to_bits(), "{label}");
                assert_eq!(ea.points.len(), eb.points.len(), "{label}");
                for (pa, pb) in ea.points.iter().zip(&eb.points) {
                    assert_eq!(pa.predicted.to_bits(), pb.predicted.to_bits(), "{label}");
                }
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{label}"),
            _ => panic!("{label}: outcome kind mismatch"),
        }
    }
    assert_eq!(
        a.mean_percentage_error.to_bits(),
        b.mean_percentage_error.to_bits(),
        "{label}"
    );
}

#[test]
fn fleet_eval_is_bit_identical_with_and_without_metrics_across_threads() {
    let fleet = Fleet::generate(FleetConfig::small(8, 404));
    let ids: Vec<VehicleId> = (0..8).map(VehicleId).collect();
    let cfg = eval_config();

    let reference = untraced(&fleet, &ids, &cfg, 1);
    for threads in [1usize, 2, 4] {
        // No-op registry and tracer.
        let plain = untraced(&fleet, &ids, &cfg, threads);
        assert_bit_identical(&reference, &plain, &format!("plain, {threads} threads"));

        // Live registry: every span timed, every counter recorded.
        let registry = Registry::new();
        let (observed, summary) =
            evaluate_fleet(&fleet, &ids, &cfg, threads, &registry, &Tracer::disabled());
        assert_bit_identical(
            &reference,
            &observed,
            &format!("observed, {threads} threads"),
        );

        // The instrumentation itself must be internally consistent.
        assert_eq!(summary.tasks_run(), ids.len() as u64);
        assert!(summary.busy_nanos() > 0, "live metrics time the workers");
        let labels = [("pool", "fleet_eval")];
        for family in [
            "vup_executor_tasks_total",
            "vup_executor_chunks_claimed_total",
        ] {
            assert_eq!(
                registry.counter_with(family, &labels).get(),
                ids.len() as u64,
                "{family}"
            );
        }
        assert_eq!(
            registry
                .snapshot()
                .counter_total("vup_fleet_eval_vehicles_total"),
            ids.len() as u64
        );
    }
}

#[test]
fn disabled_registry_records_nothing_through_the_observed_path() {
    let fleet = Fleet::generate(FleetConfig::small(4, 405));
    let ids: Vec<VehicleId> = (0..4).map(VehicleId).collect();
    let registry = Registry::disabled();
    let (_, summary) = evaluate_fleet(
        &fleet,
        &ids,
        &eval_config(),
        2,
        &registry,
        &Tracer::disabled(),
    );
    assert!(registry.snapshot().samples.is_empty());
    // Counts are still collected (cheap), but no clock was read.
    assert_eq!(summary.tasks_run(), 4);
    assert_eq!(summary.busy_nanos(), 0);
    assert_eq!(summary.idle_nanos(), 0);
}

#[test]
fn fleet_eval_is_bit_identical_with_live_tracer_across_threads() {
    let fleet = Fleet::generate(FleetConfig::small(8, 404));
    let ids: Vec<VehicleId> = (0..8).map(VehicleId).collect();
    let cfg = eval_config();

    let reference = untraced(&fleet, &ids, &cfg, 1);
    for threads in [1usize, 2, 4] {
        let tracer = Tracer::new();
        let (traced, _) =
            evaluate_fleet(&fleet, &ids, &cfg, threads, &Registry::disabled(), &tracer);
        assert_bit_identical(&reference, &traced, &format!("traced, {threads} threads"));

        // The span tree covers the whole run regardless of thread count.
        let snapshot = tracer.snapshot();
        let count = |name: &str| snapshot.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("evaluate_fleet"), 1, "{threads} threads");
        assert_eq!(count("evaluate_vehicle"), ids.len(), "{threads} threads");
        assert_eq!(count("view_build"), ids.len(), "{threads} threads");
        assert_eq!(snapshot.dropped, 0);
    }
}

#[test]
fn disabled_tracer_records_nothing_and_reads_no_clock() {
    let fleet = Fleet::generate(FleetConfig::small(4, 407));
    let ids: Vec<VehicleId> = (0..4).map(VehicleId).collect();
    let tracer = Tracer::disabled();
    let (_, summary) = evaluate_fleet(
        &fleet,
        &ids,
        &eval_config(),
        2,
        &Registry::disabled(),
        &tracer,
    );
    assert!(tracer.snapshot().is_empty());
    // The traced code path stayed clock-free end to end.
    assert_eq!(summary.busy_nanos(), 0);
    assert_eq!(summary.idle_nanos(), 0);
}

#[test]
fn served_forecasts_are_bit_identical_with_and_without_metrics_across_threads() {
    let fleet = Fleet::generate(FleetConfig::small(6, 406));
    let requests: Vec<BatchRequest> = (0..6)
        .map(|id| BatchRequest {
            vehicle_id: VehicleId(id),
            horizon: 3,
        })
        .collect();
    let config = || PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        train_window: 120,
        max_lag: 30,
        k: 10,
        retrain_every: 7,
        ..PipelineConfig::default()
    };

    let reference = {
        let service = PredictionService::new(&fleet, config(), 1).unwrap();
        service.serve_batch(&requests, None)
    };
    for threads in [1usize, 2, 4] {
        let registry = Registry::new();
        let service =
            PredictionService::new_observed(&fleet, config(), threads, &registry).unwrap();
        // Two rounds: retrain-then-serve, then cache hits — both must
        // yield the reference forecasts bit for bit.
        let first = service.serve_batch(&requests, None);
        for (a, b) in reference.iter().zip(&first) {
            let (fa, fb) = (a.forecast().unwrap(), b.forecast().unwrap());
            let bits = |f: &vehicle_usage_prediction::serve::Forecast| {
                f.hours.iter().map(|h| h.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(fa), bits(fb), "threads = {threads}");
        }
        let second = service.serve_batch(&requests, None);
        assert!(second.iter().all(ServeOutcome::is_cache_hit));
        assert_eq!(
            registry
                .snapshot()
                .counter_total("vup_serve_outcomes_total"),
            2 * requests.len() as u64
        );
    }
}

#[test]
fn served_forecasts_are_bit_identical_with_live_tracer_across_threads() {
    let fleet = Fleet::generate(FleetConfig::small(6, 406));
    let requests: Vec<BatchRequest> = (0..6)
        .map(|id| BatchRequest {
            vehicle_id: VehicleId(id),
            horizon: 3,
        })
        .collect();
    let config = || PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        train_window: 120,
        max_lag: 30,
        k: 10,
        retrain_every: 7,
        ..PipelineConfig::default()
    };

    let reference = {
        let service = PredictionService::new(&fleet, config(), 1).unwrap();
        service.serve_batch(&requests, None)
    };
    for threads in [1usize, 2, 4] {
        let tracer = Tracer::new();
        let service = PredictionService::new(&fleet, config(), threads)
            .unwrap()
            .with_tracer(tracer.clone());
        let outcomes = service.serve_batch(&requests, None);
        assert_eq!(outcomes, reference, "threads = {threads}");
        for (a, b) in reference.iter().zip(&outcomes) {
            let (fa, fb) = (a.forecast().unwrap(), b.forecast().unwrap());
            let bits = |f: &vehicle_usage_prediction::serve::Forecast| {
                f.hours.iter().map(|h| h.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(fa), bits(fb), "threads = {threads}");
        }

        let snapshot = tracer.snapshot();
        let count = |name: &str| snapshot.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("serve_batch"), 1, "{threads} threads");
        assert_eq!(count("view_build"), requests.len(), "{threads} threads");
        assert_eq!(count("predict"), requests.len(), "{threads} threads");
        assert_eq!(snapshot.dropped, 0);
    }
}

#[test]
fn provenance_survives_tracing_and_reports_zero_nanos_when_disabled() {
    let fleet = Fleet::generate(FleetConfig::small(2, 408));
    let requests: Vec<BatchRequest> = (0..2)
        .map(|id| BatchRequest {
            vehicle_id: VehicleId(id),
            horizon: 2,
        })
        .collect();
    let config = PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        train_window: 120,
        max_lag: 30,
        k: 10,
        retrain_every: 7,
        ..PipelineConfig::default()
    };
    let service = PredictionService::new(&fleet, config, 1).unwrap();
    let outcomes = service.serve_batch(&requests, None);
    for outcome in &outcomes {
        let p = outcome.provenance();
        // Without a live registry the stage clocks were never read.
        assert_eq!(p.stage_nanos.view_build, 0);
        assert_eq!(p.stage_nanos.fit, 0);
        assert_eq!(p.stage_nanos.predict, 0);
        assert!(p.trained_at.is_some());
    }
    // The journal serializes every record and parses back unchanged.
    let journal = ServeJournal::from_outcomes(&outcomes);
    let parsed = ServeJournal::from_json(&journal.to_json()).unwrap();
    assert_eq!(parsed, journal);
}
