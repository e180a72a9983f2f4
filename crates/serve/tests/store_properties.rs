//! Property tests for the model store and its serving semantics.

use proptest::prelude::*;

use vup_core::{ModelSpec, PipelineConfig, VehicleView};
use vup_fleetsim::fleet::{Fleet, FleetConfig, VehicleId};
use vup_ml::baseline::BaselineSpec;
use vup_ml::RegressorSpec;
use vup_obs::SpanCtx;
use vup_serve::{BatchRequest, ModelStore, PredictionService, ServeOutcome};

fn fast_config(model: ModelSpec) -> PipelineConfig {
    PipelineConfig {
        model,
        train_window: 100,
        max_lag: 20,
        k: 8,
        retrain_every: 7,
        ..PipelineConfig::default()
    }
}

fn forecast_bits(outcome: &ServeOutcome) -> Vec<u64> {
    outcome
        .forecast()
        .map(|f| f.hours.iter().map(|h| h.to_bits()).collect())
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A cache hit must serve bit-for-bit the prediction a fresh train
    /// would produce: caching is an optimization, never a behaviour
    /// change.
    #[test]
    fn cache_hit_equals_fresh_train(
        seed in 0_u64..1000,
        horizon in 1_usize..4,
        linear in any::<bool>(),
    ) {
        let model = if linear {
            ModelSpec::Learned(RegressorSpec::Linear)
        } else {
            ModelSpec::Baseline(BaselineSpec::LastValue)
        };
        let fleet = Fleet::generate(FleetConfig::small(2, seed));
        let batch = vec![
            BatchRequest { vehicle_id: VehicleId(0), horizon },
            BatchRequest { vehicle_id: VehicleId(1), horizon },
        ];

        let warm = PredictionService::new(&fleet, fast_config(model.clone()), 2).unwrap();
        let trained = warm.serve_batch(&batch, None);
        let cached = warm.serve_batch(&batch, None);

        // An independent service trains from scratch.
        let cold = PredictionService::new(&fleet, fast_config(model), 1).unwrap();
        let fresh = cold.serve_batch(&batch, None);

        for ((t, c), f) in trained.iter().zip(&cached).zip(&fresh) {
            prop_assert!(matches!(t, ServeOutcome::RetrainedThenServed(_)));
            prop_assert!(c.is_cache_hit(), "second serve must hit the cache");
            prop_assert_eq!(forecast_bits(t), forecast_bits(c));
            prop_assert_eq!(forecast_bits(c), forecast_bits(f));
        }
    }

    /// Once the series end moves `retrain_every` or more slots past the
    /// training point, the cached model must never be served again.
    #[test]
    fn invalidation_after_retrain_every_always_retrains(
        seed in 0_u64..1000,
        t0_offset in 0_usize..40,
        overshoot in 0_usize..10,
    ) {
        let config = fast_config(ModelSpec::Baseline(BaselineSpec::LastValue));
        let retrain_every = config.retrain_every;
        let fleet = Fleet::generate(FleetConfig::small(1, seed));
        let service = PredictionService::new(&fleet, config, 1).unwrap();
        let batch = vec![BatchRequest { vehicle_id: VehicleId(0), horizon: 1 }];

        let t0 = 150 + t0_offset;
        let first = &service.serve_batch(&batch, Some(t0))[0];
        prop_assert!(matches!(first, ServeOutcome::RetrainedThenServed(_)));

        // Any advance >= retrain_every retrains; the new model is anchored
        // at the advanced series end.
        let t1 = t0 + retrain_every + overshoot;
        let later = &service.serve_batch(&batch, Some(t1))[0];
        match later {
            ServeOutcome::RetrainedThenServed(f) => prop_assert_eq!(f.trained_at, t1),
            other => prop_assert!(false, "expected retrain at {}: {:?}", t1, other),
        }
    }

    /// Arbitrary get/insert/invalidate interleavings from two threads
    /// must never panic or poison the store.
    #[test]
    fn concurrent_store_ops_never_panic(
        ops_a in proptest::collection::vec((0_u8..4, 0_u32..3, 0_usize..300), 1..25),
        ops_b in proptest::collection::vec((0_u8..4, 0_u32..3, 0_usize..300), 1..25),
    ) {
        let config = fast_config(ModelSpec::Baseline(BaselineSpec::LastValue));
        let fleet = Fleet::generate(FleetConfig::small(1, 3));
        let view = VehicleView::build(&fleet, VehicleId(0), config.scenario);
        let predictor =
            vup_core::FittedPredictor::fit(&view, &config, 0, config.train_window).unwrap();

        let store = ModelStore::new();
        let run = |ops: &[(u8, u32, usize)]| {
            for &(op, vehicle, now) in ops {
                let id = VehicleId(vehicle);
                match op {
                    0 => {
                        let _ = store.get(id, &config, now);
                    }
                    1 => {
                        store.insert(id, &config, predictor.clone(), now, &SpanCtx::disabled());
                    }
                    2 => {
                        store.invalidate(id);
                    }
                    _ => {
                        let _ = store.peek(id, &config);
                        let _ = store.len();
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| run(&ops_a));
            scope.spawn(|| run(&ops_b));
        });

        // The store is still usable afterwards, and any fresh entry it
        // serves respects the cadence contract.
        store.insert(VehicleId(0), &config, predictor.clone(), 100, &SpanCtx::disabled());
        let got = store.get(VehicleId(0), &config, 100);
        prop_assert!(got.is_some());
        prop_assert!(store.get(VehicleId(0), &config, 100 + config.retrain_every).is_none());
    }
}
