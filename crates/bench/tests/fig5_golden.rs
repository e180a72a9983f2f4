//! Golden regression test against the committed Fig. 5 results.
//!
//! Recomputes the baseline rows (LV, MA — the models without the feature
//! pipeline, cheap enough for a test) of `results/fig5_algorithms.json`
//! with the exact experiment setup of the `fig5_algorithms` binary and
//! requires a bitwise-grade match (1e-9). Any drift in the fleet
//! simulator's RNG stream, the scenario filters, the evaluation cadence,
//! or the PE aggregation shows up here instead of silently invalidating
//! every committed figure.

use vup_bench::{evaluable_ids, small_fleet};
use vup_core::fleet_eval::evaluate_fleet;
use vup_core::report::{distribution_summary, AlgorithmResult};
use vup_core::{ModelSpec, PipelineConfig, Scenario};
use vup_obs::{Registry, Tracer};

/// Mirrors the constants in `src/bin/fig5_algorithms.rs`.
const N_VEHICLES: usize = 60;
const EVAL_TAIL: usize = 360;
const TOLERANCE: f64 = 1e-9;

#[test]
fn fig5_baseline_rows_match_the_golden_results() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig5_algorithms.json"
    );
    let text = std::fs::read_to_string(path).expect("golden results present");
    let golden: Vec<AlgorithmResult> = serde_json::from_str(&text).expect("valid golden JSON");
    assert_eq!(golden.len(), 12, "6 models x 2 scenarios");

    let fleet = small_fleet(600);
    let (registry, tracer) = (Registry::disabled(), Tracer::disabled());
    for scenario in Scenario::ALL {
        let probe = PipelineConfig {
            scenario,
            retrain_every: 7,
            eval_tail: Some(EVAL_TAIL),
            ..PipelineConfig::default()
        };
        let ids = evaluable_ids(&fleet, &probe, scenario, N_VEHICLES);
        let baselines = probe
            .model_suite()
            .into_iter()
            .filter(|m| matches!(m, ModelSpec::Baseline(_)));
        for model in baselines {
            let cfg = PipelineConfig {
                model: model.clone(),
                ..probe.clone()
            };
            let (eval, _) = evaluate_fleet(&fleet, &ids, &cfg, 0, &registry, &tracer);
            let dist = eval.pe_distribution();
            let (mean, median, q1, q3) = distribution_summary(&dist).expect("vehicles evaluated");

            let row = golden
                .iter()
                .find(|r| r.model == model.label() && r.scenario == scenario.label())
                .unwrap_or_else(|| {
                    panic!("no golden row for {} / {}", model.label(), scenario.label())
                });
            let checks = [
                ("mean_pe", mean, row.mean_pe),
                ("median_pe", median, row.median_pe),
                ("q1_pe", q1, row.q1_pe),
                ("q3_pe", q3, row.q3_pe),
            ];
            for (field, got, want) in checks {
                assert!(
                    (got - want).abs() < TOLERANCE,
                    "{} / {} {field}: recomputed {got} vs golden {want}",
                    row.model,
                    row.scenario,
                );
            }
            assert_eq!(
                dist.len(),
                row.n_vehicles,
                "{} / {} vehicle count",
                row.model,
                row.scenario
            );
        }
    }
}
