//! Figure 5 — per-algorithm prediction-error distributions in both
//! scenarios.
//!
//! Evaluates the paper's six models (LV, MA, LR, Lasso, SVR, GB) at the
//! recommended operating point (K = 20, w = 140) over a fleet subsample,
//! in the next-day (5a) and next-working-day (5b) scenarios, and prints
//! the per-vehicle PE distribution summary of each bar of the figure.
//!
//! Run with: `cargo run --release -p vup-bench --bin fig5_algorithms`

use vup_bench::{bar, evaluable_ids, print_header, small_fleet, write_json};
use vup_core::fleet_eval::evaluate_fleet;
use vup_core::report::{distribution_summary, AlgorithmResult};
use vup_core::{PipelineConfig, Scenario};
use vup_obs::{Registry, Tracer};

const N_VEHICLES: usize = 60;
/// Most recent slots evaluated per vehicle (see EXPERIMENTS.md).
const EVAL_TAIL: usize = 360;

fn main() {
    let fleet = small_fleet(600);
    let (registry, tracer) = (Registry::disabled(), Tracer::disabled());
    let mut results: Vec<AlgorithmResult> = Vec::new();

    for scenario in Scenario::ALL {
        let probe = PipelineConfig {
            scenario,
            retrain_every: 7,
            eval_tail: Some(EVAL_TAIL),
            ..PipelineConfig::default()
        };
        let ids = evaluable_ids(&fleet, &probe, scenario, N_VEHICLES);
        println!(
            "== Fig. 5{}: scenario {}, {} vehicles, K={}, w={} ==\n",
            if scenario == Scenario::NextDay {
                "a"
            } else {
                "b"
            },
            scenario.label(),
            ids.len(),
            probe.k,
            probe.train_window
        );
        print_header(&[
            ("model", 6),
            ("mean", 8),
            ("median", 8),
            ("q1", 8),
            ("q3", 8),
            ("", 26),
        ]);
        for model in probe.model_suite() {
            let cfg = PipelineConfig {
                model: model.clone(),
                ..probe.clone()
            };
            let (eval, _) = evaluate_fleet(&fleet, &ids, &cfg, 0, &registry, &tracer);
            let dist = eval.pe_distribution();
            let Some((mean, median, q1, q3)) = distribution_summary(&dist) else {
                println!("{:>6} {:>8}", model.label(), "n/a");
                continue;
            };
            println!(
                "{:>6} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {}",
                model.label(),
                mean,
                median,
                q1,
                q3,
                bar(median, 120.0, 26),
            );
            results.push(AlgorithmResult {
                model: model.label().to_owned(),
                scenario: scenario.label().to_owned(),
                mean_pe: mean,
                median_pe: median,
                q1_pe: q1,
                q3_pe: q3,
                n_vehicles: dist.len(),
            });
        }
        println!();
    }

    println!("Paper shape checks:");
    println!(" - ML models beat both baselines in both scenarios;");
    println!(" - single (SVR) and ensemble (GB) methods score similarly;");
    println!(" - next-working-day error is roughly half the next-day error.");

    let path = write_json("fig5_algorithms", &results);
    println!("\nFull data written to {}", path.display());
}
