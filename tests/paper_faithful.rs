//! Paper-faithful evaluation spot checks.
//!
//! The fast experiment binaries amortize retraining (`retrain_every = 7`)
//! and bound the evaluated period (`eval_tail`). These tests run the
//! *unamortized* procedure — retrain on every window slide over the whole
//! usable period, exactly as §4.1 describes — on a couple of vehicles and
//! assert the same orderings. They are `#[ignore]`d because they take
//! minutes in debug builds; run them with
//! `cargo test --release --test paper_faithful -- --ignored`.

use vehicle_usage_prediction::core::evaluate::evaluate_vehicle;
use vehicle_usage_prediction::prelude::*;

fn faithful_config(model: ModelSpec) -> PipelineConfig {
    PipelineConfig {
        model,
        // The paper's procedure: refit at every slide, evaluate the whole
        // period after the first window.
        retrain_every: 1,
        eval_tail: None,
        ..PipelineConfig::default()
    }
}

/// Fast, always-on variant of the faithful ordering check: the same
/// retrain-every-slide procedure, but the evaluated period is bounded to
/// the last 60 days so it completes in seconds even in debug builds. The
/// `#[ignore]`d tests below keep covering the unbounded period.
#[test]
fn faithful_tail_preserves_orderings_and_retrains_every_slide() {
    let fleet = Fleet::generate(FleetConfig::small(10, 2019));
    let mut lasso_nwd = 0.0;
    let mut lv_nwd = 0.0;
    let mut n = 0;
    for id in (0..3).map(VehicleId) {
        let view = VehicleView::build(&fleet, id, Scenario::NextWorkingDay);

        let mut cfg = faithful_config(ModelSpec::Learned(RegressorSpec::lasso_paper()));
        cfg.eval_tail = Some(60);
        let Ok(lasso) = evaluate_vehicle(&view, &cfg) else {
            continue;
        };
        cfg.model = ModelSpec::Baseline(BaselineSpec::LastValue);
        let Ok(lv) = evaluate_vehicle(&view, &cfg) else {
            continue;
        };
        lasso_nwd += lasso.percentage_error;
        lv_nwd += lv.percentage_error;
        n += 1;

        // Unamortized: every evaluated slide refits the model.
        assert_eq!(lasso.retrain_count, lasso.points.len());
        assert!(lasso.points.len() <= 60);
    }
    assert!(n >= 2, "too few evaluable vehicles");
    assert!(lasso_nwd < lv_nwd, "lasso {lasso_nwd:.1} vs LV {lv_nwd:.1}");
}

/// Full-period percentage errors of the two shortest vehicles of the
/// benchmark's `backtest` pool (fleet `small(100, 2019)`, next-working-day,
/// w = 140, K = 20 of 40, a refit at every slide), copied from
/// `perfbench/reference/backtest_pe.json`: (vehicle, LR PE, Lasso PE).
const BACKTEST_REFERENCE_PE: [(u32, f64, f64); 2] = [
    (32, 19.2033704799367, 17.464413074245112),
    (39, 19.675547124263694, 18.252420093207856),
];

/// Pins the paper procedure's LR and Lasso errors to the benchmark's
/// references within the benchmark's own 1e-9 tolerance, so a solver
/// change that moves them fails here and not only in the benchmark.
#[test]
fn full_period_lr_and_lasso_errors_match_the_backtest_references() {
    let fleet = Fleet::generate(FleetConfig::small(100, 2019));
    for (id, lr_pe, lasso_pe) in BACKTEST_REFERENCE_PE {
        let view = VehicleView::build(&fleet, VehicleId(id), Scenario::NextWorkingDay);
        for (spec, want) in [
            (RegressorSpec::Linear, lr_pe),
            (RegressorSpec::lasso_paper(), lasso_pe),
        ] {
            let eval = evaluate_vehicle(&view, &faithful_config(ModelSpec::Learned(spec.clone())))
                .expect("pool vehicles are evaluable");
            assert!(
                (eval.percentage_error - want).abs() <= 1e-9,
                "vehicle {id} {spec:?}: PE {} vs reference {want}",
                eval.percentage_error
            );
        }
    }
}

/// SVR percentage errors under `PipelineConfig::default()` (the paper's
/// RBF SVR with `γ = 1/p`, w = 140, K = 20 of 40, a refit every 7
/// slides) over the last 30 days of two vehicles of fleet
/// `small(10, 2019)`, next-working-day: (vehicle, SVR PE).
const SVR_REFERENCE_PE: [(u32, f64); 2] = [(0, 16.98407597480895), (1, 44.186376883843174)];

/// Pins the SVR forecasts end to end within 1e-9, so a change to the SMO
/// solver or the kernel matrix that moves them fails here.
#[test]
fn svr_errors_match_the_recorded_references() {
    let fleet = Fleet::generate(FleetConfig::small(10, 2019));
    let config = PipelineConfig {
        eval_tail: Some(30),
        ..PipelineConfig::default()
    };
    for (id, want) in SVR_REFERENCE_PE {
        let view = VehicleView::build(&fleet, VehicleId(id), Scenario::NextWorkingDay);
        let eval = evaluate_vehicle(&view, &config).expect("evaluable");
        assert!(
            (eval.percentage_error - want).abs() <= 1e-9,
            "vehicle {id}: SVR PE {:?} vs reference {want}",
            eval.percentage_error
        );
    }
}

#[test]
#[ignore = "paper-faithful full-period evaluation; run with --ignored (release recommended)"]
fn faithful_orderings_hold_without_amortization() {
    let fleet = Fleet::generate(FleetConfig::small(10, 2019));
    let mut lasso_nwd = 0.0;
    let mut lv_nwd = 0.0;
    let mut lasso_nd = 0.0;
    let mut n = 0;
    for id in (0..3).map(VehicleId) {
        let nwd = VehicleView::build(&fleet, id, Scenario::NextWorkingDay);
        let nd = VehicleView::build(&fleet, id, Scenario::NextDay);

        let mut cfg = faithful_config(ModelSpec::Learned(RegressorSpec::lasso_paper()));
        let Ok(e1) = evaluate_vehicle(&nwd, &cfg) else {
            continue;
        };
        cfg.model = ModelSpec::Baseline(BaselineSpec::LastValue);
        let Ok(e2) = evaluate_vehicle(&nwd, &cfg) else {
            continue;
        };
        let mut nd_cfg = faithful_config(ModelSpec::Learned(RegressorSpec::lasso_paper()));
        nd_cfg.scenario = Scenario::NextDay;
        let Ok(e3) = evaluate_vehicle(&nd, &nd_cfg) else {
            continue;
        };
        lasso_nwd += e1.percentage_error;
        lv_nwd += e2.percentage_error;
        lasso_nd += e3.percentage_error;
        n += 1;

        // Every slide retrains: retrain count equals evaluated days.
        assert_eq!(e1.retrain_count, e1.points.len());
    }
    assert!(n >= 2, "too few evaluable vehicles");
    // Same orderings as the amortized experiments (EXPERIMENTS.md):
    // ML beats LV in the next-working-day scenario...
    assert!(lasso_nwd < lv_nwd, "lasso {lasso_nwd:.1} vs LV {lv_nwd:.1}");
    // ...and the next-day problem is substantially harder.
    assert!(
        lasso_nd > 1.4 * lasso_nwd,
        "next-day {lasso_nd:.1} vs next-working-day {lasso_nwd:.1}"
    );
}

#[test]
#[ignore = "paper-faithful amortization equivalence; run with --ignored (release recommended)"]
fn amortized_evaluation_approximates_the_faithful_one() {
    let fleet = Fleet::generate(FleetConfig::small(6, 7));
    let view = VehicleView::build(&fleet, VehicleId(0), Scenario::NextWorkingDay);
    let faithful = evaluate_vehicle(
        &view,
        &faithful_config(ModelSpec::Learned(RegressorSpec::lasso_paper())),
    )
    .expect("evaluable");
    let mut amortized_cfg = faithful_config(ModelSpec::Learned(RegressorSpec::lasso_paper()));
    amortized_cfg.retrain_every = 7;
    let amortized = evaluate_vehicle(&view, &amortized_cfg).expect("evaluable");
    // Weekly retraining costs a little accuracy but must stay close
    // (relative PE difference within 15 %).
    let rel =
        (amortized.percentage_error - faithful.percentage_error).abs() / faithful.percentage_error;
    assert!(
        rel < 0.15,
        "faithful {:.1}% vs amortized {:.1}% (rel {rel:.2})",
        faithful.percentage_error,
        amortized.percentage_error
    );
}
