//! §4.5 — execution-time table.
//!
//! Measures the three phases the paper times, per model:
//! (i) data preparation + feature selection (windowing + ACF ranking),
//! (ii) model training, and (iii) model application (one prediction),
//! at the recommended operating point (w = 140, K = 20). The paper
//! reports phase (ii) dominating, baselines/LR/Lasso cheapest, SVR next,
//! and GB roughly an order of magnitude above the single models; we
//! reproduce the ordering, not the absolute Python-era seconds.
//!
//! Run with: `cargo run --release -p vup-bench --bin time_table`
//! (fleet-level timings: `vup bench`; end-to-end and per-layer fit
//! costs: `perfbench`.)

use std::time::Instant;

use vup_bench::{evaluable_ids, print_header, small_fleet, write_json};
use vup_core::report::TimingRow;
use vup_core::select::select_lags;
use vup_core::window::build_dataset;
use vup_core::{FittedPredictor, PipelineConfig, VehicleView};

const REPS: usize = 30;

fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    // One warm-up, then the measured repetitions.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

fn main() {
    let fleet = small_fleet(100);
    let probe = PipelineConfig::default();
    let id = evaluable_ids(&fleet, &probe, probe.scenario, 1)[0];
    let view = VehicleView::build(&fleet, id, probe.scenario);
    let train_to = view.len();
    let train_from = train_to - probe.train_window;

    println!(
        "§4.5 execution-time table — unit {}, w={}, K={}, {} reps each\n",
        id.0, probe.train_window, probe.k, REPS
    );

    let mut rows: Vec<TimingRow> = Vec::new();
    let mut record = |task: String, mean_ms: f64| {
        rows.push(TimingRow {
            task,
            mean_ms,
            reps: REPS,
        });
    };

    // Phase (i): training-data generation + statistics-based selection.
    let prep_ms = time_ms(REPS, || {
        let hours = view.hours_range(train_from, train_to);
        let lags = select_lags(&hours, probe.effective_k(), probe.max_lag);
        let _ = build_dataset(
            &view,
            train_from + probe.max_lag,
            train_to,
            &lags,
            &probe.features,
        )
        .expect("window valid");
    });
    record("prep+selection".to_owned(), prep_ms);

    // Phases (ii) and (iii) per model.
    let mut fit_rows = Vec::new();
    for model in probe.model_suite() {
        let cfg = PipelineConfig {
            model: model.clone(),
            ..probe.clone()
        };
        let fit_ms = time_ms(REPS, || {
            let _ = FittedPredictor::fit(&view, &cfg, train_from, train_to).expect("fits");
        });
        let fitted = FittedPredictor::fit(&view, &cfg, train_from, train_to).expect("fits");
        let predict_ms = time_ms(REPS, || {
            let _ = fitted.predict(&view, train_to - 1).expect("predicts");
        });
        record(format!("train {}", model.label()), fit_ms);
        record(format!("apply {}", model.label()), predict_ms);
        fit_rows.push((model.label(), fit_ms, predict_ms));
    }

    print_header(&[
        ("model", 6),
        ("train(ms)", 12),
        ("apply(ms)", 12),
        ("vs LR", 8),
    ]);
    let lr_ms = fit_rows
        .iter()
        .find(|r| r.0 == "LR")
        .map(|r| r.1)
        .unwrap_or(1.0);
    for (label, fit, apply) in &fit_rows {
        println!("{label:>6} {fit:>11.3} {apply:>11.4} {:>7.1}x", fit / lr_ms);
    }
    println!("\nprep+selection: {prep_ms:.3} ms (negligible next to training, as §4.5 reports)");
    println!("Paper shape check: baselines ≈ free; LR/Lasso cheap; SVR costlier; GB the most");
    println!("expensive learned model.");

    let path = write_json("time_table", &rows);
    println!("\nFull data written to {}", path.display());
}
