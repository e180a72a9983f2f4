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
//! Every execution is timed on its own, and the tasks take turns (one
//! execution of each per round), so a host that slows down for a while
//! slows every task alike instead of the one that happened to run then.
//! Each row reports the median and quartiles of its executions.
//!
//! Run with: `cargo run --release -p vup-bench --bin time_table`
//! (fleet-level timings: `vup bench`; end-to-end and per-layer fit
//! costs: `perfbench`.)

use std::time::Instant;

use vup_bench::{evaluable_ids, print_header, small_fleet, write_json};
use vup_core::report::{distribution_summary, TimingRow};
use vup_core::select::select_lags;
use vup_core::window::build_dataset;
use vup_core::{FittedPredictor, PipelineConfig, VehicleView};

/// Timed executions per task, after one untimed warm-up round.
const REPS: usize = 100;

/// One timed task and its per-execution times in milliseconds.
struct Task<'a> {
    name: String,
    run: Box<dyn FnMut() + 'a>,
    samples_ms: Vec<f64>,
}

impl<'a> Task<'a> {
    fn new(name: String, run: impl FnMut() + 'a) -> Task<'a> {
        Task {
            name,
            run: Box::new(run),
            samples_ms: Vec::with_capacity(REPS),
        }
    }

    fn row(&self) -> TimingRow {
        let (_, median_ms, q1_ms, q3_ms) =
            distribution_summary(&self.samples_ms).expect("every task was timed");
        TimingRow {
            task: self.name.clone(),
            median_ms,
            q1_ms,
            q3_ms,
            reps: self.samples_ms.len(),
        }
    }
}

fn main() {
    let fleet = small_fleet(100);
    let probe = PipelineConfig::default();
    let id = evaluable_ids(&fleet, &probe, probe.scenario, 1)[0];
    let view = VehicleView::build(&fleet, id, probe.scenario);
    let train_to = view.len();
    let train_from = train_to - probe.train_window;

    println!(
        "§4.5 execution-time table — unit {}, w={}, K={}, {} executions each, \
         median (q1–q3)\n",
        id.0, probe.train_window, probe.k, REPS
    );

    // Phase (i): training-data generation + statistics-based selection.
    let mut tasks = vec![Task::new("prep+selection".to_owned(), || {
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
    })];

    // Phases (ii) and (iii) per model.
    let models = probe.model_suite();
    for model in &models {
        let cfg = PipelineConfig {
            model: model.clone(),
            ..probe.clone()
        };
        let fitted = FittedPredictor::fit(&view, &cfg, train_from, train_to).expect("fits");
        let view = &view;
        tasks.push(Task::new(format!("train {}", model.label()), move || {
            let _ = FittedPredictor::fit(view, &cfg, train_from, train_to).expect("fits");
        }));
        tasks.push(Task::new(format!("apply {}", model.label()), move || {
            let _ = fitted.predict(view, train_to - 1).expect("predicts");
        }));
    }

    for task in &mut tasks {
        (task.run)();
    }
    for _ in 0..REPS {
        for task in &mut tasks {
            let start = Instant::now();
            (task.run)();
            task.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let rows: Vec<TimingRow> = tasks.iter().map(Task::row).collect();

    print_header(&[
        ("model", 6),
        ("train(ms)", 10),
        ("q1–q3", 17),
        ("apply(ms)", 10),
        ("vs LR", 8),
    ]);
    let row = |task: &str| rows.iter().find(|r| r.task == task).expect("timed task");
    let lr_ms = row("train LR").median_ms;
    for model in &models {
        let label = model.label();
        let (fit, apply) = (
            row(&format!("train {label}")),
            row(&format!("apply {label}")),
        );
        println!(
            "{label:>6} {:>10.4} {:>17} {:>10.4} {:>7.1}x",
            fit.median_ms,
            format!("{:.4}–{:.4}", fit.q1_ms, fit.q3_ms),
            apply.median_ms,
            fit.median_ms / lr_ms
        );
    }
    let prep = row("prep+selection");
    println!(
        "\nprep+selection: {:.4} ms ({:.4}–{:.4}; negligible next to training, as §4.5 reports)",
        prep.median_ms, prep.q1_ms, prep.q3_ms
    );
    println!("Paper shape check: baselines ≈ free; LR/Lasso cheap; SVR costlier; GB the most");
    println!("expensive learned model.");

    let path = write_json("time_table", &rows);
    println!("\nFull data written to {}", path.display());
}
