//! What one timed phase yields, the metric tables, and the result line.

use std::fmt::Write as _;

use crate::measure::{median, tail, Timed, Total};

/// End-to-end metrics of the result line, in print order: name and
/// unit. `op_tail_ms` is printed beside them but not in the result line:
/// on the `serve` workload it follows snapshot-store disk stalls, and its
/// run-to-run spread exceeds any regression bound the result line may
/// carry (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("retrain_p50_ms", "ms"),
];

/// Per-layer metrics of every workload, in print order: name and unit.
/// A traced run prints all of them; a layer its workload never calls
/// reads 0. `README.md` next to this crate says which end-to-end metric
/// each should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    // backtest
    ("ml.linear.fit_ms", "ms/fit"),
    ("ml.lasso.fit_ms", "ms/fit"),
    ("ml.fit.ms", "ms/op"),
    ("ml.fit.calls", "calls/op"),
    ("ml.scale.ms", "ms/op"),
    ("core.select.ms", "ms/op"),
    ("core.window.ms", "ms/op"),
    ("core.window.reuse_ratio", "ratio"),
    ("core.view.ms", "ms/op"),
    ("core.view.calls", "calls/op"),
    ("ml.predict.ms", "ms/op"),
    ("ml.predict.calls", "calls/op"),
    ("core.evaluate.self_ms", "ms/op"),
    // serve
    ("net.transport_ms", "ms/op"),
    ("net.handler_ms", "ms/op"),
    ("serve.store.hit_ratio", "ratio"),
    ("serve.view.ms", "ms/op"),
    ("ml.svr.fit_ms", "ms/fit"),
    ("serve.persist.ms", "ms/persist"),
    ("serve.persist.bytes", "bytes/persist"),
    ("serve.persist.io_calls", "calls/persist"),
    ("net.overlap_ratio", "ratio"),
    ("net.shed", "count"),
    // ingest_replay
    ("ingest.log.append_ms", "ms/append"),
    ("ingest.log.io_ms", "ms/append"),
    ("ingest.log.io_calls", "calls/append"),
    ("ingest.log.bytes", "bytes/append"),
    ("ingest.log.open_ms", "ms/rep"),
    ("ingest.log.read_ms", "ms/rep"),
    ("ingest.replay.ms", "ms/rep"),
    ("ingest.replay.slots_sealed", "count/rep"),
    ("ingest.replay.retrains", "count/rep"),
    // tracing overhead: traced minus untraced end-to-end figures
    ("trace.overhead.cpu_ms_per_op", "ms"),
    ("trace.overhead.op_p50_ms", "ms"),
    ("trace.overhead.ops_per_s", "1/s"),
];

/// The times of one timed phase, either as measured or scaled to the
/// nominal host (see [`crate::measure::HostClock`]).
#[derive(Debug, Default)]
pub struct Times {
    /// Each set-up's time, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds over the timed phase, every thread included.
    pub cpu_s: f64,
    /// Latency samples, in milliseconds. A sample whose op failed or
    /// was refused misses every latency limit, so it is infinite.
    pub latency_ms: Vec<f64>,
    /// Retrain latency samples, in milliseconds (see `README.md`).
    pub retrain_ms: Vec<f64>,
}

impl Times {
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self, completed: u64, peak_rss_mib: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", median(&self.setup_s)),
            ("ops_per_s", completed as f64 / self.wall_s),
            ("op_p50_ms", median(&self.latency_ms)),
            ("cpu_ms_per_op", self.cpu_s * 1e3 / completed.max(1) as f64),
            ("peak_rss_mb", peak_rss_mib),
            ("retrain_p50_ms", median(&self.retrain_ms)),
        ]
    }
}

/// One timed phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// Times scaled to the nominal host: the reported metrics.
    pub scaled: Times,
    /// Times as measured, printed beside them.
    pub measured: Times,
    /// Median host calibration of the phase, in milliseconds.
    pub calibration_ms: f64,
    /// Per-layer metrics (traced phases only).
    pub layers: Vec<(&'static str, f64)>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

impl Phase {
    /// Ops that completed.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Records a failed correctness check; stops recording after a few
    /// so a systematic fault does not flood the output.
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// Records one set-up, timed as a sum of stretches.
    pub fn add_setup(&mut self, spent: &Total) {
        self.measured.setup_s.push(spent.ms / 1e3);
        self.scaled.setup_s.push(spent.scaled_ms / 1e3);
    }

    /// Adds a stretch of the timed phase to its wall and CPU totals.
    pub fn add_busy(&mut self, t: &Timed) {
        self.measured.wall_s += t.wall.as_secs_f64();
        self.measured.cpu_s += t.cpu.as_secs_f64();
        self.scaled.wall_s += t.wall.as_secs_f64() * t.scale;
        self.scaled.cpu_s += t.cpu.as_secs_f64() * t.scale;
    }

    /// Records a latency sample: measured and scaled milliseconds.
    pub fn add_latency(&mut self, measured_ms: f64, scaled_ms: f64) {
        self.measured.latency_ms.push(measured_ms);
        self.scaled.latency_ms.push(scaled_ms);
    }

    /// Records a failed op's latency sample.
    pub fn add_failed_latency(&mut self) {
        self.add_latency(f64::INFINITY, f64::INFINITY);
    }

    /// Records a retrain sample: measured and scaled milliseconds.
    pub fn add_retrain(&mut self, measured_ms: f64, scaled_ms: f64) {
        self.measured.retrain_ms.push(measured_ms);
        self.scaled.retrain_ms.push(scaled_ms);
    }

    /// The reported end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self, peak_rss_mib: f64) -> Vec<(&'static str, f64)> {
        self.scaled.end_to_end(self.completed(), peak_rss_mib)
    }

    /// The same metrics from the times as measured.
    pub fn end_to_end_measured(&self, peak_rss_mib: f64) -> Vec<(&'static str, f64)> {
        self.measured.end_to_end(self.completed(), peak_rss_mib)
    }

    /// `op_tail_ms` with its percentile and sample counts.
    pub fn tail_note(&self) -> String {
        let latency = &self.scaled.latency_ms;
        match tail(latency) {
            Some(t) => format!(
                "op_tail_ms {:.6} ms at p{:.3}: {} of {} latency samples beyond it",
                t.value,
                t.percentile,
                t.beyond,
                latency.len()
            ),
            None => format!("op_tail_ms undefined: only {} samples", latency.len()),
        }
    }
}

/// Renders the result object: `correct`, `attempted`, `failed` and the
/// named metrics with their units. Values print in Rust's shortest
/// round-trip form, so every measured digit survives.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: std::collections::BTreeMap<String, Value>,
    }

    #[derive(serde::Deserialize)]
    struct Value {
        value: f64,
        unit: String,
    }

    #[test]
    fn result_line_is_json_with_full_precision() {
        let line = result_line(true, 3, 0, &[("latency_ms", 1.0 / 3.0, "ms")]);
        let parsed: Line = serde_json::from_str(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (3, 0));
        assert_eq!(parsed.metrics["latency_ms"].value, 1.0 / 3.0);
        assert_eq!(parsed.metrics["latency_ms"].unit, "ms");
    }

    #[test]
    fn failed_ops_count_against_throughput_and_latency() {
        let mut phase = Phase {
            attempted: 12,
            failed: 2,
            ..Phase::default()
        };
        phase.add_busy(&Timed {
            wall: std::time::Duration::from_secs(2),
            cpu: std::time::Duration::from_secs(1),
            scale: 1.0,
        });
        for _ in 0..10 {
            phase.add_latency(1.0, 1.0);
        }
        phase.add_failed_latency();
        phase.add_failed_latency();
        phase.add_retrain(2.0, 2.0);
        let metrics = phase.end_to_end(10.0);
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("ops_per_s"), 5.0);
        assert_eq!(get("cpu_ms_per_op"), 100.0);
        assert_eq!(get("op_p50_ms"), 1.0);
        // Twelve samples, two of them infinite: the tail is the
        // eleventh-largest, still a finite completed op.
        assert!(phase
            .tail_note()
            .starts_with("op_tail_ms 1.000000 ms at p16.667"));
    }

    #[test]
    fn metrics_report_scaled_times_and_keep_the_measured_ones() {
        let mut phase = Phase {
            attempted: 4,
            ..Phase::default()
        };
        let slow_host = Timed {
            wall: std::time::Duration::from_secs(2),
            cpu: std::time::Duration::from_secs(2),
            scale: 0.5,
        };
        phase.add_setup(&Total {
            ms: 2000.0,
            scaled_ms: 1000.0,
        });
        phase.add_busy(&slow_host);
        for _ in 0..4 {
            phase.add_latency(500.0, 250.0);
        }
        let get = |metrics: Vec<(&str, f64)>, name: &str| {
            metrics.iter().find(|(n, _)| *n == name).unwrap().1
        };
        assert_eq!(get(phase.end_to_end(1.0), "setup_s"), 1.0);
        assert_eq!(get(phase.end_to_end(1.0), "ops_per_s"), 4.0);
        assert_eq!(get(phase.end_to_end(1.0), "cpu_ms_per_op"), 250.0);
        assert_eq!(get(phase.end_to_end(1.0), "op_p50_ms"), 250.0);
        let measured = phase.end_to_end_measured(1.0);
        assert_eq!(get(measured, "op_p50_ms"), 500.0);
    }

    #[derive(serde::Deserialize)]
    #[allow(dead_code)]
    struct Benchmark {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Workload>,
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    #[derive(serde::Deserialize)]
    #[allow(dead_code)]
    struct Workload {
        name: String,
        why: String,
    }

    #[derive(serde::Deserialize)]
    #[allow(dead_code)]
    struct Declared {
        name: String,
        unit: String,
        better: String,
        bound: Option<f64>,
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let declared: Benchmark =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let pairs = |list: &[Declared]| -> Vec<(String, String)> {
            list.iter()
                .map(|d| (d.name.clone(), d.unit.clone()))
                .collect()
        };
        let table = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&declared.end_to_end), table(END_TO_END));
        assert_eq!(pairs(&declared.per_layer), table(PER_LAYER));
        let workloads: Vec<&str> = declared.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, ["backtest", "serve", "ingest_replay"]);
    }

    #[test]
    fn layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
