//! End-to-end tests of the `vup` command-line binary.

use std::process::Command;

fn vup() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vup"))
}

#[test]
fn help_prints_usage() {
    let out = vup().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simulate"));
    assert!(text.contains("predict"));
    assert!(text.contains("evaluate"));
}

#[test]
fn no_arguments_fails_with_usage() {
    let out = vup().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_subcommand_and_bad_flags_fail_cleanly() {
    let out = vup().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = vup()
        .args(["predict", "--vehicles"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing its value"));

    let out = vup()
        .args(["predict", "--vehicles", "abc"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
}

#[test]
fn simulate_emits_csv_with_header_and_rows() {
    let out = vup()
        .args([
            "simulate",
            "--vehicles",
            "10",
            "--seed",
            "3",
            "--id",
            "1",
            "--days",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 6); // header + 5 days
    assert!(lines[0].starts_with("vehicle_id,day,date,hours"));
    assert!(lines[1].contains("2015-01-01"));
    // The profile report goes to stderr, not into the CSV.
    assert!(String::from_utf8_lossy(&out.stderr).contains("column profile"));
}

/// Pins the whole seeded `simulate` output: every CSV cell (the relational
/// step-5 table and its float formatting) and the stderr column profile.
/// The golden files were recorded from this command and must only change
/// when the simulator or the table format is meant to change.
#[test]
fn simulate_output_is_pinned_byte_for_byte() {
    let out = vup()
        .args([
            "simulate",
            "--vehicles",
            "10",
            "--seed",
            "3",
            "--id",
            "1",
            "--days",
            "60",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("golden/simulate_seed3_id1_60d.csv")
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        include_str!("golden/simulate_seed3_id1_60d.profile.txt")
    );
}

#[test]
fn shard_eval_output_is_pinned_byte_for_byte() {
    let base = [
        "shard-eval",
        "--vehicles",
        "1000",
        "--seed",
        "7",
        "--shards",
        "8",
    ];
    for (extra, golden) in [
        (
            None,
            include_str!("golden/shard_eval_1000v_seed7_8shards.txt"),
        ),
        (
            Some("--json"),
            include_str!("golden/shard_eval_1000v_seed7_8shards.json"),
        ),
    ] {
        let out = vup().args(base).args(extra).output().expect("binary runs");
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
        assert!(out.stderr.is_empty());
    }
}

#[test]
fn serve_batch_journals_are_identical_at_every_shard_count() {
    use vehicle_usage_prediction::prelude::ServeJournal;
    // One model per vehicle on its own history: which shard serves a
    // vehicle must not change its answer, its resilience profile, or
    // where its record sits in the journal (request order).
    let cases: [&[&str]; 3] = [
        &[
            "--vehicles",
            "60",
            "--seed",
            "7",
            "--n",
            "60",
            "--horizon",
            "2",
            "--repeat",
            "2",
            "--model",
            "lv",
        ],
        &[
            "--vehicles",
            "60",
            "--seed",
            "7",
            "--n",
            "60",
            "--horizon",
            "2",
            "--repeat",
            "2",
            "--model",
            "lv",
            "--retry-max",
            "2",
        ],
        &[
            "--vehicles",
            "12",
            "--ids",
            "5,3,1",
            "--horizon",
            "1",
            "--retry-max",
            "2",
        ],
    ];
    let journal = std::env::temp_dir().join(format!("vup_shard_inv_{}.json", std::process::id()));
    for case in cases {
        let mut runs = Vec::new();
        for shards in ["1", "2", "3"] {
            let out = vup()
                .arg("serve-batch")
                .args(case)
                .args(["--shards", shards, "--journal", journal.to_str().unwrap()])
                .output()
                .expect("binary runs");
            assert!(
                out.status.success(),
                "stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            let lines: Vec<String> = text
                .lines()
                .filter(|l| l.starts_with("  vehicle ") || l.starts_with("outcomes:"))
                .map(str::to_owned)
                .collect();
            let written = std::fs::read_to_string(&journal).expect("journal file written");
            runs.push((shards, lines, written));
        }
        let (_, lines, written) = &runs[0];
        assert!(
            lines.iter().any(|l| l.starts_with("outcomes:")),
            "{lines:?}"
        );
        for (shards, other_lines, other_written) in &runs[1..] {
            assert_eq!(other_lines, lines, "{case:?} at --shards {shards}");
            assert_eq!(other_written, written, "{case:?} at --shards {shards}");
        }
        if case.contains(&"--ids") {
            let parsed = ServeJournal::from_json(written).expect("journal parses");
            let order: Vec<u32> = parsed.records.iter().map(|r| r.vehicle_id).collect();
            assert_eq!(order, [5, 3, 1], "records stay in request order");
        }
    }
    std::fs::remove_file(&journal).ok();
}

#[test]
fn simulate_rejects_out_of_range_vehicle() {
    let out = vup()
        .args(["simulate", "--vehicles", "5", "--id", "99"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not in a fleet"));
}

#[test]
fn predict_reports_a_forecast_in_range() {
    let out = vup()
        .args(["predict", "--vehicles", "20", "--seed", "7", "--id", "2"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("next-working-day forecast"));
    // Extract the forecast value and check physical bounds.
    let hours: f64 = text
        .split("forecast: ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("forecast value printed");
    assert!((0.0..=24.0).contains(&hours));
}

#[test]
fn evaluate_reports_fleet_mean() {
    let out = vup()
        .args(["evaluate", "--vehicles", "12", "--seed", "7", "--n", "3"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fleet mean PE"));
    // One line per requested vehicle.
    assert_eq!(text.lines().filter(|l| l.starts_with("vehicle")).count(), 3);
}

#[test]
fn evaluate_metrics_flag_exports_a_parsable_snapshot() {
    let out = vup()
        .args([
            "evaluate",
            "--vehicles",
            "8",
            "--seed",
            "7",
            "--n",
            "3",
            "--metrics",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let start = text.find("# HELP").expect("metrics snapshot on stdout");
    assert!(text[start..].contains("# TYPE"));
    let samples = vehicle_usage_prediction::obs::parse_prometheus_text(&text[start..])
        .expect("snapshot parses as Prometheus text");
    let evaluated: f64 = samples
        .iter()
        .filter(|s| s.name == "vup_fleet_eval_vehicles_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(evaluated, 3.0, "one outcome per requested vehicle");
    assert!(samples
        .iter()
        .any(|s| s.name == "vup_ml_fit_nanos_count" && s.value > 0.0));
}

#[test]
fn evaluate_trace_flag_writes_a_chrome_trace() {
    let path = std::env::temp_dir().join(format!("vup_trace_{}.json", std::process::id()));
    let out = vup()
        .args([
            "evaluate",
            "--vehicles",
            "6",
            "--seed",
            "7",
            "--n",
            "2",
            "--trace",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"name\":\"evaluate_fleet\""));
    assert!(json.contains("\"name\":\"evaluate_vehicle\""));
    assert!(json.contains("\"name\":\"ml_fit\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace written"));
}

#[test]
fn monitor_reports_per_vehicle_health() {
    let out = vup()
        .args([
            "monitor",
            "--vehicles",
            "8",
            "--seed",
            "7",
            "--n",
            "3",
            "--model",
            "linear",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("baseline-mae"));
    assert!(text.contains("cusum"));
    assert!(text.contains("3 vehicle(s) monitored"));
    // Header + one row per vehicle before the summary.
    let rows = text.lines().take_while(|l| !l.is_empty()).count();
    assert_eq!(rows, 4);
}

#[test]
fn monitor_metrics_flag_publishes_monitor_gauges() {
    let out = vup()
        .args([
            "monitor",
            "--vehicles",
            "6",
            "--seed",
            "7",
            "--n",
            "2",
            "--model",
            "lv",
            "--metrics",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let start = text.find("# HELP").expect("metrics snapshot on stdout");
    let samples = vehicle_usage_prediction::obs::parse_prometheus_text(&text[start..])
        .expect("snapshot parses as Prometheus text");
    let gauge = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} exported"))
            .value
    };
    assert_eq!(gauge("vup_monitor_vehicles"), 2.0);
    assert!(samples.iter().any(
        |s| s.name == "vup_monitor_recent_mae" && s.labels.iter().any(|(k, _)| k == "vehicle")
    ));
}

#[test]
fn levels_reports_classification_quality() {
    let out = vup()
        .args(["levels", "--vehicles", "12", "--seed", "7", "--id", "1"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("softmax classifier"));
    assert!(text.contains("confusion matrix"));
    assert!(text.contains("majority baseline"));
}

#[test]
fn serve_batch_retrains_then_hits_the_cache() {
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "6",
            "--seed",
            "7",
            "--ids",
            "0,2,99",
            "--horizon",
            "2",
            "--model",
            "lv",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Two batches by default: the first trains, the second is served from
    // the cache; the out-of-fleet vehicle is skipped both times.
    assert!(text.contains("batch 1:"));
    assert!(text.contains("batch 2:"));
    assert_eq!(text.matches("retrained @ slot").count(), 2);
    assert_eq!(text.matches("cache hit").count(), 2);
    assert_eq!(text.matches("skipped (vehicle 99 not in fleet)").count(), 2);
    assert!(text.contains("model cache holds 2 fitted model(s)"));
}

#[test]
fn serve_batch_metrics_stdout_parses_and_outcomes_sum_to_batch_size() {
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "6",
            "--seed",
            "7",
            "--n",
            "4",
            "--horizon",
            "2",
            "--repeat",
            "1",
            "--model",
            "lv",
            "--metrics",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The exporter section starts at the first `# TYPE` line, after the
    // human-readable batch report.
    let start = text.find("# TYPE").expect("metrics snapshot on stdout");
    let samples = vehicle_usage_prediction::obs::parse_prometheus_text(&text[start..])
        .expect("snapshot parses as Prometheus text");

    let counter_sum = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    // One batch of 4 requests: the outcome series must sum to exactly
    // the request count, and here every request was served via retrain.
    assert_eq!(counter_sum("vup_serve_requests_total"), 4.0);
    assert_eq!(counter_sum("vup_serve_outcomes_total"), 4.0);
    assert_eq!(counter_sum("vup_serve_batches_total"), 1.0);
    assert_eq!(counter_sum("vup_store_retrains_total"), 4.0);
    // Stage histograms exported bucket series with a final count.
    let fit_count = samples
        .iter()
        .find(|s| {
            s.name == "vup_serve_stage_nanos_count"
                && s.labels == [("stage".to_string(), "fit".to_string())]
        })
        .expect("fit stage histogram exported");
    assert_eq!(fit_count.value, 4.0);
}

#[test]
fn serve_batch_metrics_file_gets_json_snapshot() {
    let path = std::env::temp_dir().join(format!("vup_metrics_{}.json", std::process::id()));
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "4",
            "--n",
            "2",
            "--repeat",
            "1",
            "--model",
            "lv",
            "--metrics",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("snapshot file written");
    std::fs::remove_file(&path).ok();
    assert!(json.starts_with("{\"counters\":["));
    assert!(json.contains("\"name\":\"vup_serve_requests_total\",\"labels\":{},\"value\":2"));
    assert!(json.contains("\"name\":\"vup_serve_stage_nanos\""));
    assert!(String::from_utf8_lossy(&out.stderr).contains("metrics snapshot written"));
}

#[test]
fn serve_batch_trace_flag_spans_every_request() {
    let path = std::env::temp_dir().join(format!("vup_serve_trace_{}.json", std::process::id()));
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "4",
            "--n",
            "2",
            "--repeat",
            "2",
            "--model",
            "lv",
            "--trace",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"traceEvents\""));
    // Two batches → two serve_batch roots, each with prepare and serve
    // phases; 2 requests per batch → 4 predict spans.
    assert_eq!(json.matches("\"name\":\"serve_batch\"").count(), 2);
    assert_eq!(json.matches("\"name\":\"prepare\"").count(), 2);
    assert_eq!(json.matches("\"name\":\"predict\"").count(), 4);
}

#[test]
fn serve_batch_skips_count_toward_the_outcome_sum() {
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "4",
            "--ids",
            "0,99",
            "--repeat",
            "1",
            "--model",
            "lv",
            "--metrics",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("skipped (vehicle 99 not in fleet)"));
    let start = text.find("# HELP").expect("metrics snapshot on stdout");
    let samples = vehicle_usage_prediction::obs::parse_prometheus_text(&text[start..])
        .expect("snapshot parses as Prometheus text");
    let counter = |name: &str, label: Option<(&str, &str)>| -> f64 {
        samples
            .iter()
            .filter(|s| {
                s.name == name
                    && label.is_none_or(|(k, v)| s.labels.contains(&(k.to_string(), v.to_string())))
            })
            .map(|s| s.value)
            .sum()
    };
    // Skipped requests still land in exactly one outcome series: the
    // three series sum to the batch size.
    assert_eq!(counter("vup_serve_requests_total", None), 2.0);
    assert_eq!(counter("vup_serve_outcomes_total", None), 2.0);
    assert_eq!(
        counter("vup_serve_outcomes_total", Some(("outcome", "skipped"))),
        1.0
    );
    assert_eq!(
        counter("vup_serve_outcomes_total", Some(("outcome", "retrained"))),
        1.0
    );
}

#[test]
fn serve_batch_rejects_unknown_model() {
    let out = vup()
        .args(["serve-batch", "--model", "oracle"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown model"));
}

#[test]
fn evaluate_rejects_unknown_scenario() {
    let out = vup()
        .args(["evaluate", "--scenario", "sometimes"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
}

#[test]
fn serve_batch_chaos_plan_degrades_instead_of_failing() {
    let plan = std::env::temp_dir().join(format!("vup_chaos_{}.json", std::process::id()));
    std::fs::write(
        &plan,
        r#"{"seed":7,"fit_error_rate":1.0,"fit_panic_rate":0.0,"fail_vehicles":[],"slow_rate":0.0,"slow_fit_nanos":0,"poison_rate":0.0}"#,
    )
    .expect("plan written");
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "4",
            "--n",
            "2",
            "--repeat",
            "2",
            "--model",
            "lv",
            "--retry-max",
            "2",
            "--faults",
            plan.to_str().unwrap(),
            "--metrics",
            "-",
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&plan).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Every fit fails, so every request degrades to the LV fallback and
    // nothing fails outright.
    assert!(
        text.contains("degraded via LV (injected fit error"),
        "{text}"
    );
    assert!(
        text.contains("outcomes: served=0 retrained=0 degraded=4 skipped=0 failed=0"),
        "{text}"
    );
    assert!(text.contains("circuit breakers open for"), "{text}");
    let start = text.find("# HELP").expect("metrics snapshot on stdout");
    let samples = vehicle_usage_prediction::obs::parse_prometheus_text(&text[start..])
        .expect("snapshot parses");
    let counter = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    assert_eq!(counter("vup_serve_outcomes_total"), 4.0);
    assert_eq!(
        counter("vup_serve_retries_total"),
        4.0,
        "one retry per episode"
    );
    assert!(counter("vup_serve_faults_injected_total") >= 8.0);
}

#[test]
fn serve_batch_failed_errors_round_trip_through_cli_and_journal() {
    use vehicle_usage_prediction::prelude::{ServeJournal, ServePath};
    let plan = std::env::temp_dir().join(format!("vup_failplan_{}.json", std::process::id()));
    let journal = std::env::temp_dir().join(format!("vup_journal_{}.json", std::process::id()));
    std::fs::write(
        &plan,
        r#"{"seed":3,"fit_error_rate":1.0,"fit_panic_rate":0.0,"fail_vehicles":[],"slow_rate":0.0,"slow_fit_nanos":0,"poison_rate":0.0}"#,
    )
    .expect("plan written");
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "4",
            "--n",
            "2",
            "--repeat",
            "1",
            "--model",
            "lv",
            "--fallback",
            "none",
            "--faults",
            plan.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&plan).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The underlying error string is surfaced in the CLI table...
    assert!(
        text.contains("failed (injected fit error (batch 0, attempt 1))"),
        "{text}"
    );
    assert!(
        text.contains("outcomes: served=0 retrained=0 degraded=0 skipped=0 failed=2"),
        "{text}"
    );
    // ...and round-trips through the serialized journal.
    let written = std::fs::read_to_string(&journal).expect("journal file written");
    std::fs::remove_file(&journal).ok();
    let parsed = ServeJournal::from_json(&written).expect("journal parses");
    assert_eq!(parsed.records.len(), 2);
    for record in &parsed.records {
        assert_eq!(record.path, ServePath::Failed);
        let reason = record.reason.as_deref().expect("failure reason kept");
        assert!(
            reason.contains("injected fit error (batch 0, attempt 1)"),
            "{reason}"
        );
    }
}

#[test]
fn serve_batch_store_dir_warm_starts_verifies_and_quarantines() {
    use vehicle_usage_prediction::prelude::ServeJournal;
    let dir = std::env::temp_dir().join(format!("vup_cli_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal_path =
        std::env::temp_dir().join(format!("vup_cli_store_{}.journal.json", std::process::id()));
    let dir_arg = dir.to_str().unwrap();
    let base = [
        "serve-batch",
        "--vehicles",
        "6",
        "--seed",
        "7",
        "--n",
        "3",
        "--horizon",
        "2",
        "--repeat",
        "1",
        "--model",
        "lv",
        "--store-dir",
        dir_arg,
    ];

    // Cold start: everything retrains and persists.
    let out = vup().args(base).output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 snapshot(s) recovered"), "{stderr}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("retrained @ slot").count(), 3, "{text}");

    // Warm start: every model comes back from disk and serves as a
    // cache hit; the journal carries the recovery report.
    let out = vup()
        .args(base)
        .args(["--journal", journal_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("3 snapshot(s) recovered"), "{stderr}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("cache hit").count(), 3, "{text}");
    assert_eq!(text.matches("retrained @ slot").count(), 0, "{text}");
    let written = std::fs::read_to_string(&journal_path).expect("journal written");
    std::fs::remove_file(&journal_path).ok();
    let recovery = ServeJournal::from_json(&written)
        .expect("journal parses")
        .recovery
        .expect("recovery report embedded");
    assert_eq!(recovery.recovered, 3);
    assert_eq!(recovery.quarantined, vec![]);
    assert_eq!(recovery.generation, 2);

    // A clean store passes verification …
    let out = vup()
        .args(["store", "verify", dir_arg])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 loadable, 0 corrupt"), "{text}");

    // … a torn snapshot fails it with a nonzero exit …
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .min()
        .expect("a snapshot to corrupt");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..20]).unwrap();
    let out = vup()
        .args(["store", "verify", dir_arg])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "corrupt store must fail verify");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("truncated"), "{text}");
    assert!(text.contains("2 loadable, 1 corrupt"), "{text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("corrupt snapshot"));

    // … and the next serve run quarantines it, retrains only that
    // vehicle, and serves the other two from the surviving snapshots.
    let out = vup().args(base).output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 snapshot(s) recovered, 1 quarantined"),
        "{stderr}"
    );
    assert!(stderr.contains("(truncated)"), "{stderr}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.matches("retrained @ slot").count(), 1, "{text}");
    assert_eq!(text.matches("cache hit").count(), 2, "{text}");
    let quarantined: Vec<String> = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    assert!(
        quarantined[0].ends_with(".snap.truncated"),
        "{quarantined:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_subcommand_requires_verify_and_a_directory() {
    let out = vup().arg("store").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: vup store verify DIR"));

    let out = vup()
        .args(["store", "verify", "/nonexistent/store-dir"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot audit"));
}

#[test]
fn serve_batch_truncates_long_reasons_with_an_ellipsis() {
    let plan = std::env::temp_dir().join(format!("vup_slowplan_{}.json", std::process::id()));
    std::fs::write(
        &plan,
        r#"{"seed":5,"fit_error_rate":0.0,"fit_panic_rate":0.0,"fail_vehicles":[],"slow_rate":1.0,"slow_fit_nanos":10000000000,"poison_rate":0.0}"#,
    )
    .expect("plan written");
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "4",
            "--n",
            "2",
            "--repeat",
            "1",
            "--model",
            "lv",
            "--fallback",
            "none",
            "--deadline-ms",
            "1",
            "--faults",
            plan.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&plan).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The table stays strict UTF-8 (the truncation never splits a
    // code point) and long failure reasons end in a single `…`.
    let text = String::from_utf8(out.stdout).expect("CLI table is valid UTF-8");
    assert!(
        text.contains("failed (deadline exceeded before attempt 1"),
        "{text}"
    );
    assert!(
        text.contains('…'),
        "long reasons must be ellipsized: {text}"
    );
    assert!(
        !text.contains("ns budget)"),
        "the full 79-char reason must not fit in the table: {text}"
    );
}

#[test]
fn serve_batch_rejects_bad_resilience_flags() {
    let out = vup()
        .args(["serve-batch", "--fallback", "oracle"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown value 'oracle'"));

    let out = vup()
        .args(["serve-batch", "--faults", "/nonexistent/plan.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read fault plan"));
}

#[test]
fn conflicting_stdout_artifacts_are_rejected_with_a_clear_error() {
    // Two exporters on one pipe would interleave; the CLI refuses early,
    // before any expensive work runs.
    for conflicting in [
        ["--metrics", "-", "--trace", "-"],
        ["--journal", "-", "--metrics", "-"],
        ["--journal", "-", "--trace", "-"],
    ] {
        let out = vup()
            .args([
                "serve-batch",
                "--vehicles",
                "3",
                "--n",
                "1",
                "--model",
                "linear",
            ])
            .args(conflicting)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "flags {conflicting:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("interleave on stdout"),
            "flags {conflicting:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "the conflict must be caught before any output: {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    // evaluate shares the same flags and the same guard.
    let out = vup()
        .args([
            "evaluate",
            "--vehicles",
            "3",
            "--n",
            "1",
            "--metrics",
            "-",
            "--trace",
            "-",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("interleave on stdout"));

    // A single stdout artifact stays allowed (the journal parses whole).
    let out = vup()
        .args([
            "serve-batch",
            "--vehicles",
            "3",
            "--ids",
            "0",
            "--model",
            "linear",
        ])
        .args([
            "--repeat",
            "1",
            "--metrics",
            "-",
            "--trace",
            "/dev/null",
            "--journal",
            "/dev/null",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("vup_serve_batches_total"),
        "metrics still stream to stdout when unambiguous: {text}"
    );
}

#[test]
fn loadgen_requires_an_address() {
    let out = vup().arg("loadgen").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
}

#[test]
fn serve_validates_worker_count() {
    let out = vup()
        .args(["serve", "--workers", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers must be positive"));
}

// --- streaming ingest / replay ---------------------------------------

use vehicle_usage_prediction::ingest::{IngestStats, ReplayReport, RetrainReason};

/// Runs `vup ingest` into `dir` and returns the parsed `--stats -` JSON.
fn run_ingest(dir: &std::path::Path, days: &str, start_day: &str) -> IngestStats {
    let out = vup()
        .args(["ingest", "--dir", dir.to_str().unwrap()])
        .args(["--vehicles", "4", "--seed", "7", "--days", days])
        .args(["--start-day", start_day, "--segment-bytes", "16000"])
        .args(["--stats", "-"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ingested"), "summary line on stdout: {text}");
    let json = &text[text.find('{').expect("stats JSON on stdout")..];
    serde_json::from_str(json).expect("ingest stats parse as JSON")
}

fn run_replay(dir: &std::path::Path, threads: &str) -> (ReplayReport, String) {
    let out = vup()
        .args(["replay", "--dir", dir.to_str().unwrap()])
        .args(["--vehicles", "4", "--seed", "7", "--model", "lv"])
        .args(["--scenario", "next-day", "--train-window", "12"])
        .args(["--threads", threads, "--report", "-"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let json = &text[text.find('{').expect("replay report on stdout")..];
    (
        ReplayReport::from_json(json).expect("replay report parses as JSON"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn ingest_appends_resume_across_invocations() {
    let dir = std::env::temp_dir().join(format!("vup_cli_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = run_ingest(&dir, "10", "0");
    assert!(
        first.records_appended > 100,
        "10 days of 4 vehicles: {first:?}"
    );
    assert_eq!(first.next_offset, first.records_appended);

    // A second invocation opens the same log and keeps counting from
    // the recovered offset — the stream is one continuous history.
    let second = run_ingest(&dir, "5", "10");
    assert_eq!(
        second.next_offset,
        first.records_appended + second.records_appended
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_after_mid_segment_kill_reports_recovery_and_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("vup_cli_kill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_ingest(&dir, "20", "0");

    // Simulate a kill -9 mid-append: cut the newest segment short.
    let mut segs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "vlog"))
        .collect();
    segs.sort();
    let tail = segs.last().expect("ingest wrote segments");
    let bytes = std::fs::read(tail).unwrap();
    std::fs::write(tail, &bytes[..bytes.len() - 9]).unwrap();

    // First replay repairs: the torn tail is quarantined, never deleted.
    let (repaired, stderr) = run_replay(&dir, "2");
    assert!(
        stderr.contains("quarantined"),
        "recovery summary on stderr: {stderr}"
    );
    let recovery = repaired.recovery.as_ref().expect("report embeds recovery");
    assert!(
        recovery.quarantined.iter().any(|q| q.reason == "truncated"),
        "torn tail in the report: {:?}",
        recovery.quarantined
    );
    assert!(dir.join("quarantine").read_dir().unwrap().next().is_some());
    assert!(repaired.records_replayed > 0);
    assert!(!repaired.decisions.is_empty());
    assert!(repaired.decisions_with(RetrainReason::Initial) > 0);

    // Replaying the repaired log is bit-identical at any thread count.
    let (a, _) = run_replay(&dir, "1");
    let (b, _) = run_replay(&dir, "4");
    assert_eq!(a, b, "replay must be deterministic across thread counts");
    assert_eq!(a.decisions, repaired.decisions);
    assert_eq!(a.models, repaired.models);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn subcommands_reject_flags_they_do_not_read() {
    let out = vup()
        .args(["evaluate", "--vehicles", "4", "--n", "1", "--bogus", "1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "an unknown evaluate flag must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus"));

    // A misspelt ingest flag fails before the log directory is touched.
    let dir = std::env::temp_dir().join(format!("vup_cli_misspelt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = vup()
        .args(["ingest", "--dir", dir.to_str().unwrap(), "--vehicles", "2"])
        .args(["--days", "1", "--segment-byte", "4000"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "an unknown ingest flag must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --segment-byte"));
    assert!(!dir.exists(), "no log may be opened after a flag error");

    // Log flags a subcommand does not read: the log keeps no offset
    // index, and replay never appends, so it takes no segment size.
    for (command, name, value) in [
        ("ingest", "index-every", "8"),
        ("replay", "segment-bytes", "4000"),
    ] {
        let out = vup()
            .args([command, "--dir", dir.to_str().unwrap(), "--vehicles", "2"])
            .args([&format!("--{name}"), value])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{command} --{name} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag --{name}")),
            "{stderr}"
        );
        assert!(!dir.exists(), "no log may be opened after a flag error");
    }
}

#[test]
fn ingest_and_replay_validate_their_flags() {
    let out = vup().arg("ingest").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dir"));

    let out = vup()
        .args(["replay", "--dir", "/nonexistent-vup-log", "--report", "-"])
        .args(["--metrics", "-"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("interleave on stdout"),
        "--report and --metrics both on stdout must be rejected"
    );

    let dir = std::env::temp_dir().join(format!("vup_cli_empty_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = vup()
        .args(["replay", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no records"));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------- bench

/// Mirror of the `vup monitor --json` document (the binary defines its
/// own serialize-side structs; round-tripping through an independent
/// mirror pins the wire shape).
#[derive(serde::Deserialize)]
struct MonitorDoc {
    vehicles: Vec<MonitorRow>,
    summary: MonitorSummaryDoc,
}

#[derive(serde::Deserialize)]
struct MonitorRow {
    vehicle_id: u32,
    residuals_seen: usize,
    baseline_mae: Option<f64>,
    recent_mae: Option<f64>,
    recent_rmse: Option<f64>,
    cusum: f64,
    drifted: bool,
    degraded: bool,
    data_gaps: usize,
    longest_gap_days: i64,
    stale: bool,
    flagged: bool,
}

#[derive(serde::Deserialize)]
struct MonitorSummaryDoc {
    monitored: usize,
    flagged: usize,
    drifting: usize,
    degraded: usize,
    with_gaps: usize,
    stale: usize,
}

#[test]
fn monitor_json_round_trips_against_the_table_view() {
    let args = [
        "--vehicles",
        "8",
        "--seed",
        "7",
        "--n",
        "3",
        "--model",
        "linear",
    ];
    let table = vup()
        .arg("monitor")
        .args(args)
        .output()
        .expect("binary runs");
    assert!(table.status.success());
    let table = String::from_utf8_lossy(&table.stdout).to_string();

    let json = vup()
        .arg("monitor")
        .args(args)
        .arg("--json")
        .output()
        .expect("binary runs");
    assert!(
        json.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&json.stderr)
    );
    let json = String::from_utf8_lossy(&json.stdout).to_string();
    assert!(!json.contains("baseline-mae"), "no table in JSON mode");
    let doc: MonitorDoc = serde_json::from_str(&json).expect("monitor JSON parses");

    // Same rows, in table order.
    let rows: Vec<&str> = table
        .lines()
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert_eq!(doc.vehicles.len(), rows.len());
    assert_eq!(doc.summary.monitored, rows.len());
    let yn = |b: bool| if b { "yes" } else { "no" };
    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"));
    for (row, line) in doc.vehicles.iter().zip(&rows) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols[0], row.vehicle_id.to_string());
        assert_eq!(cols[1], row.residuals_seen.to_string());
        assert_eq!(cols[2], opt(row.baseline_mae));
        assert_eq!(cols[3], opt(row.recent_mae));
        assert_eq!(cols[4], opt(row.recent_rmse));
        assert_eq!(cols[5], format!("{:.2}", row.cusum));
        assert!(row.longest_gap_days >= 0);
        assert_eq!(cols[6], yn(row.drifted));
        assert_eq!(cols[7], yn(row.degraded));
        assert_eq!(cols[8], row.data_gaps.to_string());
        assert_eq!(cols[9], yn(row.stale));
        assert_eq!(
            row.flagged,
            row.drifted || row.degraded || row.data_gaps > 0 || row.stale
        );
    }

    // The summary line carries the same counts as the JSON summary.
    let summary_line = table
        .lines()
        .find(|l| l.contains("monitored"))
        .expect("table has a summary line");
    let expected = format!(
        "{} vehicle(s) monitored, {} flagged: {} drifting, {} degraded, {} with gaps, {} stale",
        doc.summary.monitored,
        doc.summary.flagged,
        doc.summary.drifting,
        doc.summary.degraded,
        doc.summary.with_gaps,
        doc.summary.stale
    );
    assert_eq!(summary_line, expected);
}

/// Hand-authors a one-workload bench trajectory file.
fn bench_file(path: &std::path::Path, wall_ms: f64, rps: f64, fit_count: u64) {
    let text = format!(
        r#"{{
  "schema_version": 1,
  "entries": [
    {{
      "workload": "fleet_eval",
      "stamp": {{
        "config_fingerprint": "f",
        "git_rev": "r",
        "build_profile": "debug",
        "threads": 2,
        "quick": true
      }},
      "counts": {{"stage_fit_count": {fit_count}}},
      "metrics": {{"wall_ms": {wall_ms}, "vehicles_per_sec": {rps}}}
    }}
  ]
}}"#
    );
    std::fs::write(path, text).unwrap();
}

#[test]
fn bench_compare_gates_regressions_and_passes_self_compare() {
    let dir = std::env::temp_dir().join(format!("vup_cli_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.json");
    bench_file(&old, 100.0, 50.0, 10);

    // Self-compare exits zero.
    let out = vup()
        .args(["bench", "compare"])
        .args([old.to_str().unwrap(), old.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("bench compare: ok"));

    // An injected slowdown beyond the threshold exits nonzero, in both
    // the lower-is-better (wall) and higher-is-better (rps) directions.
    let slow = dir.join("slow.json");
    bench_file(&slow, 200.0, 50.0, 10);
    let out = vup()
        .args(["bench", "compare"])
        .args([old.to_str().unwrap(), slow.to_str().unwrap()])
        .args(["--threshold-pct", "20"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));

    let throughput_drop = dir.join("throughput.json");
    bench_file(&throughput_drop, 100.0, 20.0, 10);
    let out = vup()
        .args(["bench", "compare"])
        .args([old.to_str().unwrap(), throughput_drop.to_str().unwrap()])
        .args(["--threshold-pct", "20"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "rps drop must fail higher-is-better");

    // A generous threshold lets the same slowdown pass.
    let out = vup()
        .args(["bench", "compare"])
        .args([old.to_str().unwrap(), slow.to_str().unwrap()])
        .args(["--threshold-pct", "200"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // Count drift fails at any threshold.
    let drifted = dir.join("drifted.json");
    bench_file(&drifted, 100.0, 50.0, 11);
    let out = vup()
        .args(["bench", "compare"])
        .args([old.to_str().unwrap(), drifted.to_str().unwrap()])
        .args(["--threshold-pct", "1000"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("COUNT DRIFT"));

    // A NaN threshold would pass every timing (`worse > NaN` is false)
    // and a negative one would fail an unchanged run: both are usage
    // errors, rejected before any file is compared.
    for bad in ["NaN", "inf", "-5"] {
        let out = vup()
            .args(["bench", "compare"])
            .args([old.to_str().unwrap(), slow.to_str().unwrap()])
            .args(["--threshold-pct", bad])
            .output()
            .expect("binary runs");
        assert!(
            !out.status.success(),
            "--threshold-pct {bad} must be rejected"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--threshold-pct must be finite"),
            "{stderr}"
        );
        assert!(stderr.contains("usage: vup bench compare"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing is compared");
    }

    // Flags the gate does not know are rejected, not ignored.
    let out = vup()
        .args(["bench", "compare"])
        .args([old.to_str().unwrap(), slow.to_str().unwrap()])
        .args(["--assert-improved", "fleet_eval/wall_ms=15"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --assert-improved"));

    // Missing files and bad usage fail cleanly.
    let out = vup()
        .args(["bench", "compare", "nope.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: vup bench compare"));
    let out = vup()
        .args(["bench", "compare", "nope.json", "nada.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not exist"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_profile_flag_writes_collapsed_stacks_and_json() {
    let collapsed = std::env::temp_dir().join(format!("vup_prof_{}.collapsed", std::process::id()));
    let _ = std::fs::remove_file(&collapsed);
    let out = vup()
        .args(["evaluate", "--vehicles", "6", "--seed", "7", "--n", "2"])
        .args(["--profile", collapsed.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&collapsed).unwrap();
    // Collapsed-stack lines: `stack;frames weight`.
    assert!(text.lines().count() > 0);
    for line in text.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack weight");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("integer weight");
    }
    assert!(text.contains("view_build"));
    std::fs::remove_file(&collapsed).ok();

    // A non-.collapsed destination gets the JSON profile; '-' conflicts
    // with another stdout artifact.
    let out = vup()
        .args(["evaluate", "--vehicles", "6", "--seed", "7", "--n", "2"])
        .args(["--profile", "-"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema_version\": 1"));
    assert!(text.contains("\"stages\""));
    assert!(text.contains("\"truncated\": false"));

    let out = vup()
        .args(["evaluate", "--profile", "-", "--trace", "-"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("interleave on stdout"));
}
