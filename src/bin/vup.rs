//! `vup` — command-line front end for the vehicle-usage-prediction
//! library.
//!
//! Gives a downstream user the three everyday operations without writing
//! Rust:
//!
//! ```text
//! vup simulate --vehicles 50 --seed 7 --id 3 --days 60   # dump daily CSV
//! vup predict  --vehicles 50 --seed 7 --id 3             # next-working-day forecast
//! vup evaluate --vehicles 50 --seed 7 --n 10             # fleet PE (paper pipeline)
//! vup monitor  --vehicles 50 --seed 7 --n 10             # drift / data-quality monitors
//! vup serve-batch --vehicles 50 --ids 0,3,5 --horizon 3  # cached batch serving
//! ```
//!
//! Run with `cargo run --release --bin vup -- <subcommand> [flags]`.

use std::collections::HashMap;
use std::process::ExitCode;

use vehicle_usage_prediction::bench::perf::{self, BenchFile, BenchOptions};
use vehicle_usage_prediction::core::evaluate::evaluate_vehicle;
use vehicle_usage_prediction::core::fleet_eval::{evaluate_fleet, monitor_fleet_evaluation};
use vehicle_usage_prediction::core::levels::{compare_level_predictors, UsageLevel};
use vehicle_usage_prediction::dataprep::{describe, pipeline};
use vehicle_usage_prediction::fleetsim::fleet::type_of;
use vehicle_usage_prediction::obs::{
    FleetMonitor, MonitorConfig, Profile, ProfileWeight, Tracer, VehicleHealth,
};
use vehicle_usage_prediction::prelude::*;
use vehicle_usage_prediction::serve::{storage_backend, ShardFate};
use vehicle_usage_prediction::shard::{build_service, rebalance, remapped, shard_dir};

const USAGE: &str = "\
vup — per-vehicle utilization-hour forecasting (EDBT/ICDT-WS 2019 reproduction)

USAGE:
    vup <subcommand> [--flag value ...]

SUBCOMMANDS:
    simulate   Dump a vehicle's prepared daily records as CSV to stdout
               flags: --vehicles N --seed S --id I --days D (default 60)
    predict    Print the next-working-day forecast for one vehicle
               flags: --vehicles N --seed S --id I
    evaluate   Evaluate the paper pipeline over a fleet subsample
               flags: --vehicles N --seed S --n COUNT (default 10)
                      --scenario next-day|next-working-day
                      --metrics PATH|- : dump a metrics snapshot after the
                      run ('-' = stdout; a .json suffix selects the JSON
                      exporter, anything else Prometheus text)
                      --trace PATH|- : dump the run's span tree ('-' =
                      stdout; a .txt suffix renders a text tree, anything
                      else Chrome trace-event JSON for about://tracing)
                      --profile PATH|- : aggregate the span tree into a
                      deterministic flame profile (a .collapsed suffix
                      emits collapsed stacks for flamegraph tools,
                      anything else the full JSON profile)
    monitor    Per-vehicle model-quality monitors over a fleet evaluation:
               rolling MAE/RMSE, CUSUM drift vs the training-time error,
               report gaps, and stale histories
               flags: --vehicles N --seed S --n COUNT (default 10)
                      --scenario next-day|next-working-day
                      --model svr|linear|lasso|gbm|lv|ma
                      --window W (default 30)
                      --baseline-window B (default 30)
                      --metrics PATH|-
                      --json : print the health rows and summary as JSON
                      instead of the text table (same fields)
    levels     Classify next-day usage levels for one vehicle (paper §5)
               flags: --vehicles N --seed S --id I
    serve-batch
               Serve batches of multi-day forecasts through the caching
               prediction service (retrains on miss, serves on hit)
               flags: --vehicles N --seed S --ids 0,1,2 (or --n COUNT)
                      --horizon H (default 3) --repeat R (default 2)
                      --threads T (default 0 = one per core)
                      --model svr|linear|lasso|gbm|lv|ma
                      --retry-max A : fit attempts per vehicle per batch
                      (default 1; >1 switches on the resilient profile)
                      --deadline-ms MS : virtual-time budget per fit
                      episode (injected delays + backoffs)
                      --fallback lv|ma:K|none : baseline served when the
                      primary fit fails or the breaker is open (default
                      lv once any resilience/fault flag is set, none
                      otherwise; the same at every --shards)
                      --faults PATH : JSON chaos plan (seeded, injects
                      fit errors/panics, slow stages, stale poisoning,
                      and — through its \"disk\" section — torn writes,
                      bit flips, transient io errors and a full disk)
                      --store-dir PATH : durable snapshot store; models
                      persist across runs and the service warm-starts
                      from whatever survives (corrupt files quarantined)
                      --shards N : fan each batch out over N rendezvous-
                      hashed shards, each with its own service, monitor
                      set, and snapshot subdir shard-NNN under
                      --store-dir. Every shard serves under the same
                      resilience profile as one service would, and the
                      merged journal is in request order: identical at
                      any --shards while no shard fault fires, and at
                      any --threads. A \"shards\"
                      section in --faults can kill/stall/refuse shards;
                      dead shards degrade their vehicles for the batch
                      (through the fallback, lv when there is none)
                      and are warm-restarted from their snapshot dir.
                      A \"disk\" section applies to every shard's store,
                      each with its own fault state and full-disk budget
                      --journal PATH|- : dump the last batch's provenance
                      journal as JSON (includes the store recovery report
                      when --store-dir is set; with --shards the
                      recovery block sums every shard's restarts)
                      --metrics PATH|- : dump a metrics snapshot after the
                      last batch ('-' = stdout; a .json suffix selects the
                      JSON exporter, anything else Prometheus text)
                      --trace PATH|- : dump the batches' span tree
                      --profile PATH|- : deterministic flame profile of
                      the batches (.collapsed or JSON, as for evaluate)
    serve      Run the prediction service as an HTTP/1.1 daemon
               (hand-rolled, std-only). Endpoints: POST /v1/predict-batch
               (JSON batch -> forecasts + provenance journal, identical
               to what serve-batch --journal writes), GET /healthz,
               GET /metrics (Prometheus text). Admission control: a
               bounded queue feeds a fixed worker pool; a full queue or
               an all-open circuit-breaker batch is shed with
               503 + Retry-After. SIGTERM/SIGINT drain gracefully.
               flags: --vehicles N --seed S
                      --addr HOST:PORT (default 127.0.0.1:0; the bound
                      address is printed to stderr as 'listening on ...')
                      --workers W (default 2) : connection workers
                      --queue Q (default 64) : admission-queue bound
                      --threads T (default 0) : prediction executor
                      --max-batch B (default 1024) : largest batch
                      --model/--retry-max/--deadline-ms/--fallback/
                      --faults/--store-dir : as for serve-batch
    loadgen    Seeded closed-loop load generator against a running
               `vup serve`; writes a JSON run report
               (sustained RPS + exact latency percentiles) and
               strict-parses the server's final /metrics export
               flags: --addr HOST:PORT (required)
                      --clients C (default 4) --requests R (default 50,
                      per client) --duration-ms MS (overrides --requests)
                      --batch B (default 4) --pool P (default 50)
                      --horizon H (default 3) --seed S (default 7)
                      --out PATH|- (default loadgen-report.json)
    store      Inspect durable snapshot stores without serving
               usage: vup store verify DIR [DIR ...]
               Classifies every snapshot read-only (ok / truncated /
               checksum / version / decode / io / tmp) with a per-dir
               summary; exits nonzero if any file in any dir is corrupt
    shard-eval Partition a (never materialized) fleet roster
               over N rendezvous-hashed shards and report the balance:
               per-shard counts, imbalance vs the ideal, and how many
               vehicles would remap when growing to N+1 shards
               flags: --vehicles N (default 1000000) --seed S
                      --shards S (default 8) --json
    shard rebalance
               Move snapshots between shard dirs after a shard-count
               change: copy -> CRC verify -> atomic rename -> re-verify
               -> remove source; corrupt sources are reported and left
               in place, and every touched dir's manifest generation is
               bumped. Check afterwards with `vup store verify`
               usage: vup shard rebalance ROOT --from N --to M [--json]
    ingest     Append simulated 10-minute CAN reports to a durable
               commit log (CRC-framed segments under --dir). Reopening
               first recovers: torn tails are cut to the last valid
               frame and quarantined, never deleted, then appends
               resume at the recovered offset
               flags: --dir DIR (required) --vehicles N --seed S
                      --days D (default 14) --start-day D (default 0,
                      day offset to resume a stream from)
                      --segment-bytes B (default 65536) : seal a segment
                      and start the next once it reaches B bytes
                      --shift-vehicle I --shift-day D --shift-factor F :
                      scale vehicle I's utilization by F from day D on
                      (injects a usage drift for the retrain monitors)
                      --faults PATH : JSON chaos plan; its \"disk\"
                      section routes log I/O through the seeded faulty
                      backend (torn appends, bit flips, io errors)
                      --stats PATH|- : dump ingest stats as JSON
    replay     Re-run the streaming pipeline over a commit log prefix:
               recover, aggregate per-vehicle days, seal, and retrain
               on drift/degrade/staleness through the caching service.
               Replaying the same prefix is bit-for-bit deterministic
               at any --threads
               flags: --dir DIR (required) --vehicles N --seed S
                      --limit R : replay only the first R records
                      --faults PATH : recover and read the log through
                      the plan's seeded faulty disk backend
                      --threads T (default 0 = one per core)
                      --scenario next-day|next-working-day
                      --model svr|linear|lasso|gbm|lv|ma
                      --train-window W --retrain-every E --max-lag L
                      --window W --baseline-window B : monitor windows
                      --report PATH|- : dump the full replay report
                      (decisions, journal, model digests) as JSON
                      --metrics PATH|- --trace PATH|- --profile PATH|-
    bench      Run the canonical seeded perf workloads (fleet-eval,
               warm-store serve-batch, ingest+replay, serve-daemon
               loadgen) and append one stamped record per workload to
               the schema-versioned perf trajectories BENCH_core.json /
               BENCH_ingest.json / BENCH_serve.json, plus a
               deterministic count-weighted profile per workload
               (BENCH_profile_<workload>.collapsed / .shape.json)
               flags: --quick : CI-smoke sizing
                      --threads T (default 4)
                      --out-dir DIR (default .)
                      --no-daemon : skip the socket-binding workload
    bench compare
               Gate NEW against OLD: profile/outcome counts must match
               exactly, wall-clock metrics may move at most the
               threshold in the worse direction (*_per_sec and *rps are
               higher-better); exits nonzero on any regression
               usage: vup bench compare OLD NEW [--threshold-pct N
                      (default 10; finite and >= 0)]
    help       Show this message

Common defaults: --vehicles 50 --seed 7 --id 0
At most one of --journal/--metrics/--trace/--stats/--report/--profile
may write to stdout ('-').
";

/// Character budget for failure-reason columns in the serve-batch
/// table; reasons are cut with [`ellipsize`], never mid-code-point.
const REASON_CHARS: usize = 72;

/// Flags that are switches: present means on, they take no value.
const SWITCH_FLAGS: &[&str] = &["json", "quick", "no-daemon"];

/// Minimal `--key value` flag parser (no external dependency).
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{key}'"));
        };
        if SWITCH_FLAGS.contains(&name) {
            flags.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} is missing its value"));
        };
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

/// Flags [`build_fleet`] reads.
const FLEET_FLAGS: &[&str] = &["vehicles", "seed"];
/// Flags [`parse_service_flags`] reads.
const SERVICE_FLAGS: &[&str] = &[
    "threads",
    "model",
    "retry-max",
    "deadline-ms",
    "fallback",
    "faults",
    "store-dir",
];
/// Flags [`open_commit_log`] reads.
const LOG_FLAGS: &[&str] = &["dir", "faults"];

/// Rejects any flag outside `known`, so a removed or misspelt flag fails
/// instead of being silently ignored.
fn reject_unknown_flags(flags: &HashMap<String, String>, known: &[&str]) -> Result<(), String> {
    match flags
        .keys()
        .filter(|name| !known.contains(&name.as_str()))
        .min()
    {
        Some(name) => Err(format!("unknown flag --{name}")),
        None => Ok(()),
    }
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("flag --{name}: cannot parse '{raw}'")),
    }
}

/// Rejects invocations where two artifact flags both stream to stdout:
/// the exporters would interleave on one pipe and corrupt both outputs
/// (pinned by a CLI test).
fn check_stdout_conflicts(flags: &HashMap<String, String>) -> Result<(), String> {
    let to_stdout: Vec<String> = ["journal", "metrics", "trace", "stats", "report", "profile"]
        .iter()
        .filter(|name| flags.get(**name).map(String::as_str) == Some("-"))
        .map(|name| format!("--{name} -"))
        .collect();
    if to_stdout.len() > 1 {
        return Err(format!(
            "{} would interleave on stdout; write at most one artifact to '-' and the rest to files",
            to_stdout.join(" and ")
        ));
    }
    Ok(())
}

/// Writes `rendered` to `dest` ('-' = stdout), labelled for error text.
fn write_artifact(rendered: &str, dest: &str, what: &str) -> Result<(), String> {
    if dest == "-" {
        print!("{rendered}");
    } else {
        std::fs::write(dest, rendered)
            .map_err(|e| format!("cannot write {what} to '{dest}': {e}"))?;
        eprintln!("{what} written to {dest}");
    }
    Ok(())
}

/// The observability artifacts a run was asked for: `--metrics`,
/// `--trace` and `--profile`, each a path or '-' (stdout).
struct Artifacts {
    metrics: Option<String>,
    trace: Option<String>,
    profile: Option<String>,
}

impl Artifacts {
    fn from_flags(flags: &HashMap<String, String>) -> Artifacts {
        Artifacts {
            metrics: flags.get("metrics").cloned(),
            trace: flags.get("trace").cloned(),
            profile: flags.get("profile").cloned(),
        }
    }

    /// The registry and tracer to run under. Observability is free when
    /// off: an artifact nobody asked for leaves its sink disabled, and
    /// every instrumented path then reads no clock.
    fn sinks(&self) -> (Registry, Tracer) {
        let registry = if self.metrics.is_some() {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let tracer = if self.trace.is_some() || self.profile.is_some() {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        (registry, tracer)
    }

    /// Writes the requested artifacts in a fixed order: the metrics
    /// snapshot (a `.json` suffix selects the JSON exporter, anything
    /// else Prometheus text), the span tree (a `.txt` suffix renders the
    /// compact text tree, anything else Chrome trace-event JSON), and
    /// the flame profile aggregated from it (a `.collapsed` suffix emits
    /// self-time weighted, flamegraph-compatible collapsed stacks,
    /// anything else the full JSON profile with counts, bytes and
    /// timings).
    fn write(&self, registry: &Registry, tracer: &Tracer) -> Result<(), String> {
        if let Some(dest) = &self.metrics {
            let snapshot = registry.snapshot();
            let rendered = if dest.ends_with(".json") {
                snapshot.to_json()
            } else {
                snapshot.to_prometheus_text()
            };
            write_artifact(&rendered, dest, "metrics snapshot")?;
        }
        if let Some(dest) = &self.trace {
            let snapshot = tracer.snapshot();
            let rendered = if dest.ends_with(".txt") {
                snapshot.to_text_tree()
            } else {
                snapshot.to_chrome_json()
            };
            write_artifact(&rendered, dest, "trace")?;
        }
        if let Some(dest) = &self.profile {
            let profile = Profile::from_snapshot(&tracer.snapshot());
            let rendered = if dest.ends_with(".collapsed") {
                profile.to_collapsed(ProfileWeight::SelfNanos)
            } else {
                profile.to_json()
            };
            write_artifact(&rendered, dest, "profile")?;
        }
        Ok(())
    }
}

fn parse_scenario(flags: &HashMap<String, String>) -> Result<Scenario, String> {
    match flags.get("scenario").map(String::as_str) {
        None | Some("next-working-day") => Ok(Scenario::NextWorkingDay),
        Some("next-day") => Ok(Scenario::NextDay),
        Some(other) => Err(format!("unknown scenario '{other}'")),
    }
}

fn apply_model_flag(
    flags: &HashMap<String, String>,
    config: &mut PipelineConfig,
) -> Result<(), String> {
    use vehicle_usage_prediction::ml::gbm::GbmParams;
    use vehicle_usage_prediction::ml::lasso::LassoParams;
    match flags.get("model").map(String::as_str) {
        None | Some("svr") => {} // the paper's best model is the default
        Some("linear") => config.model = ModelSpec::Learned(RegressorSpec::Linear),
        Some("lasso") => {
            config.model = ModelSpec::Learned(RegressorSpec::Lasso(LassoParams::default()));
        }
        Some("gbm") => {
            config.model = ModelSpec::Learned(RegressorSpec::Gbm(GbmParams::default()));
        }
        Some("lv") => config.model = ModelSpec::Baseline(BaselineSpec::LastValue),
        Some("ma") => config.model = ModelSpec::Baseline(BaselineSpec::MovingAverage(30)),
        Some(other) => return Err(format!("unknown model '{other}'")),
    }
    Ok(())
}

fn build_fleet(flags: &HashMap<String, String>) -> Result<Fleet, String> {
    let n: usize = flag(flags, "vehicles", 50)?;
    let seed: u64 = flag(flags, "seed", 7)?;
    if n == 0 {
        return Err("--vehicles must be positive".into());
    }
    Ok(Fleet::generate(FleetConfig::small(n, seed)))
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(flags, &[FLEET_FLAGS, &["id", "days"]].concat())?;
    let fleet = build_fleet(flags)?;
    let id = VehicleId(flag(flags, "id", 0_u32)?);
    let days: usize = flag(flags, "days", 60)?;
    let vehicle = fleet.vehicle(id).ok_or_else(|| {
        format!(
            "vehicle {} not in a fleet of {}",
            id.0,
            fleet.vehicles().len()
        )
    })?;
    let history = vehicle_usage_prediction::fleetsim::generator::generate_history(&fleet, id);
    let take = days.min(history.records.len());
    let table = pipeline::daily_records_to_table(&fleet, id, &history.records[..take])
        .map_err(|e| e.to_string())?;
    eprintln!(
        "# vehicle {} ({}), first {take} days; column profile:",
        id.0,
        vehicle.vtype.name()
    );
    eprintln!(
        "{}",
        describe::describe_text(&table).map_err(|e| e.to_string())?
    );
    print!(
        "{}",
        vehicle_usage_prediction::dataprep::csv::to_csv(&table)
    );
    Ok(())
}

fn cmd_predict(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(flags, &[FLEET_FLAGS, &["id"]].concat())?;
    let fleet = build_fleet(flags)?;
    let id = VehicleId(flag(flags, "id", 0_u32)?);
    fleet.vehicle(id).ok_or_else(|| {
        format!(
            "vehicle {} not in a fleet of {}",
            id.0,
            fleet.vehicles().len()
        )
    })?;
    let config = PipelineConfig::default();
    let view = VehicleView::build(&fleet, id, Scenario::NextWorkingDay);
    if view.len() < config.train_window + 1 {
        return Err(format!(
            "vehicle {} has only {} working days; need more than {}",
            id.0,
            view.len(),
            config.train_window
        ));
    }
    let model = FittedPredictor::fit(&view, &config, view.len() - config.train_window, view.len())
        .map_err(|e| e.to_string())?;
    let hours = model
        .predict(&view, view.len() - 1)
        .map_err(|e| e.to_string())?;
    let last = view.slot(view.len() - 1);
    println!(
        "vehicle {}: last observed working day {} ({:.2} h)",
        id.0, last.date, last.hours
    );
    println!(
        "next-working-day forecast: {hours:.2} h ({} with {} ACF-selected lags)",
        model.label(),
        model.selected_lags().len()
    );
    Ok(())
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(
        flags,
        &[
            FLEET_FLAGS,
            &["n", "scenario", "metrics", "trace", "profile"],
        ]
        .concat(),
    )?;
    let fleet = build_fleet(flags)?;
    let n: usize = flag(flags, "n", 10)?;
    let scenario = parse_scenario(flags)?;
    let config = PipelineConfig {
        scenario,
        eval_tail: Some(360),
        ..PipelineConfig::default()
    };
    let ids: Vec<VehicleId> = (0..fleet.vehicles().len().min(n) as u32)
        .map(VehicleId)
        .collect();
    eprintln!(
        "evaluating {} vehicles, scenario {}, SVR (K={}, w={})...",
        ids.len(),
        scenario.label(),
        config.k,
        config.train_window
    );
    let artifacts = Artifacts::from_flags(flags);
    let (registry, tracer) = artifacts.sinks();
    let (eval, _) = evaluate_fleet(&fleet, &ids, &config, 0, &registry, &tracer);
    for m in &eval.members {
        match &m.outcome {
            Ok(e) => println!(
                "vehicle {:>4}: PE {:>6.1}%  (MAE {:.2} h over {} days)",
                m.vehicle_id,
                e.percentage_error,
                e.mae,
                e.points.len()
            ),
            Err(err) => println!("vehicle {:>4}: skipped ({err})", m.vehicle_id),
        }
    }
    println!(
        "\nfleet mean PE: {:.1}% over {} vehicles ({} skipped)",
        eval.mean_percentage_error, eval.evaluated, eval.skipped
    );
    // Cross-check one vehicle sequentially (sanity against the parallel path).
    if let Some(first) = ids.first() {
        let view = VehicleView::build(&fleet, *first, scenario);
        if let Ok(e) = evaluate_vehicle(&view, &config) {
            debug_assert_eq!(
                Some(e.percentage_error),
                eval.members[0]
                    .outcome
                    .as_ref()
                    .ok()
                    .map(|m| m.percentage_error)
            );
        }
    }
    artifacts.write(&registry, &tracer)
}

/// JSON document printed by `vup monitor --json`: the same rows and
/// summary as the text table (a CLI test round-trips the two views).
#[derive(serde::Serialize, serde::Deserialize)]
struct MonitorJson {
    vehicles: Vec<HealthRow>,
    summary: MonitorSummary,
}

/// One vehicle's health row, mirroring the table columns.
#[derive(serde::Serialize, serde::Deserialize)]
struct HealthRow {
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

/// The table's trailing summary line, as fields.
#[derive(serde::Serialize, serde::Deserialize)]
struct MonitorSummary {
    monitored: usize,
    flagged: usize,
    drifting: usize,
    degraded: usize,
    with_gaps: usize,
    stale: usize,
}

impl MonitorJson {
    fn from_reports(reports: &[VehicleHealth]) -> MonitorJson {
        let count = |pred: fn(&VehicleHealth) -> bool| reports.iter().filter(|h| pred(h)).count();
        MonitorJson {
            vehicles: reports
                .iter()
                .map(|h| HealthRow {
                    vehicle_id: h.vehicle_id,
                    residuals_seen: h.residuals_seen,
                    baseline_mae: h.baseline_mae,
                    recent_mae: h.recent_mae,
                    recent_rmse: h.recent_rmse,
                    cusum: h.cusum,
                    drifted: h.drifted,
                    degraded: h.degraded,
                    data_gaps: h.data_gaps,
                    longest_gap_days: h.longest_gap_days,
                    stale: h.stale,
                    flagged: h.flagged(),
                })
                .collect(),
            summary: MonitorSummary {
                monitored: reports.len(),
                flagged: reports.iter().filter(|h| h.flagged()).count(),
                drifting: count(|h| h.drifted),
                degraded: count(|h| h.degraded),
                with_gaps: count(|h| h.data_gaps > 0),
                stale: count(|h| h.stale),
            },
        }
    }
}

fn cmd_monitor(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(
        flags,
        &[
            FLEET_FLAGS,
            &[
                "n",
                "scenario",
                "model",
                "window",
                "baseline-window",
                "metrics",
                "json",
            ],
        ]
        .concat(),
    )?;
    let fleet = build_fleet(flags)?;
    let n: usize = flag(flags, "n", 10)?;
    let scenario = parse_scenario(flags)?;
    let mut config = PipelineConfig {
        scenario,
        eval_tail: Some(360),
        ..PipelineConfig::default()
    };
    apply_model_flag(flags, &mut config)?;
    let defaults = MonitorConfig::default();
    let monitor_config = MonitorConfig {
        window: flag(flags, "window", defaults.window)?,
        baseline_window: flag(flags, "baseline-window", defaults.baseline_window)?,
        ..defaults
    };
    if monitor_config.window == 0 || monitor_config.baseline_window == 0 {
        return Err("--window and --baseline-window must be positive".into());
    }
    let artifacts = Artifacts::from_flags(flags);
    let (registry, tracer) = artifacts.sinks();
    let ids: Vec<VehicleId> = (0..fleet.vehicles().len().min(n) as u32)
        .map(VehicleId)
        .collect();
    eprintln!(
        "monitoring {} vehicles ({}, scenario {}): rolling window {}, baseline {} residuals...",
        ids.len(),
        config.model.label(),
        scenario.label(),
        monitor_config.window,
        monitor_config.baseline_window
    );

    let (eval, _) = evaluate_fleet(&fleet, &ids, &config, 0, &registry, &tracer);
    let monitor = FleetMonitor::observed(&registry, monitor_config);
    monitor_fleet_evaluation(&eval, &fleet, &config, &monitor);
    let reports = monitor.health();

    if flags.contains_key("json") {
        let doc = MonitorJson::from_reports(&reports);
        println!(
            "{}",
            serde_json::to_string_pretty(&doc)
                .map_err(|e| format!("cannot render monitor JSON: {e}"))?
        );
        return artifacts.write(&registry, &tracer);
    }

    let opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"));
    let yn = |b: bool| if b { "yes" } else { "no" };
    println!(
        "{:>7} {:>9} {:>12} {:>11} {:>11} {:>7} {:>5} {:>8} {:>4} {:>5}",
        "vehicle",
        "residuals",
        "baseline-mae",
        "recent-mae",
        "recent-rmse",
        "cusum",
        "drift",
        "degraded",
        "gaps",
        "stale"
    );
    for h in &reports {
        println!(
            "{:>7} {:>9} {:>12} {:>11} {:>11} {:>7.2} {:>5} {:>8} {:>4} {:>5}",
            h.vehicle_id,
            h.residuals_seen,
            opt(h.baseline_mae),
            opt(h.recent_mae),
            opt(h.recent_rmse),
            h.cusum,
            yn(h.drifted),
            yn(h.degraded),
            h.data_gaps,
            yn(h.stale)
        );
    }
    let count = |pred: fn(&VehicleHealth) -> bool| reports.iter().filter(|h| pred(h)).count();
    println!(
        "\n{} vehicle(s) monitored, {} flagged: {} drifting, {} degraded, {} with gaps, {} stale",
        reports.len(),
        reports.iter().filter(|h| h.flagged()).count(),
        count(|h| h.drifted),
        count(|h| h.degraded),
        count(|h| h.data_gaps > 0),
        count(|h| h.stale)
    );
    artifacts.write(&registry, &tracer)
}

fn cmd_levels(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(flags, &[FLEET_FLAGS, &["id"]].concat())?;
    let fleet = build_fleet(flags)?;
    let id = VehicleId(flag(flags, "id", 0_u32)?);
    fleet.vehicle(id).ok_or_else(|| {
        format!(
            "vehicle {} not in a fleet of {}",
            id.0,
            fleet.vehicles().len()
        )
    })?;
    let config = PipelineConfig {
        scenario: Scenario::NextDay,
        ..PipelineConfig::default()
    };
    let view = VehicleView::build(&fleet, id, Scenario::NextDay);
    let holdout = 150usize.min(view.len() / 4);
    let train_to = view.len() - holdout;
    if train_to < config.train_window {
        return Err(format!(
            "vehicle {} has too little history for level classification",
            id.0
        ));
    }
    let cmp = compare_level_predictors(&view, &config, train_to - config.train_window, train_to)
        .map_err(|e| e.to_string())?;
    println!(
        "vehicle {}: usage-level classification over the last {holdout} days",
        id.0
    );
    println!(
        "  softmax classifier     : accuracy {:>5.1}%  macro-F1 {:.2}",
        100.0 * cmp.classifier.accuracy,
        cmp.classifier.macro_f1
    );
    println!(
        "  discretized regression : accuracy {:>5.1}%",
        100.0 * cmp.discretized_regression.accuracy
    );
    println!(
        "  majority baseline      : accuracy {:>5.1}%",
        100.0 * cmp.majority.accuracy
    );
    println!("\nconfusion matrix (rows = actual, cols = predicted):");
    print!("{:>8}", "");
    for l in UsageLevel::ALL {
        print!("{:>8}", l.label());
    }
    println!();
    for (l, row) in UsageLevel::ALL.iter().zip(&cmp.classifier.confusion) {
        print!("{:>8}", l.label());
        for count in row {
            print!("{count:>8}");
        }
        println!();
    }
    Ok(())
}

/// The `--faults PATH` chaos plan; without the flag, the empty plan,
/// which injects nothing.
fn fault_plan_flag(flags: &HashMap<String, String>) -> Result<FaultPlan, String> {
    let Some(path) = flags.get("faults") else {
        return Ok(FaultPlan::default());
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fault plan '{path}': {e}"))?;
    FaultPlan::from_json(&text).map_err(|e| format!("invalid fault plan '{path}': {e}"))
}

/// Resolves the serving flags `serve-batch` and `serve` share into the
/// pipeline and the options every service is built under
/// ([`build_service`]): --threads/--model pick the executor and
/// pipeline, --store-dir the snapshot root, and --retry-max above 1,
/// --deadline-ms, --fallback or --faults switch on the hardened
/// resilience profile; without them the profile is the default one.
fn parse_service_flags(
    flags: &HashMap<String, String>,
) -> Result<(PipelineConfig, ShardOptions), String> {
    let threads: usize = flag(flags, "threads", 0)?;
    let mut config = PipelineConfig::default();
    apply_model_flag(flags, &mut config)?;

    let retry_max: u32 = flag(flags, "retry-max", 1)?;
    let deadline_ms: Option<u64> = match flags.get("deadline-ms") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("flag --deadline-ms: cannot parse '{raw}'"))?,
        ),
    };
    let fallback_flag = flags.get("fallback").map(String::as_str);
    let fault_plan = fault_plan_flag(flags)?;
    let fallback = match fallback_flag {
        None | Some("lv") => Some(BaselineSpec::LastValue),
        Some("none") => None,
        Some(other) => match other.strip_prefix("ma:").map(str::parse) {
            Some(Ok(k)) => Some(BaselineSpec::MovingAverage(k)),
            _ => return Err(format!("flag --fallback: unknown value '{other}'")),
        },
    };
    let hardened = retry_max > 1
        || deadline_ms.is_some()
        || fallback_flag.is_some()
        || flags.contains_key("faults");
    let resilience = if hardened {
        let mut resilience = ResilienceConfig::resilient();
        resilience.retry.max_attempts = retry_max.max(1);
        resilience.deadline_nanos = deadline_ms.map(|ms| ms.saturating_mul(1_000_000));
        resilience.fallback = fallback;
        resilience
    } else {
        ResilienceConfig::default()
    };
    let options = ShardOptions {
        threads,
        resilience,
        faults: fault_plan,
        store_root: flags.get("store-dir").map(std::path::PathBuf::from),
        ..ShardOptions::new(1)
    };
    Ok((config, options))
}

/// Builds the lone service `serve-batch` (one shard) and `serve` run,
/// and reports on stderr what its durable store recovered.
fn open_service<'f>(
    fleet: &'f Fleet,
    config: PipelineConfig,
    options: &ShardOptions,
    registry: &Registry,
    tracer: &Tracer,
) -> Result<PredictionService<'f>, String> {
    let dir = options.store_root.as_deref();
    let service =
        build_service(fleet, config, options, dir, registry, tracer).map_err(|e| e.to_string())?;
    if let (Some(dir), Some(stats)) = (dir, service.store().recovery()) {
        eprintln!(
            "store '{}': generation {}, {} snapshot(s) recovered, {} quarantined{}",
            dir.display(),
            stats.generation,
            stats.recovered,
            stats.quarantined_count(),
            if stats.manifest_rebuilt {
                " (manifest rebuilt)"
            } else {
                ""
            }
        );
        for q in &stats.quarantined {
            eprintln!("  quarantined {} ({})", q.file, q.reason);
        }
    }
    Ok(service)
}

/// Outcome-class counters for the serve-batch summary line, shared by
/// the single-service and sharded paths.
#[derive(Default)]
struct OutcomeTally {
    served: u64,
    retrained: u64,
    degraded: u64,
    skipped: u64,
    failed: u64,
}

/// Prints one line per outcome and updates the tally in place.
fn print_outcomes(outcomes: &[ServeOutcome], tally: &mut OutcomeTally) {
    let fmt_hours = |hours: &[f64]| {
        hours
            .iter()
            .map(|h| format!("{h:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for outcome in outcomes {
        match outcome {
            ServeOutcome::RetrainedThenServed(f) => {
                tally.retrained += 1;
                println!(
                    "  vehicle {:>4}: retrained @ slot {}, forecast: {} h",
                    f.vehicle_id,
                    f.trained_at,
                    fmt_hours(&f.hours)
                );
            }
            ServeOutcome::Served(f) => {
                tally.served += 1;
                println!(
                    "  vehicle {:>4}: cache hit (trained @ slot {}), forecast: {} h",
                    f.vehicle_id,
                    f.trained_at,
                    fmt_hours(&f.hours)
                );
            }
            ServeOutcome::Degraded(f) => {
                tally.degraded += 1;
                println!(
                    "  vehicle {:>4}: degraded via {} ({}), forecast: {} h",
                    f.vehicle_id,
                    f.provenance.model_label,
                    ellipsize(
                        f.provenance.reason.as_deref().unwrap_or("primary failed"),
                        REASON_CHARS
                    ),
                    fmt_hours(&f.hours)
                );
            }
            ServeOutcome::Skipped {
                vehicle_id, reason, ..
            } => {
                tally.skipped += 1;
                println!(
                    "  vehicle {vehicle_id:>4}: skipped ({})",
                    ellipsize(reason, REASON_CHARS)
                );
            }
            ServeOutcome::Failed {
                vehicle_id, error, ..
            } => {
                tally.failed += 1;
                println!(
                    "  vehicle {vehicle_id:>4}: failed ({})",
                    ellipsize(error, REASON_CHARS)
                );
            }
        }
    }
}

fn cmd_serve_batch(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(
        flags,
        &[
            FLEET_FLAGS,
            SERVICE_FLAGS,
            &[
                "n", "ids", "horizon", "repeat", "shards", "journal", "metrics", "trace", "profile",
            ],
        ]
        .concat(),
    )?;
    let fleet = build_fleet(flags)?;
    let n: usize = flag(flags, "n", 5)?;
    let horizon: usize = flag(flags, "horizon", 3)?;
    let repeat: usize = flag(flags, "repeat", 2)?;
    let ids: Vec<VehicleId> = match flags.get("ids") {
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map(VehicleId)
                    .map_err(|_| format!("flag --ids: cannot parse '{s}'"))
            })
            .collect::<Result<_, _>>()?,
        None => (0..fleet.vehicles().len().min(n) as u32)
            .map(VehicleId)
            .collect(),
    };
    if ids.is_empty() {
        return Err("no vehicles requested".into());
    }

    let artifacts = Artifacts::from_flags(flags);
    let (registry, tracer) = artifacts.sinks();
    let requests: Vec<BatchRequest> = ids
        .iter()
        .map(|&vehicle_id| BatchRequest {
            vehicle_id,
            horizon,
        })
        .collect();
    let shards: u32 = flag(flags, "shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let (config, options) = parse_service_flags(flags)?;
    let hardened = options.resilience != ResilienceConfig::default();
    /// One shard is the bare service; `N` shards put the coordinator in
    /// front of `N` services built the same way.
    enum Serving<'f> {
        One(Box<PredictionService<'f>>),
        Sharded(Box<ShardedService<'f>>),
    }
    let mut serving = if shards > 1 {
        let options = ShardOptions { shards, ..options };
        let service = ShardedService::build(&fleet, config, options, &registry, &tracer)
            .map_err(|e| e.to_string())?;
        Serving::Sharded(Box::new(service))
    } else {
        Serving::One(Box::new(open_service(
            &fleet, config, &options, &registry, &tracer,
        )?))
    };
    let mut tally = OutcomeTally::default();
    let mut last_outcomes = Vec::new();
    for batch in 1..=repeat {
        println!("batch {batch}:");
        let reports = match &mut serving {
            Serving::One(service) => {
                last_outcomes = service.serve_batch(&requests, None);
                Vec::new()
            }
            Serving::Sharded(service) => {
                let result = service.serve_batch(&requests, None);
                last_outcomes = result.outcomes;
                result.reports
            }
        };
        print_outcomes(&last_outcomes, &mut tally);
        for report in reports
            .iter()
            .filter(|report| report.fate != ShardFate::Healthy || report.restarted)
        {
            println!(
                "  shard {:>3}: fate={} requests={}{}",
                report.shard,
                report.fate.as_str(),
                report.requests,
                if report.restarted {
                    ", warm-restarted from snapshots"
                } else {
                    ""
                },
            );
        }
    }
    println!(
        "\noutcomes: served={} retrained={} degraded={} skipped={} failed={}",
        tally.served, tally.retrained, tally.degraded, tally.skipped, tally.failed
    );
    let recovery = match &serving {
        Serving::One(service) => {
            println!(
                "model cache holds {} fitted model(s) after {repeat} batch(es)",
                service.store().len()
            );
            if hardened {
                println!(
                    "circuit breakers open for {} vehicle(s)",
                    service.breaker().open_count()
                );
            }
            service.store().recovery().cloned()
        }
        Serving::Sharded(service) => {
            println!(
                "model caches hold {} fitted model(s) across {shards} shard(s) after {repeat} batch(es)",
                service.cached_models()
            );
            let supervision = service.supervision();
            let deaths: u64 = supervision.iter().map(|(d, _)| d).sum();
            let restarts: u64 = supervision.iter().map(|(_, r)| r).sum();
            if deaths + restarts > 0 {
                println!("supervisor: {deaths} shard death(s), {restarts} warm restart(s)");
            }
            service.merged_recovery()
        }
    };
    if let Some(dest) = flags.get("journal") {
        let journal = ServeJournal::from_outcomes(&last_outcomes).with_recovery(recovery);
        write_artifact(&journal.to_json(), dest, "serve journal")?;
    }
    artifacts.write(&registry, &tracer)
}

/// `vup serve` — run the prediction service as an HTTP daemon until
/// SIGTERM/SIGINT, then drain gracefully.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use vehicle_usage_prediction::core::executor::CancelToken;
    use vehicle_usage_prediction::net::{signal, AppHandler, Server, ServerConfig};

    reject_unknown_flags(
        flags,
        &[
            FLEET_FLAGS,
            SERVICE_FLAGS,
            &["addr", "workers", "queue", "max-batch"],
        ]
        .concat(),
    )?;
    let fleet = build_fleet(flags)?;
    // The daemon always meters: /metrics serves this registry live.
    let registry = Registry::new();
    let tracer = Tracer::disabled();
    let (config, options) = parse_service_flags(flags)?;
    let hardened = options.resilience != ResilienceConfig::default();
    let service = open_service(&fleet, config, &options, &registry, &tracer)?;
    let monitor = FleetMonitor::observed(&registry, MonitorConfig::default());

    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| defaults.addr.clone()),
        workers: flag(flags, "workers", defaults.workers)?,
        queue_capacity: flag(flags, "queue", defaults.queue_capacity)?,
        ..defaults
    };
    if config.workers == 0 {
        return Err("--workers must be positive".into());
    }
    let max_batch: usize = flag(flags, "max-batch", 1024)?;
    let server = Server::bind(config.clone(), &registry)
        .map_err(|e| format!("cannot bind '{}': {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handler = AppHandler::new(
        service,
        registry.clone(),
        monitor,
        server.status(),
        config.queue_capacity,
    )
    .with_max_batch(max_batch);

    signal::install_termination_handler();
    let token = CancelToken::new();
    let watcher = signal::watch_termination(token.clone());
    // The 'listening on' line is the contract scripts scrape to learn
    // an ephemeral port; keep its shape stable.
    eprintln!(
        "vup serve listening on {addr} ({} worker(s), queue {}, {} profile)",
        config.workers,
        config.queue_capacity,
        if hardened { "resilient" } else { "default" }
    );
    let summary = server.run(&handler, &token);
    token.cancel();
    let _ = watcher.join();
    eprintln!(
        "drained: {} connection(s) accepted, {} shed, {} request(s) handled ({} ok, {} protocol errors)",
        summary.accepted, summary.shed, summary.requests, summary.responses_ok, summary.parse_errors
    );
    Ok(())
}

/// `vup loadgen` — seeded closed-loop load against a running daemon;
/// writes one run's JSON report.
fn cmd_loadgen(flags: &HashMap<String, String>) -> Result<(), String> {
    use vehicle_usage_prediction::net::loadgen::{self, LoadPlan};

    reject_unknown_flags(
        flags,
        &[
            "addr",
            "clients",
            "requests",
            "duration-ms",
            "batch",
            "pool",
            "horizon",
            "seed",
            "out",
        ],
    )?;
    let Some(addr) = flags.get("addr").cloned() else {
        return Err(
            "loadgen needs --addr HOST:PORT (scrape `vup serve`'s 'listening on' line)".into(),
        );
    };
    let defaults = LoadPlan::default();
    let duration_ms: Option<u64> = match flags.get("duration-ms") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("flag --duration-ms: cannot parse '{raw}'"))?,
        ),
    };
    let plan = LoadPlan {
        addr,
        clients: flag(flags, "clients", defaults.clients)?,
        requests_per_client: flag(flags, "requests", defaults.requests_per_client)?,
        duration_ms,
        batch_size: flag(flags, "batch", defaults.batch_size)?,
        vehicle_pool: flag(flags, "pool", defaults.vehicle_pool)?,
        horizon: flag(flags, "horizon", defaults.horizon)?,
        seed: flag(flags, "seed", defaults.seed)?,
    };
    if plan.clients == 0 || plan.batch_size == 0 {
        return Err("--clients and --batch must be positive".into());
    }
    eprintln!(
        "loadgen: {} closed-loop client(s) against {} (seed {}, batch {}, pool {})...",
        plan.clients, plan.addr, plan.seed, plan.batch_size, plan.vehicle_pool
    );
    let report = loadgen::run(&plan).map_err(|e| format!("load generation failed: {e}"))?;
    eprintln!(
        "  {} request(s) in {} ms: {} ok, {} shed, {} http error(s), {} io error(s)",
        report.total, report.wall_ms, report.ok, report.shed, report.http_errors, report.io_errors
    );
    eprintln!(
        "  sustained {:.1} rps; latency p50 {} µs, p90 {} µs, p99 {} µs, max {} µs; /metrics: {} sample(s)",
        report.sustained_rps,
        report.latency_us.p50,
        report.latency_us.p90,
        report.latency_us.p99,
        report.latency_us.max,
        report.metrics_samples
    );
    let dest = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "loadgen-report.json".to_string());
    write_artifact(&report.to_json(), &dest, "serving benchmark")?;
    Ok(())
}

/// `vup store verify DIR` — read-only audit of a snapshot directory.
///
/// Prints one line per snapshot/temp file with its verdict; returns an
/// error (nonzero exit) if anything is corrupt, so scripts can gate on
/// store health.
fn cmd_store_verify(rest: &[String]) -> Result<(), String> {
    if rest.is_empty() {
        return Err("usage: vup store verify DIR [DIR ...]".into());
    }
    let (mut total, mut total_corrupt) = (0usize, 0usize);
    let mut bad_dirs = Vec::new();
    for dir in rest {
        let path = std::path::Path::new(dir);
        let entries = vehicle_usage_prediction::serve::audit(&DiskBackend, path)
            .map_err(|e| format!("cannot audit '{dir}': {e}"))?;
        if entries.is_empty() {
            println!("store '{dir}': no snapshot files");
            continue;
        }
        println!("store '{dir}':");
        println!(
            "{:<32} {:>9} {:>8} {:>10} {:>8}",
            "file", "verdict", "vehicle", "trained-at", "bytes"
        );
        let mut corrupt = 0usize;
        for entry in &entries {
            let verdict = match entry.verdict {
                Ok(()) => "ok".to_string(),
                Err(defect) => {
                    corrupt += 1;
                    defect.as_str().to_string()
                }
            };
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
            println!(
                "{:<32} {:>9} {:>8} {:>10} {:>8}",
                ellipsize(&entry.file, 32),
                verdict,
                opt(entry.vehicle_id.map(u64::from)),
                opt(entry.trained_at.map(|t| t as u64)),
                entry.bytes
            );
        }
        let ok = entries.len() - corrupt;
        println!(
            "{} file(s): {ok} loadable, {corrupt} corrupt\n",
            entries.len()
        );
        total += entries.len();
        total_corrupt += corrupt;
        if corrupt > 0 {
            bad_dirs.push(dir.as_str());
        }
    }
    if rest.len() > 1 {
        println!(
            "{} dir(s): {total} file(s), {} loadable, {total_corrupt} corrupt",
            rest.len(),
            total - total_corrupt
        );
    }
    if total_corrupt > 0 {
        return Err(format!(
            "{total_corrupt} corrupt snapshot file(s) in {}",
            bad_dirs
                .iter()
                .map(|d| format!("'{d}'"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok(())
}

/// `vup shard-eval` — partition a roster that is never materialized (so
/// a million vehicles cost O(shards) memory) and report the balance plus
/// the N→N+1 remap volume.
fn cmd_shard_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(flags, &[FLEET_FLAGS, &["shards", "json"]].concat())?;
    let vehicles: usize = flag(flags, "vehicles", 1_000_000)?;
    let seed: u64 = flag(flags, "seed", 7)?;
    let shards: u32 = flag(flags, "shards", 8)?;
    if vehicles == 0 || vehicles > u32::MAX as usize {
        return Err("--vehicles must be in 1..=u32::MAX".into());
    }
    if shards == 0 {
        return Err("--shards must be positive".into());
    }
    let partitioner = Partitioner::new(shards);
    let census = partitioner.census(vehicles as u32);
    let ideal = vehicles as f64 / f64::from(shards);
    let (min, max) = (
        *census.iter().min().expect("at least one shard"),
        *census.iter().max().expect("at least one shard"),
    );
    let spread_pct = (max as f64 - min as f64) / ideal * 100.0;
    let movers = remapped(vehicles as u32, shards, shards + 1).len();
    let mover_pct = movers as f64 / vehicles as f64 * 100.0;
    let ideal_pct = 100.0 / f64::from(shards + 1);

    // Probe a few vehicles: a type is a pure function of (fleet size,
    // id), so routing a vehicle to its shard never generates the fleet.
    let probes: Vec<(u32, u32, &'static str)> = [0, vehicles / 2, vehicles - 1]
        .into_iter()
        .map(|i| VehicleId(i as u32))
        .map(|id| {
            let vtype = type_of(vehicles, id).expect("probe id is in range");
            (id.0, partitioner.shard_of(id), vtype.name())
        })
        .collect();

    if flags.contains_key("json") {
        #[derive(serde::Serialize)]
        struct GrowByOneJson {
            to_shards: u32,
            remapped: usize,
            remapped_pct: f64,
            ideal_pct: f64,
        }
        #[derive(serde::Serialize)]
        struct ProbeJson {
            vehicle: u32,
            shard: u32,
            vtype: String,
        }
        #[derive(serde::Serialize)]
        struct ShardEvalJson {
            vehicles: usize,
            seed: u64,
            shards: u32,
            census: Vec<usize>,
            ideal_per_shard: f64,
            min: usize,
            max: usize,
            spread_pct_of_ideal: f64,
            grow_by_one: GrowByOneJson,
            probes: Vec<ProbeJson>,
        }
        let doc = ShardEvalJson {
            vehicles,
            seed,
            shards,
            census: census.clone(),
            ideal_per_shard: ideal,
            min,
            max,
            spread_pct_of_ideal: spread_pct,
            grow_by_one: GrowByOneJson {
                to_shards: shards + 1,
                remapped: movers,
                remapped_pct: mover_pct,
                ideal_pct,
            },
            probes: probes
                .iter()
                .map(|&(id, shard, vtype)| ProbeJson {
                    vehicle: id,
                    shard,
                    vtype: vtype.to_string(),
                })
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&doc)
                .map_err(|e| format!("cannot render shard-eval JSON: {e}"))?
        );
        return Ok(());
    }

    println!("shard-eval: {vehicles} vehicles over {shards} shard(s), rendezvous-hashed");
    for (shard, count) in census.iter().enumerate() {
        let drift_pct = (*count as f64 - ideal) / ideal * 100.0;
        println!("  shard {shard:>3}: {count:>9} vehicles ({drift_pct:+.2}% vs ideal)");
    }
    println!("balance: min {min}, max {max}, spread {spread_pct:.2}% of ideal {ideal:.0}");
    println!(
        "growing to {} shard(s) remaps {movers} vehicle(s) ({mover_pct:.2}%; ideal 1/{} = {ideal_pct:.2}%)",
        shards + 1,
        shards + 1
    );
    println!("probes (streamed roster, fleet never materialized):");
    for (id, shard, vtype) in probes {
        println!("  vehicle {id:>9} -> shard {shard:>3} ({vtype})");
    }
    Ok(())
}

/// `vup shard rebalance ROOT --from N --to M` — move snapshots between
/// shard dirs to match the M-shard partition.
fn cmd_shard_rebalance(rest: &[String]) -> Result<(), String> {
    let usage = "usage: vup shard rebalance ROOT --from N --to M [--json]";
    let [root, tail @ ..] = rest else {
        return Err(usage.into());
    };
    if root.starts_with("--") {
        return Err(usage.into());
    }
    let flags = parse_flags(tail)?;
    reject_unknown_flags(&flags, &["from", "to", "json"]).map_err(|e| format!("{e} ({usage})"))?;
    let from: u32 = flag(&flags, "from", 0)?;
    let to: u32 = flag(&flags, "to", 0)?;
    if from == 0 || to == 0 {
        return Err(format!(
            "{usage} (both --from and --to are required and positive)"
        ));
    }
    let root_path = std::path::Path::new(root);
    let report = rebalance(&DiskBackend, root_path, from, to)
        .map_err(|e| format!("rebalance under '{root}' failed: {e}"))?;
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report)
                .map_err(|e| format!("cannot render rebalance JSON: {e}"))?
        );
    } else {
        println!(
            "rebalance {from} -> {to} shard(s) under '{root}': {} snapshot(s) examined",
            report.examined
        );
        for moved in &report.moved {
            println!(
                "  vehicle {:>6}: shard {:>3} -> shard {:>3} ({}, {} bytes)",
                moved.vehicle.0, moved.from, moved.to, moved.file, moved.bytes
            );
        }
        println!(
            "moved {} snapshot(s), {} bytes; manifest generation bumped in {} dir(s)",
            report.moved.len(),
            report.bytes_moved,
            report.bumped.len()
        );
        for skipped in &report.skipped_corrupt {
            println!("  corrupt, left in place: {skipped}");
        }
    }
    if !report.skipped_corrupt.is_empty() {
        return Err(format!(
            "{} corrupt snapshot(s) could not be moved (run `vup store verify {}/shard-NNN`)",
            report.skipped_corrupt.len(),
            root
        ));
    }
    // Point the operator at the audit path for independent confirmation.
    let dirs: Vec<String> = (0..to.max(from))
        .map(|s| shard_dir(root_path, s).display().to_string())
        .collect();
    eprintln!("verify with: vup store verify {}", dirs.join(" "));
    Ok(())
}

/// Opens the commit log under `--dir` with `options`, optionally routed
/// through the seeded faulty disk backend from a `--faults` plan, and
/// prints the recovery summary to stderr (quarantines are operator news,
/// not payload).
fn open_commit_log(
    flags: &HashMap<String, String>,
    options: LogOptions,
    registry: &Registry,
    tracer: &Tracer,
) -> Result<(CommitLog, LogRecovery, String), String> {
    let Some(dir) = flags.get("dir").cloned() else {
        return Err("ingest/replay need --dir DIR (the commit-log directory)".into());
    };
    let backend = storage_backend(&fault_plan_flag(flags)?);
    let (log, recovery) = CommitLog::open(
        backend,
        std::path::Path::new(&dir),
        options,
        registry,
        tracer,
    )
    .map_err(|e| format!("cannot open commit log '{dir}': {e}"))?;
    eprintln!(
        "log '{dir}': {} frame(s) recovered across {} segment(s), {} quarantined, next offset {}",
        recovery.frames_recovered,
        recovery.segments_seen,
        recovery.quarantined_count(),
        recovery.next_offset
    );
    for q in &recovery.quarantined {
        eprintln!("  quarantined {} ({}, {} bytes)", q.file, q.reason, q.bytes);
    }
    Ok((log, recovery, dir))
}

/// `vup ingest` — stream simulated CAN telemetry into the commit log.
fn cmd_ingest(flags: &HashMap<String, String>) -> Result<(), String> {
    use vehicle_usage_prediction::fleetsim::dropout::DropoutConfig;

    reject_unknown_flags(
        flags,
        &[
            FLEET_FLAGS,
            LOG_FLAGS,
            &[
                "days",
                "start-day",
                "segment-bytes",
                "shift-vehicle",
                "shift-day",
                "shift-factor",
                "stats",
            ],
        ]
        .concat(),
    )?;
    let fleet = build_fleet(flags)?;
    let days: usize = flag(flags, "days", 14)?;
    let start_offset: usize = flag(flags, "start-day", 0)?;
    if days == 0 {
        return Err("--days must be positive".into());
    }
    let shift = match (
        flags.get("shift-vehicle"),
        flags.get("shift-day"),
        flags.get("shift-factor"),
    ) {
        (None, None, None) => None,
        (Some(_), _, _) | (_, Some(_), _) | (_, _, Some(_)) => Some(UsageShift {
            vehicle_id: flag(flags, "shift-vehicle", 0_u32)?,
            from_day_offset: flag(flags, "shift-day", 0_usize)?,
            factor: flag(flags, "shift-factor", 2.0_f64)?,
        }),
    };
    let default_bytes = LogOptions::default().max_segment_bytes;
    let max_segment_bytes = flag(flags, "segment-bytes", default_bytes)?;
    if max_segment_bytes == 0 {
        return Err("--segment-bytes must be positive".into());
    }
    let stats_dest = flags.get("stats").cloned();
    let options = LogOptions { max_segment_bytes };
    let (mut log, _, dir) =
        open_commit_log(flags, options, &Registry::disabled(), &Tracer::disabled())?;
    let config = StreamConfig {
        start_offset,
        days,
        dropout: DropoutConfig::default(),
        shift,
    };
    let stats = ingest_stream(&mut log, &fleet, &config)
        .map_err(|e| format!("ingest into '{dir}' failed: {e}"))?;
    println!(
        "ingested {} report(s) from {} vehicle(s) over {} day(s) into '{dir}' \
         ({} segment(s), next offset {})",
        stats.records_appended, stats.vehicles, stats.days, stats.segments, stats.next_offset
    );
    if let Some(dest) = stats_dest {
        write_artifact(&stats.to_json(), &dest, "ingest stats")?;
    }
    Ok(())
}

/// `vup replay` — deterministically re-run aggregation + drift-triggered
/// retraining over a commit-log prefix.
fn cmd_replay(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(
        flags,
        &[
            FLEET_FLAGS,
            LOG_FLAGS,
            &[
                "threads",
                "scenario",
                "model",
                "train-window",
                "retrain-every",
                "max-lag",
                "window",
                "baseline-window",
                "limit",
                "report",
                "metrics",
                "trace",
                "profile",
            ],
        ]
        .concat(),
    )?;
    let fleet = build_fleet(flags)?;
    let threads: usize = flag(flags, "threads", 0)?;
    let scenario = parse_scenario(flags)?;
    let mut pipeline = PipelineConfig {
        scenario,
        ..PipelineConfig::default()
    };
    apply_model_flag(flags, &mut pipeline)?;
    pipeline.train_window = flag(flags, "train-window", pipeline.train_window)?;
    pipeline.retrain_every = flag(flags, "retrain-every", pipeline.retrain_every)?;
    // Small training windows need a correspondingly small lag budget
    // (validation requires train_window > max_lag + 1).
    pipeline.max_lag = flag(
        flags,
        "max-lag",
        pipeline
            .max_lag
            .min(pipeline.train_window.saturating_sub(2)),
    )?;
    let monitor_defaults = MonitorConfig::default();
    let monitor = MonitorConfig {
        window: flag(flags, "window", monitor_defaults.window)?,
        baseline_window: flag(flags, "baseline-window", monitor_defaults.baseline_window)?,
        ..monitor_defaults
    };
    if monitor.window == 0 || monitor.baseline_window == 0 {
        return Err("--window and --baseline-window must be positive".into());
    }

    let artifacts = Artifacts::from_flags(flags);
    let (registry, tracer) = artifacts.sinks();

    let (log, recovery, dir) = open_commit_log(flags, LogOptions::default(), &registry, &tracer)?;
    let mut records = log
        .records()
        .map_err(|e| format!("cannot read commit log '{dir}': {e}"))?;
    if let Some(limit) = flags.get("limit") {
        let limit: usize = limit
            .parse()
            .map_err(|_| format!("flag --limit: cannot parse '{limit}'"))?;
        records.truncate(limit);
    }
    if records.is_empty() {
        return Err(format!("commit log '{dir}' holds no records to replay"));
    }
    eprintln!(
        "replaying {} record(s) ({}, scenario {}, {} thread(s))...",
        records.len(),
        pipeline.model.label(),
        scenario.label(),
        if threads == 0 {
            "per-core".to_string()
        } else {
            threads.to_string()
        }
    );
    let config = ReplayConfig::new(pipeline, monitor, threads);
    let mut report = replay(&records, &fleet, &config, &registry, &tracer)
        .map_err(|e| format!("replay failed: {e}"))?;
    report.recovery = Some(recovery);
    println!(
        "replayed {} record(s): {} day(s) sealed, {} slot(s), {} out-of-order rejected",
        report.records_replayed, report.days_sealed, report.slots_sealed, report.out_of_order
    );
    println!(
        "retrain decisions: {} initial, {} drift, {} degraded, {} stale; {} model(s) live",
        report.decisions_with(RetrainReason::Initial),
        report.decisions_with(RetrainReason::Drift),
        report.decisions_with(RetrainReason::Degraded),
        report.decisions_with(RetrainReason::Stale),
        report.models.len()
    );
    for d in &report.decisions {
        if d.reason != RetrainReason::Initial {
            println!(
                "  slot {:>4}: vehicle {:>4} retrained ({})",
                d.slot,
                d.vehicle_id,
                d.reason.as_str()
            );
        }
    }
    if let Some(dest) = flags.get("report") {
        write_artifact(&report.to_json(), dest, "replay report")?;
    }
    artifacts.write(&registry, &tracer)
}

/// `vup bench` — run the canonical seeded workloads and append to the
/// schema-versioned `BENCH_*.json` perf trajectories.
fn cmd_bench(flags: &HashMap<String, String>) -> Result<(), String> {
    reject_unknown_flags(flags, &["quick", "threads", "out-dir", "no-daemon"])?;
    let options = BenchOptions {
        quick: flags.contains_key("quick"),
        threads: flag(flags, "threads", 4)?,
        out_dir: std::path::PathBuf::from(
            flags.get("out-dir").cloned().unwrap_or_else(|| ".".into()),
        ),
        daemon: !flags.contains_key("no-daemon"),
    };
    if options.threads == 0 {
        return Err("--threads must be positive for bench runs".into());
    }
    eprintln!(
        "bench: {} sizing, {} thread(s), out-dir {}{}",
        if options.quick { "quick" } else { "full" },
        options.threads,
        options.out_dir.display(),
        if options.daemon {
            ""
        } else {
            ", daemon workload skipped"
        }
    );
    let outcomes = perf::run_all(&options)?;
    for outcome in &outcomes {
        let metrics: Vec<String> = outcome
            .record
            .metrics
            .iter()
            .map(|(name, value)| format!("{name}={value:.2}"))
            .collect();
        println!(
            "{:<13} {}  ({} count(s)) -> {}",
            outcome.record.workload,
            metrics.join(" "),
            outcome.record.counts.len(),
            outcome.bench_file.display()
        );
    }
    eprintln!(
        "bench: {} workload(s) appended (rev {}, {})",
        outcomes.len(),
        outcomes[0].record.stamp.git_rev,
        outcomes[0].record.stamp.build_profile
    );
    Ok(())
}

/// `vup bench compare OLD NEW` — the CI perf gate: exits nonzero when
/// NEW regressed against OLD.
fn cmd_bench_compare(rest: &[String]) -> Result<(), String> {
    let usage = "usage: vup bench compare OLD NEW [--threshold-pct N]";
    let [old_path, new_path, tail @ ..] = rest else {
        return Err(usage.into());
    };
    if old_path.starts_with("--") || new_path.starts_with("--") {
        return Err(usage.into());
    }
    let flags = parse_flags(tail)?;
    reject_unknown_flags(&flags, &["threshold-pct"]).map_err(|e| format!("{e} ({usage})"))?;
    let threshold: f64 = flag(&flags, "threshold-pct", 10.0)?;
    // `worse > NaN` is always false, so a NaN threshold would pass every
    // timing; a negative one would fail a run that did not move.
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(format!(
            "--threshold-pct must be finite and >= 0, got '{threshold}' ({usage})"
        ));
    }
    for path in [old_path, new_path] {
        if !std::path::Path::new(path).exists() {
            return Err(format!("bench file '{path}' does not exist"));
        }
    }
    let old = BenchFile::load(std::path::Path::new(old_path))?;
    let new = BenchFile::load(std::path::Path::new(new_path))?;
    let report = perf::compare(&old, &new, threshold);
    for line in &report.lines {
        println!("{}", line.rendered);
    }
    for workload in &report.missing_workloads {
        println!("{workload}: WORKLOAD MISSING from '{new_path}'");
    }
    if report.ok() {
        println!("bench compare: ok (threshold {threshold}%)");
        Ok(())
    } else {
        Err(format!(
            "bench compare: {} regression(s) beyond {threshold}% (see lines above)",
            report.failures().len() + report.missing_workloads.len()
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        "store" => match rest.split_first() {
            Some((sub, tail)) if sub == "verify" => cmd_store_verify(tail),
            _ => Err("usage: vup store verify DIR [DIR ...]".into()),
        },
        "shard" => match rest.split_first() {
            Some((sub, tail)) if sub == "rebalance" => cmd_shard_rebalance(tail),
            _ => Err("usage: vup shard rebalance ROOT --from N --to M [--json]".into()),
        },
        "shard-eval" => match parse_flags(rest) {
            Err(e) => Err(e),
            Ok(flags) => cmd_shard_eval(&flags),
        },
        "bench" => match rest.split_first() {
            Some((sub, tail)) if sub == "compare" => cmd_bench_compare(tail),
            _ => match parse_flags(rest) {
                Err(e) => Err(e),
                Ok(flags) => cmd_bench(&flags),
            },
        },
        "simulate" | "predict" | "evaluate" | "monitor" | "levels" | "serve-batch" | "serve"
        | "loadgen" | "ingest" | "replay" => match parse_flags(rest) {
            Err(e) => Err(e),
            Ok(flags) => match check_stdout_conflicts(&flags) {
                Err(e) => Err(e),
                Ok(()) => match cmd.as_str() {
                    "simulate" => cmd_simulate(&flags),
                    "predict" => cmd_predict(&flags),
                    "monitor" => cmd_monitor(&flags),
                    "levels" => cmd_levels(&flags),
                    "serve-batch" => cmd_serve_batch(&flags),
                    "serve" => cmd_serve(&flags),
                    "loadgen" => cmd_loadgen(&flags),
                    "ingest" => cmd_ingest(&flags),
                    "replay" => cmd_replay(&flags),
                    _ => cmd_evaluate(&flags),
                },
            },
        },
        other => Err(format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `vup help` for usage");
            ExitCode::FAILURE
        }
    }
}
