//! The `vup bench` harness: canonical seeded workloads, schema-versioned
//! `BENCH_*.json` perf trajectories, and the `bench compare` regression
//! gate.
//!
//! Each workload runs a fixed, seeded slice of the real pipeline and
//! distills one [`BenchRecord`] carrying two kinds of numbers:
//!
//! - **counts** (`u64`) — invocation and byte totals aggregated from the
//!   span-tree profile ([`vup_obs::Profile`]). Wall-free and
//!   deterministic: the same build produces bit-identical counts at any
//!   thread count, so `bench compare` fails hard on any count drift
//!   (shape regressions — extra fits, lost cache hits — never hide);
//! - **metrics** (`f64`) — wall-clock throughput/latency figures.
//!   Machine-dependent; `bench compare` applies a percentage threshold,
//!   with direction inferred from the metric name (`*_per_sec` / `*rps`
//!   is higher-better, everything else lower-better).
//!
//! Records append to per-area trajectory files — `BENCH_core.json`
//! (fleet-eval + warm serve-batch), `BENCH_ingest.json` (ingest +
//! replay), `BENCH_serve.json` (daemon + loadgen) — each stamped with
//! the config fingerprint, git revision, build profile and thread count
//! that produced it.
//!
//! The daemon workload's counts are intentionally empty: admission-queue
//! shedding makes its request mix timing-dependent, so only its
//! wall-clock metrics are tracked.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use vup_core::executor::CancelToken;
use vup_core::fleet_eval::evaluate_fleet;
use vup_core::{ModelSpec, PipelineConfig};
use vup_fleetsim::VehicleId;
use vup_ingest::{ingest_stream, replay, CommitLog, LogOptions, ReplayConfig, StreamConfig};
use vup_ml::RegressorSpec;
use vup_net::loadgen::{self, LoadPlan};
use vup_net::{AppHandler, Server, ServerConfig};
use vup_obs::{FleetMonitor, MonitorConfig, Profile, ProfileWeight, Registry, Tracer};
use vup_serve::{BatchRequest, DiskBackend, ModelStore, PredictionService};

use crate::small_fleet;

/// Version stamped into every [`BenchFile`].
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Trajectory of the fleet-eval and warm serve-batch workloads.
const CORE_TRAJECTORY: &str = "BENCH_core.json";
/// Trajectory of the ingest + replay workload.
const INGEST_TRAJECTORY: &str = "BENCH_ingest.json";
/// Trajectory of the serve-daemon loadgen workload.
const SERVE_TRAJECTORY: &str = "BENCH_serve.json";

/// Environment stamp carried by every [`BenchRecord`], so a trajectory
/// line is attributable to the build that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchStamp {
    /// Hex FNV-1a fingerprint of the pipeline config the workload ran.
    pub config_fingerprint: String,
    /// `git rev-parse --short HEAD`, with `-dirty` appended when tracked
    /// files have uncommitted changes, or `"unknown"` outside a checkout.
    pub git_rev: String,
    /// `release` or `debug`.
    pub build_profile: String,
    /// Worker threads the workload used.
    pub threads: usize,
    /// Whether this was a `--quick` (CI-smoke-sized) run.
    pub quick: bool,
}

/// One trajectory entry: a workload run's counts and metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Workload name (`fleet_eval`, `serve_batch`, `ingest_replay`,
    /// `serve_daemon`).
    pub workload: String,
    /// Environment stamp.
    pub stamp: BenchStamp,
    /// Deterministic counts (profile shape, outcome totals). Compared
    /// exactly.
    pub counts: BTreeMap<String, u64>,
    /// Wall-clock metrics. Compared within a percentage threshold.
    pub metrics: BTreeMap<String, f64>,
}

/// A schema-versioned perf trajectory: the append-only history one
/// `BENCH_*.json` file holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchFile {
    /// Format version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Trajectory entries, oldest first.
    pub entries: Vec<BenchRecord>,
}

impl Default for BenchFile {
    fn default() -> BenchFile {
        BenchFile {
            schema_version: BENCH_SCHEMA_VERSION,
            entries: Vec::new(),
        }
    }
}

impl BenchFile {
    /// Parses trajectory JSON, rejecting a schema newer than this binary.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let file = serde_json::from_str::<BenchFile>(text)
            .map_err(|e| format!("not a bench trajectory: {e}"))?;
        if file.schema_version > BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench file schema {} is newer than this binary ({})",
                file.schema_version, BENCH_SCHEMA_VERSION
            ));
        }
        Ok(file)
    }

    /// Loads a trajectory from disk; a missing file is an empty one.
    pub fn load(path: &Path) -> Result<BenchFile, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => BenchFile::parse(&text)
                .map_err(|e| format!("cannot parse '{}': {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BenchFile::default()),
            Err(e) => Err(format!("cannot read '{}': {e}", path.display())),
        }
    }

    /// Pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench file serializes")
    }

    /// Appends `record` and writes the trajectory back to `path`.
    pub fn append_to(path: &Path, record: BenchRecord) -> Result<(), String> {
        let mut file = BenchFile::load(path)?;
        file.entries.push(record);
        std::fs::write(path, file.to_json())
            .map_err(|e| format!("cannot write '{}': {e}", path.display()))
    }

    /// The newest entry for `workload`, if any.
    pub fn last(&self, workload: &str) -> Option<&BenchRecord> {
        self.entries.iter().rev().find(|r| r.workload == workload)
    }

    /// Every workload present, in first-seen order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for entry in &self.entries {
            if !out.contains(&entry.workload.as_str()) {
                out.push(&entry.workload);
            }
        }
        out
    }
}

/// What `vup bench` should run and where results land.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// CI-smoke sizing: small fleets, few repeats.
    pub quick: bool,
    /// Worker threads for the parallel stages.
    pub threads: usize,
    /// Directory the `BENCH_*.json` and profile artifacts land in.
    pub out_dir: PathBuf,
    /// Whether to run the serve-daemon loadgen workload (binds a real
    /// socket on 127.0.0.1).
    pub daemon: bool,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            quick: false,
            threads: 4,
            out_dir: PathBuf::from("."),
            daemon: true,
        }
    }
}

/// One workload's outputs.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// The record appended to the trajectory.
    pub record: BenchRecord,
    /// Trajectory file the record went into.
    pub bench_file: PathBuf,
    /// Collapsed-stack profile (count-weighted — deterministic),
    /// flamegraph-compatible.
    pub collapsed: PathBuf,
    /// Wall-free shape JSON of the profile.
    pub shape: PathBuf,
}

/// The pipeline config every bench workload runs (small windows keep
/// debug-build smoke runs fast; the *same* config must be used on both
/// sides of a compare — the fingerprint in the stamp pins it).
pub fn bench_config() -> PipelineConfig {
    PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        train_window: 120,
        max_lag: 30,
        k: 10,
        retrain_every: 7,
        ..PipelineConfig::default()
    }
}

fn stamp(config: &PipelineConfig, threads: usize, quick: bool) -> BenchStamp {
    BenchStamp {
        config_fingerprint: format!("{:016x}", ModelStore::fingerprint(config)),
        git_rev: git_rev(),
        build_profile: if cfg!(debug_assertions) {
            "debug".to_string()
        } else {
            "release".to_string()
        },
        threads,
        quick,
    }
}

/// The [`BenchStamp::git_rev`] of the working directory's checkout.
fn git_rev() -> String {
    git_rev_in(Path::new("."))
}

/// `git rev-parse --short HEAD` in `dir`, plus `-dirty` when tracked
/// files differ from it (untracked build output does not count), or
/// `"unknown"` outside a checkout.
fn git_rev_in(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .current_dir(dir)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"])
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
    else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if !changes.trim().is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

fn ms(elapsed: std::time::Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// Copies a profile's deterministic stage/stack counts into a record's
/// count map.
fn profile_counts(profile: &Profile, counts: &mut BTreeMap<String, u64>) {
    counts.insert("profile_spans".to_string(), profile.spans);
    for stage in &profile.stages {
        counts.insert(format!("stage_{}_count", stage.stage), stage.count);
        counts.insert(format!("stage_{}_bytes", stage.stage), stage.bytes);
    }
}

/// Writes the count-weighted collapsed stack and the shape JSON next to
/// the trajectory files.
fn write_profile(
    profile: &Profile,
    out_dir: &Path,
    workload: &str,
) -> Result<(PathBuf, PathBuf), String> {
    let collapsed = out_dir.join(format!("BENCH_profile_{workload}.collapsed"));
    let shape = out_dir.join(format!("BENCH_profile_{workload}.shape.json"));
    std::fs::write(&collapsed, profile.to_collapsed(ProfileWeight::Count))
        .map_err(|e| format!("cannot write '{}': {e}", collapsed.display()))?;
    std::fs::write(&shape, profile.to_shape_json())
        .map_err(|e| format!("cannot write '{}': {e}", shape.display()))?;
    Ok((collapsed, shape))
}

fn finish_workload(
    workload: &str,
    bench_file: PathBuf,
    record: BenchRecord,
    profile: &Profile,
    out_dir: &Path,
) -> Result<WorkloadOutcome, String> {
    let (collapsed, shape) = write_profile(profile, out_dir, workload)?;
    BenchFile::append_to(&bench_file, record.clone())?;
    Ok(WorkloadOutcome {
        record,
        bench_file,
        collapsed,
        shape,
    })
}

/// Workload 1 — fleet evaluation (the paper's offline loop): evaluate a
/// seeded fleet slice end to end, profile included.
pub fn run_fleet_eval(options: &BenchOptions) -> Result<WorkloadOutcome, String> {
    let config = bench_config();
    let fleet = small_fleet(if options.quick { 12 } else { 48 });
    let ids = crate::evaluable_ids(
        &fleet,
        &config,
        config.scenario,
        if options.quick { 6 } else { 24 },
    );
    if ids.is_empty() {
        return Err("fleet_eval: no evaluable vehicles".into());
    }
    let tracer = Tracer::new();
    let started = Instant::now();
    let (evaluation, _) = evaluate_fleet(
        &fleet,
        &ids,
        &config,
        options.threads,
        &Registry::disabled(),
        &tracer,
    );
    let wall = started.elapsed();
    let profile = Profile::from_snapshot(&tracer.snapshot());

    let mut counts = BTreeMap::new();
    counts.insert(
        "vehicles_evaluated".to_string(),
        evaluation.evaluated as u64,
    );
    counts.insert("vehicles_skipped".to_string(), evaluation.skipped as u64);
    profile_counts(&profile, &mut counts);
    let mut metrics = BTreeMap::new();
    metrics.insert("wall_ms".to_string(), ms(wall));
    metrics.insert(
        "vehicles_per_sec".to_string(),
        evaluation.evaluated as f64 / wall.as_secs_f64().max(1e-9),
    );
    finish_workload(
        "fleet_eval",
        options.out_dir.join(CORE_TRAJECTORY),
        BenchRecord {
            workload: "fleet_eval".to_string(),
            stamp: stamp(&config, options.threads, options.quick),
            counts,
            metrics,
        },
        &profile,
        &options.out_dir,
    )
}

/// Workload 2 — warm-store serve-batch: one cold batch trains every
/// model, then repeated warm batches measure the cache-hit serving path.
pub fn run_serve_batch(options: &BenchOptions) -> Result<WorkloadOutcome, String> {
    let config = bench_config();
    let n_vehicles = if options.quick { 10 } else { 40 };
    let repeats = if options.quick { 3 } else { 10 };
    let fleet = small_fleet(n_vehicles);
    let tracer = Tracer::new();
    let requests: Vec<BatchRequest> = (0..n_vehicles as u32)
        .map(|id| BatchRequest {
            vehicle_id: VehicleId(id),
            horizon: 3,
        })
        .collect();

    let service = PredictionService::new_observed(
        &fleet,
        config.clone(),
        options.threads,
        &Registry::disabled(),
    )
    .map_err(|e| format!("serve_batch: {e}"))?
    .with_tracer(tracer.clone());
    let started = Instant::now();
    let cold = service.serve_batch(&requests, None);
    let cold_wall = started.elapsed();
    let started = Instant::now();
    for _ in 0..repeats {
        service.serve_batch(&requests, None);
    }
    let warm_wall = started.elapsed();
    let profile = Profile::from_snapshot(&tracer.snapshot());

    let mut counts = BTreeMap::new();
    counts.insert("requests_cold".to_string(), cold.len() as u64);
    counts.insert(
        "requests_warm".to_string(),
        (repeats * requests.len()) as u64,
    );
    counts.insert("models_cached".to_string(), service.store().len() as u64);
    profile_counts(&profile, &mut counts);
    let mut metrics = BTreeMap::new();
    metrics.insert("cold_wall_ms".to_string(), ms(cold_wall));
    metrics.insert(
        "warm_ms_per_batch".to_string(),
        ms(warm_wall) / repeats as f64,
    );
    metrics.insert(
        "warm_requests_per_sec".to_string(),
        (repeats * requests.len()) as f64 / warm_wall.as_secs_f64().max(1e-9),
    );
    finish_workload(
        "serve_batch",
        options.out_dir.join(CORE_TRAJECTORY),
        BenchRecord {
            workload: "serve_batch".to_string(),
            stamp: stamp(&config, options.threads, options.quick),
            counts,
            metrics,
        },
        &profile,
        &options.out_dir,
    )
}

/// Workload 3 — streaming ingest + deterministic replay: stream seeded
/// telemetry into a fresh commit log on disk, recover it, replay the
/// full prefix through aggregation → drift monitoring → retraining.
pub fn run_ingest_replay(options: &BenchOptions) -> Result<WorkloadOutcome, String> {
    let config = bench_config();
    let fleet = small_fleet(if options.quick { 8 } else { 24 });
    let days = if options.quick { 90 } else { 240 };
    let dir = std::env::temp_dir().join(format!("vup-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let result = (|| {
        let (mut log, _) = CommitLog::open(
            Box::new(DiskBackend),
            &dir,
            LogOptions::default(),
            &Registry::disabled(),
            &Tracer::disabled(),
        )
        .map_err(|e| format!("ingest_replay: open log: {e}"))?;
        let stream = StreamConfig {
            start_offset: 0,
            days,
            dropout: Default::default(),
            shift: None,
        };
        let started = Instant::now();
        let stats = ingest_stream(&mut log, &fleet, &stream)
            .map_err(|e| format!("ingest_replay: stream: {e}"))?;
        let ingest_wall = started.elapsed();
        drop(log);

        let tracer = Tracer::new();
        let (log, _) = CommitLog::open(
            Box::new(DiskBackend),
            &dir,
            LogOptions::default(),
            &Registry::disabled(),
            &tracer,
        )
        .map_err(|e| format!("ingest_replay: reopen log: {e}"))?;
        let records = log
            .records()
            .map_err(|e| format!("ingest_replay: read log: {e}"))?;
        let replay_config =
            ReplayConfig::new(config.clone(), MonitorConfig::default(), options.threads);
        let started = Instant::now();
        let report = replay(
            &records,
            &fleet,
            &replay_config,
            &Registry::disabled(),
            &tracer,
        )
        .map_err(|e| format!("ingest_replay: replay: {e}"))?;
        let replay_wall = started.elapsed();
        let profile = Profile::from_snapshot(&tracer.snapshot());

        let mut counts = BTreeMap::new();
        counts.insert("records_ingested".to_string(), stats.records_appended);
        counts.insert("records_replayed".to_string(), report.records_replayed);
        counts.insert("slots_sealed".to_string(), report.slots_sealed);
        counts.insert(
            "retrain_decisions".to_string(),
            report.decisions.len() as u64,
        );
        counts.insert("models_final".to_string(), report.models.len() as u64);
        profile_counts(&profile, &mut counts);
        let mut metrics = BTreeMap::new();
        metrics.insert("ingest_wall_ms".to_string(), ms(ingest_wall));
        metrics.insert("replay_wall_ms".to_string(), ms(replay_wall));
        metrics.insert(
            "replay_records_per_sec".to_string(),
            report.records_replayed as f64 / replay_wall.as_secs_f64().max(1e-9),
        );
        finish_workload(
            "ingest_replay",
            options.out_dir.join(INGEST_TRAJECTORY),
            BenchRecord {
                workload: "ingest_replay".to_string(),
                stamp: stamp(&config, options.threads, options.quick),
                counts,
                metrics,
            },
            &profile,
            &options.out_dir,
        )
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Workload 4 — serve-daemon loadgen: bind a real daemon on an
/// ephemeral port, drive it with the seeded closed-loop load generator
/// (the same engine as `vup loadgen`), and append the wall-clock
/// figures. Counts stay empty: admission shedding makes the served mix
/// timing-dependent.
pub fn run_serve_daemon(options: &BenchOptions) -> Result<WorkloadOutcome, String> {
    let config = bench_config();
    let n_vehicles = if options.quick { 16 } else { 50 };
    let fleet = small_fleet(n_vehicles);
    let registry = Registry::new();
    let tracer = Tracer::new();
    let service =
        PredictionService::new_observed(&fleet, config.clone(), options.threads, &registry)
            .map_err(|e| format!("serve_daemon: {e}"))?
            .with_tracer(tracer.clone());
    let monitor = FleetMonitor::observed(&registry, MonitorConfig::default());
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let server = Server::bind(server_config.clone(), &registry)
        .map_err(|e| format!("serve_daemon: bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("serve_daemon: addr: {e}"))?;
    let handler = AppHandler::new(
        service,
        registry.clone(),
        monitor,
        server.status(),
        server_config.queue_capacity,
    )
    .with_tracer(tracer.clone());

    let plan = LoadPlan {
        addr: addr.to_string(),
        clients: if options.quick { 2 } else { 4 },
        requests_per_client: if options.quick { 20 } else { 100 },
        duration_ms: None,
        batch_size: 4,
        vehicle_pool: n_vehicles as u32,
        horizon: 3,
        seed: 7,
    };
    let token = CancelToken::new();
    let (report, profile) = std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(&handler, &token));
        let report = loadgen::run(&plan);
        token.cancel();
        let _ = run.join();
        (report, Profile::from_snapshot(&tracer.snapshot()))
    });
    let report = report.map_err(|e| format!("serve_daemon: loadgen: {e}"))?;

    let mut metrics = BTreeMap::new();
    metrics.insert("wall_ms".to_string(), report.wall_ms as f64);
    metrics.insert("sustained_rps".to_string(), report.sustained_rps);
    metrics.insert("latency_p50_us".to_string(), report.latency_us.p50 as f64);
    metrics.insert("latency_p99_us".to_string(), report.latency_us.p99 as f64);
    metrics.insert("ok".to_string(), report.ok as f64);
    metrics.insert("shed".to_string(), report.shed as f64);
    finish_workload(
        "serve_daemon",
        options.out_dir.join(SERVE_TRAJECTORY),
        BenchRecord {
            workload: "serve_daemon".to_string(),
            stamp: stamp(&config, options.threads, options.quick),
            counts: BTreeMap::new(),
            metrics,
        },
        &profile,
        &options.out_dir,
    )
}

/// Runs every workload and appends to the trajectory files under
/// `options.out_dir`. Every trajectory the run appends to is loaded
/// first, so an unreadable one fails the run before any file changes.
pub fn run_all(options: &BenchOptions) -> Result<Vec<WorkloadOutcome>, String> {
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("cannot create '{}': {e}", options.out_dir.display()))?;
    let mut trajectories = vec![CORE_TRAJECTORY, INGEST_TRAJECTORY];
    if options.daemon {
        trajectories.push(SERVE_TRAJECTORY);
    }
    for name in trajectories {
        BenchFile::load(&options.out_dir.join(name))?;
    }
    let mut outcomes = vec![
        run_fleet_eval(options)?,
        run_serve_batch(options)?,
        run_ingest_replay(options)?,
    ];
    if options.daemon {
        outcomes.push(run_serve_daemon(options)?);
    }
    Ok(outcomes)
}

/// Whether bigger values of `metric` are better (throughput) or worse
/// (latency / wall time).
pub fn higher_is_better(metric: &str) -> bool {
    metric.ends_with("_per_sec") || metric.ends_with("rps")
}

/// One metric's old/new comparison line.
#[derive(Debug, Clone)]
pub struct CompareLine {
    /// Human-readable verdict line.
    pub rendered: String,
    /// Whether this line fails the gate.
    pub failed: bool,
}

/// The outcome of `bench compare OLD NEW`.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Every compared metric/count, in workload order.
    pub lines: Vec<CompareLine>,
    /// Workloads present in OLD but missing from NEW (a gate failure:
    /// a vanished workload must be an explicit baseline change).
    pub missing_workloads: Vec<String>,
}

impl CompareReport {
    /// True when nothing regressed.
    pub fn ok(&self) -> bool {
        self.missing_workloads.is_empty() && self.lines.iter().all(|l| !l.failed)
    }

    /// Failing lines only.
    pub fn failures(&self) -> Vec<&CompareLine> {
        self.lines.iter().filter(|l| l.failed).collect()
    }
}

/// Diffs two trajectories: for every workload in OLD, its newest entry
/// is compared against NEW's newest entry. Counts must match exactly;
/// metrics regress when they are worse than OLD by more than
/// `threshold_pct` percent, direction per [`higher_is_better`].
pub fn compare(old: &BenchFile, new: &BenchFile, threshold_pct: f64) -> CompareReport {
    let mut report = CompareReport::default();
    for workload in old.workloads() {
        let old_rec = old.last(workload).expect("workload listed");
        let Some(new_rec) = new.last(workload) else {
            report.missing_workloads.push(workload.to_string());
            continue;
        };
        for (name, old_v) in &old_rec.counts {
            let new_v = new_rec.counts.get(name).copied();
            let failed = new_v != Some(*old_v);
            report.lines.push(CompareLine {
                rendered: match new_v {
                    Some(v) if !failed => format!("{workload}/{name}: {old_v} == {v}"),
                    Some(v) => format!("{workload}/{name}: COUNT DRIFT {old_v} -> {v}"),
                    None => format!("{workload}/{name}: COUNT MISSING (was {old_v})"),
                },
                failed,
            });
        }
        for (name, old_v) in &old_rec.metrics {
            let Some(new_v) = new_rec.metrics.get(name).copied() else {
                report.lines.push(CompareLine {
                    rendered: format!("{workload}/{name}: METRIC MISSING (was {old_v:.3})"),
                    failed: true,
                });
                continue;
            };
            let delta_pct = if *old_v == 0.0 {
                0.0
            } else {
                (new_v - old_v) / old_v * 100.0
            };
            let worse = if higher_is_better(name) {
                -delta_pct
            } else {
                delta_pct
            };
            let failed = worse > threshold_pct;
            report.lines.push(CompareLine {
                rendered: format!(
                    "{workload}/{name}: {old_v:.3} -> {new_v:.3} ({delta_pct:+.1}%){}",
                    if failed { "  REGRESSION" } else { "" }
                ),
                failed,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, counts: &[(&str, u64)], metrics: &[(&str, f64)]) -> BenchRecord {
        BenchRecord {
            workload: workload.to_string(),
            stamp: BenchStamp {
                config_fingerprint: "f".into(),
                git_rev: "r".into(),
                build_profile: "debug".into(),
                threads: 2,
                quick: true,
            },
            counts: counts.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn file(records: Vec<BenchRecord>) -> BenchFile {
        BenchFile {
            schema_version: BENCH_SCHEMA_VERSION,
            entries: records,
        }
    }

    #[test]
    fn self_compare_passes() {
        let f = file(vec![record(
            "fleet_eval",
            &[("stage_fit_count", 10)],
            &[("wall_ms", 120.0), ("vehicles_per_sec", 80.0)],
        )]);
        let report = compare(&f, &f, 5.0);
        assert!(report.ok(), "{:?}", report.failures());
        assert_eq!(report.lines.len(), 3);
    }

    #[test]
    fn injected_slowdown_fails_lower_better_metrics() {
        let old = file(vec![record("w", &[], &[("wall_ms", 100.0)])]);
        let new = file(vec![record("w", &[], &[("wall_ms", 140.0)])]);
        let report = compare(&old, &new, 20.0);
        assert!(!report.ok());
        assert!(report.failures()[0].rendered.contains("REGRESSION"));
        // Under a generous threshold the same delta passes.
        assert!(compare(&old, &new, 50.0).ok());
        // Getting faster never fails.
        let faster = file(vec![record("w", &[], &[("wall_ms", 60.0)])]);
        assert!(compare(&old, &faster, 20.0).ok());
    }

    #[test]
    fn throughput_direction_is_inverted() {
        let old = file(vec![record("w", &[], &[("sustained_rps", 1000.0)])]);
        let slower = file(vec![record("w", &[], &[("sustained_rps", 700.0)])]);
        assert!(!compare(&old, &slower, 20.0).ok());
        let faster = file(vec![record("w", &[], &[("sustained_rps", 1400.0)])]);
        assert!(compare(&old, &faster, 20.0).ok());
        assert!(higher_is_better("warm_requests_per_sec"));
        assert!(higher_is_better("sustained_rps"));
        assert!(!higher_is_better("wall_ms"));
        assert!(!higher_is_better("latency_p99_us"));
    }

    #[test]
    fn count_drift_fails_regardless_of_threshold() {
        let old = file(vec![record("w", &[("stage_fit_count", 10)], &[])]);
        let new = file(vec![record("w", &[("stage_fit_count", 11)], &[])]);
        assert!(!compare(&old, &new, 1000.0).ok());
        let missing = file(vec![record("w", &[], &[])]);
        assert!(!compare(&old, &missing, 1000.0).ok());
    }

    #[test]
    fn missing_workload_fails() {
        let old = file(vec![record("w", &[], &[("wall_ms", 1.0)])]);
        let new = file(vec![record("other", &[], &[("wall_ms", 1.0)])]);
        let report = compare(&old, &new, 5.0);
        assert_eq!(report.missing_workloads, vec!["w".to_string()]);
        assert!(!report.ok());
    }

    #[test]
    fn compare_uses_newest_entry_per_workload() {
        let old = file(vec![
            record("w", &[], &[("wall_ms", 100.0)]),
            record("w", &[], &[("wall_ms", 200.0)]),
        ]);
        // New run matches the *latest* old entry, not the first.
        let new = file(vec![record("w", &[], &[("wall_ms", 205.0)])]);
        assert!(compare(&old, &new, 10.0).ok());
    }

    #[test]
    fn trajectory_roundtrips_and_appends() {
        let dir = std::env::temp_dir().join(format!("vup-bench-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);
        BenchFile::append_to(&path, record("a", &[("c", 1)], &[("m", 2.0)])).unwrap();
        BenchFile::append_to(&path, record("a", &[("c", 1)], &[("m", 3.0)])).unwrap();
        let loaded = BenchFile::load(&path).unwrap();
        assert_eq!(loaded.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.last("a").unwrap().metrics["m"], 3.0);
        assert_eq!(loaded.workloads(), vec!["a"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bad_trajectory_fails_the_run_before_any_append() {
        let dir = std::env::temp_dir().join(format!("vup-bench-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let core = dir.join(CORE_TRAJECTORY);
        let ingest = dir.join(INGEST_TRAJECTORY);
        BenchFile::append_to(&core, record("fleet_eval", &[("c", 1)], &[("m", 2.0)])).unwrap();
        BenchFile::append_to(&ingest, record("ingest_replay", &[("c", 1)], &[("m", 2.0)])).unwrap();
        let (core_before, ingest_before) = (
            std::fs::read(&core).unwrap(),
            std::fs::read(&ingest).unwrap(),
        );
        std::fs::write(dir.join(SERVE_TRAJECTORY), r#"{"plan": {}}"#).unwrap();

        let options = BenchOptions {
            quick: true,
            threads: 1,
            out_dir: dir.clone(),
            daemon: true,
        };
        let err = run_all(&options).unwrap_err();
        assert!(err.contains(SERVE_TRAJECTORY), "{err}");
        assert_eq!(std::fs::read(&core).unwrap(), core_before);
        assert_eq!(std::fs::read(&ingest).unwrap(), ingest_before);
        assert!(!dir.join("BENCH_profile_fleet_eval.collapsed").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn git_rev_marks_uncommitted_tracked_changes_dirty() {
        let dir = std::env::temp_dir().join(format!("vup-bench-rev-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(git_rev_in(&dir.join("missing")), "unknown");
        let git = |args: &[&str]| {
            let out = std::process::Command::new("git")
                .current_dir(&dir)
                .args([
                    "-c",
                    "user.name=bench",
                    "-c",
                    "user.email=bench@example.com",
                ])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .output()
                .unwrap();
            assert!(out.status.success(), "git {args:?}: {out:?}");
            String::from_utf8(out.stdout).unwrap().trim().to_string()
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("tracked.txt"), "one").unwrap();
        git(&["add", "tracked.txt"]);
        git(&["commit", "-q", "-m", "first"]);
        let head = git(&["rev-parse", "--short", "HEAD"]);
        assert_eq!(git_rev_in(&dir), head);
        // Untracked files leave the tree clean …
        std::fs::write(dir.join("BENCH_core.json"), "{}").unwrap();
        assert_eq!(git_rev_in(&dir), head);
        // … an edit to a tracked file does not, staged or not.
        std::fs::write(dir.join("tracked.txt"), "two").unwrap();
        assert_eq!(git_rev_in(&dir), format!("{head}-dirty"));
        git(&["add", "tracked.txt"]);
        assert_eq!(git_rev_in(&dir), format!("{head}-dirty"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newer_schema_is_rejected_not_misread() {
        let text = format!(
            "{{\"schema_version\": {}, \"entries\": []}}",
            BENCH_SCHEMA_VERSION + 1
        );
        assert!(BenchFile::parse(&text).is_err());
        assert!(BenchFile::parse("not json").is_err());

        // A `vup loadgen` report is not a trajectory, and `load` names
        // the file it could not read.
        let report = vup_net::BenchReport {
            plan: LoadPlan::default(),
            wall_ms: 500,
            total: 200,
            ok: 190,
            shed: 10,
            http_errors: 0,
            io_errors: 0,
            sustained_rps: 380.0,
            latency_us: Default::default(),
            histogram: Vec::new(),
            metrics_samples: 42,
        };
        let err = BenchFile::parse(&report.to_json()).unwrap_err();
        assert!(err.contains("not a bench trajectory"), "{err}");
        let dir = std::env::temp_dir().join(format!("vup-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loadgen-report.json");
        std::fs::write(&path, report.to_json()).unwrap();
        let err = BenchFile::load(&path).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("not a bench trajectory"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
