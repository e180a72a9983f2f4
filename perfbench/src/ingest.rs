//! `ingest_replay`: the streaming path, from disk append to retrains.
//!
//! Set-up generates a fixed fleet's raw 10-minute CAN reports for a
//! window of days (telemetry dropouts included), day-major as vehicles
//! upload them; the seed sets the order in which the vehicles of each
//! day upload, so every seed appends the same records. Each repetition
//! of the timed phase appends them to a fresh commit log, reopens it
//! (recovery), reads it back and replays it through day aggregation,
//! the CUSUM retrain scheduler and the retrains it decides. One op is
//! one record; one latency sample is one fleet-day of
//! `CommitLog::append` calls. A retrain sample is one repetition's
//! reopen, read and replay: the time from a restart to retrained models.
//! Each fleet-day, reopen, read and replay is one host-clock stretch.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vup_core::{ModelSpec, PipelineConfig};
use vup_fleetsim::canbus::RawReport;
use vup_fleetsim::dropout::DropoutConfig;
use vup_fleetsim::generator::generate_day_raw_reports_scaled;
use vup_fleetsim::{Fleet, FleetConfig, VehicleId};
use vup_ingest::{replay, CommitLog, LogOptions, LogRecovery, ReplayConfig, ReplayReport};
use vup_ml::RegressorSpec;
use vup_obs::{MonitorConfig, Registry, Tracer};
use vup_serve::{DiskBackend, StorageBackend};

use crate::measure::{Acc, HostClock, SplitMix, Timed, Total};
use crate::report::Phase;
use crate::seams::{IoStats, TimedBackend, WorkDir};

/// Seed of the fixed fleet.
const FLEET_SEED: u64 = 2019;
/// Vehicles streamed: few enough that a repetition takes about 1.4 s,
/// so a 30-second run holds 20-30 retrain samples, one per repetition.
const VEHICLES: usize = 16;
/// First streamed day, as an offset from the fleet's observation start.
const START_DAY: usize = 900;
/// Days streamed.
const DAYS: usize = 240;
/// Replay executor threads.
const REPLAY_THREADS: usize = 1;

/// The paper's pipeline with LR, so fitting stays a minor share.
fn pipeline() -> PipelineConfig {
    PipelineConfig {
        model: ModelSpec::Learned(RegressorSpec::Linear),
        ..PipelineConfig::default()
    }
}

struct Setup {
    fleet: Fleet,
    /// Every report of every fleet-day, in upload order.
    days: Vec<Vec<(u32, RawReport)>>,
    records: u64,
}

/// Fleet synthesis and report generation; the fleet and each day's
/// reports are host-clock stretches of `spent`.
fn setup(seed: u64, host: &mut HostClock, spent: &mut Total) -> Setup {
    let fleet = host.time_into(spent, || {
        Fleet::generate(FleetConfig::small(VEHICLES, FLEET_SEED))
    });
    let dropout = DropoutConfig::default();
    let mut rng = SplitMix::new(seed);
    let days: Vec<Vec<(u32, RawReport)>> = (START_DAY..START_DAY + DAYS)
        .map(|offset| {
            host.time_into(spent, || {
                let date = fleet.config().start.plus_days(offset as i64);
                let mut order: Vec<VehicleId> = fleet.vehicles().iter().map(|v| v.id).collect();
                rng.shuffle(&mut order);
                order
                    .into_iter()
                    .flat_map(|id| {
                        generate_day_raw_reports_scaled(&fleet, id, date, &dropout, 1.0)
                            .into_iter()
                            .map(move |r| (id.0, r))
                    })
                    .collect()
            })
        })
        .collect();
    let records = days.iter().map(|d| d.len() as u64).sum();
    Setup {
        fleet,
        days,
        records,
    }
}

/// Layer spans of a traced phase.
#[derive(Default)]
struct Spans {
    io: Arc<IoStats>,
    append: Acc,
    append_io_ms: f64,
    append_io_calls: u64,
    append_bytes: u64,
    open: Acc,
    read: Acc,
    replay: Acc,
    slots_sealed: u64,
    retrains: u64,
}

fn open(dir: &Path, spans: Option<&Spans>) -> Result<(CommitLog, LogRecovery), String> {
    let backend: Box<dyn StorageBackend> = match spans {
        Some(s) => Box::new(TimedBackend::new(Box::new(DiskBackend), Arc::clone(&s.io))),
        None => Box::new(DiskBackend),
    };
    CommitLog::open(
        backend,
        dir,
        LogOptions::default(),
        &Registry::disabled(),
        &Tracer::disabled(),
    )
    .map_err(|e| format!("open log {}: {e}", dir.display()))
}

/// Runs the workload: `setups` timed set-ups (the last one is kept),
/// then whole repetitions while the next one fits in `budget`.
pub fn run(seed: u64, budget: Duration, traced: bool, setups: usize) -> Result<Phase, String> {
    let work = WorkDir::new(if traced { "ingest-traced" } else { "ingest" })?;
    let mut host = HostClock::new();
    let mut phase = Phase::default();
    let mut state = None;
    for _ in 0..setups.max(1) {
        // The previous set-up is freed first, so peak memory holds one.
        drop(state.take());
        let mut spent = Total::default();
        state = Some(setup(seed, &mut host, &mut spent));
        phase.add_setup(&spent);
    }
    let state = state.expect("at least one set-up ran");
    let mut spans = traced.then(Spans::default);
    let config = ReplayConfig::new(pipeline(), MonitorConfig::default(), REPLAY_THREADS);
    let mut first_report: Option<ReplayReport> = None;

    // The timed phase is the sum of the repetitions; deleting each
    // repetition's log between them is not timed, and keeps the kernel
    // from writing one repetition's pages back during the next.
    let started = Instant::now();
    let mut reps = 0usize;
    let mut last_rep = Duration::ZERO;
    let mut rep_walls = Vec::new();
    while reps == 0 || started.elapsed() + last_rep <= budget {
        let rep_started = Instant::now();
        let dir = work.sub(&format!("log-{reps}"));
        let appended = append_all(&mut phase, &mut host, &state, &dir, spans.as_mut())?;
        let completed = replay_log(
            &mut phase,
            &mut host,
            &state,
            &dir,
            &config,
            spans.as_mut(),
            &mut first_report,
        )?;
        phase.attempted += state.records;
        phase.failed += state.records - completed.min(appended);
        reps += 1;
        last_rep = rep_started.elapsed();
        rep_walls.push(format!("{:.2}", last_rep.as_secs_f64()));
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    phase.calibration_ms = host.median_calibration_ms();
    phase.notes.push(format!(
        "{reps} repetitions of {} records over {} fleet-days ({} s each); replay reports compared across repetitions",
        state.records, DAYS, rep_walls.join(", ")
    ));
    if let Some(s) = &spans {
        let appends = s.append.calls().max(1) as f64;
        let reps = reps as f64;
        phase.layers = vec![
            ("ingest.log.append_ms", s.append.ms() / appends),
            ("ingest.log.io_ms", s.append_io_ms / appends),
            ("ingest.log.io_calls", s.append_io_calls as f64 / appends),
            ("ingest.log.bytes", s.append_bytes as f64 / appends),
            ("ingest.log.open_ms", s.open.ms() / reps),
            ("ingest.log.read_ms", s.read.ms() / reps),
            ("ingest.replay.ms", s.replay.ms() / reps),
            ("ingest.replay.slots_sealed", s.slots_sealed as f64 / reps),
            ("ingest.replay.retrains", s.retrains as f64 / reps),
        ];
    }
    Ok(phase)
}

/// Appends every planned report to a fresh log in `dir`, one latency
/// sample per fleet-day. Returns how many were appended.
fn append_all(
    phase: &mut Phase,
    host: &mut HostClock,
    state: &Setup,
    dir: &Path,
    spans: Option<&mut Spans>,
) -> Result<u64, String> {
    let (opened, t) = host.time(|| open(dir, spans.as_deref()));
    phase.add_busy(&t);
    let (mut log, _) = opened?;
    if let Some(s) = spans.as_deref() {
        s.io.reset();
    }
    let mut appended = 0u64;
    for day in &state.days {
        let mut errors = Vec::new();
        let ((), t) = host.time(|| {
            for (vehicle, report) in day {
                let result = match spans.as_deref() {
                    Some(s) => s.append.time(|| log.append(*vehicle, report)),
                    None => log.append(*vehicle, report),
                };
                match result {
                    Ok(_) => appended += 1,
                    Err(e) => errors.push(e),
                }
            }
        });
        phase.add_busy(&t);
        match errors.first() {
            None => phase.add_latency(t.ms(), t.scaled_ms()),
            Some(e) => {
                phase.fail(format!("append failed: {e}"));
                phase.add_failed_latency();
            }
        }
    }
    if let Some(s) = spans {
        s.append_io_ms += s.io.calls.ms();
        s.append_io_calls += s.io.calls.calls();
        s.append_bytes += s.io.bytes();
    }
    if appended != state.records || log.next_offset() != state.records {
        phase.fail(format!(
            "appended {appended} of {} planned records",
            state.records
        ));
    }
    Ok(appended)
}

/// Reopens the log in `dir`, reads it and replays it, checking recovery
/// and the replay report. Returns how many records were replayed.
fn replay_log(
    phase: &mut Phase,
    host: &mut HostClock,
    state: &Setup,
    dir: &Path,
    config: &ReplayConfig,
    spans: Option<&mut Spans>,
    first_report: &mut Option<ReplayReport>,
) -> Result<u64, String> {
    let (reopened, opened) = host.time(|| open(dir, spans.as_deref()));
    phase.add_busy(&opened);
    let (log, recovery) = reopened?;
    let (records, read) = host.time(|| log.records());
    phase.add_busy(&read);
    let records = records.map_err(|e| format!("read log: {e}"))?;
    let (replayed, replay_t) = host.time(|| {
        replay(
            &records,
            &state.fleet,
            config,
            &Registry::disabled(),
            &Tracer::disabled(),
        )
    });
    phase.add_busy(&replay_t);
    let parts = [opened, read, replay_t];
    phase.add_retrain(
        parts.iter().map(Timed::ms).sum(),
        parts.iter().map(Timed::scaled_ms).sum(),
    );

    if !recovery.quarantined.is_empty()
        || recovery.bytes_quarantined != 0
        || recovery.bytes_seen != recovery.bytes_recovered + recovery.bytes_quarantined
        || recovery.frames_recovered != state.records
        || recovery.next_offset != state.records
    {
        phase.fail(format!(
            "reopen did not recover the log cleanly: {recovery:?}"
        ));
    }
    let report = match replayed {
        Ok(report) => report,
        Err(e) => {
            phase.fail(format!("replay failed: {e}"));
            return Ok(0);
        }
    };
    if report.records_replayed != state.records || report.out_of_order != 0 {
        phase.fail(format!(
            "replayed {} records ({} out of order) of {}",
            report.records_replayed, report.out_of_order, state.records
        ));
    }
    if let Some(s) = spans {
        s.open.add(opened.wall);
        s.read.add(read.wall);
        s.replay.add(replay_t.wall);
        s.slots_sealed += report.slots_sealed;
        s.retrains += report.decisions.len() as u64;
    }
    match first_report {
        None => {
            if report.models.is_empty() {
                phase.fail("replay trained no models".into());
            }
            *first_report = Some(report);
        }
        Some(first) if *first == report => {}
        Some(_) => phase.fail("replay report differs from the first repetition's".into()),
    }
    Ok(records.len() as u64)
}
