//! `perfbench`: the repository's seeded benchmark.
//!
//! ```text
//! perfbench --workload backtest|serve|ingest_replay --seed N --seconds S --trace 0|1
//! perfbench --write-reference PATH
//! ```
//!
//! `--trace 0` sets the workload up several times (the median is
//! `setup_s`), runs its timed phase for `S` seconds and prints the
//! end-to-end metrics. `--trace 1` runs an untraced and a traced phase
//! of `S/2` seconds each on the same seed and prints the per-layer
//! metrics plus the tracing overhead (traced minus untraced figures).
//! Either way the outputs are checked, and the last stdout line is one
//! JSON object; the exit code is non-zero when a check failed. Reported
//! times are scaled to a nominal host speed (`measure::HostClock`);
//! the human-readable lines also give them as measured.
//! `--write-reference` regenerates the backtest's reference errors.

mod backtest;
mod ingest;
mod measure;
mod report;
mod seams;
mod serve;

use std::process::ExitCode;
use std::time::Duration;

use measure::CAL_NOMINAL_MS;
use report::{Phase, END_TO_END, PER_LAYER};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteReference(String),
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing its value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s >= 1)
                        .ok_or_else(|| format!("bad --seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                })
            }
            "--write-reference" => return Ok(Command::WriteReference(value.clone())),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

/// Runs one phase of `workload`.
fn run_phase(
    workload: &str,
    seed: u64,
    budget: Duration,
    traced: bool,
    setups: usize,
) -> Result<Phase, String> {
    match workload {
        "backtest" => backtest::run(seed, budget, traced, setups),
        "serve" => serve::run(seed, budget, traced, setups),
        "ingest_replay" => ingest::run(seed, budget, traced, setups),
        other => Err(format!(
            "unknown workload '{other}' (backtest, serve, ingest_replay)"
        )),
    }
}

fn print_phase(label: &str, phase: &Phase, peak_rss: f64) {
    println!(
        "[{label}] ops {} ops_failed {} wall {:.3} s cpu {:.3} s; host calibration median {:.4} ms (nominal {CAL_NOMINAL_MS} ms)",
        phase.completed(),
        phase.failed,
        phase.measured.wall_s,
        phase.measured.cpu_s,
        phase.calibration_ms,
    );
    let measured = phase.end_to_end_measured(peak_rss);
    for ((name, value), (_, as_measured)) in phase.end_to_end(peak_rss).into_iter().zip(measured) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |u| u.1);
        println!("[{label}] {name} {value:.6} {unit} (measured {as_measured:.6} {unit})");
    }
    println!("[{label}] {}", phase.tail_note());
    for note in &phase.notes {
        println!("[{label}] {note}");
    }
    for failure in &phase.failures {
        println!("[{label}] CHECK FAILED: {failure}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::WriteReference(path)) => {
            return match backtest::write_reference(std::path::Path::new(&path)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        let half = budget / 2;
        run_phase(&args.workload, args.seed, half, false, 1).and_then(|plain| {
            run_phase(&args.workload, args.seed, half, true, 1).map(|traced| (plain, Some(traced)))
        })
    } else {
        run_phase(&args.workload, args.seed, budget, false, SETUP_REPEATS).map(|p| (p, None))
    };
    let (plain, traced) = match outcome {
        Ok(phases) => phases,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let peak_rss = measure::peak_rss_mib().unwrap_or(f64::NAN);
    println!("workload {} seed {}", args.workload, args.seed);
    print_phase("untraced", &plain, peak_rss);

    let mut phases = vec![&plain];
    let metrics: Vec<(&str, f64, &str)> = match &traced {
        None => plain
            .end_to_end(peak_rss)
            .into_iter()
            .zip(END_TO_END)
            .map(|((name, value), (_, unit))| (name, value, *unit))
            .collect(),
        Some(traced) => {
            phases.push(traced);
            print_phase("traced", traced, peak_rss);
            let e2e = |p: &Phase, name: &str| {
                p.end_to_end(peak_rss)
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |(_, v)| v)
            };
            let overhead = |name: &str| e2e(traced, name) - e2e(&plain, name);
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = match name.strip_prefix("trace.overhead.") {
                        Some(e2e_name) => overhead(e2e_name),
                        None => traced
                            .layers
                            .iter()
                            .find(|(n, _)| *n == name)
                            .map_or(0.0, |(_, v)| *v),
                    };
                    println!("[layer] {name} {value:.6} {unit}");
                    (name, value, unit)
                })
                .collect()
        }
    };

    let mut correct = phases
        .iter()
        .all(|p| p.failures.is_empty() && p.attempted > 0);
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            println!("CHECK FAILED: metric {name} is not finite");
            correct = false;
        }
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    println!("ops {} ops_failed {failed}", attempted - failed);
    let finite: Vec<(&str, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { -1.0 }, u))
        .collect();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &finite)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
