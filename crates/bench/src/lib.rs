//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Every table and figure of the paper's evaluation section has one
//! binary in `src/bin/` (see DESIGN.md §4 for the index). This library
//! holds what they share: the standard experiment fleet, vehicle
//! subsampling, result persistence under `results/`, and text-table
//! printing so each binary reproduces "the same rows/series the paper
//! reports" on stdout.

#![warn(missing_docs)]

pub mod perf;

use std::path::PathBuf;

use serde::Serialize;
use vup_core::{PipelineConfig, Scenario, VehicleView};
use vup_fleetsim::{Fleet, FleetConfig, VehicleId};

/// Seed of the standard experiment fleet; every binary uses it so results
/// are comparable across experiments.
pub const EXPERIMENT_SEED: u64 = 2019;

/// The full-scale experiment fleet (paper scale: 2 239 vehicles,
/// 2015-01-01 .. 2018-09-30).
pub fn experiment_fleet() -> Fleet {
    Fleet::generate(FleetConfig {
        seed: EXPERIMENT_SEED,
        ..FleetConfig::default()
    })
}

/// A reduced experiment fleet for the model-evaluation experiments.
pub fn small_fleet(n: usize) -> Fleet {
    Fleet::generate(FleetConfig::small(n, EXPERIMENT_SEED))
}

/// Picks up to `n` vehicles (evenly spread over the roster) whose
/// scenario series is long enough to evaluate under `config`.
pub fn evaluable_ids(
    fleet: &Fleet,
    config: &PipelineConfig,
    scenario: Scenario,
    n: usize,
) -> Vec<VehicleId> {
    let total = fleet.vehicles().len();
    let stride = (total / (n * 3).max(1)).max(1);
    let mut out = Vec::with_capacity(n);
    let mut idx = 0usize;
    while out.len() < n && idx < total {
        let id = VehicleId(idx as u32);
        let view = VehicleView::build(fleet, id, scenario);
        if view.len() > config.train_window + 30 {
            out.push(id);
        }
        idx += stride;
    }
    out
}

/// Directory where experiment outputs are written (`results/` at the
/// workspace root, falling back to the current directory).
pub fn results_dir() -> PathBuf {
    // The binaries run from the workspace root via `cargo run`; fall back
    // to CWD when the directory cannot be created.
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        dir
    } else {
        PathBuf::from(".")
    }
}

/// Persists a serializable result under `results/<name>.json` and returns
/// the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable result");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Prints a header line followed by a separator, used by all binaries for
/// consistent tables.
pub fn print_header(columns: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, width) in columns {
        line.push_str(&format!("{name:>width$} "));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Renders a fixed-width ASCII bar for quick visual comparison in
/// terminal output (the poor man's figure).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    // max <= 0 or NaN makes the scale degenerate; draw nothing.
    if max.is_nan() || max <= 0.0 || !value.is_finite() {
        return String::new();
    }
    let filled = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluable_ids_respect_series_length() {
        let fleet = small_fleet(30);
        let config = PipelineConfig::default();
        let ids = evaluable_ids(&fleet, &config, Scenario::NextWorkingDay, 5);
        assert!(!ids.is_empty());
        assert!(ids.len() <= 5);
        for id in ids {
            let view = VehicleView::build(&fleet, id, Scenario::NextWorkingDay);
            assert!(view.len() > config.train_window + 30);
        }
    }

    #[test]
    fn bar_scales_and_handles_degenerate_input() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 4), "####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
        assert_eq!(bar(f64::NAN, 10.0, 10), "");
    }

    #[test]
    fn json_roundtrip_to_results_dir() {
        let path = write_json("harness_selftest", &vec![1, 2, 3]);
        let text = std::fs::read_to_string(&path).expect("written file");
        assert!(text.contains('1'));
        std::fs::remove_file(&path).ok();
        // Drops `results/` too when that leaves it empty; `remove_dir`
        // fails on a non-empty directory, so real results stay.
        if let Some(dir) = path.parent() {
            std::fs::remove_dir(dir).ok();
        }
    }
}
