//! Serializable experiment-result structures.
//!
//! The experiment binaries in `vup-bench` persist their measurements as
//! JSON through these types; EXPERIMENTS.md is written from them so that
//! every reported number is regenerable.

use serde::{Deserialize, Serialize};

/// One algorithm's aggregate result in one scenario (a bar of Fig. 5).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct AlgorithmResult {
    /// Model label (LV, MA, LR, Lasso, SVR, GB).
    pub model: String,
    /// Scenario label (next-day / next-working-day).
    pub scenario: String,
    /// Macro-averaged PE over the evaluated vehicles.
    pub mean_pe: f64,
    /// Median of the per-vehicle PE distribution.
    pub median_pe: f64,
    /// First quartile of the distribution.
    pub q1_pe: f64,
    /// Third quartile of the distribution.
    pub q3_pe: f64,
    /// Number of vehicles evaluated.
    pub n_vehicles: usize,
}

/// One `(K, w)` cell of the Fig. 4 parameter sweep.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SweepPoint {
    /// Number of selected lags K.
    pub k: usize,
    /// Training-window length w (or `0` for the expanding strategy).
    pub train_window: usize,
    /// Strategy label.
    pub strategy: String,
    /// Macro-averaged PE.
    pub mean_pe: f64,
}

/// One predicted-vs-actual point of the Fig. 6 series.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SeriesPoint {
    /// Absolute day index.
    pub day: i64,
    /// ISO date string.
    pub date: String,
    /// Actual utilization hours.
    pub actual: f64,
    /// Predicted utilization hours.
    pub predicted: f64,
}

/// A timing measurement of §4.5: the spread of separately timed
/// executions.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TimingRow {
    /// What was measured (model label or pipeline stage).
    pub task: String,
    /// Median wall-clock milliseconds per execution.
    pub median_ms: f64,
    /// First quartile of the per-execution times.
    pub q1_ms: f64,
    /// Third quartile of the per-execution times.
    pub q3_ms: f64,
    /// Number of executions timed.
    pub reps: usize,
}

/// Computes `(mean, median, q1, q3)` of a PE distribution; returns `None`
/// for an empty distribution.
pub fn distribution_summary(pes: &[f64]) -> Option<(f64, f64, f64, f64)> {
    if pes.is_empty() {
        return None;
    }
    let mean = pes.iter().sum::<f64>() / pes.len() as f64;
    let median = vup_tseries::stats::quantile(pes, 0.5)?;
    let q1 = vup_tseries::stats::quantile(pes, 0.25)?;
    let q3 = vup_tseries::stats::quantile(pes, 0.75)?;
    Some((mean, median, q1, q3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_on_known_distribution() {
        let pes = [10.0, 20.0, 30.0, 40.0];
        let (mean, median, q1, q3) = distribution_summary(&pes).unwrap();
        assert_eq!(mean, 25.0);
        assert_eq!(median, 25.0);
        assert_eq!(q1, 17.5);
        assert_eq!(q3, 32.5);
        assert!(distribution_summary(&[]).is_none());
    }

    #[test]
    fn results_serialize_roundtrip() {
        let r = AlgorithmResult {
            model: "SVR".into(),
            scenario: "next-working-day".into(),
            mean_pe: 15.2,
            median_pe: 14.0,
            q1_pe: 11.0,
            q3_pe: 18.5,
            n_vehicles: 120,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: AlgorithmResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);

        let p = SweepPoint {
            k: 20,
            train_window: 140,
            strategy: "sliding".into(),
            mean_pe: 17.0,
        };
        let back: SweepPoint = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(back, p);
    }
}
