//! Non-stationarity diagnostics.
//!
//! The paper motivates per-vehicle models by observing that "the analyzed
//! time series shows non-stationary and rather heterogeneous usage trends".
//! This module provides the split-half drift diagnostic used by the
//! characterization binaries to quantify that claim on the synthetic fleet.

use crate::stats;

/// Result of the split-half stationarity diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDiagnostic {
    /// Mean of the first half of the series.
    pub mean_first: f64,
    /// Mean of the second half of the series.
    pub mean_second: f64,
    /// Pooled sample standard deviation.
    pub pooled_std: f64,
    /// |mean_second − mean_first| / pooled_std; large values (≳ 0.5)
    /// indicate a level shift, i.e. non-stationarity in the mean.
    pub drift_score: f64,
}

/// Split-half drift diagnostic: compares the means of the two halves of the
/// series in units of the pooled standard deviation.
///
/// Returns `None` when either half has fewer than 2 observations or the
/// pooled variance is zero.
pub fn drift_diagnostic(xs: &[f64]) -> Option<DriftDiagnostic> {
    let n = xs.len();
    if n < 4 {
        return None;
    }
    let (a, b) = xs.split_at(n / 2);
    let mean_first = stats::mean(a)?;
    let mean_second = stats::mean(b)?;
    let va = stats::variance_sample(a)?;
    let vb = stats::variance_sample(b)?;
    let pooled = (((a.len() - 1) as f64 * va + (b.len() - 1) as f64 * vb)
        / (a.len() + b.len() - 2) as f64)
        .sqrt();
    if pooled == 0.0 {
        return None;
    }
    Some(DriftDiagnostic {
        mean_first,
        mean_second,
        pooled_std: pooled,
        drift_score: (mean_second - mean_first).abs() / pooled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_series_has_low_drift() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 5.0 } else { 6.0 })
            .collect();
        let d = drift_diagnostic(&xs).unwrap();
        assert!(d.drift_score < 0.1, "score = {}", d.drift_score);
    }

    #[test]
    fn level_shift_is_detected() {
        // First half around 2, second half around 8.
        let xs: Vec<f64> = (0..50)
            .map(|i| {
                if i < 25 {
                    2.0 + (i % 3) as f64 * 0.1
                } else {
                    8.0 + (i % 3) as f64 * 0.1
                }
            })
            .collect();
        let d = drift_diagnostic(&xs).unwrap();
        assert!(d.drift_score > 5.0, "score = {}", d.drift_score);
        assert!(d.mean_second > d.mean_first);
    }

    #[test]
    fn degenerate_inputs_give_none() {
        assert!(drift_diagnostic(&[1.0, 2.0, 3.0]).is_none());
        assert!(drift_diagnostic(&[5.0; 40]).is_none()); // zero variance
    }
}
