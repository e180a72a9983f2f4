//! Scalar summary statistics: moments and interpolated quantiles.
//!
//! Quantiles use the "type 7" linear-interpolation definition (the default
//! in R and NumPy), which is also what scikit-learn's ecosystem reports, so
//! the boxplot summaries in `vup-bench` are comparable with the paper's
//! matplotlib figures.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (divides by `n`). Returns `None` for an empty slice.
pub fn variance_population(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Sample variance (divides by `n - 1`). Returns `None` when `xs.len() < 2`.
pub fn variance_sample(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Minimum value. Returns `None` for an empty slice; NaNs are skipped.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|v| !v.is_nan()).reduce(f64::min)
}

/// Maximum value. Returns `None` for an empty slice; NaNs are skipped.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().filter(|v| !v.is_nan()).reduce(f64::max)
}

/// Type-7 (linear interpolation) quantile of `p ∈ [0, 1]` computed on a
/// *pre-sorted* ascending slice.
///
/// Returns `None` for an empty slice or `p` outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let h = p * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Type-7 quantile of an unsorted slice (sorts a copy).
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, p)
}

/// Median (the 0.5 quantile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Interquartile range `Q3 - Q1`.
pub fn iqr(xs: &[f64]) -> Option<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in iqr input"));
    Some(quantile_sorted(&sorted, 0.75)? - quantile_sorted(&sorted, 0.25)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variances() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert_eq!(variance_population(&xs), Some(4.0));
        let sv = variance_sample(&xs).unwrap();
        assert!((sv - 32.0 / 7.0).abs() < 1e-12);
        assert!(mean(&[]).is_none());
        assert!(variance_sample(&[1.0]).is_none());
    }

    #[test]
    fn min_max_skip_nan() {
        let xs = [3.0, f64::NAN, -1.0, 2.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(3.0));
        assert!(min(&[]).is_none());
    }

    #[test]
    fn quantile_matches_numpy_type7() {
        // numpy.percentile([1,2,3,4], [25, 50, 75]) -> [1.75, 2.5, 3.25]
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.50).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75).unwrap() - 3.25).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
    }

    #[test]
    fn quantile_edge_cases() {
        assert!(quantile(&[], 0.5).is_none());
        assert!(quantile(&[1.0], 1.5).is_none());
        assert!(quantile(&[1.0], -0.1).is_none());
        assert_eq!(quantile(&[42.0], 0.3), Some(42.0));
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn iqr_of_uniform_grid() {
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        assert_eq!(iqr(&xs), Some(4.0)); // Q3=7, Q1=3
    }

    proptest! {
        #[test]
        fn prop_quantile_is_monotone_in_p(
            mut xs in proptest::collection::vec(-100.0_f64..100.0, 1..50),
            p1 in 0.0_f64..1.0,
            p2 in 0.0_f64..1.0,
        ) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let qlo = quantile_sorted(&xs, lo).unwrap();
            let qhi = quantile_sorted(&xs, hi).unwrap();
            prop_assert!(qlo <= qhi + 1e-12);
        }

        #[test]
        fn prop_quantile_within_range(
            xs in proptest::collection::vec(-100.0_f64..100.0, 1..50),
            p in 0.0_f64..1.0,
        ) {
            let q = quantile(&xs, p).unwrap();
            prop_assert!(q >= min(&xs).unwrap() - 1e-12);
            prop_assert!(q <= max(&xs).unwrap() + 1e-12);
        }

        #[test]
        fn prop_variance_nonnegative(
            xs in proptest::collection::vec(-100.0_f64..100.0, 2..50),
        ) {
            prop_assert!(variance_sample(&xs).unwrap() >= -1e-9);
            prop_assert!(variance_population(&xs).unwrap() >= -1e-9);
        }
    }
}
