//! Small dense-vector kernels used throughout the workspace.
//!
//! These operate on plain `&[f64]` slices; callers own the storage. Length
//! agreement is asserted (programming error, not recoverable input error),
//! matching slice-indexing semantics elsewhere in the crate.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics when the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// L1 norm (sum of absolute values).
#[inline]
pub fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|v| v.abs()).sum()
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Scales every element in place.
pub fn scale_mut(a: &mut [f64], s: f64) {
    for v in a {
        *v *= s;
    }
}

/// Maximum absolute difference between two equal-length slices.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0_f64, |m, (&x, &y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm1(&[-1.0, 2.0, -3.0]), 6.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sub_and_diff() {
        assert_eq!(sub(&[5.0, 3.0], &[2.0, 1.0]), vec![3.0, 2.0]);
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0, -2.0];
        scale_mut(&mut v, -2.0);
        assert_eq!(v, vec![-2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
