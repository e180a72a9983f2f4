//! Supervised regression datasets: a feature matrix paired with targets.

use vup_linalg::Matrix;

use crate::{MlError, Result};

/// A feature matrix `X` (one row per sample) paired with a target vector
/// `y`, validated for agreement and finiteness at construction.
///
/// Samples are assumed to be in *time order* (oldest first): the windowed
/// training-data generation in `vup-core` produces them that way, and the
/// time-ordered split used by [`Dataset::split_at`] and the grid search
/// depends on it.
#[derive(Debug, Clone)]
pub struct Dataset {
    x: Matrix,
    y: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset after validating shape agreement and finiteness.
    pub fn new(x: Matrix, y: Vec<f64>) -> Result<Self> {
        if x.rows() != y.len() {
            return Err(MlError::SampleMismatch {
                x_rows: x.rows(),
                y_len: y.len(),
            });
        }
        if x.as_slice().iter().any(|v| !v.is_finite()) || y.iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFiniteInput);
        }
        Ok(Dataset { x, y })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Borrow of the feature matrix.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// Borrow of the target vector.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Consumes the dataset and returns `(X, y)`.
    pub fn into_parts(self) -> (Matrix, Vec<f64>) {
        (self.x, self.y)
    }

    /// Standardizes `X` in place with a fitted scaler, avoiding the
    /// allocate-and-copy of [`crate::scaler::StandardScaler::transform`]
    /// on the fit hot path. Finite data under finite statistics (stds are
    /// clamped to be positive at fit time) stays finite, so the
    /// construction invariant is preserved.
    pub fn standardize_in_place(&mut self, scaler: &crate::scaler::StandardScaler) -> Result<()> {
        scaler.transform_in_place(&mut self.x)
    }

    /// Splits into `(first, second)` at sample index `at` — a time-ordered
    /// hold-out split (`first` = oldest samples for training).
    ///
    /// Returns an error when `at` is 0 or ≥ `len()` (either side empty).
    pub fn split_at(&self, at: usize) -> Result<(Dataset, Dataset)> {
        if at == 0 || at >= self.len() {
            return Err(MlError::NotEnoughSamples {
                required: 2,
                actual: self.len().min(1),
            });
        }
        let cols = self.n_features();
        let (head_rows, tail_rows) = self.x.as_slice().split_at(at * cols);
        let head = Matrix::from_vec(at, cols, head_rows.to_vec())?;
        let tail = Matrix::from_vec(self.len() - at, cols, tail_rows.to_vec())?;
        Ok((
            Dataset {
                x: head,
                y: self.y[..at].to_vec(),
            },
            Dataset {
                x: tail,
                y: self.y[at..].to_vec(),
            },
        ))
    }

    /// Time-ordered fractional split: the first `train_frac` of samples
    /// become the training set. `train_frac` must be in `(0, 1)`.
    pub fn split_fraction(&self, train_frac: f64) -> Result<(Dataset, Dataset)> {
        if !(train_frac > 0.0 && train_frac < 1.0) {
            return Err(MlError::InvalidParameter {
                name: "train_frac",
                reason: format!("must be in (0, 1), got {train_frac}"),
            });
        }
        if self.len() < 2 {
            return Err(MlError::NotEnoughSamples {
                required: 2,
                actual: self.len(),
            });
        }
        let at = ((self.len() as f64 * train_frac).round() as usize).clamp(1, self.len() - 1);
        self.split_at(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x =
            Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0], &[4.0, 40.0]]).unwrap();
        Dataset::new(x, vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn construction_validates() {
        let x = Matrix::zeros(3, 2);
        assert!(matches!(
            Dataset::new(x.clone(), vec![1.0, 2.0]),
            Err(MlError::SampleMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(x.clone(), vec![1.0, f64::NAN, 3.0]),
            Err(MlError::NonFiniteInput)
        ));
        let mut bad = Matrix::zeros(1, 1);
        bad[(0, 0)] = f64::INFINITY;
        assert!(matches!(
            Dataset::new(bad, vec![1.0]),
            Err(MlError::NonFiniteInput)
        ));
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.y()[2], 3.0);
        assert_eq!(d.x()[(3, 1)], 40.0);
    }

    #[test]
    fn split_preserves_time_order() {
        let d = toy();
        let (train, test) = d.split_at(3).unwrap();
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(train.y(), &[1.0, 2.0, 3.0]);
        assert_eq!(test.y(), &[4.0]);
        assert_eq!(test.x()[(0, 0)], 4.0);
    }

    #[test]
    fn split_rejects_degenerate_points() {
        let d = toy();
        assert!(d.split_at(0).is_err());
        assert!(d.split_at(4).is_err());
        assert!(d.split_fraction(0.0).is_err());
        assert!(d.split_fraction(1.0).is_err());
    }

    #[test]
    fn split_fraction_clamps_to_nonempty_sides() {
        let d = toy();
        let (train, test) = d.split_fraction(0.99).unwrap();
        assert!(!train.is_empty() && !test.is_empty());
        let (train, test) = d.split_fraction(0.01).unwrap();
        assert!(!train.is_empty() && !test.is_empty());
        let (train, _) = d.split_fraction(0.75).unwrap();
        assert_eq!(train.len(), 3);
    }
}
