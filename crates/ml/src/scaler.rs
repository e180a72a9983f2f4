//! Feature scaling (the paper's preparation step ii, "Normalization").
//!
//! Z-score standardization (what SVR and Lasso assume for comparable
//! regularization across features), fitted on each training window so no
//! test-day statistics leak into the model. It follows the fit/transform
//! protocol and guards against constant columns.

use serde::{Deserialize, Serialize};
use vup_linalg::Matrix;

use crate::{MlError, Result};

/// Z-score standardizer: `x' = (x − mean) / std` per column.
///
/// Constant columns (zero standard deviation) are shifted to zero and left
/// unscaled, matching scikit-learn's `StandardScaler` behaviour.
///
/// Serializable so a fitted predictor can be snapshotted to disk; the
/// learned statistics round-trip bit-exactly through the JSON shim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-column means and standard deviations (population).
    pub fn fit(x: &Matrix) -> Result<Self> {
        if x.rows() == 0 {
            return Err(MlError::NotEnoughSamples {
                required: 1,
                actual: 0,
            });
        }
        let n = x.rows() as f64;
        let p = x.cols();
        let mut means = vec![0.0; p];
        for row in x.iter_rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; p];
        for row in x.iter_rows() {
            for ((s, &v), &m) in vars.iter_mut().zip(row).zip(&means) {
                let d = v - m;
                *s += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let sd = (v / n).sqrt();
                if sd > 0.0 {
                    sd
                } else {
                    1.0
                }
            })
            .collect();
        Ok(StandardScaler { means, stds })
    }

    /// Number of features the scaler was fitted on.
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Applies the learned transform to a matrix.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        self.check(x.cols())?;
        let mut out = x.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
                *v = (*v - m) / s;
            }
        }
        Ok(out)
    }

    /// Applies the learned transform in place — the same arithmetic as
    /// [`StandardScaler::transform`] without the matrix clone, for hot
    /// paths that own their (arena-built) storage.
    pub fn transform_in_place(&self, x: &mut Matrix) -> Result<()> {
        self.check(x.cols())?;
        for i in 0..x.rows() {
            let row = x.row_mut(i);
            for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
                *v = (*v - m) / s;
            }
        }
        Ok(())
    }

    /// Applies the learned transform to a single row in place.
    pub fn transform_row(&self, row: &mut [f64]) -> Result<()> {
        self.check(row.len())?;
        for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
        Ok(())
    }

    /// Inverts the transform.
    pub fn inverse_transform(&self, x: &Matrix) -> Result<Matrix> {
        self.check(x.cols())?;
        let mut out = x.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
                *v = *v * s + m;
            }
        }
        Ok(out)
    }

    /// Convenience: fit on `x` then transform it.
    pub fn fit_transform(x: &Matrix) -> Result<(Self, Matrix)> {
        let scaler = Self::fit(x)?;
        let t = scaler.transform(x)?;
        Ok((scaler, t))
    }

    fn check(&self, cols: usize) -> Result<()> {
        if cols != self.n_features() {
            return Err(MlError::FeatureMismatch {
                expected: self.n_features(),
                actual: cols,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy() -> Matrix {
        Matrix::from_rows(&[&[1.0, 100.0], &[2.0, 200.0], &[3.0, 300.0]]).unwrap()
    }

    #[test]
    fn standardized_columns_have_zero_mean_unit_var() {
        let (_, t) = StandardScaler::fit_transform(&toy()).unwrap();
        for j in 0..2 {
            let col = t.col(j);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_is_centered_not_scaled() {
        let x = Matrix::from_rows(&[&[5.0, 1.0], &[5.0, 2.0]]).unwrap();
        let (_, t) = StandardScaler::fit_transform(&x).unwrap();
        assert_eq!(t.col(0), vec![0.0, 0.0]);
    }

    #[test]
    fn inverse_round_trips() {
        let x = toy();
        let (scaler, t) = StandardScaler::fit_transform(&x).unwrap();
        let back = scaler.inverse_transform(&t).unwrap();
        assert!(back.sub(&x).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let x = toy();
        let (scaler, t) = StandardScaler::fit_transform(&x).unwrap();
        let mut row = x.row(1).to_vec();
        scaler.transform_row(&mut row).unwrap();
        assert_eq!(row, t.row(1));
    }

    #[test]
    fn feature_count_is_validated() {
        let scaler = StandardScaler::fit(&toy()).unwrap();
        assert!(scaler.transform(&Matrix::zeros(2, 3)).is_err());
        let mut short = vec![0.0];
        assert!(scaler.transform_row(&mut short).is_err());
        assert!(StandardScaler::fit(&Matrix::zeros(0, 2)).is_err());
    }

    proptest! {
        #[test]
        fn prop_standardize_then_invert_is_identity(
            vals in proptest::collection::vec(-1e3_f64..1e3, 8),
        ) {
            let x = Matrix::from_vec(4, 2, vals).unwrap();
            let (scaler, t) = StandardScaler::fit_transform(&x).unwrap();
            let back = scaler.inverse_transform(&t).unwrap();
            prop_assert!(back.sub(&x).unwrap().max_abs() < 1e-8);
        }
    }
}
