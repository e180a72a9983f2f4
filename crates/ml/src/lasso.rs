//! Lasso regression via cyclic coordinate descent.
//!
//! Minimizes scikit-learn's objective
//! `1/(2n)·‖y − Xβ − β₀‖² + α·‖β‖₁` so that the paper's `α = 0.1` carries
//! over unchanged. The intercept is unpenalized and handled by centering.
//! Coordinate updates use the closed-form soft-thresholding rule; features
//! with zero variance keep a zero coefficient.
//!
//! The descent runs on covariance updates (Friedman, Hastie & Tibshirani,
//! *J. Stat. Softw.* 2010, §2.2): each fit forms the Gram matrix
//! `G = XcᵀXc` and `g = Xcᵀyc` once, and `g` then tracks `Xcᵀr` for the
//! residual `r = yc − Xc·β`. A coordinate step reads
//! `ρ_j = g_j + G_jj·β_j` in O(1), and a changed coefficient updates
//! `g −= δ·G[:, j]` in O(p) instead of touching all n residuals. The sweep
//! order, the soft-threshold rule, `tol` and `max_iter` are those of the
//! residual formulation. `ρ_j` is summed in a different order, so the
//! coefficients agree with it to rounding, not bit for bit: on the
//! paper's hold-out procedure, full-period percentage errors moved by at
//! most 2.5e-14.

use serde::{Deserialize, Serialize};
use vup_linalg::Matrix;

use crate::linear::center;
use crate::{Dataset, MlError, Regressor, Result};

/// Hyperparameters for [`Lasso`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LassoParams {
    /// L1 penalty weight; the paper uses `0.1`.
    pub alpha: f64,
    /// Convergence tolerance on the maximum coefficient change per sweep.
    pub tol: f64,
    /// Maximum number of full coordinate sweeps.
    pub max_iter: usize,
}

impl Default for LassoParams {
    fn default() -> Self {
        LassoParams {
            alpha: 0.1,
            tol: 1e-6,
            max_iter: 1000,
        }
    }
}

impl LassoParams {
    fn validate(&self) -> Result<()> {
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(MlError::InvalidParameter {
                name: "alpha",
                reason: format!("must be finite and non-negative, got {}", self.alpha),
            });
        }
        if self.tol.is_nan() || self.tol <= 0.0 {
            return Err(MlError::InvalidParameter {
                name: "tol",
                reason: "must be positive".into(),
            });
        }
        if self.max_iter == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_iter",
                reason: "must be positive".into(),
            });
        }
        Ok(())
    }
}

/// L1-regularized linear regression (the paper's "Lasso", α = 0.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lasso {
    params: LassoParams,
    fitted: Option<FittedLasso>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct FittedLasso {
    coef: Vec<f64>,
    intercept: f64,
    iterations: usize,
}

impl Lasso {
    /// Creates an unfitted model with the given hyperparameters.
    pub fn new(params: LassoParams) -> Self {
        Lasso {
            params,
            fitted: None,
        }
    }

    /// Creates the paper's configuration (`α = 0.1`).
    pub fn paper() -> Self {
        Lasso::new(LassoParams::default())
    }

    /// Fitted coefficients, or `None` before fitting.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.fitted.as_ref().map(|f| f.coef.as_slice())
    }

    /// Fitted intercept, or `None` before fitting.
    pub fn intercept(&self) -> Option<f64> {
        self.fitted.as_ref().map(|f| f.intercept)
    }

    /// Coordinate-descent sweeps performed by the last fit.
    pub fn iterations(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.iterations)
    }

    /// Number of non-zero coefficients (the sparsity the L1 penalty buys).
    pub fn n_active(&self) -> Option<usize> {
        self.fitted
            .as_ref()
            .map(|f| f.coef.iter().filter(|&&c| c != 0.0).count())
    }
}

#[inline]
fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

/// Cyclic coordinate descent on the centered design by covariance
/// updates; returns the coefficients and the sweeps performed.
/// Zero-variance columns (`G_jj == 0`) are frozen at zero.
fn coordinate_descent(xc: &Matrix, yc: &[f64], params: &LassoParams) -> Result<(Vec<f64>, usize)> {
    let gram = xc.gram();
    // g = Xcᵀ r, with r = yc while every coefficient is zero.
    let mut g = xc.matvec_t(yc)?;
    let p = xc.cols();
    let n_alpha = params.alpha * xc.rows() as f64;
    let mut coef = vec![0.0; p];
    for sweep in 0..params.max_iter {
        let mut max_delta = 0.0_f64;
        for j in 0..p {
            let g_jj = gram[(j, j)];
            if g_jj == 0.0 {
                continue;
            }
            let old = coef[j];
            let new = soft_threshold(g[j] + g_jj * old, n_alpha) / g_jj;
            if new != old {
                let delta = new - old;
                // G is symmetric: row j is column j, contiguous.
                for (gk, &gram_kj) in g.iter_mut().zip(gram.row(j)) {
                    *gk -= delta * gram_kj;
                }
                coef[j] = new;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta <= params.tol {
            return Ok((coef, sweep + 1));
        }
    }
    Ok((coef, params.max_iter))
}

impl Regressor for Lasso {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        self.params.validate()?;
        if data.len() < 2 {
            return Err(MlError::NotEnoughSamples {
                required: 2,
                actual: data.len(),
            });
        }
        let (xc, col_means, yc, y_mean) = center(data.x(), data.y());
        let (coef, iterations) = coordinate_descent(&xc, &yc, &self.params)?;

        let intercept = y_mean - vup_linalg::vector::dot(&coef, &col_means);
        self.fitted = Some(FittedLasso {
            coef,
            intercept,
            iterations,
        });
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if row.len() != f.coef.len() {
            return Err(MlError::FeatureMismatch {
                expected: f.coef.len(),
                actual: row.len(),
            });
        }
        Ok(f.intercept + vup_linalg::vector::dot(&f.coef, row))
    }

    fn name(&self) -> &'static str {
        "Lasso"
    }

    fn clone_box(&self) -> Box<dyn Regressor + Send + Sync> {
        Box::new(self.clone())
    }

    fn save(&self) -> crate::SavedModel {
        crate::SavedModel::Lasso(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use crate::scaler::StandardScaler;
    use proptest::prelude::*;

    fn dataset(xs: &[&[f64]], y: &[f64]) -> Dataset {
        Dataset::new(Matrix::from_rows(xs).unwrap(), y.to_vec()).unwrap()
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(1.0, 1.0), 0.0);
    }

    #[test]
    fn near_zero_alpha_matches_ols() {
        let data = dataset(
            &[
                &[1.0, 2.0],
                &[2.0, 1.0],
                &[3.0, 4.0],
                &[4.0, 3.0],
                &[5.0, 6.0],
            ],
            &[8.0, 7.0, 14.0, 13.0, 20.0],
        );
        let mut ols = LinearRegression::new();
        ols.fit(&data).unwrap();
        let mut lasso = Lasso::new(LassoParams {
            alpha: 1e-10,
            tol: 1e-12,
            max_iter: 50_000,
        });
        lasso.fit(&data).unwrap();
        let co = ols.coefficients().unwrap();
        let cl = lasso.coefficients().unwrap();
        for (a, b) in co.iter().zip(cl) {
            assert!((a - b).abs() < 1e-4, "ols {co:?} vs lasso {cl:?}");
        }
    }

    #[test]
    fn large_alpha_shrinks_everything_to_zero() {
        let data = dataset(&[&[1.0], &[2.0], &[3.0], &[4.0]], &[1.1, 2.0, 2.9, 4.2]);
        let mut lasso = Lasso::new(LassoParams {
            alpha: 1e6,
            ..LassoParams::default()
        });
        lasso.fit(&data).unwrap();
        assert_eq!(lasso.n_active(), Some(0));
        // With all coefficients zero, prediction is the target mean.
        let p = lasso.predict_row(&[10.0]).unwrap();
        assert!((p - 2.55).abs() < 1e-9);
    }

    #[test]
    fn irrelevant_noise_feature_is_zeroed() {
        // y depends only on the first feature; second is tiny noise.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64 / 4.0;
                vec![t, ((i * 2654435761_usize) % 97) as f64 / 97.0 - 0.5]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let data = dataset(&refs, &y);
        let mut lasso = Lasso::new(LassoParams {
            alpha: 0.1,
            ..LassoParams::default()
        });
        lasso.fit(&data).unwrap();
        let c = lasso.coefficients().unwrap();
        assert!(c[0] > 2.5, "signal coefficient kept: {c:?}");
        assert_eq!(c[1], 0.0, "noise coefficient zeroed: {c:?}");
    }

    #[test]
    fn constant_feature_is_frozen_at_zero() {
        let data = dataset(&[&[1.0, 7.0], &[2.0, 7.0], &[3.0, 7.0]], &[1.0, 2.0, 3.0]);
        let mut lasso = Lasso::new(LassoParams {
            alpha: 0.001,
            ..LassoParams::default()
        });
        lasso.fit(&data).unwrap();
        assert_eq!(lasso.coefficients().unwrap()[1], 0.0);
    }

    #[test]
    fn parameter_validation() {
        let data = dataset(&[&[1.0], &[2.0]], &[1.0, 2.0]);
        for bad in [
            LassoParams {
                alpha: -1.0,
                ..LassoParams::default()
            },
            LassoParams {
                alpha: f64::NAN,
                ..LassoParams::default()
            },
            LassoParams {
                tol: 0.0,
                ..LassoParams::default()
            },
            LassoParams {
                max_iter: 0,
                ..LassoParams::default()
            },
        ] {
            assert!(Lasso::new(bad).fit(&data).is_err());
        }
        let unfitted = Lasso::paper();
        assert!(matches!(
            unfitted.predict_row(&[1.0]),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn reports_iterations_and_converges_fast_on_easy_data() {
        let data = dataset(&[&[0.0], &[1.0], &[2.0], &[3.0]], &[0.0, 1.0, 2.0, 3.0]);
        let mut lasso = Lasso::paper();
        lasso.fit(&data).unwrap();
        assert!(lasso.iterations().unwrap() < 100);
    }

    /// The residual formulation the covariance updates replace: `r` is
    /// kept in full and each coordinate step is an n-row dot product.
    fn residual_coordinate_descent(
        xc: &Matrix,
        yc: &[f64],
        params: &LassoParams,
    ) -> (Vec<f64>, usize) {
        let p = xc.cols();
        let cols: Vec<Vec<f64>> = (0..p).map(|j| xc.col(j)).collect();
        let col_sq: Vec<f64> = cols
            .iter()
            .map(|c| c.iter().map(|v| v * v).sum::<f64>())
            .collect();
        let n_alpha = params.alpha * xc.rows() as f64;
        let mut coef = vec![0.0; p];
        let mut residual = yc.to_vec();
        for sweep in 0..params.max_iter {
            let mut max_delta = 0.0_f64;
            for j in 0..p {
                if col_sq[j] == 0.0 {
                    continue;
                }
                let old = coef[j];
                let mut rho = 0.0;
                for (ri, &xij) in residual.iter().zip(&cols[j]) {
                    rho += xij * ri;
                }
                rho += col_sq[j] * old;
                let new = soft_threshold(rho, n_alpha) / col_sq[j];
                if new != old {
                    let delta = new - old;
                    for (ri, &xij) in residual.iter_mut().zip(&cols[j]) {
                        *ri -= delta * xij;
                    }
                    coef[j] = new;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta <= params.tol {
                return (coef, sweep + 1);
            }
        }
        (coef, params.max_iter)
    }

    proptest! {
        #[test]
        fn prop_covariance_updates_match_the_residual_oracle(
            rows in 10_usize..80,
            p in 1_usize..12,
            values in proptest::collection::vec(-3.0_f64..3.0, 151),
            weights in proptest::collection::vec(-2.0_f64..2.0, 12),
            noise in proptest::collection::vec(-0.5_f64..0.5, 37),
        ) {
            // A random design, standardized as the pipeline feeds Lasso;
            // the target leans on the first columns so some stay active.
            let flat: Vec<f64> = (0..rows * p).map(|k| values[k % values.len()]).collect();
            let x = Matrix::from_vec(rows, p, flat).unwrap();
            let x = StandardScaler::fit(&x).unwrap().transform(&x).unwrap();
            let y: Vec<f64> = (0..rows)
                .map(|i| {
                    let signal: f64 = x.row(i).iter().zip(&weights).map(|(a, w)| a * w).sum();
                    signal + noise[i % noise.len()]
                })
                .collect();
            let data = Dataset::new(x, y).unwrap();
            let (xc, _, yc, _) = center(data.x(), data.y());
            for alpha in [1e-3, 0.1, 1.0] {
                let params = LassoParams { alpha, ..LassoParams::default() };
                let (want, want_iterations) = residual_coordinate_descent(&xc, &yc, &params);
                let mut lasso = Lasso::new(params);
                lasso.fit(&data).unwrap();
                let got = lasso.coefficients().unwrap();
                for (a, b) in got.iter().zip(&want) {
                    prop_assert!(
                        (a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                        "alpha {}: {:?} vs oracle {:?}", alpha, got, want
                    );
                }
                prop_assert_eq!(lasso.iterations(), Some(want_iterations));
                let want_active = want.iter().filter(|&&c| c != 0.0).count();
                prop_assert_eq!(lasso.n_active(), Some(want_active));
            }
        }

        #[test]
        fn prop_alpha_monotonically_shrinks_l1_norm(
            seed_y in proptest::collection::vec(-5.0_f64..5.0, 12),
        ) {
            let rows: Vec<Vec<f64>> = (0..12)
                .map(|i| vec![i as f64, (i as f64 * 0.7).sin() * 3.0])
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let data = dataset(&refs, &seed_y);
            let mut norms = Vec::new();
            for alpha in [0.001, 0.1, 1.0, 10.0] {
                let mut l = Lasso::new(LassoParams { alpha, ..LassoParams::default() });
                l.fit(&data).unwrap();
                norms.push(vup_linalg::vector::norm1(l.coefficients().unwrap()));
            }
            for w in norms.windows(2) {
                prop_assert!(w[1] <= w[0] + 1e-8, "norms not monotone: {:?}", norms);
            }
        }
    }
}
