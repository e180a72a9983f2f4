//! Ordinary least squares (the paper's "LR").
//!
//! Coefficients solve `min_β ‖y − Xβ − β₀‖²`. The intercept is handled by
//! centering: the system is solved on mean-centered features and targets,
//! then `β₀ = ȳ − x̄ᵀβ`. The primary solver is Householder QR; when the
//! centered design is rank deficient (common with windowed lag features,
//! e.g. duplicated calendar columns), the fit falls back to a tiny-ridge
//! normal-equation solve — Cholesky of the shifted Gram matrix — which is
//! what scikit-learn's `lstsq`-based pseudo-inverse effectively does for
//! degenerate designs.
//!
//! **Zero-column shortcut.** A centered column that is exactly zero — a
//! day-of-week or holiday one-hot that never occurs in the window, which
//! centering leaves as exact `0.0` — makes that QR fail for certain:
//! every Householder update adds `s·v` with `s = τ·vᵀ0 = 0`, so the
//! column stays zero, `R_jj = 0`, and back-substitution reports
//! `RankDeficient`. Such designs go straight to the ridge solve, skipping
//! a factorization whose result is already known; the coefficients are
//! bit-identical to running QR first. The shortcut only fires when every
//! entry is finite and far enough from overflow that no Householder norm
//! can overflow (which could turn the zero column into NaN); designs with
//! no zero column keep the QR → ridge sequence unchanged.

use serde::{Deserialize, Serialize};
use vup_linalg::{lstsq, Cholesky, LinalgError, Matrix};

use crate::{Dataset, MlError, Regressor, Result};

/// Ridge shift (relative to the Gram diagonal scale) used when the design
/// matrix lacks full column rank.
const FALLBACK_RIDGE: f64 = 1e-8;

/// Ordinary-least-squares linear regression with intercept.
///
/// # Example
///
/// ```
/// use vup_linalg::Matrix;
/// use vup_ml::{Dataset, Regressor};
/// use vup_ml::linear::LinearRegression;
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
/// let data = Dataset::new(x, vec![1.0, 3.0, 5.0, 7.0]).unwrap();
/// let mut lr = LinearRegression::new();
/// lr.fit(&data).unwrap();
/// let pred = lr.predict_row(&[4.0]).unwrap();
/// assert!((pred - 9.0).abs() < 1e-8);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinearRegression {
    fitted: Option<FittedLinear>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct FittedLinear {
    coef: Vec<f64>,
    intercept: f64,
}

impl LinearRegression {
    /// Creates an unfitted model.
    pub fn new() -> Self {
        LinearRegression { fitted: None }
    }

    /// Fitted coefficients (one per feature), or `None` before fitting.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.fitted.as_ref().map(|f| f.coef.as_slice())
    }

    /// Fitted intercept, or `None` before fitting.
    pub fn intercept(&self) -> Option<f64> {
        self.fitted.as_ref().map(|f| f.intercept)
    }
}

/// Centers the columns of `x` and the targets `y`; returns the centered
/// copies along with the column means and target mean.
pub(crate) fn center(x: &Matrix, y: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>, f64) {
    let n = x.rows() as f64;
    let p = x.cols();
    let mut col_means = vec![0.0; p];
    for row in x.iter_rows() {
        for (m, &v) in col_means.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut col_means {
        *m /= n;
    }
    let mut xc = x.clone();
    for i in 0..xc.rows() {
        let row = xc.row_mut(i);
        for (v, &m) in row.iter_mut().zip(&col_means) {
            *v -= m;
        }
    }
    let y_mean = y.iter().sum::<f64>() / n;
    let yc: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();
    (xc, col_means, yc, y_mean)
}

impl Regressor for LinearRegression {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        let (x, y) = (data.x(), data.y());
        if data.len() < 2 {
            return Err(MlError::NotEnoughSamples {
                required: 2,
                actual: data.len(),
            });
        }
        if data.n_features() == 0 {
            return Err(MlError::InvalidParameter {
                name: "x",
                reason: "design matrix has no feature columns".into(),
            });
        }
        let (xc, col_means, yc, y_mean) = center(x, y);

        let coef = solve_centered(&xc, &yc)?;
        let intercept = y_mean - vup_linalg::vector::dot(&coef, &col_means);
        self.fitted = Some(FittedLinear { coef, intercept });
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
        "LR"
    }

    fn clone_box(&self) -> Box<dyn Regressor + Send + Sync> {
        Box::new(self.clone())
    }

    fn save(&self) -> crate::SavedModel {
        crate::SavedModel::Linear(self.clone())
    }
}

/// Least squares on the centered design: Householder QR, or the ridge
/// solve when QR reports rank deficiency, when the system is
/// underdetermined (QR needs rows > cols), or when QR is certain to
/// report rank deficiency (see [`qr_must_fail`]).
fn solve_centered(xc: &Matrix, yc: &[f64]) -> Result<Vec<f64>> {
    if xc.rows() > xc.cols() && !qr_must_fail(xc) {
        match lstsq(xc, yc) {
            Ok(c) => return Ok(c),
            Err(LinalgError::RankDeficient { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    ridge_solve(xc, yc)
}

/// Whether Householder QR of `xc` must report rank deficiency: some
/// column is exactly zero, and every entry is at most `√(MAX / 2m)` in
/// magnitude. That bound keeps every column's sum of squares at most
/// `MAX / 2`, and Householder reflections never grow a column's norm
/// beyond rounding, so no reflector overflows and the zero column
/// stays exactly zero. NaN and infinite entries fail the bound and are
/// left to QR.
fn qr_must_fail(xc: &Matrix) -> bool {
    let limit = (f64::MAX / (2 * xc.rows()) as f64).sqrt();
    let mut nonzero = vec![false; xc.cols()];
    for row in xc.iter_rows() {
        for (nz, &v) in nonzero.iter_mut().zip(row) {
            if v.is_nan() || v.abs() > limit {
                return false;
            }
            *nz |= v != 0.0;
        }
    }
    nonzero.contains(&false)
}

/// Solves `(XᵀX + λ·s·I) β = Xᵀy` with `s` the mean Gram diagonal, giving a
/// scale-invariant tiny ridge that regularizes away exact collinearity.
fn ridge_solve(xc: &Matrix, yc: &[f64]) -> Result<Vec<f64>> {
    let mut gram = xc.gram();
    let p = gram.rows();
    let diag_scale = (0..p).map(|i| gram[(i, i)]).sum::<f64>() / p as f64;
    gram.shift_diagonal(FALLBACK_RIDGE * diag_scale.max(1.0));
    let xty = xc.matvec_t(yc)?;
    let chol = Cholesky::decompose(&gram)?;
    Ok(chol.solve(&xty)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaler::StandardScaler;
    use proptest::prelude::*;

    fn fit_on(xs: &[&[f64]], y: &[f64]) -> LinearRegression {
        let x = Matrix::from_rows(xs).unwrap();
        let data = Dataset::new(x, y.to_vec()).unwrap();
        let mut lr = LinearRegression::new();
        lr.fit(&data).unwrap();
        lr
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        let lr = fit_on(
            &[&[1.0, 2.0], &[2.0, 1.0], &[3.0, 4.0], &[4.0, 3.0]],
            &[8.0, 6.0, 16.0, 14.0], // y = 1 + x1 + 3*x2
        );
        let c = lr.coefficients().unwrap();
        assert!((c[0] - 1.0).abs() < 1e-8, "coef {c:?}");
        assert!((c[1] - 3.0).abs() < 1e-8);
        assert!((lr.intercept().unwrap() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn handles_collinear_columns_via_ridge_fallback() {
        // Second column duplicates the first: QR reports rank deficiency.
        let lr = fit_on(
            &[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0], &[4.0, 4.0]],
            &[2.0, 4.0, 6.0, 8.0],
        );
        // Prediction still matches y = 2*x even if coefficients split the
        // weight across the duplicated columns.
        let p = lr.predict_row(&[5.0, 5.0]).unwrap();
        assert!((p - 10.0).abs() < 1e-4, "pred {p}");
    }

    #[test]
    fn underdetermined_systems_use_ridge_path() {
        // 2 samples, 3 features.
        let lr = fit_on(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0]], &[1.0, 2.0]);
        // Must interpolate the training points closely.
        assert!((lr.predict_row(&[1.0, 0.0, 2.0]).unwrap() - 1.0).abs() < 1e-3);
        assert!((lr.predict_row(&[0.0, 1.0, 1.0]).unwrap() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn constant_feature_gets_zero_like_weight() {
        let lr = fit_on(
            &[&[1.0, 5.0], &[2.0, 5.0], &[3.0, 5.0], &[4.0, 5.0]],
            &[2.0, 4.0, 6.0, 8.0],
        );
        assert!((lr.predict_row(&[10.0, 5.0]).unwrap() - 20.0).abs() < 1e-4);
    }

    #[test]
    fn validation_errors() {
        let mut lr = LinearRegression::new();
        assert!(matches!(lr.predict_row(&[1.0]), Err(MlError::NotFitted)));

        let x = Matrix::from_rows(&[&[1.0]]).unwrap();
        let one = Dataset::new(x, vec![1.0]).unwrap();
        assert!(matches!(
            lr.fit(&one),
            Err(MlError::NotEnoughSamples { .. })
        ));

        let fitted = fit_on(&[&[1.0], &[2.0], &[3.0]], &[1.0, 2.0, 3.0]);
        assert!(matches!(
            fitted.predict_row(&[1.0, 2.0]),
            Err(MlError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn predict_matrix_matches_rowwise() {
        let lr = fit_on(&[&[0.0], &[1.0], &[2.0]], &[1.0, 2.0, 3.0]);
        let x = Matrix::from_rows(&[&[3.0], &[4.0]]).unwrap();
        let batch = lr.predict(&x).unwrap();
        assert!((batch[0] - 4.0).abs() < 1e-8);
        assert!((batch[1] - 5.0).abs() < 1e-8);
    }

    /// The QR-first sequence without the zero-column shortcut: QR, then
    /// the ridge solve on rank deficiency or an underdetermined system.
    fn reference_fit(data: &Dataset) -> Result<(Vec<f64>, f64)> {
        let (xc, col_means, yc, y_mean) = center(data.x(), data.y());
        let coef = if data.len() > data.n_features() {
            match lstsq(&xc, &yc) {
                Ok(c) => c,
                Err(LinalgError::RankDeficient { .. }) => ridge_solve(&xc, &yc)?,
                Err(e) => return Err(e.into()),
            }
        } else {
            ridge_solve(&xc, &yc)?
        };
        let intercept = y_mean - vup_linalg::vector::dot(&coef, &col_means);
        Ok((coef, intercept))
    }

    /// Fits `data` both ways; the outcomes must agree bit for bit.
    fn assert_bit_identical_to_reference(data: &Dataset) {
        let mut lr = LinearRegression::new();
        let fitted = lr
            .fit(data)
            .map(|()| (lr.coefficients().unwrap().to_vec(), lr.intercept().unwrap()));
        match (fitted, reference_fit(data)) {
            (Ok((coef, intercept)), Ok((ref_coef, ref_intercept))) => {
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&coef), bits(&ref_coef), "{coef:?} vs {ref_coef:?}");
                assert_eq!(intercept.to_bits(), ref_intercept.to_bits());
            }
            (Err(e), Err(ref_e)) => assert_eq!(format!("{e:?}"), format!("{ref_e:?}")),
            (got, want) => panic!("fit {got:?} vs reference {want:?}"),
        }
    }

    /// Builds a `rows × kinds.len()` design; column `j` is random
    /// (`kinds[j] == 0`), all zero (`1`) or the constant `consts[j]` (`2`).
    fn design(rows: usize, kinds: &[u8], values: &[f64], consts: &[f64]) -> Matrix {
        let p = kinds.len();
        let mut flat = Vec::with_capacity(rows * p);
        for i in 0..rows {
            for (j, &kind) in kinds.iter().enumerate() {
                flat.push(match kind {
                    0 => values[(i * p + j) % values.len()],
                    1 => 0.0,
                    _ => consts[j],
                });
            }
        }
        Matrix::from_vec(rows, p, flat).unwrap()
    }

    fn check_design(rows: usize, kinds: &[u8], values: &[f64], consts: &[f64]) {
        let x = design(rows, kinds, values, consts);
        let y: Vec<f64> = (0..rows)
            .map(|i| values[(7 * i + 3) % values.len()])
            .collect();
        // Raw, and standardized the way the pipeline feeds LR.
        let scaled = StandardScaler::fit(&x).unwrap().transform(&x).unwrap();
        for x in [x, scaled] {
            assert_bit_identical_to_reference(&Dataset::new(x, y.clone()).unwrap());
        }
    }

    #[test]
    fn shortcut_fires_exactly_on_zero_columns_without_overflow() {
        let centered = |xs: &[&[f64]]| center(&Matrix::from_rows(xs).unwrap(), &[0.0; 3]).0;
        // A one-hot that never occurs, and a constant the scaler zeroes.
        assert!(qr_must_fail(&centered(&[
            &[1.0, 0.0],
            &[2.0, 0.0],
            &[4.0, 0.0]
        ])));
        let x = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 3.0], &[4.0, 3.0]]).unwrap();
        let scaled = StandardScaler::fit(&x).unwrap().transform(&x).unwrap();
        assert!(qr_must_fail(&scaled));
        // No zero column, or squares that overflow: QR runs.
        assert!(!qr_must_fail(&centered(&[
            &[1.0, 0.0],
            &[2.0, 1.0],
            &[4.0, 0.0]
        ])));
        let huge = centered(&[&[1e200, 0.0], &[-1e200, 0.0], &[3e200, 0.0]]);
        assert!(!qr_must_fail(&huge));
        assert!(!qr_must_fail(&centered(&[
            &[f64::NAN, 0.0],
            &[1.0, 0.0],
            &[2.0, 0.0]
        ])));
    }

    #[test]
    fn overflowing_design_takes_the_qr_path_like_the_reference() {
        let x = Matrix::from_rows(&[
            &[1e200, 0.0, 1.0],
            &[-2e200, 0.0, 2.0],
            &[3e200, 0.0, 0.5],
            &[5e199, 0.0, 4.0],
        ])
        .unwrap();
        assert_bit_identical_to_reference(&Dataset::new(x, vec![1.0, 2.0, 3.0, 4.0]).unwrap());
    }

    proptest! {
        #[test]
        fn prop_fit_is_bit_identical_to_the_qr_first_sequence(
            rows in 2_usize..40,
            kinds in proptest::collection::vec(0_u8..3, 1..8),
            values in proptest::collection::vec(-10.0_f64..10.0, 64),
            consts in proptest::collection::vec(-10.0_f64..10.0, 8),
        ) {
            check_design(rows, &kinds, &values, &consts);
        }

        #[test]
        fn prop_fit_without_zero_columns_is_bit_identical(
            rows in 9_usize..40,
            p in 1_usize..8,
            values in proptest::collection::vec(-10.0_f64..10.0, 97),
        ) {
            check_design(rows, &vec![0; p], &values, &[]);
        }

        #[test]
        fn prop_underdetermined_fit_is_bit_identical(
            rows in 2_usize..6,
            kinds in proptest::collection::vec(0_u8..3, 6..10),
            values in proptest::collection::vec(-10.0_f64..10.0, 64),
            consts in proptest::collection::vec(-10.0_f64..10.0, 10),
        ) {
            check_design(rows, &kinds, &values, &consts);
        }

        #[test]
        fn prop_recovers_planted_model_from_clean_data(
            w0 in -5.0_f64..5.0,
            w1 in -5.0_f64..5.0,
            w2 in -5.0_f64..5.0,
            pts in proptest::collection::vec((-10.0_f64..10.0, -10.0_f64..10.0), 8..30),
        ) {
            // Require some spread so the design has full rank.
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - xs.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assume!(spread > 1.0);
            let ys2: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let spread2 = ys2.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - ys2.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assume!(spread2 > 1.0);

            let mut flat = Vec::with_capacity(pts.len() * 2);
            for &(a, b) in &pts {
                flat.push(a);
                flat.push(b);
            }
            let x = Matrix::from_vec(pts.len(), 2, flat).unwrap();
            let y: Vec<f64> = pts.iter().map(|&(a, b)| w0 + w1 * a + w2 * b).collect();
            let data = Dataset::new(x, y).unwrap();
            let mut lr = LinearRegression::new();
            lr.fit(&data).unwrap();
            let p = lr.predict_row(&[0.5, -0.5]).unwrap();
            let truth = w0 + 0.5 * w1 - 0.5 * w2;
            prop_assert!((p - truth).abs() < 1e-5, "pred {} vs {}", p, truth);
        }
    }
}
