use crate::{LinalgError, Matrix, Result};

/// Householder QR decomposition of a tall (or square) matrix `A = Q R`.
///
/// The factorization is stored compactly: the Householder vectors live in
/// the lower trapezoid of `qr` and the upper triangle holds `R`. This is the
/// standard LAPACK-style layout; `Q` is never formed explicitly — instead
/// [`QrDecomposition::apply_qt`] applies `Qᵀ` to a right-hand side, which is
/// all least squares needs.
///
/// # Example
///
/// ```
/// use vup_linalg::{Matrix, QrDecomposition};
///
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
/// let qr = QrDecomposition::decompose(&a).unwrap();
/// let beta = qr.solve_lstsq(&[2.0, 3.0, 4.0]).unwrap();
/// assert!((beta[0] - 1.0).abs() < 1e-10); // intercept
/// assert!((beta[1] - 1.0).abs() < 1e-10); // slope
/// ```
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    qr: Matrix,
    /// Scalar `tau_k = 2 / (v_kᵀ v_k)`-style factors; here we store the
    /// leading element of each (normalized) Householder vector implicitly
    /// and keep the full vector in the lower trapezoid, so `tau` holds the
    /// conventional reflection coefficients.
    tau: Vec<f64>,
    rows: usize,
    cols: usize,
}

/// Relative pivot tolerance below which a column is declared dependent.
const RANK_TOL: f64 = 1e-10;

/// Column-tile width of the blocked reflector application: at most this
/// many trailing-column accumulators are kept live while the rows stream
/// through, so the scratch stays within one cache page even for wide
/// designs. See DESIGN.md §3f for the blocking contract.
const QR_COL_BLOCK: usize = 64;

impl QrDecomposition {
    /// Factorizes `a` (requires `rows >= cols` and a non-empty matrix).
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for wide matrices and
    /// [`LinalgError::Empty`] when `a` has no elements.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        Self::decompose_owned(a.clone())
    }

    /// [`QrDecomposition::decompose`] taking ownership of `a`, factoring
    /// in place instead of cloning — the entry point for hot paths that
    /// no longer need the design matrix afterwards.
    pub fn decompose_owned(a: Matrix) -> Result<Self> {
        Self::decompose_blocked(a, QR_COL_BLOCK)
    }

    /// The blocked factorization kernel. `col_block` only tiles the
    /// *schedule* of the reflector application; every `s_j = vᵀ a_j` is
    /// accumulated over ascending row indices exactly as in the
    /// column-at-a-time test oracle (`decompose_reference`), so the
    /// factors are bit-identical to it for every block width.
    fn decompose_blocked(a: Matrix, col_block: usize) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                op: "qr (requires rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        let mut qr = a;
        let mut tau = vec![0.0; n];
        // Reusable accumulator tile for the blocked application.
        let mut s = vec![0.0_f64; col_block.min(n)];
        let data = qr.as_mut_slice();
        for k in 0..n {
            // Compute the Householder reflector for column k, rows k..m.
            let mut norm = 0.0_f64;
            for i in k..m {
                let v = data[i * n + k];
                norm += v * v;
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0; // column already zero below the diagonal
                continue;
            }
            // Choose sign to avoid cancellation.
            let alpha = if data[k * n + k] >= 0.0 { -norm } else { norm };
            // v = x - alpha * e1, normalized so v[0] = 1.
            let v0 = data[k * n + k] - alpha;
            // tau = -v0 / alpha  (standard formula: tau = (alpha - x0)/alpha)
            tau[k] = -v0 / alpha;
            let inv_v0 = 1.0 / v0;
            for i in (k + 1)..m {
                data[i * n + k] *= inv_v0;
            }
            data[k * n + k] = alpha;
            // Apply the reflector to the remaining columns,
            // A := (I - tau v vᵀ) A for rows k..m, cols k+1..n, one
            // column tile at a time. Each tile makes two row-major
            // sweeps (accumulate, then update) instead of the reference
            // kernel's two stride-n column walks per trailing column.
            let mut jb = k + 1;
            while jb < n {
                let je = (jb + col_block).min(n);
                let width = je - jb;
                // Pass 1: s_j = a_kj + Σ_{i>k} v_ik · a_ij, rows ascending.
                s[..width].copy_from_slice(&data[k * n + jb..k * n + je]);
                for i in (k + 1)..m {
                    let row = &data[i * n..i * n + n];
                    let vik = row[k];
                    for (acc, &aij) in s[..width].iter_mut().zip(&row[jb..je]) {
                        *acc += vik * aij;
                    }
                }
                for acc in &mut s[..width] {
                    *acc *= tau[k];
                }
                // Pass 2: a_kj -= s_j; a_ij -= s_j · v_ik (one op per
                // element, so ordering cannot change the result).
                for (akj, &acc) in data[k * n + jb..k * n + je].iter_mut().zip(&s[..width]) {
                    *akj -= acc;
                }
                for i in (k + 1)..m {
                    let row = &mut data[i * n..i * n + n];
                    let vik = row[k];
                    for (aij, &acc) in row[jb..je].iter_mut().zip(&s[..width]) {
                        *aij -= acc * vik;
                    }
                }
                jb = je;
            }
        }
        Ok(QrDecomposition {
            qr,
            tau,
            rows: m,
            cols: n,
        })
    }

    /// The original column-at-a-time kernel, the test oracle for the
    /// blocked path: the equivalence proptests below assert the blocked
    /// factors match these bit for bit.
    // Index-based loops keep the reflector/rhs coupling explicit.
    #[cfg(test)]
    #[allow(clippy::needless_range_loop)]
    fn decompose_reference(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                op: "qr (requires rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Compute the Householder reflector for column k, rows k..m.
            let mut norm = 0.0_f64;
            for i in k..m {
                let v = qr[(i, k)];
                norm += v * v;
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0; // column already zero below the diagonal
                continue;
            }
            // Choose sign to avoid cancellation.
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            // v = x - alpha * e1, normalized so v[0] = 1.
            let v0 = qr[(k, k)] - alpha;
            // tau = -v0 / alpha  (standard formula: tau = (alpha - x0)/alpha)
            tau[k] = -v0 / alpha;
            let inv_v0 = 1.0 / v0;
            for i in (k + 1)..m {
                qr[(i, k)] *= inv_v0;
            }
            qr[(k, k)] = alpha;
            // Apply the reflector to the remaining columns:
            // A := (I - tau v vᵀ) A for rows k..m, cols k+1..n.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= tau[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(QrDecomposition {
            qr,
            tau,
            rows: m,
            cols: n,
        })
    }

    /// Shape of the factored matrix as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Applies `Qᵀ` to `b` in place (length must equal `rows`).
    // Index-based loops keep the reflector/rhs coupling explicit.
    #[allow(clippy::needless_range_loop)]
    pub fn apply_qt(&self, b: &mut [f64]) -> Result<()> {
        if b.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "apply_qt",
                lhs: (self.rows, self.cols),
                rhs: (b.len(), 1),
            });
        }
        for k in 0..self.cols {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut s = b[k];
            for i in (k + 1)..self.rows {
                s += self.qr[(i, k)] * b[i];
            }
            s *= self.tau[k];
            b[k] -= s;
            for i in (k + 1)..self.rows {
                b[i] -= s * self.qr[(i, k)];
            }
        }
        Ok(())
    }

    /// Back-substitutes `R x = y` using the first `cols` entries of `y`.
    ///
    /// Returns [`LinalgError::RankDeficient`] when a diagonal entry of `R`
    /// is (relatively) negligible.
    // Index-based loop keeps the i/j coupling of back-substitution clear.
    #[allow(clippy::needless_range_loop)]
    fn back_substitute(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.cols;
        let scale = self.qr.max_abs().max(1.0);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.qr[(i, j)] * x[j];
            }
            let rii = self.qr[(i, i)];
            if rii.abs() <= RANK_TOL * scale {
                return Err(LinalgError::RankDeficient { column: i });
            }
            x[i] = s / rii;
        }
        Ok(x)
    }

    /// Solves the least-squares problem `min_x ||A x - b||₂`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != rows` and
    /// [`LinalgError::RankDeficient`] when `A` lacks full column rank.
    pub fn solve_lstsq(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut y = b.to_vec();
        self.apply_qt(&mut y)?;
        self.back_substitute(&y)
    }

    /// Numerical rank estimate: the number of diagonal entries of `R` above
    /// the relative tolerance.
    pub fn rank(&self) -> usize {
        let scale = self.qr.max_abs().max(1.0);
        (0..self.cols)
            .filter(|&i| self.qr[(i, i)].abs() > RANK_TOL * scale)
            .count()
    }

    /// Extracts the upper-triangular factor `R` (`cols x cols`).
    pub fn r(&self) -> Matrix {
        let n = self.cols;
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }
}

/// One-shot least squares: solves `min_x ||A x - b||₂` via Householder QR.
///
/// This is the entry point the OLS regressor in `vup-ml` uses.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    QrDecomposition::decompose(a)?.solve_lstsq(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = lstsq(&a, &[5.0, 10.0]).unwrap();
        // Solution of [2 1; 1 3] x = [5; 10] is [1, 3].
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_regression_line() {
        // y = 3 + 2 t with noise-free points: least squares must be exact.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![1.0, t]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let b: Vec<f64> = ts.iter().map(|&t| 3.0 + 2.0 * t).collect();
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[1.0, 1.5], &[1.0, 2.5], &[1.0, 4.0]]).unwrap();
        let b = [1.0, 2.0, 2.0, 5.0];
        let x = lstsq(&a, &b).unwrap();
        let pred = a.matvec(&x).unwrap();
        let resid: Vec<f64> = b.iter().zip(&pred).map(|(&bi, &pi)| bi - pi).collect();
        let atr = a.matvec_t(&resid).unwrap();
        assert!(atr.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn detects_rank_deficiency() {
        // Second column is twice the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        assert!(matches!(
            lstsq(&a, &[1.0, 2.0, 3.0]),
            Err(LinalgError::RankDeficient { .. })
        ));
        let qr = QrDecomposition::decompose(&a).unwrap();
        assert_eq!(qr.rank(), 1);
    }

    #[test]
    fn rejects_wide_and_empty() {
        assert!(matches!(
            QrDecomposition::decompose(&Matrix::zeros(2, 3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            QrDecomposition::decompose(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn rhs_length_is_validated() {
        let a = Matrix::identity(3);
        let qr = QrDecomposition::decompose(&a).unwrap();
        assert!(qr.solve_lstsq(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn r_is_upper_triangular_and_reconstructs_gram() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 7.0]]).unwrap();
        let qr = QrDecomposition::decompose(&a).unwrap();
        let r = qr.r();
        // RᵀR must equal AᵀA (since QᵀQ = I).
        let rtr = r.transpose().matmul(&r).unwrap();
        let ata = a.gram();
        assert!(rtr.sub(&ata).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn handles_column_with_zero_tail() {
        // First column is e1: reflector for it degenerates gracefully.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0], &[0.0, 1.0]]).unwrap();
        let x = lstsq(&a, &[2.0, 1.0, 1.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    proptest! {
        #[test]
        fn prop_lstsq_recovers_planted_coefficients(
            coeffs in proptest::collection::vec(-4.0_f64..4.0, 3),
            xs in proptest::collection::vec(-10.0_f64..10.0, 24),
        ) {
            // Build a 12x3 design matrix with an intercept-like first column
            // jittered so that columns are independent almost surely.
            let mut rows = Vec::new();
            for chunk in xs.chunks_exact(2) {
                rows.push(vec![1.0 + 0.01 * chunk[0] * chunk[1], chunk[0], chunk[1]]);
            }
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let a = Matrix::from_rows(&refs).unwrap();
            let qr = QrDecomposition::decompose(&a).unwrap();
            prop_assume!(qr.rank() == 3);
            let b = a.matvec(&coeffs).unwrap();
            let x = qr.solve_lstsq(&b).unwrap();
            prop_assert!(crate::vector::max_abs_diff(&x, &coeffs) < 1e-6);
        }

        #[test]
        fn prop_qt_preserves_norm(
            data in proptest::collection::vec(-5.0_f64..5.0, 12),
            rhs in proptest::collection::vec(-5.0_f64..5.0, 4),
        ) {
            let a = Matrix::from_vec(4, 3, data).unwrap();
            let qr = match QrDecomposition::decompose(&a) {
                Ok(qr) => qr,
                Err(_) => return Ok(()),
            };
            let before = crate::vector::norm2(&rhs);
            let mut after = rhs.clone();
            qr.apply_qt(&mut after).unwrap();
            prop_assert!((crate::vector::norm2(&after) - before).abs() < 1e-8 * (1.0 + before));
        }

        /// Equivalence gate for the speed pass: the blocked row-major
        /// kernel must reproduce the reference factorization *bit for
        /// bit* (no tolerance) — each trailing column's `s_j = vᵀ a_j` is
        /// accumulated over ascending row indices in both kernels, so the
        /// rounding sequence is identical. Tile widths 1, 2, and 5
        /// straddle block boundaries on an 11x8 design; the default
        /// `QR_COL_BLOCK` path is covered too.
        #[test]
        fn prop_blocked_factor_bit_identical_to_reference(
            data in proptest::collection::vec(-5.0_f64..5.0, 88),
            rhs in proptest::collection::vec(-5.0_f64..5.0, 11),
        ) {
            let a = Matrix::from_vec(11, 8, data).unwrap();
            let reference = QrDecomposition::decompose_reference(&a).unwrap();
            for block in [1, 2, 5, QR_COL_BLOCK] {
                let blocked =
                    QrDecomposition::decompose_blocked(a.clone(), block).unwrap();
                prop_assert_eq!(
                    blocked.qr.as_slice(),
                    reference.qr.as_slice(),
                    "factor diverged at col_block={}", block
                );
                prop_assert_eq!(&blocked.tau, &reference.tau);
                prop_assert_eq!(blocked.rank(), reference.rank());
                if reference.rank() == 8 {
                    let xb = blocked.solve_lstsq(&rhs).unwrap();
                    let xr = reference.solve_lstsq(&rhs).unwrap();
                    prop_assert_eq!(xb, xr);
                }
            }
        }
    }
}
