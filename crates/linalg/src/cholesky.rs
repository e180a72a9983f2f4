use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L * Lᵀ` of a symmetric positive-definite
/// matrix, storing the lower-triangular factor `L`.
///
/// Used by the ridge-regularized normal-equation path of the linear models
/// in `vup-ml`, where the Gram matrix `XᵀX + λI` is SPD by construction.
///
/// # Example
///
/// ```
/// use vup_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
/// let chol = Cholesky::decompose(&a).unwrap();
/// let x = chol.solve(&[8.0, 7.0]).unwrap();
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored dense (upper triangle is zero).
    l: Matrix,
}

/// Row-tile height of the blocked trailing update: the rows below the
/// pivot are walked in tiles of this many, keeping the pivot row's prefix
/// hot in cache while each tile streams past it. Pure scheduling — see
/// DESIGN.md §3f for why every tile height factors bit-identically.
const CHOL_ROW_BLOCK: usize = 48;

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (the Gram construction in this workspace
    /// guarantees it). Returns:
    /// - [`LinalgError::NotSquare`] for rectangular input,
    /// - [`LinalgError::Empty`] for a 0x0 matrix,
    /// - [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive
    ///   or not finite.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        Self::decompose_blocked(a, CHOL_ROW_BLOCK)
    }

    /// The blocked left-looking kernel. Both inner dot products run over
    /// contiguous row prefixes as plain slice folds with ascending `k`,
    /// exactly the accumulation order of the scalar test oracle
    /// (`decompose_reference`), so the factor is bit-identical to it for
    /// every `row_block`.
    fn decompose_blocked(a: &Matrix, row_block: usize) -> Result<Self> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let src = a.as_slice();
        let mut l = Matrix::zeros(n, n);
        let data = l.as_mut_slice();
        for j in 0..n {
            // Diagonal pivot: a_jj - sum_k l_jk^2, over row j's prefix.
            let mut d = src[j * n + j];
            for &ljk in &data[j * n..j * n + j] {
                d -= ljk * ljk;
            }
            if !(d.is_finite() && d > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let ljj = d.sqrt();
            data[j * n + j] = ljj;
            // Trailing rows i > j, in tiles: each element is one
            // prefix-dot against row j, independent of the others, so the
            // tile schedule only affects locality, never values.
            let (head, tail) = data.split_at_mut((j + 1) * n);
            let row_j = &head[j * n..j * n + j];
            let mut ib = j + 1;
            while ib < n {
                let ie = (ib + row_block).min(n);
                for i in ib..ie {
                    let base = (i - j - 1) * n;
                    let row_i = &mut tail[base..base + n];
                    let mut s = src[i * n + j];
                    for (&lik, &ljk) in row_i[..j].iter().zip(row_j) {
                        s -= lik * ljk;
                    }
                    row_i[j] = s / ljj;
                }
                ib = ie;
            }
        }
        Ok(Cholesky { l })
    }

    /// The original scalar kernel, the test oracle for the blocked path:
    /// the equivalence proptests below assert the blocked factor matches
    /// this bit for bit.
    #[cfg(test)]
    fn decompose_reference(a: &Matrix) -> Result<Self> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal pivot: a_jj - sum_k l_jk^2.
            let mut d = a[(j, j)];
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            if !(d.is_finite() && d > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let ljj = d.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward then backward substitution.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != dim()`.
    // Index-based loops keep the k/i coupling between factors explicit.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let mut s = y[i];
            for k in 0..i {
                s -= row[k] * y[k];
            }
            y[i] = s / row[i];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn factor_reconstructs_input() {
        let a =
            Matrix::from_rows(&[&[6.0, 3.0, 4.0], &[3.0, 6.0, 5.0], &[4.0, 5.0, 10.0]]).unwrap();
        let chol = Cholesky::decompose(&a).unwrap();
        let l = chol.factor();
        let recon = l.matmul(&l.transpose()).unwrap();
        assert!(recon.sub(&a).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn solve_matches_known_solution() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let chol = Cholesky::decompose(&a).unwrap();
        // A * [1.25, 1.5] = [8, 7]
        let x = chol.solve(&[8.0, 7.0]).unwrap();
        assert!((x[0] - 1.25).abs() < 1e-12);
        assert!((x[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // indefinite
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let zero = Matrix::zeros(2, 2);
        assert!(Cholesky::decompose(&zero).is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            Cholesky::decompose(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Cholesky::decompose(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn solve_validates_rhs_length() {
        let chol = Cholesky::decompose(&Matrix::identity(2)).unwrap();
        assert!(chol.solve(&[1.0]).is_err());
    }

    /// Builds a random SPD matrix as Bᵀ B + n·I from a flat coefficient list.
    fn spd_from(coeffs: &[f64], n: usize) -> Matrix {
        let b = Matrix::from_vec(n, n, coeffs.to_vec()).unwrap();
        let mut g = b.gram();
        g.shift_diagonal(n as f64);
        g
    }

    proptest! {
        #[test]
        fn prop_solve_residual_is_small(
            coeffs in proptest::collection::vec(-3.0_f64..3.0, 9),
            rhs in proptest::collection::vec(-5.0_f64..5.0, 3),
        ) {
            let a = spd_from(&coeffs, 3);
            let chol = Cholesky::decompose(&a).unwrap();
            let x = chol.solve(&rhs).unwrap();
            let ax = a.matvec(&x).unwrap();
            prop_assert!(crate::vector::max_abs_diff(&ax, &rhs) < 1e-8);
        }

        #[test]
        fn prop_factor_is_lower_triangular(
            coeffs in proptest::collection::vec(-3.0_f64..3.0, 16),
        ) {
            let a = spd_from(&coeffs, 4);
            let chol = Cholesky::decompose(&a).unwrap();
            let l = chol.factor();
            for i in 0..4 {
                for j in (i + 1)..4 {
                    prop_assert_eq!(l[(i, j)], 0.0);
                }
            }
        }

        /// Equivalence gate for the speed pass: the blocked kernel must
        /// reproduce the reference factor *bit for bit* (no tolerance) —
        /// both kernels accumulate each prefix dot in the same ascending-k
        /// order, so even the rounding is identical. Tile heights 1, 2,
        /// and 5 all straddle block boundaries at n = 7; the default
        /// `CHOL_ROW_BLOCK` path is covered too.
        #[test]
        fn prop_blocked_factor_bit_identical_to_reference(
            coeffs in proptest::collection::vec(-3.0_f64..3.0, 49),
            rhs in proptest::collection::vec(-5.0_f64..5.0, 7),
        ) {
            let a = spd_from(&coeffs, 7);
            let reference = Cholesky::decompose_reference(&a).unwrap();
            for block in [1, 2, 5, CHOL_ROW_BLOCK] {
                let blocked = Cholesky::decompose_blocked(&a, block).unwrap();
                prop_assert_eq!(
                    blocked.factor().as_slice(),
                    reference.factor().as_slice(),
                    "factor diverged at row_block={}", block
                );
                let xb = blocked.solve(&rhs).unwrap();
                let xr = reference.solve(&rhs).unwrap();
                prop_assert_eq!(xb, xr);
            }
        }
    }
}
