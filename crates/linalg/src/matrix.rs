use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, Result};

/// A dense, row-major, heap-allocated matrix of `f64` values.
///
/// Storage is a single contiguous `Vec<f64>` of length `rows * cols`;
/// element `(i, j)` lives at offset `i * cols + j`. Row access therefore
/// yields contiguous slices, which is what the regression hot loops in
/// `vup-ml` iterate over.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// Returns [`LinalgError::BadDimensions`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::BadDimensions {
                shape: (rows, cols),
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// Returns [`LinalgError::Empty`] for an empty row list and
    /// [`LinalgError::BadDimensions`] when row lengths differ.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::Empty);
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(LinalgError::BadDimensions {
                    shape: (nrows, ncols),
                    len: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i` as a contiguous slice. Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`. Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector. Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Checked element access; returns `None` when out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Iterator over rows as contiguous slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols != rhs.rows`.
    /// Uses the cache-friendly i-k-j loop order over contiguous rows.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| crate::vector::dot(row, v))
            .collect())
    }

    /// Transposed matrix-vector product `selfᵀ * v`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.rows`.
    pub fn matvec_t(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_t",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (row, &vi) in self.iter_rows().zip(v) {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(row) {
                *o += vi * a;
            }
        }
        Ok(out)
    }

    /// Computes the Gram matrix `selfᵀ * self` (symmetric, `cols x cols`).
    ///
    /// Entry `(j, k)`, `j <= k`, is `Σ_i x_ij · x_ik`: one rounded product
    /// and one rounded add per row `i`, in ascending `i`, starting from
    /// `+0.0`, with rows whose `x_ij` is zero left out. The upper triangle
    /// is computed in 4×4 register tiles and mirrored into the lower one.
    /// The tiling changes only which entries share a pass over the rows,
    /// never an entry's own sum, so every finite entry is the same bits
    /// on every CPU (a NaN's payload is left to the platform).
    pub fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut out = Matrix::zeros(p, p);
        gram_upper(&self.data, p, &mut out.data);
        // Leaving out a zero `x_ij` changes the sum only when `x_ik` is
        // infinite or NaN (`0 · inf` is NaN); with finite input it adds
        // `±0` to a sum that starts at `+0.0`, which changes nothing. A
        // non-finite `x_ij` makes diagonal entry `j` non-finite, so the
        // diagonal tells whether the skip must be taken.
        if !(0..p).all(|j| out.data[j * p + j].is_finite()) {
            gram_tiles::<true>(&self.data, p, &mut out.data);
        }
        for j in 0..p {
            for k in (j + 1)..p {
                out.data[k * p + j] = out.data[j * p + k];
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// Adds `s` to each diagonal element in place (ridge shift).
    /// Panics if the matrix is not square.
    pub fn shift_diagonal(&mut self, s: f64) {
        assert_eq!(
            self.rows, self.cols,
            "shift_diagonal requires square matrix"
        );
        for i in 0..self.rows {
            self.data[i * self.cols + i] += s;
        }
    }

    /// Maximum absolute element, or 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Stacks another matrix with the same number of columns below `self`.
    pub fn vstack(&self, below: &Matrix) -> Result<Matrix> {
        if self.cols != below.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: below.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + below.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&below.data);
        Matrix::from_vec(self.rows + below.rows, self.cols, data)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX_ROWS: usize = 8;
        for (i, row) in self.iter_rows().enumerate().take(MAX_ROWS) {
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            writeln!(f, "]{}", if i + 1 < self.rows { "," } else { "" })?;
        }
        if self.rows > MAX_ROWS {
            writeln!(f, "  ... ({} more rows)", self.rows - MAX_ROWS)?;
        }
        write!(f, "]")
    }
}

// Manual serde impls (not derived): the fields are private to protect the
// `data.len() == rows * cols` invariant, and deserialization must re-check
// it rather than trust the wire format.
impl serde::Serialize for Matrix {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("rows".to_string(), self.rows.to_content()),
            ("cols".to_string(), self.cols.to_content()),
            ("data".to_string(), self.data.to_content()),
        ])
    }
}

impl serde::Deserialize for Matrix {
    fn from_content(content: &serde::Content) -> std::result::Result<Self, serde::DeError> {
        let rows = usize::from_content(content.field("rows"))?;
        let cols = usize::from_content(content.field("cols"))?;
        let data = Vec::<f64>::from_content(content.field("data"))?;
        Matrix::from_vec(rows, cols, data).map_err(serde::DeError::new)
    }
}

/// Writes the upper triangle of `xᵀx` for the row-major `x` with `p`
/// columns into `out` (`p x p`), without the zero skip, on the widest
/// vector unit the CPU offers. Both instantiations compile the same
/// [`gram_tiles`] source, and neither enables FMA, so they agree bit
/// for bit.
fn gram_upper(x: &[f64], p: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { gram_upper_avx2(x, p, out) };
    }
    gram_tiles::<false>(x, p, out);
}

/// [`gram_tiles`] compiled for AVX2: each 4-wide tile row is one `ymm`
/// accumulator.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gram_upper_avx2(x: &[f64], p: usize, out: &mut [f64]) {
    gram_tiles::<false>(x, p, out);
}

/// Fills the upper triangle of `out` (and the lower half of the diagonal
/// tiles, which the caller overwrites by mirroring) tile by tile: 4×4
/// tiles, then 3-, 2- or 1-wide tiles along the right and bottom edges
/// when `p mod 4 ≠ 0`. With `SKIP_ZEROS`, a row whose `x_ij` is zero
/// adds nothing to the entries of row `j`, as [`Matrix::gram`] documents.
#[inline(always)]
fn gram_tiles<const SKIP_ZEROS: bool>(x: &[f64], p: usize, out: &mut [f64]) {
    let full = p - p % 4;
    for j0 in (0..full).step_by(4) {
        for k0 in (j0..full).step_by(4) {
            gram_tile::<4, 4, SKIP_ZEROS>(x, p, j0, k0, out);
        }
        match p % 4 {
            1 => gram_tile::<4, 1, SKIP_ZEROS>(x, p, j0, full, out),
            2 => gram_tile::<4, 2, SKIP_ZEROS>(x, p, j0, full, out),
            3 => gram_tile::<4, 3, SKIP_ZEROS>(x, p, j0, full, out),
            _ => {}
        }
    }
    match p % 4 {
        1 => gram_tile::<1, 1, SKIP_ZEROS>(x, p, full, full, out),
        2 => gram_tile::<2, 2, SKIP_ZEROS>(x, p, full, full, out),
        3 => gram_tile::<3, 3, SKIP_ZEROS>(x, p, full, full, out),
        _ => {}
    }
}

/// One `R x C` tile at `(j0, k0)`: every entry keeps its own accumulator,
/// summed over all rows in ascending order, then stored once.
#[inline(always)]
fn gram_tile<const R: usize, const C: usize, const SKIP_ZEROS: bool>(
    x: &[f64],
    p: usize,
    j0: usize,
    k0: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0_f64; C]; R];
    for row in x.chunks_exact(p) {
        let a: &[f64; R] = row[j0..j0 + R].try_into().unwrap();
        let b: &[f64; C] = row[k0..k0 + C].try_into().unwrap();
        for (acc_u, &au) in acc.iter_mut().zip(a) {
            if SKIP_ZEROS && au == 0.0 {
                continue;
            }
            for (s, &bv) in acc_u.iter_mut().zip(b) {
                *s += au * bv;
            }
        }
    }
    for (u, acc_u) in acc.iter().enumerate() {
        let at = (j0 + u) * p + k0;
        out[at..at + C].copy_from_slice(acc_u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_identity_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);

        let f = Matrix::filled(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, LinalgError::BadDimensions { .. }));
    }

    #[test]
    fn from_rows_validates_raggedness() {
        let ok = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(ok[(1, 0)], 3.0);
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
        assert_eq!(m.get(0, 2), Some(3.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 3), None);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(approx(c[(0, 0)], 19.0));
        assert!(approx(c[(0, 1)], 22.0));
        assert!(approx(c[(1, 0)], 43.0));
        assert!(approx(c[(1, 1)], 50.0));
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_and_transposed() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0, 1.0]).unwrap(), vec![9.0, 12.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = m.gram();
        let explicit = m.transpose().matmul(&m).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(g[(i, j)], explicit[(i, j)]));
            }
        }
    }

    /// The row-by-row rank-1 loop `gram` replaced: the oracle it must
    /// match bit for bit.
    // Index-based loops keep the j/k coupling between factors explicit.
    #[allow(clippy::needless_range_loop)]
    fn gram_rows(m: &Matrix) -> Matrix {
        let n = m.cols;
        let mut out = Matrix::zeros(n, n);
        for row in m.iter_rows() {
            for j in 0..n {
                let rj = row[j];
                if rj == 0.0 {
                    continue;
                }
                for k in j..n {
                    out.data[j * n + k] += rj * row[k];
                }
            }
        }
        for j in 0..n {
            for k in (j + 1)..n {
                out.data[k * n + j] = out.data[j * n + k];
            }
        }
        out
    }

    /// Equal bits, with every NaN taken as one value: Rust leaves the
    /// payload of a NaN result to the platform.
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// A seeded `n x p` design. Each column is dense, exactly zero
    /// (`0.0` and `-0.0`), one-hot, or a mix of `±0.0`, subnormals,
    /// huge values whose products overflow, and ordinary values. With
    /// `non_finite`, one to three entries become `±inf` or NaN.
    fn design(n: usize, p: usize, seed: u64, non_finite: bool) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let kinds: Vec<u32> = (0..p).map(|_| rng.random_range(0..4_u32)).collect();
        let mut data = Vec::with_capacity(n * p);
        for _ in 0..n {
            for &kind in &kinds {
                let normal = rng.random_range(-3.0..3.0);
                data.push(match kind {
                    0 => normal,
                    1 if rng.random_bool(0.5) => 0.0,
                    1 => -0.0,
                    2 if rng.random_bool(1.0 / 7.0) => 1.0,
                    2 => 0.0,
                    _ => match rng.random_range(0..5_u32) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => normal * 1e-310,
                        3 => normal * 1e300,
                        _ => normal,
                    },
                });
            }
        }
        if non_finite && n > 0 {
            for _ in 0..rng.random_range(1..=3_usize) {
                let at = rng.random_range(0..n * p);
                data[at] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.random_range(0..3)];
            }
        }
        Matrix::from_vec(n, p, data).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The tiled kernel reproduces the row loop bit for bit, at every
        /// `p mod 4` edge-tile shape and row count, zero-row and special
        /// values included.
        #[test]
        fn prop_gram_bit_identical_to_row_loop(
            p in 1..=41_usize,
            n in 0..=130_usize,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let x = design(n, p, seed, false);
            proptest::prop_assert!(same_bits(x.gram().as_slice(), gram_rows(&x).as_slice()));
        }

        /// With `±inf` or NaN in the design, the zero skip decides entries
        /// (`0 · inf` is NaN), and `gram` still matches the row loop.
        #[test]
        fn prop_gram_bit_identical_to_row_loop_with_non_finite_entries(
            p in 1..=41_usize,
            n in 1..=130_usize,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let x = design(n, p, seed, true);
            proptest::prop_assert!(same_bits(x.gram().as_slice(), gram_rows(&x).as_slice()));
        }
    }

    #[test]
    fn gram_of_empty_shapes() {
        assert_eq!(Matrix::zeros(0, 0).gram().shape(), (0, 0));
        assert_eq!(Matrix::zeros(3, 0).gram().shape(), (0, 0));
        let g = Matrix::zeros(0, 5).gram();
        assert!(g.as_slice().iter().all(|v| v.to_bits() == 0));
    }

    /// The portable and the AVX2 instantiation of the tile source give
    /// the same bits, and the portable one matches the row loop on the
    /// upper triangle (on an AVX2 host `gram` never runs it otherwise).
    /// The AVX2 half is skipped on CPUs without AVX2.
    #[test]
    fn portable_and_avx2_tiles_agree_bit_for_bit() {
        for p in 1..=41 {
            for (n, seed) in [(0, 1), (1, 2), (7, 3), (100, 4), (130, 5)] {
                let x = design(n, p, seed + 100 * p as u64, false);
                let mut portable = vec![0.0; p * p];
                gram_tiles::<false>(x.as_slice(), p, &mut portable);
                let oracle = gram_rows(&x);
                for j in 0..p {
                    let upper = j * p + j..(j + 1) * p;
                    assert!(same_bits(&portable[upper.clone()], &oracle.data[upper]));
                }
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx2") {
                    let mut avx2 = vec![0.0; p * p];
                    // SAFETY: the CPU supports AVX2, checked just above.
                    unsafe { gram_upper_avx2(x.as_slice(), p, &mut avx2) };
                    assert!(same_bits(&portable, &avx2), "p = {p}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0]);
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn diagonal_shift() {
        let mut m = Matrix::identity(2);
        m.shift_diagonal(0.5);
        assert_eq!(m[(0, 0)], 1.5);
        assert_eq!(m[(1, 1)], 1.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert!(approx(m.max_abs(), 4.0));
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let m = Matrix::zeros(1, 1);
        let _ = m[(1, 0)];
    }

    #[test]
    fn serde_round_trip_preserves_shape_and_data() {
        let m = Matrix::from_rows(&[&[1.0, 2.5], &[-3.0, 0.0]]).unwrap();
        let content = m.to_content();
        let back = Matrix::from_content(&content).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn serde_rejects_inconsistent_dimensions() {
        let mut content = Matrix::zeros(2, 2).to_content();
        if let serde::Content::Map(entries) = &mut content {
            for (k, v) in entries.iter_mut() {
                if k == "rows" {
                    *v = serde::Content::I64(3);
                }
            }
        }
        assert!(Matrix::from_content(&content).is_err());
    }
}
