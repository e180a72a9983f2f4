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

    /// Computes the Gram matrix `selfᵀ * self` (symmetric, `cols x cols`),
    /// exploiting symmetry to halve the work.
    // Index-based loops keep the k/i coupling between factors explicit.
    #[allow(clippy::needless_range_loop)]
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for row in self.iter_rows() {
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
