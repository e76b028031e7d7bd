//! Dense complex matrices sized for MIMO processing.
//!
//! Channel matrices in this workspace are small (at most 4x4: antennas per
//! node), but there are many of them (one per OFDM subcarrier per link), so
//! the type is a simple row-major `Vec<C64>` with straightforward loops --
//! no blocking or SIMD tricks, just correct and predictable code.

use crate::complex::{C64, ONE, ZERO};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// `Default` is the empty `0 x 0` matrix -- the natural starting state for
/// scratch-workspace buffers that grow on first use.
#[derive(Clone, Default, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// Creates an all-zero `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = ONE;
        }
        m
    }

    /// Builds a matrix from a row-major slice of entries.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a diagonal matrix from real diagonal entries.
    pub fn diag_real(d: &[f64]) -> Self {
        let mut m = Self::zeros(d.len(), d.len());
        for (i, &x) in d.iter().enumerate() {
            m[(i, i)] = C64::real(x);
        }
        m
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

    /// `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major entries.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Raw row-major entries, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Reshapes this matrix in place to an all-zero `rows x cols`, reusing
    /// the existing buffer. After the first few calls at the largest shape
    /// in play, this never allocates -- the backbone of the scratch
    /// workspaces used by the per-subcarrier kernels.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, ZERO);
    }

    /// Makes `self` a copy of `src` (shape and entries), reusing the buffer.
    pub fn copy_from(&mut self, src: &CMat) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Conjugate (Hermitian) transpose `A^H`.
    pub fn hermitian(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Writes `self^H` into `out` without allocating (same entry order as
    /// [`CMat::hermitian`], so results are bit-identical).
    pub fn hermitian_into(&self, out: &mut CMat) {
        out.reset(self.cols, self.rows);
        for i in 0..out.rows {
            for j in 0..out.cols {
                out[(i, j)] = self[(j, i)].conj();
            }
        }
    }

    /// Plain transpose `A^T` (no conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Entrywise complex conjugate.
    pub fn conj(&self) -> CMat {
        CMat::from_fn(self.rows, self.cols, |i, j| self[(i, j)].conj())
    }

    /// Multiplies every entry by a real scalar.
    pub fn scale(&self, s: f64) -> CMat {
        CMat::from_fn(self.rows, self.cols, |i, j| self[(i, j)].scale(s))
    }

    /// Extracts column `j` as a `rows x 1` matrix.
    pub fn column(&self, j: usize) -> CMat {
        assert!(j < self.cols);
        CMat::from_fn(self.rows, 1, |i, _| self[(i, j)])
    }

    /// Writes column `j` into `out` as a `rows x 1` matrix without
    /// allocating. Bit-identical to [`CMat::column`].
    pub fn column_into(&self, j: usize, out: &mut CMat) {
        assert!(j < self.cols);
        out.reset(self.rows, 1);
        for i in 0..self.rows {
            out[(i, 0)] = self[(i, j)];
        }
    }

    /// Extracts row `i` as a `1 x cols` matrix.
    pub fn row(&self, i: usize) -> CMat {
        assert!(i < self.rows);
        CMat::from_fn(1, self.cols, |_, j| self[(i, j)])
    }

    /// Returns the sub-matrix made of the given columns, in order.
    pub fn select_columns(&self, cols: &[usize]) -> CMat {
        CMat::from_fn(self.rows, cols.len(), |i, j| self[(i, cols[j])])
    }

    /// Writes the sub-matrix made of the given columns into `out` without
    /// allocating. Bit-identical to [`CMat::select_columns`].
    pub fn select_columns_into(&self, cols: &[usize], out: &mut CMat) {
        out.reset(self.rows, cols.len());
        for i in 0..self.rows {
            for j in 0..cols.len() {
                out[(i, j)] = self[(i, cols[j])];
            }
        }
    }

    /// Returns the sub-matrix made of the given rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> CMat {
        CMat::from_fn(rows.len(), self.cols, |i, j| self[(rows[i], j)])
    }

    /// Stacks `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &CMat) -> CMat {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        CMat::from_fn(self.rows + other.rows, self.cols, |i, j| {
            if i < self.rows {
                self[(i, j)]
            } else {
                other[(i - self.rows, j)]
            }
        })
    }

    /// Places `self` left of `other` (row counts must match).
    pub fn hstack(&self, other: &CMat) -> CMat {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        CMat::from_fn(self.rows, self.cols + other.cols, |i, j| {
            if j < self.cols {
                self[(i, j)]
            } else {
                other[(i, j - self.cols)]
            }
        })
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm (total power of the matrix entries).
    pub fn frobenius_norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Writes `self * rhs` into `out` without allocating. The loop order and
    /// the zero-entry skip match [`CMat::matmul`] exactly, so the result is
    /// bit-identical to the allocating version.
    pub fn mul_into(&self, rhs: &CMat, out: &mut CMat) {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        out.reset(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
    }

    /// Entrywise `self += rhs`. Bit-identical to `&self + &rhs` (the same
    /// `a + b` per entry), but without allocating the sum.
    pub fn add_in_place(&mut self, rhs: &CMat) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a = *a + *b;
        }
    }

    /// `A^H * A` (Gram matrix), used throughout the precoding code.
    pub fn gram(&self) -> CMat {
        self.hermitian().matmul(self)
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `true` when `|self - other|_max < tol`.
    pub fn approx_eq(&self, other: &CMat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (*a - *b).abs() < tol)
    }

    /// `true` when `A^H A = I` within `tol` (orthonormal columns).
    pub fn has_orthonormal_columns(&self, tol: f64) -> bool {
        self.gram().approx_eq(&CMat::identity(self.cols), tol)
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat::from_fn(self.rows, self.cols, |i, j| self[(i, j)] + rhs[(i, j)])
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat::from_fn(self.rows, self.cols, |i, j| self[(i, j)] - rhs[(i, j)])
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.matmul(rhs)
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:?}  ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::I;

    fn m2(a: f64, b: f64, c: f64, d: f64) -> CMat {
        CMat::from_rows(
            2,
            2,
            &[C64::real(a), C64::real(b), C64::real(c), C64::real(d)],
        )
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let i = CMat::identity(2);
        assert!(a.matmul(&i).approx_eq(&a, 1e-12));
        assert!(i.matmul(&a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_known_product() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let b = m2(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b);
        assert!(c.approx_eq(&m2(19.0, 22.0, 43.0, 50.0), 1e-12));
    }

    #[test]
    fn hermitian_conjugates() {
        let a = CMat::from_rows(1, 2, &[I, C64::new(1.0, 2.0)]);
        let h = a.hermitian();
        assert_eq!(h.rows(), 2);
        assert_eq!(h[(0, 0)], -I);
        assert_eq!(h[(1, 0)], C64::new(1.0, -2.0));
        assert!(h.hermitian().approx_eq(&a, 1e-15));
    }

    #[test]
    fn hermitian_of_product_reverses() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let b = CMat::from_rows(2, 2, &[I, C64::real(1.0), C64::new(2.0, -1.0), I]);
        let lhs = a.matmul(&b).hermitian();
        let rhs = b.hermitian().matmul(&a.hermitian());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn stack_and_select() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let v = a.vstack(&a);
        assert_eq!(v.rows(), 4);
        assert_eq!(v[(2, 0)], C64::real(1.0));
        let h = a.hstack(&a);
        assert_eq!(h.cols(), 4);
        assert_eq!(h[(0, 2)], C64::real(1.0));
        let c = a.select_columns(&[1]);
        assert_eq!((c.rows(), c.cols()), (2, 1));
        assert_eq!(c[(1, 0)], C64::real(4.0));
        let r = a.select_rows(&[1]);
        assert_eq!(r[(0, 0)], C64::real(3.0));
    }

    #[test]
    fn frobenius_and_trace() {
        let a = m2(3.0, 0.0, 0.0, 4.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.trace(), C64::real(7.0));
    }

    #[test]
    fn gram_is_hermitian_psd_diagonal() {
        let a = CMat::from_rows(2, 2, &[I, C64::real(2.0), C64::new(1.0, 1.0), -I]);
        let g = a.gram();
        assert!(g.approx_eq(&g.hermitian(), 1e-12));
        for i in 0..2 {
            assert!(g[(i, i)].re >= 0.0);
            assert!(g[(i, i)].im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
