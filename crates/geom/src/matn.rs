//! Small runtime-sized vectors and matrices.
//!
//! The IMM-UKF-PDA tracker works with state vectors of dimension 5 (CTRV)
//! and measurement vectors of dimension 2, mixed through weighted sums and
//! Cholesky factorizations. [`VecN`] and [`MatN`] provide exactly the
//! operations the filter needs — nothing more. Both keep their entries
//! inline, at most 25 (a 5×5 matrix), so the tracker's per-track
//! arithmetic never touches the allocator; exceeding the cap panics.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Most entries a [`VecN`] or [`MatN`] holds: a 5×5 matrix, the tracker's
/// largest shape.
const MAX_ENTRIES: usize = 25;

/// Panics unless `n` entries fit the inline storage.
#[inline]
fn check_cap(n: usize, what: &str) {
    assert!(n <= MAX_ENTRIES, "{what} holds at most {MAX_ENTRIES} entries, asked for {n}");
}

/// A vector of `f64` with runtime dimension (at most 25), stored inline.
///
/// ```
/// use av_geom::VecN;
/// let v = VecN::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Clone, Default)]
pub struct VecN {
    len: usize,
    data: [f64; MAX_ENTRIES],
}

/// A row-major matrix of `f64` with runtime dimensions (at most 25
/// entries), stored inline.
///
/// ```
/// use av_geom::MatN;
/// let i = MatN::identity(3);
/// assert_eq!(&i * &i, i);
/// ```
#[derive(Clone)]
pub struct MatN {
    rows: usize,
    cols: usize,
    data: [f64; MAX_ENTRIES],
}

impl VecN {
    /// Creates a zero vector of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 25.
    pub fn zeros(n: usize) -> VecN {
        check_cap(n, "VecN");
        VecN { len: n, data: [0.0; MAX_ENTRIES] }
    }

    /// Creates a vector by copying `values`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 25 values.
    pub fn from_slice(values: &[f64]) -> VecN {
        let mut v = VecN::zeros(values.len());
        v.data[..values.len()].copy_from_slice(values);
        v
    }

    /// A vector of dimension `n` with entries `f(i)`.
    fn from_fn(n: usize, mut f: impl FnMut(usize) -> f64) -> VecN {
        let mut v = VecN::zeros(n);
        for (i, slot) in v.as_mut_slice().iter_mut().enumerate() {
            *slot = f(i);
        }
        v
    }

    /// Vector dimension.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has dimension zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only view of the components.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data[..self.len]
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data[..self.len]
    }

    /// Dot product with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &VecN) -> f64 {
        assert_eq!(self.len(), other.len(), "VecN::dot dimension mismatch");
        self.as_slice().iter().zip(other.as_slice()).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns `self * s`.
    pub fn scaled(&self, s: f64) -> VecN {
        VecN::from_fn(self.len, |i| self.data[i] * s)
    }

    /// Outer product `self * otherᵀ`.
    pub fn outer(&self, other: &VecN) -> MatN {
        let mut m = MatN::zeros(self.len(), other.len());
        for r in 0..self.len() {
            for c in 0..other.len() {
                m[(r, c)] = self.data[r] * other.data[c];
            }
        }
        m
    }
}

impl Index<usize> for VecN {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for VecN {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.as_mut_slice()[i]
    }
}

impl PartialEq for VecN {
    fn eq(&self, other: &VecN) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for VecN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VecN").field("data", &self.as_slice()).finish()
    }
}

impl Add for &VecN {
    type Output = VecN;
    fn add(self, rhs: &VecN) -> VecN {
        assert_eq!(self.len(), rhs.len(), "VecN::add dimension mismatch");
        VecN::from_fn(self.len, |i| self.data[i] + rhs.data[i])
    }
}

impl Sub for &VecN {
    type Output = VecN;
    fn sub(self, rhs: &VecN) -> VecN {
        assert_eq!(self.len(), rhs.len(), "VecN::sub dimension mismatch");
        VecN::from_fn(self.len, |i| self.data[i] - rhs.data[i])
    }
}

impl fmt::Display for VecN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, "]")
    }
}

impl MatN {
    /// Creates a zero matrix of shape `rows × cols`.
    ///
    /// # Panics
    ///
    /// Panics if `rows × cols` exceeds 25.
    pub fn zeros(rows: usize, cols: usize) -> MatN {
        check_cap(rows * cols, "MatN");
        MatN { rows, cols, data: [0.0; MAX_ENTRIES] }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> MatN {
        let mut m = MatN::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`, or if that exceeds 25.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> MatN {
        assert_eq!(data.len(), rows * cols, "MatN::from_rows size mismatch");
        let mut m = MatN::zeros(rows, cols);
        m.data[..data.len()].copy_from_slice(data);
        m
    }

    /// Creates a diagonal matrix from `diag`.
    pub fn from_diagonal(diag: &[f64]) -> MatN {
        let mut m = MatN::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
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

    /// Returns row `r` as a vector.
    pub fn row(&self, r: usize) -> VecN {
        VecN::from_slice(&self.as_slice()[r * self.cols..(r + 1) * self.cols])
    }

    /// The entries, row-major.
    #[inline]
    fn as_slice(&self) -> &[f64] {
        &self.data[..self.rows * self.cols]
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data[..self.rows * self.cols]
    }

    /// A `rows × cols` matrix with row-major entries `f(i)`.
    fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize) -> f64) -> MatN {
        let mut m = MatN::zeros(rows, cols);
        for (i, slot) in m.as_mut_slice().iter_mut().enumerate() {
            *slot = f(i);
        }
        m
    }

    /// Returns column `c` as a vector.
    pub fn col(&self, c: usize) -> VecN {
        let mut v = VecN::zeros(self.rows);
        for r in 0..self.rows {
            v[r] = self[(r, c)];
        }
        v
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> MatN {
        let mut t = MatN::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Scales every entry by `s`.
    pub fn scaled(&self, s: f64) -> MatN {
        MatN::from_fn(self.rows, self.cols, |i| self.data[i] * s)
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &VecN) -> VecN {
        assert_eq!(v.len(), self.cols, "MatN::mul_vec dimension mismatch");
        let mut out = VecN::zeros(self.rows);
        for r in 0..self.rows {
            let mut acc = 0.0;
            for c in 0..self.cols {
                acc += self[(r, c)] * v[c];
            }
            out[r] = acc;
        }
        out
    }

    /// Lower-triangular Cholesky factor `L` with `L * Lᵀ = self`.
    ///
    /// Returns `None` when the matrix is not (numerically) positive
    /// definite. The unscented transform uses this to draw sigma points.
    pub fn cholesky(&self) -> Option<MatN> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = MatN::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[(i, i)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Matrix inverse via Gauss-Jordan elimination with partial pivoting.
    ///
    /// Returns `None` when the matrix is singular or a pivot is not
    /// finite.
    pub fn inverse(&self) -> Option<MatN> {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = MatN::identity(n);
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            for r in col + 1..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            let p = a[(pivot, col)];
            if !p.is_finite() || p.abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    a.data.swap(pivot * n + c, col * n + c);
                    inv.data.swap(pivot * n + c, col * n + c);
                }
            }
            let diag = a[(col, col)];
            for c in 0..n {
                a[(col, c)] /= diag;
                inv[(col, c)] /= diag;
            }
            for r in 0..n {
                if r != col {
                    let factor = a[(r, col)];
                    if factor != 0.0 {
                        for c in 0..n {
                            a[(r, c)] -= factor * a[(col, c)];
                            inv[(r, c)] -= factor * inv[(col, c)];
                        }
                    }
                }
            }
        }
        Some(inv)
    }

    /// Determinant via LU decomposition with partial pivoting.
    pub fn det(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "det requires a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = 1.0;
        for col in 0..n {
            let mut pivot = col;
            for r in col + 1..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            if a[(pivot, col)].abs() < 1e-300 {
                return 0.0;
            }
            if pivot != col {
                for c in 0..n {
                    a.data.swap(pivot * n + c, col * n + c);
                }
                det = -det;
            }
            det *= a[(col, col)];
            for r in col + 1..n {
                let factor = a[(r, col)] / a[(col, col)];
                for c in col..n {
                    a[(r, c)] -= factor * a[(col, c)];
                }
            }
        }
        det
    }

    /// `true` when the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in r + 1..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes the matrix in place: `self = (self + selfᵀ) / 2`.
    ///
    /// Kalman covariance updates accumulate asymmetry from floating-point
    /// error; the tracker re-symmetrizes after every update.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        for r in 0..self.rows {
            for c in r + 1..self.cols {
                let avg = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }
}

impl Index<(usize, usize)> for MatN {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.as_slice()[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for MatN {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        let cols = self.cols;
        &mut self.as_mut_slice()[r * cols + c]
    }
}

impl PartialEq for MatN {
    fn eq(&self, other: &MatN) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for MatN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatN")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.as_slice())
            .finish()
    }
}

impl Add for &MatN {
    type Output = MatN;
    fn add(self, rhs: &MatN) -> MatN {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "MatN::add shape mismatch");
        MatN::from_fn(self.rows, self.cols, |i| self.data[i] + rhs.data[i])
    }
}

impl Sub for &MatN {
    type Output = MatN;
    fn sub(self, rhs: &MatN) -> MatN {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "MatN::sub shape mismatch");
        MatN::from_fn(self.rows, self.cols, |i| self.data[i] - rhs.data[i])
    }
}

impl Mul for &MatN {
    type Output = MatN;
    fn mul(self, rhs: &MatN) -> MatN {
        assert_eq!(self.cols, rhs.rows, "MatN::mul shape mismatch");
        let mut out = MatN::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl fmt::Display for MatN {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            writeln!(f, "{}", self.row(r))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vecn_basic_ops() {
        let a = VecN::from_slice(&[1.0, 2.0, 3.0]);
        let b = VecN::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn matn_identity_multiplication() {
        let a = MatN::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = MatN::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn matn_inverse_roundtrip() {
        let a = MatN::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        for r in 0..3 {
            for c in 0..3 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!((prod[(r, c)] - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn matn_singular_inverse_is_none() {
        let a = MatN::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn matn_non_finite_pivot_inverse_is_none() {
        for bad in [f64::NAN, f64::INFINITY] {
            let a = MatN::from_rows(2, 2, &[bad, 1.0, 1.0, 2.0]);
            assert!(a.inverse().is_none(), "pivot {bad}");
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = MatN::from_rows(3, 3, &[4.0, 2.0, 0.0, 2.0, 5.0, 1.0, 0.0, 1.0, 3.0]);
        let l = a.cholesky().unwrap();
        let recon = &l * &l.transpose();
        for r in 0..3 {
            for c in 0..3 {
                assert!((recon[(r, c)] - a[(r, c)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = MatN::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn det_matches_known_value() {
        let a = MatN::from_rows(3, 3, &[2.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 4.0]);
        assert!((a.det() - 24.0).abs() < 1e-12);
        let singular = MatN::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(singular.det(), 0.0);
    }

    #[test]
    fn symmetrize_fixes_drift() {
        let mut a = MatN::from_rows(2, 2, &[1.0, 2.0, 2.0002, 3.0]);
        a.symmetrize();
        assert!(a.is_symmetric(0.0));
        assert!((a[(0, 1)] - 2.0001).abs() < 1e-12);
    }

    #[test]
    fn outer_product_shape() {
        let a = VecN::from_slice(&[1.0, 2.0]);
        let b = VecN::from_slice(&[3.0, 4.0, 5.0]);
        let o = a.outer(&b);
        assert_eq!((o.rows(), o.cols()), (2, 3));
        assert_eq!(o[(1, 2)], 10.0);
    }

    #[test]
    fn row_col_extraction() {
        let a = MatN::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1).as_slice(), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn mul_vec_known() {
        let a = MatN::from_rows(2, 2, &[0.0, -1.0, 1.0, 0.0]);
        let v = VecN::from_slice(&[1.0, 0.0]);
        assert_eq!(a.mul_vec(&v).as_slice(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_mismatch_panics() {
        let _ = VecN::zeros(2).dot(&VecN::zeros(3));
    }

    #[test]
    fn largest_shapes_fit_inline() {
        let v = VecN::zeros(MAX_ENTRIES);
        assert_eq!(v.outer(&VecN::zeros(1)).rows(), MAX_ENTRIES);
        let m = MatN::identity(5);
        assert_eq!(&m * &m, m);
    }

    #[test]
    #[should_panic(expected = "MatN holds at most 25 entries, asked for 36")]
    fn matn_over_cap_panics() {
        let _ = MatN::zeros(6, 6);
    }

    #[test]
    #[should_panic(expected = "VecN holds at most 25 entries, asked for 26")]
    fn vecn_over_cap_panics() {
        let _ = VecN::from_slice(&[0.0; 26]);
    }

    #[test]
    fn equality_and_debug_see_only_live_entries() {
        let a = MatN::from_rows(1, 2, &[1.0, 2.0]);
        assert_ne!(a, MatN::from_rows(2, 1, &[1.0, 2.0]));
        assert_eq!(format!("{a:?}"), "MatN { rows: 1, cols: 2, data: [1.0, 2.0] }");
        assert_eq!(format!("{:?}", VecN::from_slice(&[3.0])), "VecN { data: [3.0] }");
    }
}
