//! 3×3 and 4×4 matrices (row-major).

use crate::Vec3;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A 3×3 matrix of `f64`, stored row-major.
///
/// Used for rotation matrices, covariance blocks, and the NDT Hessian
/// sub-blocks.
///
/// ```
/// use av_geom::{Mat3, Vec3};
/// let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
/// let v = r * Vec3::X;
/// assert!((v - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major entries: `m[row][col]`.
    pub m: [[f64; 3]; 3],
}

/// A 4×4 homogeneous transform matrix of `f64`, stored row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Row-major entries: `m[row][col]`.
    pub m: [[f64; 4]; 4],
}

impl Default for Mat3 {
    fn default() -> Mat3 {
        Mat3::IDENTITY
    }
}

impl Default for Mat4 {
    fn default() -> Mat4 {
        Mat4::IDENTITY
    }
}

impl Mat3 {
    /// The zero matrix.
    pub const ZERO: Mat3 = Mat3 { m: [[0.0; 3]; 3] };

    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 { m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn new(m: [[f64; 3]; 3]) -> Mat3 {
        Mat3 { m }
    }

    /// Creates a matrix from three row vectors.
    #[inline]
    pub fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Mat3 {
        Mat3::new([[r0.x, r0.y, r0.z], [r1.x, r1.y, r1.z], [r2.x, r2.y, r2.z]])
    }

    /// Creates a diagonal matrix.
    #[inline]
    pub fn diagonal(d: Vec3) -> Mat3 {
        Mat3::new([[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]])
    }

    /// Rotation about the Z axis by `angle` radians (counter-clockwise).
    pub fn rotation_z(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::new([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Outer product `a * bᵀ`.
    pub fn outer(a: Vec3, b: Vec3) -> Mat3 {
        Mat3::new([
            [a.x * b.x, a.x * b.y, a.x * b.z],
            [a.y * b.x, a.y * b.y, a.y * b.z],
            [a.z * b.x, a.z * b.y, a.z * b.z],
        ])
    }

    /// Returns row `r` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `r > 2`.
    #[inline]
    pub fn row(&self, r: usize) -> Vec3 {
        Vec3::new(self.m[r][0], self.m[r][1], self.m[r][2])
    }

    /// Returns column `c` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c > 2`.
    #[inline]
    pub fn col(&self, c: usize) -> Vec3 {
        Vec3::new(self.m[0][c], self.m[1][c], self.m[2][c])
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat3 {
        let mut t = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                t.m[c][r] = self.m[r][c];
            }
        }
        t
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix trace (sum of diagonal entries).
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Matrix inverse via the adjugate.
    ///
    /// Returns `None` when the determinant magnitude is below `1e-12` or
    /// the determinant is not finite.
    pub fn inverse(&self) -> Option<Mat3> {
        let d = self.det();
        if !d.is_finite() || d.abs() < 1e-12 {
            return None;
        }
        let m = &self.m;
        let inv_d = 1.0 / d;
        let mut out = Mat3::ZERO;
        out.m[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_d;
        out.m[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_d;
        out.m[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_d;
        out.m[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_d;
        out.m[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_d;
        out.m[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_d;
        out.m[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_d;
        out.m[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_d;
        out.m[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_d;
        Some(out)
    }

    /// Scales every entry by `s`.
    pub fn scaled(&self, s: f64) -> Mat3 {
        let mut out = *self;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] *= s;
            }
        }
        out
    }

    /// `true` when the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        (self.m[0][1] - self.m[1][0]).abs() <= tol
            && (self.m[0][2] - self.m[2][0]).abs() <= tol
            && (self.m[1][2] - self.m[2][1]).abs() <= tol
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    fn add(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] + rhs.m[r][c];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Mat3;
    fn sub(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                out.m[r][c] = self.m[r][c] - rhs.m[r][c];
            }
        }
        out
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += self.m[r][k] * rhs.m[k][c];
                }
                out.m[r][c] = acc;
            }
        }
        out
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Index<(usize, usize)> for Mat3 {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.m[r][c]
    }
}

impl IndexMut<(usize, usize)> for Mat3 {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.m[r][c]
    }
}

impl Mat4 {
    /// The identity matrix.
    pub const IDENTITY: Mat4 = Mat4 {
        m: [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn new(m: [[f64; 4]; 4]) -> Mat4 {
        Mat4 { m }
    }

    /// Builds a homogeneous transform from a rotation and a translation.
    pub fn from_rotation_translation(rot: Mat3, t: Vec3) -> Mat4 {
        let mut m = Mat4::IDENTITY;
        for r in 0..3 {
            for c in 0..3 {
                m.m[r][c] = rot.m[r][c];
            }
        }
        m.m[0][3] = t.x;
        m.m[1][3] = t.y;
        m.m[2][3] = t.z;
        m
    }

    /// The upper-left 3×3 rotation block.
    pub fn rotation(&self) -> Mat3 {
        let mut rot = Mat3::ZERO;
        for r in 0..3 {
            for c in 0..3 {
                rot.m[r][c] = self.m[r][c];
            }
        }
        rot
    }

    /// The translation column.
    #[inline]
    pub fn translation(&self) -> Vec3 {
        Vec3::new(self.m[0][3], self.m[1][3], self.m[2][3])
    }

    /// Applies the transform to a point (w = 1).
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation() * p + self.translation()
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = Mat4::new([[0.0; 4]; 4]);
        for r in 0..4 {
            for c in 0..4 {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += self.m[r][k] * rhs.m[k][c];
                }
                out.m[r][c] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn identity_is_neutral() {
        let a = Mat3::new([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]);
        assert_eq!(a * Mat3::IDENTITY, a);
        assert_eq!(Mat3::IDENTITY * a, a);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Mat3::new([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]);
        let inv = a.inverse().unwrap();
        let prod = a * inv;
        for r in 0..3 {
            for c in 0..3 {
                let want = if r == c { 1.0 } else { 0.0 };
                assert!(approx(prod.m[r][c], want), "prod[{r}][{c}] = {}", prod.m[r][c]);
            }
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let a = Mat3::new([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn non_finite_determinant_has_no_inverse() {
        let mut a = Mat3::IDENTITY;
        a.m[1][2] = f64::NAN;
        assert!(a.det().is_nan());
        assert!(a.inverse().is_none());
        let huge = Mat3::diagonal(Vec3::new(1e200, 1e200, 1e200));
        assert_eq!(huge.det(), f64::INFINITY);
        assert!(huge.inverse().is_none());
    }

    #[test]
    fn det_of_rotation_is_one() {
        let r = Mat3::rotation_z(0.73);
        assert!(approx(r.det(), 1.0));
    }

    #[test]
    fn transpose_of_rotation_is_inverse() {
        let r = Mat3::rotation_z(1.1);
        let prod = r * r.transpose();
        assert!(approx(prod.trace(), 3.0));
    }

    #[test]
    fn outer_product_rank_one() {
        let o = Mat3::outer(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(o.m[1][2], 12.0);
        assert!(o.det().abs() < 1e-12);
    }

    #[test]
    fn mat3_vec_multiplication() {
        let r = Mat3::rotation_z(std::f64::consts::PI);
        let v = r * Vec3::X;
        assert!((v + Vec3::X).norm() < 1e-12);
    }

    #[test]
    fn diagonal_and_trace() {
        let d = Mat3::diagonal(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d.det(), 6.0);
    }

    #[test]
    fn symmetry_check() {
        let s = Mat3::new([[1.0, 2.0, 3.0], [2.0, 5.0, 4.0], [3.0, 4.0, 9.0]]);
        assert!(s.is_symmetric(1e-12));
        let a = Mat3::new([[1.0, 2.0, 3.0], [0.0, 5.0, 4.0], [3.0, 4.0, 9.0]]);
        assert!(!a.is_symmetric(1e-12));
    }

    #[test]
    fn mat4_compose_and_apply() {
        let t = Mat4::from_rotation_translation(
            Mat3::rotation_z(std::f64::consts::FRAC_PI_2),
            Vec3::new(1.0, 0.0, 0.0),
        );
        let p = t.transform_point(Vec3::X);
        assert!((p - Vec3::new(1.0, 1.0, 0.0)).norm() < 1e-12);
        let composed = t * Mat4::IDENTITY;
        assert_eq!(composed, t);
    }

    #[test]
    fn mat3_indexing() {
        let mut a = Mat3::IDENTITY;
        a[(0, 2)] = 5.0;
        assert_eq!(a[(0, 2)], 5.0);
    }
}
