//! Fixed-size 2D and 3D vectors.

use std::fmt;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 2D vector of `f64` components.
///
/// Used for planar quantities: grid coordinates, image-plane positions,
/// planar velocities.
///
/// ```
/// use av_geom::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
}

/// A 3D vector of `f64` components.
///
/// The workhorse type of the workspace: LiDAR points, translations, linear
/// velocities are all `Vec3`.
///
/// ```
/// use av_geom::Vec3;
/// let v = Vec3::new(1.0, 0.0, 0.0).cross(Vec3::new(0.0, 1.0, 0.0));
/// assert_eq!(v, Vec3::new(0.0, 0.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Vec2 {
        Vec2 { x, y }
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z component of the 2D cross product (`self × other`).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to `other`.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the direction of `self`, or zero if `self` is zero.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Vec2::ZERO
        }
    }

    /// Counter-clockwise angle of the vector from the +X axis, in radians.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Rotates the vector counter-clockwise by `angle` radians.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Embeds the vector in 3D with the given `z`.
    #[inline]
    pub fn extend(self, z: f64) -> Vec3 {
        Vec3::new(self.x, self.y, z)
    }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit vector along +X.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit vector along +Y.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit vector along +Z.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Vec3 {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Vec3 {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product `self × other`.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to `other`.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Squared distance to `other`.
    #[inline]
    pub fn distance_sq(self, other: Vec3) -> f64 {
        (self - other).norm_sq()
    }

    /// Unit vector in the direction of `self`, or zero if `self` is zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Vec3::ZERO
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }

    /// Drops the Z component.
    #[inline]
    pub fn truncate(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Horizontal (XY-plane) length; LiDAR range gates use this.
    #[inline]
    pub fn norm_xy(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x.min(other.x), self.y.min(other.y), self.z.min(other.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x.max(other.x), self.y.max(other.y), self.z.max(other.z))
    }

    /// `true` when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

macro_rules! impl_vec_ops {
    ($t:ty, $($f:ident),+) => {
        impl Add for $t {
            type Output = $t;
            #[inline]
            fn add(self, rhs: $t) -> $t {
                <$t>::new($(self.$f + rhs.$f),+)
            }
        }
        impl Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, rhs: $t) -> $t {
                <$t>::new($(self.$f - rhs.$f),+)
            }
        }
        impl Neg for $t {
            type Output = $t;
            #[inline]
            fn neg(self) -> $t {
                <$t>::new($(-self.$f),+)
            }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            #[inline]
            fn mul(self, rhs: f64) -> $t {
                <$t>::new($(self.$f * rhs),+)
            }
        }
        impl Mul<$t> for f64 {
            type Output = $t;
            #[inline]
            fn mul(self, rhs: $t) -> $t {
                rhs * self
            }
        }
        impl Div<f64> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: f64) -> $t {
                <$t>::new($(self.$f / rhs),+)
            }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, rhs: $t) {
                *self = *self + rhs;
            }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, rhs: $t) {
                *self = *self - rhs;
            }
        }
        impl MulAssign<f64> for $t {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                *self = *self * rhs;
            }
        }
        impl DivAssign<f64> for $t {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                *self = *self / rhs;
            }
        }
    };
}

impl_vec_ops!(Vec2, x, y);
impl_vec_ops!(Vec3, x, y, z);

impl Index<usize> for Vec3 {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        match index {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl From<[f64; 2]> for Vec2 {
    #[inline]
    fn from(a: [f64; 2]) -> Vec2 {
        Vec2::new(a[0], a[1])
    }
}

impl From<Vec2> for [f64; 2] {
    #[inline]
    fn from(v: Vec2) -> [f64; 2] {
        [v.x, v.y]
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline]
    fn from(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    #[inline]
    fn from(v: Vec3) -> [f64; 3] {
        [v.x, v.y, v.z]
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4}, {:.4})", self.x, self.y, self.z)
    }
}

/// Checkpoint encoding: `x`, `y`, `z` as f64 bit patterns.
impl av_des::Leaf for Vec3 {
    fn put(&self, w: &mut av_des::SnapWriter) {
        [self.x, self.y, self.z].put(w);
    }
    fn get(r: &mut av_des::SnapReader<'_>) -> Result<Vec3, av_des::SnapError> {
        let [x, y, z] = <[f64; 3]>::get(r)?;
        Ok(Vec3::new(x, y, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn vec2_dot_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn vec2_rotation() {
        let v = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!((v - Vec2::new(0.0, 1.0)).norm() < 1e-12);
        assert!((Vec2::new(0.0, 2.0).angle() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn vec3_arithmetic_and_assign() {
        let mut a = Vec3::new(1.0, 2.0, 3.0);
        a += Vec3::splat(1.0);
        assert_eq!(a, Vec3::new(2.0, 3.0, 4.0));
        a -= Vec3::splat(1.0);
        a *= 2.0;
        assert_eq!(a, Vec3::new(2.0, 4.0, 6.0));
        a /= 2.0;
        assert_eq!(a, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn vec3_cross_right_handed() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn vec3_norms() {
        let v = Vec3::new(2.0, 3.0, 6.0);
        assert_eq!(v.norm(), 7.0);
        assert_eq!(v.norm_sq(), 49.0);
        assert_eq!(Vec3::new(3.0, 4.0, 12.0).norm_xy(), 5.0);
    }

    #[test]
    fn vec3_normalized_handles_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let n = Vec3::new(0.0, 0.0, 5.0).normalized();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec3_lerp_endpoints() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 8.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 4.0));
    }

    #[test]
    fn vec3_indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        v[2] = 9.0;
        assert_eq!(v.z, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vec3_index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn conversions_roundtrip() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let arr: [f64; 3] = v.into();
        assert_eq!(Vec3::from(arr), v);
        let v2 = Vec2::new(1.0, 2.0);
        let arr2: [f64; 2] = v2.into();
        assert_eq!(Vec2::from(arr2), v2);
    }

    #[test]
    fn truncate_extend_roundtrip() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v.truncate().extend(3.0), v);
    }

    #[test]
    fn min_max_componentwise() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(2.0, 3.0, -1.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 3.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, -1.0));
    }
}
