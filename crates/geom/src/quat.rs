//! Unit quaternions for 3D orientation.

use crate::{Mat3, Vec3};
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk` representing a 3D rotation.
///
/// Constructors produce unit quaternions; [`Quat::normalized`] restores the
/// invariant after accumulated floating-point drift.
///
/// ```
/// use av_geom::{Quat, Vec3};
/// let q = Quat::from_yaw(std::f64::consts::FRAC_PI_2);
/// let v = q.rotate(Vec3::X);
/// assert!((v - Vec3::Y).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// X component of the vector part.
    pub x: f64,
    /// Y component of the vector part.
    pub y: f64,
    /// Z component of the vector part.
    pub z: f64,
}

impl Default for Quat {
    fn default() -> Quat {
        Quat::IDENTITY
    }
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat { w: 1.0, x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a quaternion from raw components (not normalized).
    #[inline]
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Quat {
        Quat { w, x, y, z }
    }

    /// Rotation of `angle` radians about the (unit) `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Quat {
        let (s, c) = (angle * 0.5).sin_cos();
        let a = axis.normalized();
        Quat::new(c, a.x * s, a.y * s, a.z * s)
    }

    /// Rotation about +Z by `yaw` radians: the dominant rotation in driving.
    pub fn from_yaw(yaw: f64) -> Quat {
        Quat::from_axis_angle(Vec3::Z, yaw)
    }

    /// Builds a quaternion from roll (X), pitch (Y), yaw (Z) Euler angles
    /// applied in ZYX order.
    pub fn from_rpy(roll: f64, pitch: f64, yaw: f64) -> Quat {
        let (sr, cr) = (roll * 0.5).sin_cos();
        let (sp, cp) = (pitch * 0.5).sin_cos();
        let (sy, cy) = (yaw * 0.5).sin_cos();
        Quat::new(
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        )
    }

    /// Quaternion norm.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the unit quaternion with the same orientation.
    ///
    /// Falls back to the identity when the norm is (numerically) zero.
    pub fn normalized(self) -> Quat {
        let n = self.norm();
        if n < 1e-12 {
            return Quat::IDENTITY;
        }
        Quat::new(self.w / n, self.x / n, self.y / n, self.z / n)
    }

    /// The inverse rotation (conjugate, assuming unit norm).
    #[inline]
    pub fn conjugate(self) -> Quat {
        Quat::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Rotates a vector by this quaternion.
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2 * q_vec × (q_vec × v + w * v)
        let u = Vec3::new(self.x, self.y, self.z);
        let t = u.cross(v) * 2.0;
        v + t * self.w + u.cross(t)
    }

    /// Extracts the yaw (rotation about +Z) in radians.
    pub fn yaw(self) -> f64 {
        let siny_cosp = 2.0 * (self.w * self.z + self.x * self.y);
        let cosy_cosp = 1.0 - 2.0 * (self.y * self.y + self.z * self.z);
        siny_cosp.atan2(cosy_cosp)
    }

    /// Converts to a 3×3 rotation matrix.
    pub fn to_mat3(self) -> Mat3 {
        let Quat { w, x, y, z } = self;
        Mat3::new([
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ])
    }

    /// Spherical linear interpolation from `self` (t = 0) to `other` (t = 1).
    pub fn slerp(self, other: Quat, t: f64) -> Quat {
        let mut cos_half =
            self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z;
        let mut other = other;
        if cos_half < 0.0 {
            // Take the short path.
            other = Quat::new(-other.w, -other.x, -other.y, -other.z);
            cos_half = -cos_half;
        }
        if cos_half > 0.9995 {
            // Nearly parallel: linear interpolation avoids division by ~0.
            return Quat::new(
                self.w + (other.w - self.w) * t,
                self.x + (other.x - self.x) * t,
                self.y + (other.y - self.y) * t,
                self.z + (other.z - self.z) * t,
            )
            .normalized();
        }
        let half = cos_half.clamp(-1.0, 1.0).acos();
        let sin_half = half.sin();
        let wa = ((1.0 - t) * half).sin() / sin_half;
        let wb = (t * half).sin() / sin_half;
        Quat::new(
            self.w * wa + other.w * wb,
            self.x * wa + other.x * wb,
            self.y * wa + other.y * wb,
            self.z * wa + other.z * wb,
        )
    }
}

impl Mul for Quat {
    type Output = Quat;

    /// Hamilton product: `self * rhs` applies `rhs` first, then `self`.
    fn mul(self, rhs: Quat) -> Quat {
        Quat::new(
            self.w * rhs.w - self.x * rhs.x - self.y * rhs.y - self.z * rhs.z,
            self.w * rhs.x + self.x * rhs.w + self.y * rhs.z - self.z * rhs.y,
            self.w * rhs.y - self.x * rhs.z + self.y * rhs.w + self.z * rhs.x,
            self.w * rhs.z + self.x * rhs.y - self.y * rhs.x + self.z * rhs.w,
        )
    }
}

/// Checkpoint encoding: `w`, `x`, `y`, `z` as f64 bit patterns.
impl av_des::Leaf for Quat {
    fn put(&self, w: &mut av_des::SnapWriter) {
        [self.w, self.x, self.y, self.z].put(w);
    }
    fn get(r: &mut av_des::SnapReader<'_>) -> Result<Quat, av_des::SnapError> {
        let [w, x, y, z] = <[f64; 4]>::get(r)?;
        Ok(Quat { w, x, y, z })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_rotates_nothing() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Quat::IDENTITY.rotate(v), v);
    }

    #[test]
    fn yaw_rotation_about_z() {
        let q = Quat::from_yaw(FRAC_PI_2);
        assert!((q.rotate(Vec3::X) - Vec3::Y).norm() < 1e-12);
        assert!((q.yaw() - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn composition_matches_sequential_rotation() {
        let a = Quat::from_yaw(0.3);
        let b = Quat::from_yaw(0.5);
        let v = Vec3::new(1.0, -2.0, 0.5);
        let seq = a.rotate(b.rotate(v));
        let comp = (a * b).rotate(v);
        assert!((seq - comp).norm() < 1e-12);
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_rpy(0.1, -0.2, 0.7);
        let v = Vec3::new(3.0, 1.0, -4.0);
        let round = q.conjugate().rotate(q.rotate(v));
        assert!((round - v).norm() < 1e-12);
    }

    #[test]
    fn matrix_agrees_with_quaternion_rotation() {
        let q = Quat::from_rpy(0.2, 0.4, -0.9);
        let v = Vec3::new(-1.0, 2.0, 0.3);
        let mv = q.to_mat3() * v;
        assert!((mv - q.rotate(v)).norm() < 1e-12);
    }

    #[test]
    fn rpy_yaw_only_matches_from_yaw() {
        let a = Quat::from_rpy(0.0, 0.0, 1.1);
        let b = Quat::from_yaw(1.1);
        assert!((a.w - b.w).abs() < 1e-12 && (a.z - b.z).abs() < 1e-12);
    }

    #[test]
    fn slerp_endpoints_and_midpoint() {
        let a = Quat::from_yaw(0.0);
        let b = Quat::from_yaw(PI / 2.0);
        assert!((a.slerp(b, 0.0).yaw() - 0.0).abs() < 1e-9);
        assert!((a.slerp(b, 1.0).yaw() - PI / 2.0).abs() < 1e-9);
        assert!((a.slerp(b, 0.5).yaw() - PI / 4.0).abs() < 1e-9);
    }

    #[test]
    fn slerp_takes_short_path() {
        let a = Quat::from_yaw(-0.1);
        let b = Quat::new(-1.0, 0.0, 0.0, 0.0) * Quat::from_yaw(0.1); // same rotation, flipped sign
        let mid = a.slerp(b, 0.5);
        assert!(mid.yaw().abs() < 0.2);
    }

    #[test]
    fn normalized_restores_unit_norm() {
        let q = Quat::new(2.0, 0.0, 0.0, 0.0).normalized();
        assert!((q.norm() - 1.0).abs() < 1e-12);
        assert_eq!(Quat::new(0.0, 0.0, 0.0, 0.0).normalized(), Quat::IDENTITY);
    }
}
