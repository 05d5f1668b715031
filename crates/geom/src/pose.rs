//! Rigid-body poses and velocity twists.

use crate::{Mat4, Quat, Vec3};
use std::fmt;

/// A rigid transform (SE(3)): rotation followed by translation.
///
/// `Pose` doubles as "the vehicle's pose in the map frame" and as a general
/// frame-to-frame transform (e.g. the camera/LiDAR extrinsic calibration
/// used by `range_vision_fusion`).
///
/// ```
/// use av_geom::{Pose, Quat, Vec3};
/// let a = Pose::new(Vec3::new(1.0, 0.0, 0.0), Quat::from_yaw(0.0));
/// let b = Pose::new(Vec3::new(0.0, 2.0, 0.0), Quat::from_yaw(0.0));
/// let c = a.compose(&b);
/// assert_eq!(c.translation, Vec3::new(1.0, 2.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Translation component.
    pub translation: Vec3,
    /// Rotation component (unit quaternion).
    pub rotation: Quat,
}

/// Linear and angular velocity, as published by the motion nodes
/// (`pure_pursuit` emits a `Twist`; `twist_filter` smooths it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Twist {
    /// Linear velocity (m/s) in the body frame.
    pub linear: Vec3,
    /// Angular velocity (rad/s) in the body frame.
    pub angular: Vec3,
}

impl Pose {
    /// The identity pose.
    pub const IDENTITY: Pose = Pose { translation: Vec3::ZERO, rotation: Quat::IDENTITY };

    /// Creates a pose from translation and rotation.
    #[inline]
    pub fn new(translation: Vec3, rotation: Quat) -> Pose {
        Pose { translation, rotation }
    }

    /// A planar pose: position `(x, y)` at height 0 with the given yaw.
    pub fn planar(x: f64, y: f64, yaw: f64) -> Pose {
        Pose::new(Vec3::new(x, y, 0.0), Quat::from_yaw(yaw))
    }

    /// Applies the pose to a point: `R * p + t`.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation.rotate(p) + self.translation
    }

    /// Applies only the rotation to a direction vector.
    #[inline]
    pub fn transform_vector(&self, v: Vec3) -> Vec3 {
        self.rotation.rotate(v)
    }

    /// Composes two poses: `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &Pose) -> Pose {
        Pose::new(
            self.transform_point(other.translation),
            (self.rotation * other.rotation).normalized(),
        )
    }

    /// The inverse transform.
    pub fn inverse(&self) -> Pose {
        let inv_rot = self.rotation.conjugate();
        Pose::new(inv_rot.rotate(-self.translation), inv_rot)
    }

    /// Yaw (heading) of the pose, in radians.
    #[inline]
    pub fn yaw(&self) -> f64 {
        self.rotation.yaw()
    }

    /// Converts to a homogeneous 4×4 matrix.
    pub fn to_mat4(&self) -> Mat4 {
        Mat4::from_rotation_translation(self.rotation.to_mat3(), self.translation)
    }

    /// Interpolates between two poses (lerp translation, slerp rotation).
    pub fn interpolate(&self, other: &Pose, t: f64) -> Pose {
        Pose::new(
            self.translation.lerp(other.translation, t),
            self.rotation.slerp(other.rotation, t),
        )
    }

    /// Euclidean distance between the two pose origins.
    #[inline]
    pub fn distance(&self, other: &Pose) -> f64 {
        self.translation.distance(other.translation)
    }
}

impl Twist {
    /// Zero velocity.
    pub const ZERO: Twist = Twist { linear: Vec3::ZERO, angular: Vec3::ZERO };

    /// Creates a planar twist: forward speed and yaw rate.
    pub fn planar(speed: f64, yaw_rate: f64) -> Twist {
        Twist { linear: Vec3::new(speed, 0.0, 0.0), angular: Vec3::new(0.0, 0.0, yaw_rate) }
    }

    /// Forward (body X) speed component, m/s.
    #[inline]
    pub fn speed(&self) -> f64 {
        self.linear.x
    }

    /// Yaw rate (body Z angular velocity), rad/s.
    #[inline]
    pub fn yaw_rate(&self) -> f64 {
        self.angular.z
    }
}

impl fmt::Display for Pose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} yaw={:.4}", self.translation, self.yaw())
    }
}

/// Checkpoint encoding: translation, then rotation.
impl av_des::Leaf for Pose {
    fn put(&self, w: &mut av_des::SnapWriter) {
        self.translation.put(w);
        self.rotation.put(w);
    }
    fn get(r: &mut av_des::SnapReader<'_>) -> Result<Pose, av_des::SnapError> {
        Ok(Pose { translation: Vec3::get(r)?, rotation: Quat::get(r)? })
    }
}

/// Checkpoint encoding: linear, then angular.
impl av_des::Leaf for Twist {
    fn put(&self, w: &mut av_des::SnapWriter) {
        self.linear.put(w);
        self.angular.put(w);
    }
    fn get(r: &mut av_des::SnapReader<'_>) -> Result<Twist, av_des::SnapError> {
        Ok(Twist { linear: Vec3::get(r)?, angular: Vec3::get(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn identity_transform_is_noop() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Pose::IDENTITY.transform_point(p), p);
    }

    #[test]
    fn compose_then_invert_roundtrips() {
        let a = Pose::planar(1.0, 2.0, 0.4);
        let b = Pose::planar(-0.5, 3.0, -1.1);
        let c = a.compose(&b);
        let back = c.compose(&b.inverse());
        assert!((back.translation - a.translation).norm() < 1e-12);
        assert!((back.yaw() - a.yaw()).abs() < 1e-12);
    }

    #[test]
    fn inverse_transform_point() {
        let pose = Pose::planar(5.0, -1.0, FRAC_PI_2);
        let world = pose.transform_point(Vec3::new(1.0, 0.0, 0.0));
        let body = pose.inverse().transform_point(world);
        assert!((body - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn planar_pose_heading() {
        let pose = Pose::planar(0.0, 0.0, 1.2);
        assert!((pose.yaw() - 1.2).abs() < 1e-12);
        let fwd = pose.transform_vector(Vec3::X);
        assert!((fwd.x - 1.2f64.cos()).abs() < 1e-12);
        assert!((fwd.y - 1.2f64.sin()).abs() < 1e-12);
    }

    #[test]
    fn matrix_agrees_with_pose() {
        let pose = Pose::planar(3.0, 4.0, -0.7);
        let p = Vec3::new(1.0, 1.0, 0.0);
        let via_mat = pose.to_mat4().transform_point(p);
        assert!((via_mat - pose.transform_point(p)).norm() < 1e-12);
    }

    #[test]
    fn interpolation_midpoint() {
        let a = Pose::planar(0.0, 0.0, 0.0);
        let b = Pose::planar(2.0, 0.0, 1.0);
        let mid = a.interpolate(&b, 0.5);
        assert!((mid.translation.x - 1.0).abs() < 1e-12);
        assert!((mid.yaw() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn twist_accessors() {
        let t = Twist::planar(8.0, 0.25);
        assert_eq!(t.speed(), 8.0);
        assert_eq!(t.yaw_rate(), 0.25);
        assert_eq!(Twist::ZERO.speed(), 0.0);
    }
}
