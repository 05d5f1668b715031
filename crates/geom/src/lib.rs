//! Geometric and linear-algebra primitives for the AV characterization
//! workspace.
//!
//! Everything downstream — point-cloud processing, NDT registration, the
//! unscented Kalman filter, the costmap — is built on the small set of types
//! in this crate: fixed-size vectors ([`Vec2`], [`Vec3`]), square matrices
//! ([`Mat3`], [`Mat4`], and the dynamically sized [`MatN`] used by the
//! tracker), quaternions ([`Quat`]), rigid transforms ([`Pose`]) and
//! axis-aligned boxes ([`Aabb`]).
//!
//! The crate is dependency-free by design: the reproduction implements its
//! substrates from scratch rather than pulling in a linear-algebra crate.
//!
//! # Example
//!
//! ```
//! use av_geom::{Pose, Quat, Vec3};
//!
//! let pose = Pose::new(Vec3::new(1.0, 2.0, 0.0), Quat::from_yaw(std::f64::consts::FRAC_PI_2));
//! let p = pose.transform_point(Vec3::new(1.0, 0.0, 0.0));
//! assert!((p - Vec3::new(1.0, 3.0, 0.0)).norm() < 1e-12);
//! ```

#![warn(missing_docs)]

mod aabb;
mod angle;
mod floor;
mod mat;
mod matn;
mod pose;
mod quat;
mod vec;

pub use aabb::Aabb;
pub use angle::{angle_diff, deg_to_rad, normalize_angle, rad_to_deg};
pub use floor::{floor_i32, CellScale};
pub use mat::{Mat3, Mat4};
pub use matn::{MatN, VecN};
pub use pose::{Pose, Twist};
pub use quat::Quat;
pub use vec::{Vec2, Vec3};
