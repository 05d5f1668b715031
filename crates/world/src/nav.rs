//! GNSS and IMU sample types.

use crate::EgoState;
use av_des::{Leaf, SnapError, SnapReader, SnapWriter, StreamRng};
use av_geom::Vec3;

/// A GNSS position fix (meter-level accuracy, as the paper notes — orders
/// of magnitude coarser than the NDT localization it seeds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnssFix {
    /// Estimated position in the map frame.
    pub position: Vec3,
    /// Reported 1σ horizontal accuracy, meters.
    pub accuracy: f64,
}

impl GnssFix {
    /// Samples a fix from the true ego state with `accuracy`-sized noise.
    pub fn sample(ego: &EgoState, accuracy: f64, rng: &mut StreamRng) -> GnssFix {
        let noise = Vec3::new(rng.normal(0.0, accuracy), rng.normal(0.0, accuracy), 0.0);
        GnssFix { position: ego.pose.translation + noise, accuracy }
    }
}

/// Checkpoint and bag encoding: the position, then the accuracy.
impl Leaf for GnssFix {
    fn put(&self, w: &mut SnapWriter) {
        self.position.put(w);
        w.put_f64(self.accuracy);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<GnssFix, SnapError> {
        Ok(GnssFix { position: Vec3::get(r)?, accuracy: r.get_f64()? })
    }
}

/// An inertial measurement (body frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Linear acceleration, m/s² (gravity-compensated, body frame).
    pub linear_accel: Vec3,
    /// Yaw rate, rad/s.
    pub yaw_rate: f64,
    /// Body-frame forward speed estimate, m/s.
    pub speed: f64,
}

impl ImuSample {
    /// Samples a measurement from the true ego state with sensor noise.
    pub fn sample(ego: &EgoState, rng: &mut StreamRng) -> ImuSample {
        ImuSample {
            linear_accel: Vec3::new(rng.normal(0.0, 0.05), rng.normal(0.0, 0.05), 0.0),
            yaw_rate: ego.yaw_rate + rng.normal(0.0, 0.005),
            speed: ego.speed + rng.normal(0.0, 0.05),
        }
    }
}

/// Checkpoint and bag encoding: the fields in declaration order.
impl Leaf for ImuSample {
    fn put(&self, w: &mut SnapWriter) {
        self.linear_accel.put(w);
        w.put_f64(self.yaw_rate);
        w.put_f64(self.speed);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<ImuSample, SnapError> {
        Ok(ImuSample { linear_accel: Vec3::get(r)?, yaw_rate: r.get_f64()?, speed: r.get_f64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::RngStreams;
    use av_geom::Pose;

    fn ego() -> EgoState {
        EgoState { pose: Pose::planar(10.0, 20.0, 0.5), speed: 8.0, yaw_rate: 0.1 }
    }

    #[test]
    fn gnss_noise_is_meter_scale() {
        let mut rng = RngStreams::new(4).stream("gnss");
        let mut max_err = 0.0f64;
        for _ in 0..200 {
            let fix = GnssFix::sample(&ego(), 1.5, &mut rng);
            max_err = max_err.max(fix.position.distance(ego().pose.translation));
        }
        assert!(max_err > 0.5, "noise should be visible");
        assert!(max_err < 10.0, "noise should stay meter-scale");
    }

    #[test]
    fn imu_tracks_truth() {
        let mut rng = RngStreams::new(4).stream("imu");
        let s = ImuSample::sample(&ego(), &mut rng);
        assert!((s.yaw_rate - 0.1).abs() < 0.05);
        assert!((s.speed - 8.0).abs() < 0.5);
    }
}
