//! Forward radar model.
//!
//! Autoware's RADAR interface was "under development" at the time of the
//! paper (§II-A: "object detection in higher distance ranges compared to
//! LiDAR, but with lower precision"). The reproduction implements it as
//! an extension: a narrow forward cone, long range, noisy position but a
//! direct range-rate (Doppler) measurement.

use crate::Scene;
use av_des::{Leaf, SnapError, SnapReader, SnapWriter, StreamRng};
use av_geom::normalize_angle;

/// Radar sensor parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RadarConfig {
    /// Scan rate, Hz.
    pub rate_hz: f64,
    /// Maximum detection range, meters (beyond LiDAR's).
    pub max_range: f64,
    /// Half-width of the forward cone, degrees.
    pub half_fov_deg: f64,
    /// Range noise (1σ), meters — coarser than LiDAR.
    pub range_noise: f64,
    /// Bearing noise (1σ), radians.
    pub bearing_noise: f64,
    /// Range-rate noise (1σ), m/s.
    pub range_rate_noise: f64,
    /// Detection probability for a car-sized target in the cone.
    pub detection_prob: f64,
}

impl Default for RadarConfig {
    fn default() -> RadarConfig {
        RadarConfig {
            rate_hz: 20.0,
            max_range: 150.0,
            half_fov_deg: 30.0,
            range_noise: 0.5,
            bearing_noise: 0.01,
            range_rate_noise: 0.12,
            detection_prob: 0.9,
        }
    }
}

/// One radar return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadarTarget {
    /// Range from the sensor, meters.
    pub range: f64,
    /// Bearing from the body +x axis, radians (left positive).
    pub bearing: f64,
    /// Radial velocity (positive = receding), m/s.
    pub range_rate: f64,
    /// Radar cross-section estimate, dBsm-ish (car ≫ pedestrian).
    pub rcs: f64,
}

/// A full radar scan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RadarScan {
    /// Returns, unordered.
    pub targets: Vec<RadarTarget>,
}

/// Checkpoint and bag encoding: the fields in declaration order.
impl Leaf for RadarTarget {
    fn put(&self, w: &mut SnapWriter) {
        [self.range, self.bearing, self.range_rate, self.rcs].put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<RadarTarget, SnapError> {
        let [range, bearing, range_rate, rcs] = <[f64; 4]>::get(r)?;
        Ok(RadarTarget { range, bearing, range_rate, rcs })
    }
}

/// Checkpoint and bag encoding: the targets as a sequence.
impl Leaf for RadarScan {
    fn put(&self, w: &mut SnapWriter) {
        self.targets.put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<RadarScan, SnapError> {
        Ok(RadarScan { targets: Vec::get(r)? })
    }
}

/// The radar model.
///
/// ```
/// use av_des::RngStreams;
/// use av_world::{RadarConfig, RadarModel, ScenarioConfig, World};
///
/// let world = World::generate(&ScenarioConfig::smoke_test());
/// let radar = RadarModel::new(RadarConfig::default());
/// let mut rng = RngStreams::new(1).stream("radar");
/// let scan = radar.scan(&world.snapshot(0.0), &mut rng);
/// assert!(scan.targets.len() <= 50);
/// ```
#[derive(Debug, Clone)]
pub struct RadarModel {
    config: RadarConfig,
}

impl RadarModel {
    /// Creates the model.
    pub fn new(config: RadarConfig) -> RadarModel {
        RadarModel { config }
    }

    /// Sensor parameters.
    pub fn config(&self) -> &RadarConfig {
        &self.config
    }

    /// Scans the scene from the ego's front bumper.
    pub fn scan(&self, scene: &Scene, rng: &mut StreamRng) -> RadarScan {
        let ego = scene.ego.pose;
        let half_fov = self.config.half_fov_deg.to_radians();
        let ego_vel = ego.transform_vector(av_geom::Vec3::new(scene.ego.speed, 0.0, 0.0));
        let targets = scene
            .objects
            .iter()
            .filter_map(|o| {
                let rel = o.pose.translation - ego.translation;
                let range = rel.norm_xy();
                if range < 1.0 || range > self.config.max_range {
                    return None;
                }
                let bearing = normalize_angle(rel.y.atan2(rel.x) - ego.yaw());
                if bearing.abs() > half_fov {
                    return None;
                }
                // Detection probability falls with range and with small
                // cross-sections (pedestrians fade first).
                let rcs: f64 = match o.kind {
                    crate::AgentKind::Car => 10.0,
                    crate::AgentKind::Cyclist => 2.0,
                    crate::AgentKind::Pedestrian => 0.5,
                };
                let range_factor = (1.0 - range / self.config.max_range).clamp(0.05, 1.0);
                let rcs_factor = (rcs / 10.0).clamp(0.2, 1.0);
                if !rng.chance(self.config.detection_prob * range_factor.sqrt() * rcs_factor) {
                    return None;
                }
                // Doppler: radial component of the relative velocity.
                let los = rel.truncate().normalized();
                let rel_vel = o.velocity - ego_vel;
                let range_rate = rel_vel.truncate().dot(los);
                Some(RadarTarget {
                    range: range + rng.normal(0.0, self.config.range_noise),
                    bearing: bearing + rng.normal(0.0, self.config.bearing_noise),
                    range_rate: range_rate + rng.normal(0.0, self.config.range_rate_noise),
                    rcs: rcs + rng.normal(0.0, 1.0),
                })
            })
            .collect();
        RadarScan { targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioConfig, World};
    use av_des::RngStreams;

    fn scan_at(t: f64) -> (RadarScan, Scene) {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let radar = RadarModel::new(RadarConfig::default());
        let mut rng = RngStreams::new(5).stream("radar");
        let scene = world.snapshot(t);
        (radar.scan(&scene, &mut rng), scene)
    }

    #[test]
    fn targets_only_in_forward_cone() {
        for t in [0.0, 5.0, 9.0] {
            let (scan, _) = scan_at(t);
            for target in &scan.targets {
                assert!(target.bearing.abs() <= 31f64.to_radians());
                assert!(target.range <= 152.0);
            }
        }
    }

    #[test]
    fn radar_sees_beyond_lidar_range() {
        // Somewhere along the loop a car should appear past 80 m (LiDAR's
        // max) but inside radar range.
        let world = World::generate(&ScenarioConfig::smoke_test());
        let radar = RadarModel::new(RadarConfig::default());
        let mut rng = RngStreams::new(5).stream("radar");
        let mut found_far = false;
        for i in 0..120 {
            let scan = radar.scan(&world.snapshot(i as f64 * 0.5), &mut rng);
            if scan.targets.iter().any(|t| t.range > 80.0) {
                found_far = true;
                break;
            }
        }
        assert!(found_far, "radar never saw past LiDAR range");
    }

    #[test]
    fn oncoming_traffic_has_closing_range_rate() {
        // Find a scan with a strongly negative range rate (closing target).
        let world = World::generate(&ScenarioConfig::smoke_test());
        let radar = RadarModel::new(RadarConfig::default());
        let mut rng = RngStreams::new(5).stream("radar");
        let closing = (0..200).any(|i| {
            radar
                .scan(&world.snapshot(i as f64 * 0.25), &mut rng)
                .targets
                .iter()
                .any(|t| t.range_rate < -5.0)
        });
        assert!(closing, "no closing targets seen despite oncoming traffic");
    }

    #[test]
    fn cars_have_larger_rcs_than_pedestrians() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let radar = RadarModel::new(RadarConfig::default());
        let mut rng = RngStreams::new(5).stream("radar");
        let mut car_rcs = Vec::new();
        let mut ped_rcs = Vec::new();
        for i in 0..200 {
            let scene = world.snapshot(i as f64 * 0.25);
            for t in radar.scan(&scene, &mut rng).targets {
                if t.rcs > 6.0 {
                    car_rcs.push(t.rcs);
                } else if t.rcs < 3.0 {
                    ped_rcs.push(t.rcs);
                }
            }
        }
        assert!(!car_rcs.is_empty(), "no car returns");
    }

    #[test]
    fn deterministic_given_stream() {
        let (a, _) = scan_at(3.0);
        let (b, _) = scan_at(3.0);
        assert_eq!(a, b);
    }
}
