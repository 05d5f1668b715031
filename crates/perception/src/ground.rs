//! Ray-based ground segmentation — the `ray_ground_filter` node.
//!
//! Autoware's filter walks each LiDAR azimuth ray outward from the sensor,
//! comparing each return's height against the height admissible at its
//! radial distance (a local slope bound, reset by consecutive ground
//! hits). Points within the bound are ground; everything else is kept for
//! object detection.

use av_pointcloud::PointCloud;

/// Parameters of the ray ground filter.
#[derive(Debug, Clone, PartialEq)]
pub struct RayGroundParams {
    /// Azimuth bins the sweep is partitioned into (one "ray" per bin).
    pub rays: usize,
    /// Maximum admissible local slope, radians.
    pub max_slope: f64,
    /// Base height tolerance around the predicted ground, meters.
    pub height_tolerance: f64,
    /// Sensor mount height above ground, meters (predicts the ground plane
    /// at z = −mount_height in the sensor frame).
    pub sensor_height: f64,
    /// Points above this height over predicted ground are always
    /// non-ground, regardless of slope chains.
    pub max_object_height: f64,
}

impl Default for RayGroundParams {
    fn default() -> RayGroundParams {
        RayGroundParams {
            rays: 360,
            max_slope: 0.12,
            height_tolerance: 0.2,
            sensor_height: 1.9,
            max_object_height: 4.0,
        }
    }
}

/// Result of ground segmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundSplit {
    /// Points classified as ground.
    pub ground: PointCloud,
    /// Points above ground (the `/points_no_ground` topic).
    pub no_ground: PointCloud,
}

/// The ray ground filter.
///
/// ```
/// use av_geom::Vec3;
/// use av_pointcloud::PointCloud;
/// use av_perception::RayGroundFilter;
///
/// // A flat ground return and a point 1.5 m above it, same bearing.
/// let cloud = PointCloud::from_positions([
///     Vec3::new(10.0, 0.0, -1.9),
///     Vec3::new(10.0, 0.0, -0.4),
/// ]);
/// let split = RayGroundFilter::new(Default::default()).split(&cloud);
/// assert_eq!(split.ground.len(), 1);
/// assert_eq!(split.no_ground.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RayGroundFilter {
    params: RayGroundParams,
}

impl RayGroundFilter {
    /// Creates a filter.
    ///
    /// # Panics
    ///
    /// Panics if `rays == 0`.
    pub fn new(params: RayGroundParams) -> RayGroundFilter {
        assert!(params.rays > 0, "need at least one azimuth ray");
        RayGroundFilter { params }
    }

    /// Filter parameters.
    pub fn params(&self) -> &RayGroundParams {
        &self.params
    }

    /// Splits a sensor-frame sweep into ground and non-ground points.
    pub fn split(&self, cloud: &PointCloud) -> GroundSplit {
        let p = &self.params;
        // Bin points by azimuth; keep (radial distance, index).
        let mut bins: Vec<Vec<(f64, usize)>> = vec![Vec::new(); p.rays];
        for (idx, point) in cloud.iter().enumerate() {
            let pos = point.position;
            let azimuth = pos.y.atan2(pos.x);
            // `as usize` floors (and clamps below at 0) by itself.
            let bin = (((azimuth + std::f64::consts::PI) / (2.0 * std::f64::consts::PI))
                * p.rays as f64) as usize;
            let bin = bin.min(p.rays - 1);
            bins[bin].push((pos.norm_xy(), idx));
        }

        let mut is_ground = vec![false; cloud.len()];
        for bin in &mut bins {
            bin.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Walk outward. Ground prediction starts at the plane under the
            // sensor and follows accepted ground returns.
            let mut prev_radius = 0.0f64;
            let mut prev_ground_z = -p.sensor_height;
            for &(radius, idx) in bin.iter() {
                let z = cloud.point(idx).position.z;
                let dr = (radius - prev_radius).max(0.0);
                let admissible = p.height_tolerance + dr * p.max_slope.tan();
                let height_over_pred = z - prev_ground_z;
                if height_over_pred.abs() <= admissible
                    && z < -p.sensor_height + p.max_object_height
                {
                    is_ground[idx] = true;
                    prev_radius = radius;
                    prev_ground_z = z;
                }
                // Non-ground points do not advance the ground estimate: a
                // car roof must not become the new "ground".
            }
        }

        let mut ground = PointCloud::with_capacity(cloud.len() / 2);
        let mut no_ground = PointCloud::with_capacity(cloud.len() / 2);
        for (idx, point) in cloud.iter().enumerate() {
            if is_ground[idx] {
                ground.push(*point);
            } else {
                no_ground.push(*point);
            }
        }
        GroundSplit { ground, no_ground }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_geom::Vec3;

    fn filter() -> RayGroundFilter {
        RayGroundFilter::new(RayGroundParams::default())
    }

    /// Flat ground ring at several distances along one bearing.
    fn flat_ground_ray() -> Vec<Vec3> {
        (1..20).map(|i| Vec3::new(i as f64 * 2.0, 0.0, -1.9)).collect()
    }

    #[test]
    fn flat_ground_all_ground() {
        let cloud = PointCloud::from_positions(flat_ground_ray());
        let split = filter().split(&cloud);
        assert_eq!(split.no_ground.len(), 0);
        assert_eq!(split.ground.len(), 19);
    }

    #[test]
    fn wall_points_are_object() {
        let mut pts = flat_ground_ray();
        // A vertical wall at 15 m: points from 0.5 m to 3 m above ground.
        for i in 0..6 {
            pts.push(Vec3::new(15.0, 0.0, -1.9 + 0.5 + i as f64 * 0.5));
        }
        let cloud = PointCloud::from_positions(pts);
        let split = filter().split(&cloud);
        assert_eq!(split.no_ground.len(), 6);
    }

    #[test]
    fn gentle_slope_stays_ground() {
        // 5% grade road.
        let pts: Vec<Vec3> =
            (1..30).map(|i| Vec3::new(i as f64 * 2.0, 0.0, -1.9 + i as f64 * 2.0 * 0.05)).collect();
        let cloud = PointCloud::from_positions(pts);
        let split = filter().split(&cloud);
        assert_eq!(split.no_ground.len(), 0, "5% slope must pass a 12% bound");
    }

    #[test]
    fn car_body_detected_over_ground() {
        let mut pts = flat_ground_ray();
        // Car-roof-like returns at 10–12 m, ~0.4–1.5 m above ground.
        for i in 0..8 {
            pts.push(Vec3::new(10.0 + (i % 4) as f64 * 0.5, 0.1, -1.5 + (i / 4) as f64 * 1.0));
        }
        let cloud = PointCloud::from_positions(pts);
        let split = filter().split(&cloud);
        assert!(split.no_ground.len() >= 6, "car returns must survive: {}", split.no_ground.len());
        // Ground beyond the car is still recognized (estimate not hijacked).
        let far_ground = split.ground.positions().filter(|p| p.x > 14.0).count();
        assert!(far_ground > 0);
    }

    #[test]
    fn different_bearings_are_independent() {
        // Ground on one bearing, a floating object on the opposite one.
        let mut pts = flat_ground_ray();
        pts.push(Vec3::new(-10.0, 0.0, 0.0)); // 1.9 m above ground, behind
        let cloud = PointCloud::from_positions(pts);
        let split = filter().split(&cloud);
        assert_eq!(split.no_ground.len(), 1);
    }

    #[test]
    fn empty_cloud_is_fine() {
        let split = filter().split(&PointCloud::new());
        assert!(split.ground.is_empty() && split.no_ground.is_empty());
    }

    #[test]
    fn split_partitions_cloud() {
        let mut pts = flat_ground_ray();
        pts.push(Vec3::new(5.0, 1.0, 0.0));
        pts.push(Vec3::new(7.0, -2.0, -0.5));
        let cloud = PointCloud::from_positions(pts.clone());
        let split = filter().split(&cloud);
        assert_eq!(split.ground.len() + split.no_ground.len(), pts.len());
    }
}
