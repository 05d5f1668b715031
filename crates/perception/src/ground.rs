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
    ///
    /// The bins lie in one buffer, filled by a counting sort in point
    /// order, each then sorted by the same stable sort as
    /// [`split_reference`](Self::split_reference)'s per-bin vectors, so
    /// every bin walks the same sequence and the split is identical.
    pub fn split(&self, cloud: &PointCloud) -> GroundSplit {
        let p = &self.params;
        // Bin points by azimuth; keep (radial distance, index).
        let mut starts = vec![0usize; p.rays + 1];
        let binned: Vec<(usize, f64)> = cloud
            .iter()
            .map(|point| {
                let bin = self.bin_of(point.position);
                starts[bin + 1] += 1;
                (bin, point.position.norm_xy())
            })
            .collect();
        for b in 0..p.rays {
            starts[b + 1] += starts[b];
        }
        let mut cursor = starts.clone();
        let mut flat = vec![(0.0, 0usize); cloud.len()];
        for (idx, &(bin, radius)) in binned.iter().enumerate() {
            flat[cursor[bin]] = (radius, idx);
            cursor[bin] += 1;
        }

        let mut is_ground = vec![false; cloud.len()];
        let slope = p.max_slope.tan();
        let ceiling = -p.sensor_height + p.max_object_height;
        for b in 0..p.rays {
            let bin = &mut flat[starts[b]..starts[b + 1]];
            bin.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Walk outward. Ground prediction starts at the plane under the
            // sensor and follows accepted ground returns.
            let mut prev_radius = 0.0f64;
            let mut prev_ground_z = -p.sensor_height;
            for &(radius, idx) in bin.iter() {
                let z = cloud.point(idx).position.z;
                let dr = (radius - prev_radius).max(0.0);
                let admissible = p.height_tolerance + dr * slope;
                let height_over_pred = z - prev_ground_z;
                if height_over_pred.abs() <= admissible && z < ceiling {
                    is_ground[idx] = true;
                    prev_radius = radius;
                    prev_ground_z = z;
                }
                // Non-ground points do not advance the ground estimate: a
                // car roof must not become the new "ground".
            }
        }
        Self::partition(cloud, &is_ground)
    }

    /// The azimuth bin of a sensor-frame position.
    fn bin_of(&self, pos: av_geom::Vec3) -> usize {
        let azimuth = pos.y.atan2(pos.x);
        // `as usize` floors (and clamps below at 0) by itself.
        let bin = (((azimuth + std::f64::consts::PI) / (2.0 * std::f64::consts::PI))
            * self.params.rays as f64) as usize;
        bin.min(self.params.rays - 1)
    }

    /// The cloud's ground and non-ground points, each in input order.
    fn partition(cloud: &PointCloud, is_ground: &[bool]) -> GroundSplit {
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
impl RayGroundFilter {
    /// The original split, with a vector per bin and `tan` per point:
    /// the oracle [`split`](Self::split) is checked against bit for bit.
    fn split_reference(&self, cloud: &PointCloud) -> GroundSplit {
        let p = &self.params;
        let mut bins: Vec<Vec<(f64, usize)>> = vec![Vec::new(); p.rays];
        for (idx, point) in cloud.iter().enumerate() {
            let pos = point.position;
            bins[self.bin_of(pos)].push((pos.norm_xy(), idx));
        }

        let mut is_ground = vec![false; cloud.len()];
        for bin in &mut bins {
            bin.sort_by(|a, b| a.0.total_cmp(&b.0));
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
            }
        }
        Self::partition(cloud, &is_ground)
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

#[cfg(test)]
mod proptests {
    //! Seeded property tests: the flat counting-sorted bins equal the
    //! retained per-bin-vector oracle bit for bit.
    use super::*;
    use av_des::{RngStreams, StreamRng};
    use av_geom::Vec3;

    fn bits(cloud: &PointCloud) -> Vec<[u64; 3]> {
        cloud.positions().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
    }

    fn assert_matches_reference(filter: &RayGroundFilter, cloud: &PointCloud, what: &str) {
        let (split, reference) = (filter.split(cloud), filter.split_reference(cloud));
        assert_eq!(bits(&split.ground), bits(&reference.ground), "{what}: ground");
        assert_eq!(bits(&split.no_ground), bits(&reference.no_ground), "{what}: no_ground");
    }

    fn filter(rng: &mut StreamRng) -> RayGroundFilter {
        let rays = [1, 2, 7, 360, 1024][rng.uniform_usize(5)];
        RayGroundFilter::new(RayGroundParams {
            rays,
            max_slope: rng.uniform(0.0, 0.5),
            ..RayGroundParams::default()
        })
    }

    /// Ground rings, clutter and walls at random bearings.
    #[test]
    fn random_sweeps_match_the_reference() {
        let mut rng = RngStreams::new(0x960).stream("sweeps");
        for round in 0..64 {
            let n = rng.uniform_usize(800);
            let cloud = PointCloud::from_positions((0..n).map(|_| {
                let (r, a) = (rng.uniform(0.5, 60.0), rng.uniform(-3.2, 3.2));
                Vec3::new(r * a.cos(), r * a.sin(), rng.uniform(-2.1, 1.0))
            }));
            assert_matches_reference(&filter(&mut rng), &cloud, &format!("round {round}"));
        }
    }

    /// Many points on a handful of radii and bearings: long runs of
    /// equal sort keys, where only a stable sort keeps input order.
    #[test]
    fn equal_radii_match_the_reference() {
        let mut rng = RngStreams::new(0x960).stream("radii");
        for round in 0..64 {
            let radii: Vec<f64> = (0..3).map(|_| rng.uniform(1.0, 30.0)).collect();
            let bearings: Vec<f64> = (0..4).map(|_| rng.uniform(-3.2, 3.2)).collect();
            let cloud = PointCloud::from_positions((0..300).map(|_| {
                let r = radii[rng.uniform_usize(radii.len())];
                let a = bearings[rng.uniform_usize(bearings.len())];
                Vec3::new(r * a.cos(), r * a.sin(), -1.9 + rng.uniform(-0.3, 0.6))
            }));
            assert_matches_reference(&filter(&mut rng), &cloud, &format!("round {round}"));
        }
    }

    /// Azimuth exactly ±π (`y = ±0` behind the sensor) lands in the last
    /// and the first bin; NaN coordinates land in bin 0 or sort last.
    #[test]
    fn edge_bearings_and_nan_match_the_reference() {
        let nan = f64::NAN;
        let mut pts = vec![
            Vec3::new(-5.0, 0.0, -1.9),
            Vec3::new(-5.0, -0.0, -1.9),
            Vec3::new(-7.0, 0.0, -1.5),
            Vec3::new(-7.0, -0.0, -1.5),
            Vec3::new(0.0, 0.0, -1.9),
            Vec3::new(-0.0, -0.0, -1.9),
            Vec3::new(nan, 1.0, -1.9),
            Vec3::new(1.0, nan, -1.9),
            Vec3::new(3.0, 1.0, nan),
            Vec3::new(nan, nan, nan),
            Vec3::new(f64::INFINITY, 0.0, -1.9),
            Vec3::new(f64::NEG_INFINITY, 0.0, -1.9),
        ];
        let mut rng = RngStreams::new(0x960).stream("edges");
        for _ in 0..200 {
            let r = rng.uniform(0.5, 40.0);
            pts.push(Vec3::new(-r, [0.0, -0.0][rng.uniform_usize(2)], rng.uniform(-2.1, 0.5)));
        }
        for rays in [1, 2, 7, 360] {
            let filter =
                RayGroundFilter::new(RayGroundParams { rays, ..RayGroundParams::default() });
            assert_matches_reference(&filter, &PointCloud::from_positions(pts.clone()), "edges");
        }
    }
}
