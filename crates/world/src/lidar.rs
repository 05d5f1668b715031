//! Spinning multi-beam LiDAR raycaster.

use crate::scenario::BoxRays;
use crate::{ObstacleBox, Scene, World};
use av_des::StreamRng;
use av_geom::{deg_to_rad, normalize_angle, Vec3};
use av_pointcloud::{Point, PointCloud};

/// LiDAR sensor parameters (VLP-16-class by default).
#[derive(Debug, Clone, PartialEq)]
pub struct LidarConfig {
    /// Number of vertical beams.
    pub rings: usize,
    /// Lowest beam elevation, degrees.
    pub vertical_min_deg: f64,
    /// Highest beam elevation, degrees.
    pub vertical_max_deg: f64,
    /// Azimuth samples per revolution.
    pub azimuth_steps: usize,
    /// Revolutions per second (also the sweep publication rate).
    pub rate_hz: f64,
    /// Maximum return range, meters.
    pub max_range: f64,
    /// Gaussian range noise, meters (1σ).
    pub range_noise_std: f64,
    /// Sensor mount height above ground, meters.
    pub mount_height: f64,
}

impl Default for LidarConfig {
    /// A VLP-16 spinning at 10 Hz, angularly down-sampled to keep the
    /// simulation fast while preserving per-object point counts large
    /// enough for clustering.
    fn default() -> LidarConfig {
        LidarConfig {
            rings: 16,
            vertical_min_deg: -15.0,
            vertical_max_deg: 15.0,
            azimuth_steps: 360,
            rate_hz: 10.0,
            max_range: 80.0,
            range_noise_std: 0.02,
            mount_height: 1.9,
        }
    }
}

impl LidarConfig {
    /// Tiny configuration for unit tests.
    pub fn tiny() -> LidarConfig {
        LidarConfig { rings: 8, azimuth_steps: 120, ..LidarConfig::default() }
    }

    /// Rays per sweep.
    pub fn rays_per_sweep(&self) -> usize {
        self.rings * self.azimuth_steps
    }
}

/// One obstacle's bearing window, and the box-frame setup every ray
/// meeting it shares, computed once per scan.
struct Candidate {
    bearing: f64,
    half_angle: f64,
    rays: BoxRays,
    intensity: f32,
}

/// The LiDAR model: raycasts the world geometry into a sensor-frame point
/// cloud.
///
/// ```
/// use av_world::{LidarConfig, LidarModel, ScenarioConfig, World};
/// use av_des::RngStreams;
///
/// let world = World::generate(&ScenarioConfig::smoke_test());
/// let lidar = LidarModel::new(LidarConfig::tiny());
/// let mut rng = RngStreams::new(1).stream("lidar");
/// let sweep = lidar.scan(&world, &world.snapshot(0.0), &mut rng);
/// assert!(!sweep.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LidarModel {
    config: LidarConfig,
}

impl LidarModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if rings or azimuth steps are zero.
    pub fn new(config: LidarConfig) -> LidarModel {
        assert!(config.rings > 0 && config.azimuth_steps > 0, "lidar needs beams");
        LidarModel { config }
    }

    /// Sensor parameters.
    pub fn config(&self) -> &LidarConfig {
        &self.config
    }

    /// Raycasts one sweep at the scene instant.
    ///
    /// Points are returned in the *sensor body frame* (x forward along ego
    /// heading, z up, origin at the sensor head). Ground returns, building
    /// returns and agent returns all appear, with per-surface intensity and
    /// Gaussian range noise.
    pub fn scan(&self, world: &World, scene: &Scene, rng: &mut StreamRng) -> PointCloud {
        let ego = scene.ego.pose;
        let origin = ego.translation + Vec3::new(0.0, 0.0, self.config.mount_height);

        // Gather obstacle candidates with angular pruning records. Each
        // also holds what its rays share (the box's inverse pose, the
        // origin in the box frame, the box as an AABB there), so a ray
        // only rotates its direction into the box frame.
        let dynamic: Vec<ObstacleBox> = scene.objects.iter().map(|o| o.obstacle()).collect();
        let candidates: Vec<Candidate> = world
            .buildings()
            .iter()
            .chain(&dynamic)
            .filter_map(|b| {
                let to = b.center() - origin;
                let dist = to.norm_xy();
                if dist - b.bounding_radius() > self.config.max_range {
                    return None;
                }
                let bearing = normalize_angle(to.y.atan2(to.x) - ego.yaw());
                let half_angle = if dist > b.bounding_radius() {
                    (b.bounding_radius() / dist).asin()
                } else {
                    std::f64::consts::PI // engulfing; never prune
                };
                Some(Candidate {
                    bearing,
                    half_angle,
                    rays: b.rays_from(origin),
                    intensity: b.intensity,
                })
            })
            .collect();

        let azimuth_step = 2.0 * std::f64::consts::PI / self.config.azimuth_steps as f64;
        let v_min = deg_to_rad(self.config.vertical_min_deg);
        let v_max = deg_to_rad(self.config.vertical_max_deg);
        let v_step = if self.config.rings > 1 {
            (v_max - v_min) / (self.config.rings - 1) as f64
        } else {
            0.0
        };
        // Each ring's elevation depends on the ring alone: one `sin_cos`
        // per ring per sweep, not per ray.
        let elevations: Vec<(f64, f64)> =
            (0..self.config.rings).map(|ring| (v_min + ring as f64 * v_step).sin_cos()).collect();

        let mut cloud = PointCloud::with_capacity(self.config.rays_per_sweep() / 2);
        let mut visible: Vec<&Candidate> = Vec::with_capacity(candidates.len());
        for az_idx in 0..self.config.azimuth_steps {
            let azimuth = normalize_angle(-std::f64::consts::PI + az_idx as f64 * azimuth_step);
            let (sin_az, cos_az) = azimuth.sin_cos();
            // Obstacles pruned by bearing. The test depends on the azimuth
            // alone, so it runs once per column, not once per ring; the
            // survivors keep candidate order.
            visible.clear();
            visible.extend(candidates.iter().filter(|c| {
                normalize_angle(azimuth - c.bearing).abs() <= c.half_angle + azimuth_step
            }));
            for (ring, &(sin_el, cos_el)) in elevations.iter().enumerate() {
                // Direction in the sensor body frame.
                let dir_body = Vec3::new(cos_el * cos_az, cos_el * sin_az, sin_el);
                let dir_world = ego.transform_vector(dir_body);

                let mut best_t = f64::INFINITY;
                let mut best_intensity = 0.0f32;

                // Ground plane z = 0.
                if dir_world.z < -1e-9 {
                    let t = -origin.z / dir_world.z;
                    if t < best_t && t <= self.config.max_range {
                        best_t = t;
                        best_intensity = 0.3;
                    }
                }

                for c in &visible {
                    if let Some(t) = c.rays.intersect(dir_world) {
                        if t > 0.1 && t < best_t && t <= self.config.max_range {
                            best_t = t;
                            best_intensity = c.intensity;
                        }
                    }
                }

                if best_t.is_finite() {
                    let t_noisy = (best_t + rng.normal(0.0, self.config.range_noise_std)).max(0.1);
                    cloud.push(Point {
                        position: dir_body * t_noisy,
                        intensity: best_intensity,
                        ring: ring as u8,
                    });
                }
            }
        }
        cloud
    }
}

#[cfg(test)]
impl LidarModel {
    /// [`scan`](Self::scan) as it was before the per-scan hoists: each
    /// ray computes its ring's `sin_cos` and, for every visible
    /// obstacle, the whole of [`ObstacleBox::ray_intersect`]. Retained as
    /// the oracle the scan is pinned to bit for bit. (It also added a
    /// per-obstacle intensity boost that was always `0.0`; every
    /// intensity is a positive constant, so that changed no bit.)
    fn scan_reference(&self, world: &World, scene: &Scene, rng: &mut StreamRng) -> PointCloud {
        struct Candidate<'a> {
            obstacle: &'a ObstacleBox,
            bearing: f64,
            half_angle: f64,
        }
        let ego = scene.ego.pose;
        let origin = ego.translation + Vec3::new(0.0, 0.0, self.config.mount_height);
        let dynamic: Vec<ObstacleBox> = scene.objects.iter().map(|o| o.obstacle()).collect();
        let candidates: Vec<Candidate<'_>> = world
            .buildings()
            .iter()
            .chain(&dynamic)
            .filter_map(|b| {
                let to = b.center() - origin;
                let dist = to.norm_xy();
                if dist - b.bounding_radius() > self.config.max_range {
                    return None;
                }
                let bearing = normalize_angle(to.y.atan2(to.x) - ego.yaw());
                let half_angle = if dist > b.bounding_radius() {
                    (b.bounding_radius() / dist).asin()
                } else {
                    std::f64::consts::PI
                };
                Some(Candidate { obstacle: b, bearing, half_angle })
            })
            .collect();

        let azimuth_step = 2.0 * std::f64::consts::PI / self.config.azimuth_steps as f64;
        let v_min = deg_to_rad(self.config.vertical_min_deg);
        let v_max = deg_to_rad(self.config.vertical_max_deg);
        let v_step = if self.config.rings > 1 {
            (v_max - v_min) / (self.config.rings - 1) as f64
        } else {
            0.0
        };

        let mut cloud = PointCloud::with_capacity(self.config.rays_per_sweep() / 2);
        let mut visible: Vec<&Candidate<'_>> = Vec::with_capacity(candidates.len());
        for az_idx in 0..self.config.azimuth_steps {
            let azimuth = normalize_angle(-std::f64::consts::PI + az_idx as f64 * azimuth_step);
            let (sin_az, cos_az) = azimuth.sin_cos();
            visible.clear();
            visible.extend(candidates.iter().filter(|c| {
                normalize_angle(azimuth - c.bearing).abs() <= c.half_angle + azimuth_step
            }));
            for ring in 0..self.config.rings {
                let elevation = v_min + ring as f64 * v_step;
                let (sin_el, cos_el) = elevation.sin_cos();
                let dir_body = Vec3::new(cos_el * cos_az, cos_el * sin_az, sin_el);
                let dir_world = ego.transform_vector(dir_body);

                let mut best_t = f64::INFINITY;
                let mut best_intensity = 0.0f32;
                if dir_world.z < -1e-9 {
                    let t = -origin.z / dir_world.z;
                    if t < best_t && t <= self.config.max_range {
                        best_t = t;
                        best_intensity = 0.3;
                    }
                }
                for c in &visible {
                    if let Some(t) = c.obstacle.ray_intersect(origin, dir_world) {
                        if t > 0.1 && t < best_t && t <= self.config.max_range {
                            best_t = t;
                            best_intensity = c.obstacle.intensity;
                        }
                    }
                }
                if best_t.is_finite() {
                    let t_noisy = (best_t + rng.normal(0.0, self.config.range_noise_std)).max(0.1);
                    cloud.push(Point {
                        position: dir_body * t_noisy,
                        intensity: best_intensity,
                        ring: ring as u8,
                    });
                }
            }
        }
        cloud
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;
    use av_des::RngStreams;

    fn scan_once(seed: u64) -> PointCloud {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let lidar = LidarModel::new(LidarConfig::tiny());
        let mut rng = RngStreams::new(seed).stream("lidar");
        lidar.scan(&world, &world.snapshot(1.0), &mut rng)
    }

    #[test]
    fn scan_is_deterministic() {
        assert_eq!(scan_once(5), scan_once(5));
    }

    #[test]
    fn noise_seed_changes_ranges_not_structure() {
        let a = scan_once(5);
        let b = scan_once(6);
        assert_eq!(a.len(), b.len(), "hit pattern should not depend on noise seed");
        assert_ne!(a, b);
    }

    #[test]
    fn downward_beams_hit_ground() {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let lidar = LidarModel::new(LidarConfig::tiny());
        let mut rng = RngStreams::new(1).stream("l");
        let sweep = lidar.scan(&world, &world.snapshot(0.0), &mut rng);
        let ground_points = sweep
            .iter()
            .filter(|p| (p.position.z + lidar.config().mount_height).abs() < 0.3)
            .count();
        assert!(ground_points > sweep.len() / 10, "expected many ground returns");
    }

    #[test]
    fn points_within_max_range() {
        let sweep = scan_once(2);
        for p in sweep.iter() {
            assert!(p.position.norm() <= LidarConfig::tiny().max_range + 0.5);
        }
    }

    #[test]
    fn nearby_car_produces_cluster() {
        // Scan from a scene and check some returns carry car intensity.
        let world = World::generate(&ScenarioConfig::smoke_test());
        let lidar = LidarModel::new(LidarConfig::default());
        let mut rng = RngStreams::new(1).stream("l");
        // Search a few snapshot instants for one with a close car.
        let mut found = false;
        for i in 0..20 {
            let scene = world.snapshot(i as f64);
            let has_close_car = scene.objects_within(25.0).any(|o| o.kind == crate::AgentKind::Car);
            if !has_close_car {
                continue;
            }
            let sweep = lidar.scan(&world, &scene, &mut rng);
            let car_hits = sweep.iter().filter(|p| (p.intensity - 0.8).abs() < 1e-3).count();
            if car_hits >= 5 {
                found = true;
                break;
            }
        }
        assert!(found, "no scene produced a visible car cluster");
    }

    /// The scan equals the retained per-ray raycast bit for bit, on the
    /// smoke and the paper world with traffic (and without, as the map
    /// build scans), at several instants and noise seeds, for the tiny,
    /// the default and a single-ring sensor (`v_step = 0`).
    #[test]
    fn scan_matches_the_reference_bit_for_bit() {
        let configs = [
            LidarConfig::tiny(),
            LidarConfig::default(),
            LidarConfig { rings: 1, azimuth_steps: 90, ..LidarConfig::default() },
        ];
        let bits = |c: &PointCloud| -> Vec<(u64, u64, u64, u32, u8)> {
            c.iter()
                .map(|p| {
                    let q = p.position;
                    (q.x.to_bits(), q.y.to_bits(), q.z.to_bits(), p.intensity.to_bits(), p.ring)
                })
                .collect()
        };
        let mut traffic_seen = 0;
        for scenario in [ScenarioConfig::smoke_test(), ScenarioConfig::urban_drive()] {
            let world = World::generate(&scenario);
            for config in &configs {
                let lidar = LidarModel::new(config.clone());
                for (i, t) in [0.0, 7.5, 20.0, 45.0].into_iter().enumerate() {
                    let mut scene = world.snapshot(t);
                    if i == 3 {
                        scene.objects.clear();
                    }
                    traffic_seen += scene.objects_within(config.max_range).count();
                    for seed in [1, 9] {
                        let mut fast = RngStreams::new(seed).stream("lidar");
                        let mut slow = RngStreams::new(seed).stream("lidar");
                        let got = lidar.scan(&world, &scene, &mut fast);
                        let want = lidar.scan_reference(&world, &scene, &mut slow);
                        assert!(!got.is_empty());
                        assert_eq!(bits(&got), bits(&want), "t = {t}, seed {seed}, {config:?}");
                        assert_eq!(fast.next_u64(), slow.next_u64(), "noise draws differ");
                    }
                }
            }
        }
        assert!(traffic_seen > 0, "no scene had traffic in range");
    }

    #[test]
    fn rays_per_sweep_reported() {
        assert_eq!(LidarConfig::tiny().rays_per_sweep(), 8 * 120);
    }

    /// The default 16×360 sensor over the urban world, pinned bit for bit
    /// at three instants with traffic in range: positions, intensities,
    /// rings and point counts all feed the digest.
    #[test]
    fn default_urban_scan_digest_is_pinned() {
        let world = World::generate(&ScenarioConfig::urban_drive());
        let lidar = LidarModel::new(LidarConfig::default());
        let mut rng = RngStreams::new(3).stream("lidar");
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in [3.0, 20.0, 45.0] {
            let scene = world.snapshot(t);
            let traffic = scene.objects_within(lidar.config().max_range).count();
            assert!(traffic > 0, "no traffic in range at t = {t}");
            let sweep = lidar.scan(&world, &scene, &mut rng);
            eat(sweep.len() as u64);
            for p in sweep.iter() {
                eat(p.position.x.to_bits());
                eat(p.position.y.to_bits());
                eat(p.position.z.to_bits());
                eat(u64::from(p.intensity.to_bits()));
                eat(u64::from(p.ring));
            }
        }
        assert_eq!(digest, 0x31ad_1bfe_a48a_8f6d, "default urban scan digest moved");
    }
}
