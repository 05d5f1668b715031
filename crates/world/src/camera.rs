//! Forward camera model: pinhole projection of scene objects.

use crate::{AgentKind, LightState, Scene, World};
use av_des::{Leaf, SnapError, SnapReader, SnapWriter};
use av_geom::{deg_to_rad, normalize_angle};

/// Camera parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CameraConfig {
    /// Image width, pixels.
    pub width: u32,
    /// Image height, pixels.
    pub height: u32,
    /// Horizontal field of view, degrees.
    pub hfov_deg: f64,
    /// Frame rate, Hz.
    pub rate_hz: f64,
    /// Maximum distance at which an object is resolvable, meters.
    pub max_range: f64,
    /// Mount height above ground, meters.
    pub mount_height: f64,
}

impl Default for CameraConfig {
    /// A 1280×960 forward camera at 15 Hz — the rate that makes SSD512's
    /// ~80 ms service time drop ~1 in 6 frames, as in Table III.
    fn default() -> CameraConfig {
        CameraConfig {
            width: 1280,
            height: 960,
            hfov_deg: 90.0,
            rate_hz: 15.0,
            max_range: 70.0,
            mount_height: 1.5,
        }
    }
}

/// One ground-truth-visible object in a camera frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibleObject {
    /// Scene object id.
    pub id: u32,
    /// Object class.
    pub kind: AgentKind,
    /// 2D box `(x, y, w, h)` in pixels, clamped to the image.
    pub bbox: (f64, f64, f64, f64),
    /// Distance from the camera, meters.
    pub distance: f64,
    /// Fraction of the object's angular extent hidden by closer objects,
    /// in `[0, 1]`.
    pub occlusion: f64,
}

/// A traffic light visible in a camera frame (ground truth for the
/// recognition node's classification).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibleLight {
    /// HD-map light id.
    pub id: u32,
    /// 2D box `(x, y, w, h)` of the light head, pixels.
    pub bbox: (f64, f64, f64, f64),
    /// Ground-truth signal state at capture time.
    pub state: LightState,
    /// Distance from the camera, meters.
    pub distance: f64,
}

/// A synthetic camera frame: no pixels, but everything the vision-detection
/// node's behaviour depends on — the visible objects (ground truth for
/// detection synthesis), visible traffic lights, and a clutter estimate
/// (drives the number of candidate boxes the detector's post-processing
/// must sort).
#[derive(Debug, Clone, PartialEq)]
pub struct ImageFrame {
    /// Image width, pixels.
    pub width: u32,
    /// Image height, pixels.
    pub height: u32,
    /// Objects visible in the frame, nearest first.
    pub visible: Vec<VisibleObject>,
    /// Traffic lights visible (facing the camera, within range).
    pub lights: Vec<VisibleLight>,
    /// Scene clutter estimate (≥ 0): buildings and objects in the FOV.
    pub clutter: f64,
}

impl ImageFrame {
    /// Approximate encoded size (bytes) for modeling transport copies.
    pub fn byte_size(&self) -> u64 {
        // Bayer-ish raw frame.
        (self.width as u64) * (self.height as u64)
    }
}

/// Checkpoint and bag encoding: the fields in declaration order.
impl Leaf for VisibleObject {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(self.id);
        self.kind.put(w);
        self.bbox.put(w);
        w.put_f64(self.distance);
        w.put_f64(self.occlusion);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<VisibleObject, SnapError> {
        Ok(VisibleObject {
            id: r.get_u32()?,
            kind: AgentKind::get(r)?,
            bbox: Leaf::get(r)?,
            distance: r.get_f64()?,
            occlusion: r.get_f64()?,
        })
    }
}

/// Checkpoint and bag encoding: the fields in declaration order.
impl Leaf for VisibleLight {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(self.id);
        self.bbox.put(w);
        self.state.put(w);
        w.put_f64(self.distance);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<VisibleLight, SnapError> {
        Ok(VisibleLight {
            id: r.get_u32()?,
            bbox: Leaf::get(r)?,
            state: LightState::get(r)?,
            distance: r.get_f64()?,
        })
    }
}

/// Checkpoint and bag encoding: the fields in declaration order.
impl Leaf for ImageFrame {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(self.width);
        w.put_u32(self.height);
        self.visible.put(w);
        self.lights.put(w);
        w.put_f64(self.clutter);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<ImageFrame, SnapError> {
        Ok(ImageFrame {
            width: r.get_u32()?,
            height: r.get_u32()?,
            visible: Vec::get(r)?,
            lights: Vec::get(r)?,
            clutter: r.get_f64()?,
        })
    }
}

/// The camera model.
///
/// ```
/// use av_world::{CameraConfig, CameraModel, ScenarioConfig, World};
/// let world = World::generate(&ScenarioConfig::smoke_test());
/// let cam = CameraModel::new(CameraConfig::default());
/// let frame = cam.capture(&world, &world.snapshot(0.0));
/// assert_eq!(frame.width, 1280);
/// ```
#[derive(Debug, Clone)]
pub struct CameraModel {
    config: CameraConfig,
}

impl CameraModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the field of view is not in `(0°, 180°)`.
    pub fn new(config: CameraConfig) -> CameraModel {
        assert!(
            config.hfov_deg > 0.0 && config.hfov_deg < 180.0,
            "camera FOV must be in (0, 180) degrees"
        );
        CameraModel { config }
    }

    /// Camera parameters.
    pub fn config(&self) -> &CameraConfig {
        &self.config
    }

    /// Captures a frame of the scene.
    pub fn capture(&self, world: &World, scene: &Scene) -> ImageFrame {
        let ego = scene.ego.pose;
        let half_fov = deg_to_rad(self.config.hfov_deg) / 2.0;
        let px_per_rad = self.config.width as f64 / (2.0 * half_fov);

        // Project candidate objects: bearing/extent intervals.
        struct Projected {
            id: u32,
            kind: AgentKind,
            bearing: f64,
            half_angle: f64,
            distance: f64,
            height_m: f64,
        }
        let mut projected: Vec<Projected> = scene
            .objects
            .iter()
            .filter_map(|o| {
                let rel = o.pose.translation - ego.translation;
                let distance = rel.norm_xy();
                if distance < 1.0 || distance > self.config.max_range {
                    return None;
                }
                let bearing = normalize_angle(rel.y.atan2(rel.x) - ego.yaw());
                let radius = o.half_extents.truncate().norm();
                let half_angle = (radius / distance).atan();
                if bearing.abs() - half_angle > half_fov {
                    return None;
                }
                Some(Projected {
                    id: o.id,
                    kind: o.kind,
                    bearing,
                    half_angle,
                    distance,
                    height_m: o.half_extents.z * 2.0,
                })
            })
            .collect();
        projected.sort_by(|a, b| a.distance.total_cmp(&b.distance));

        // Occlusion: fraction of each interval covered by nearer intervals.
        let mut visible = Vec::new();
        for (i, p) in projected.iter().enumerate() {
            let lo = p.bearing - p.half_angle;
            let hi = p.bearing + p.half_angle;
            let mut covered = 0.0;
            for q in &projected[..i] {
                let qlo = q.bearing - q.half_angle;
                let qhi = q.bearing + q.half_angle;
                let overlap = (hi.min(qhi) - lo.max(qlo)).max(0.0);
                covered += overlap;
            }
            let occlusion = (covered / (hi - lo).max(1e-9)).min(1.0);
            if occlusion >= 0.9 {
                continue;
            }
            // Pixel box: horizontal from the angular interval; vertical
            // from object height at distance (simple pinhole).
            let cx = (self.config.width as f64 / 2.0) - p.bearing * px_per_rad;
            let w = 2.0 * p.half_angle * px_per_rad;
            let h = (p.height_m / p.distance).atan() * px_per_rad;
            let ground_y = self.config.height as f64 * 0.5
                + (self.config.mount_height / p.distance).atan() * px_per_rad;
            let x = (cx - w / 2.0).clamp(0.0, self.config.width as f64);
            let y = (ground_y - h).clamp(0.0, self.config.height as f64);
            let w = w.min(self.config.width as f64 - x);
            let h = h.min(self.config.height as f64 - y);
            visible.push(VisibleObject {
                id: p.id,
                kind: p.kind,
                bbox: (x, y, w, h),
                distance: p.distance,
                occlusion,
            });
        }

        // Clutter: buildings in the FOV (texture, edges) plus objects.
        let buildings_in_fov = world
            .buildings()
            .iter()
            .filter(|b| {
                let rel = b.center() - ego.translation;
                let d = rel.norm_xy();
                if d > self.config.max_range {
                    return false;
                }
                normalize_angle(rel.y.atan2(rel.x) - ego.yaw()).abs() < half_fov
            })
            .count();
        let clutter = buildings_in_fov as f64 * 0.5 + visible.len() as f64;

        // Traffic lights: project heads facing the camera within range.
        let lights = world
            .traffic_lights()
            .iter()
            .filter_map(|light| {
                let rel = light.position - ego.translation;
                let distance = rel.norm_xy();
                if distance < 2.0 || distance > self.config.max_range {
                    return None;
                }
                // The light must face the camera (oncoming signal face).
                if light.facing.truncate().dot(rel.truncate().normalized()) > -0.2 {
                    return None;
                }
                let bearing = normalize_angle(rel.y.atan2(rel.x) - ego.yaw());
                if bearing.abs() > half_fov {
                    return None;
                }
                let cx = (self.config.width as f64 / 2.0) - bearing * px_per_rad;
                let size = (0.4 / distance).atan() * px_per_rad; // ~0.4 m head
                let elevation = ((light.position.z - self.config.mount_height) / distance).atan();
                let cy = self.config.height as f64 / 2.0 - elevation * px_per_rad;
                let x = (cx - size / 2.0).clamp(0.0, self.config.width as f64);
                let y = (cy - size / 2.0).clamp(0.0, self.config.height as f64);
                Some(VisibleLight {
                    id: light.id,
                    bbox: (
                        x,
                        y,
                        size.min(self.config.width as f64 - x),
                        size.min(self.config.height as f64 - y),
                    ),
                    state: light.state_at(scene.time),
                    distance,
                })
            })
            .collect();

        ImageFrame {
            width: self.config.width,
            height: self.config.height,
            visible,
            lights,
            clutter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioConfig, World};

    fn capture_at(t: f64) -> ImageFrame {
        let world = World::generate(&ScenarioConfig::smoke_test());
        let cam = CameraModel::new(CameraConfig::default());
        cam.capture(&world, &world.snapshot(t))
    }

    #[test]
    fn capture_is_deterministic() {
        assert_eq!(capture_at(2.0), capture_at(2.0));
    }

    #[test]
    fn visible_objects_sorted_nearest_first() {
        for t in [0.0, 3.0, 7.0] {
            let frame = capture_at(t);
            for pair in frame.visible.windows(2) {
                assert!(pair[0].distance <= pair[1].distance);
            }
        }
    }

    #[test]
    fn bboxes_inside_image() {
        for t in [0.0, 2.0, 5.0, 9.0] {
            let frame = capture_at(t);
            for v in &frame.visible {
                let (x, y, w, h) = v.bbox;
                assert!(x >= 0.0 && y >= 0.0);
                assert!(x + w <= frame.width as f64 + 1e-9);
                assert!(y + h <= frame.height as f64 + 1e-9);
                assert!(w >= 0.0 && h >= 0.0);
            }
        }
    }

    #[test]
    fn closer_objects_project_larger() {
        // Find a frame with ≥ 2 visible objects of the same kind and check
        // monotonicity approximately (angular size ∝ 1/distance).
        let world = World::generate(&ScenarioConfig::smoke_test());
        let cam = CameraModel::new(CameraConfig::default());
        for i in 0..40 {
            let frame = cam.capture(&world, &world.snapshot(i as f64 * 0.5));
            let cars: Vec<&VisibleObject> =
                frame.visible.iter().filter(|v| v.kind == AgentKind::Car).collect();
            if cars.len() >= 2 {
                let near = cars[0];
                let far = cars[cars.len() - 1];
                if far.distance > 2.0 * near.distance && near.occlusion < 0.1 {
                    assert!(near.bbox.2 > far.bbox.2);
                    return;
                }
            }
        }
        // Scenario may simply not produce the configuration; that's fine.
    }

    #[test]
    fn occlusion_bounded() {
        for t in [0.0, 4.0, 8.0] {
            for v in capture_at(t).visible {
                assert!((0.0..0.9).contains(&v.occlusion));
            }
        }
    }

    #[test]
    fn clutter_nonnegative_and_tracks_objects() {
        let frame = capture_at(0.0);
        assert!(frame.clutter >= frame.visible.len() as f64);
    }

    #[test]
    fn byte_size_is_pixel_count() {
        let frame = capture_at(0.0);
        assert_eq!(frame.byte_size(), 1280 * 960);
    }

    #[test]
    #[should_panic(expected = "FOV")]
    fn invalid_fov_panics() {
        let _ = CameraModel::new(CameraConfig { hfov_deg: 200.0, ..CameraConfig::default() });
    }
}
