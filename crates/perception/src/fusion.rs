//! LiDAR/vision fusion — the `range_vision_fusion` node.
//!
//! "On the one hand, LiDAR detection adds a 3D perspective to the
//! image-based detection ... On the other hand, image detection adds
//! semantic to the objects" (§II-B). The fusion projects each LiDAR
//! cluster centroid into the image and, when it lands inside a vision
//! box's horizontal span, copies the vision class and confidence onto the
//! ranged object.

use crate::{DetectedObject, ObjectClass};
use av_des::{Leaf, SnapError, SnapReader, SnapWriter};
use av_geom::deg_to_rad;

/// A 2D vision detection, as published by the vision-detection nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisionDetection2d {
    /// Pixel box `(x, y, w, h)`.
    pub bbox: (f64, f64, f64, f64),
    /// Predicted class.
    pub class: ObjectClass,
    /// Classifier confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Checkpoint encoding: the fields in declaration order.
impl Leaf for VisionDetection2d {
    fn put(&self, w: &mut SnapWriter) {
        self.bbox.put(w);
        self.class.put(w);
        w.put_f64(self.confidence);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<VisionDetection2d, SnapError> {
        Ok(VisionDetection2d {
            bbox: Leaf::get(r)?,
            class: ObjectClass::get(r)?,
            confidence: r.get_f64()?,
        })
    }
}

/// Camera geometry needed to project clusters into the image.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionParams {
    /// Image width, pixels.
    pub image_width: u32,
    /// Horizontal field of view, degrees.
    pub hfov_deg: f64,
    /// Horizontal slack around a vision box when matching, pixels.
    pub tolerance_px: f64,
}

impl Default for FusionParams {
    fn default() -> FusionParams {
        FusionParams { image_width: 1280, hfov_deg: 90.0, tolerance_px: 24.0 }
    }
}

/// Fuses body-frame LiDAR detections with image-plane vision detections.
///
/// Every LiDAR object is preserved (range is authoritative); matched ones
/// gain the vision class and confidence. Vision boxes that match no
/// cluster are discarded — they carry no range. Each vision box fuses with
/// at most the nearest matching cluster.
///
/// ```
/// use av_geom::Vec3;
/// use av_perception::{fuse_objects, DetectedObject, ObjectClass};
/// use av_perception::fusion::VisionDetection2d;
///
/// let clusters = vec![DetectedObject::from_cluster(
///     Vec3::new(10.0, 0.0, 0.0), Vec3::splat(0.8), 25,
/// )];
/// // A box centered mid-image (bearing 0 = straight ahead).
/// let vision = vec![VisionDetection2d {
///     bbox: (600.0, 300.0, 80.0, 120.0),
///     class: ObjectClass::Car,
///     confidence: 0.9,
/// }];
/// let fused = fuse_objects(&clusters, &vision, &Default::default());
/// assert_eq!(fused[0].class, ObjectClass::Car);
/// ```
pub fn fuse_objects(
    lidar: &[DetectedObject],
    vision: &[VisionDetection2d],
    params: &FusionParams,
) -> Vec<DetectedObject> {
    let half_fov = deg_to_rad(params.hfov_deg) / 2.0;
    let px_per_rad = params.image_width as f64 / (2.0 * half_fov);
    let center_px = params.image_width as f64 / 2.0;

    // Project each cluster centroid to a pixel column (None = behind or
    // outside the FOV).
    let columns: Vec<Option<f64>> = lidar
        .iter()
        .map(|obj| {
            let p = obj.position;
            if p.x <= 0.5 {
                return None; // behind or at the camera
            }
            let bearing = p.y.atan2(p.x);
            if bearing.abs() > half_fov {
                return None;
            }
            Some(center_px - bearing * px_per_rad)
        })
        .collect();

    let mut fused: Vec<DetectedObject> = lidar.to_vec();
    let mut claimed = vec![false; lidar.len()];
    for v in vision {
        let (bx, _, bw, _) = v.bbox;
        let lo = bx - params.tolerance_px;
        let hi = bx + bw + params.tolerance_px;
        // Nearest unclaimed cluster whose column falls inside the box.
        let best = columns
            .iter()
            .enumerate()
            .filter_map(|(i, col)| {
                let col = (*col)?;
                if claimed[i] || col < lo || col > hi {
                    return None;
                }
                Some((i, lidar[i].position.norm_xy()))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((i, _)) = best {
            claimed[i] = true;
            fused[i].class = v.class;
            fused[i].confidence = v.confidence;
        }
    }
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_geom::Vec3;

    fn cluster_at(x: f64, y: f64) -> DetectedObject {
        DetectedObject::from_cluster(Vec3::new(x, y, 0.0), Vec3::splat(0.8), 30)
    }

    fn box_centered(col: f64, w: f64, class: ObjectClass) -> VisionDetection2d {
        VisionDetection2d { bbox: (col - w / 2.0, 200.0, w, 150.0), class, confidence: 0.85 }
    }

    #[test]
    fn straight_ahead_cluster_matches_centered_box() {
        let fused = fuse_objects(
            &[cluster_at(12.0, 0.0)],
            &[box_centered(640.0, 100.0, ObjectClass::Pedestrian)],
            &FusionParams::default(),
        );
        assert_eq!(fused[0].class, ObjectClass::Pedestrian);
        assert_eq!(fused[0].confidence, 0.85);
    }

    #[test]
    fn off_axis_cluster_needs_off_axis_box() {
        // Cluster at bearing atan2(5, 10) ≈ 0.4636 rad left → column
        // 640 − 0.4636 × (1280 / (π/2)) ≈ 262.
        let params = FusionParams::default();
        let misses = fuse_objects(
            &[cluster_at(10.0, 5.0)],
            &[box_centered(640.0, 100.0, ObjectClass::Car)],
            &params,
        );
        assert_eq!(misses[0].class, ObjectClass::Unknown);
        let hits = fuse_objects(
            &[cluster_at(10.0, 5.0)],
            &[box_centered(262.0, 100.0, ObjectClass::Car)],
            &params,
        );
        assert_eq!(hits[0].class, ObjectClass::Car);
    }

    #[test]
    fn behind_camera_clusters_never_match() {
        let fused = fuse_objects(
            &[cluster_at(-10.0, 0.0)],
            &[box_centered(640.0, 400.0, ObjectClass::Car)],
            &FusionParams::default(),
        );
        assert_eq!(fused[0].class, ObjectClass::Unknown);
    }

    #[test]
    fn vision_box_claims_nearest_cluster_only() {
        let fused = fuse_objects(
            &[cluster_at(30.0, 0.0), cluster_at(10.0, 0.0)],
            &[box_centered(640.0, 100.0, ObjectClass::Car)],
            &FusionParams::default(),
        );
        assert_eq!(fused[1].class, ObjectClass::Car, "nearest cluster gets the label");
        assert_eq!(fused[0].class, ObjectClass::Unknown);
    }

    #[test]
    fn two_boxes_two_clusters() {
        let fused = fuse_objects(
            &[cluster_at(10.0, 5.0), cluster_at(12.0, 0.0)],
            &[
                box_centered(640.0, 90.0, ObjectClass::Car),
                box_centered(262.0, 90.0, ObjectClass::Cyclist),
            ],
            &FusionParams::default(),
        );
        assert_eq!(fused[0].class, ObjectClass::Cyclist);
        assert_eq!(fused[1].class, ObjectClass::Car);
    }

    #[test]
    fn all_lidar_objects_survive() {
        let clusters = vec![cluster_at(10.0, 0.0), cluster_at(20.0, 8.0), cluster_at(-5.0, 3.0)];
        let fused = fuse_objects(&clusters, &[], &FusionParams::default());
        assert_eq!(fused.len(), 3);
        assert!(fused.iter().all(|o| o.class == ObjectClass::Unknown));
    }

    #[test]
    fn unmatched_vision_discarded() {
        let fused = fuse_objects(
            &[],
            &[box_centered(640.0, 100.0, ObjectClass::Car)],
            &FusionParams::default(),
        );
        assert!(fused.is_empty());
    }
}
