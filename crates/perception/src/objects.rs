//! Shared object types flowing between perception nodes.

use av_geom::Vec3;
use std::fmt;

/// Semantic class of a detected object.
///
/// LiDAR clustering alone produces [`ObjectClass::Unknown`] objects ("it
/// cannot classify their type", §II-B); the class is filled in by vision
/// detection through `range_vision_fusion`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// Passenger car / vehicle.
    Car,
    /// Pedestrian.
    Pedestrian,
    /// Cyclist.
    Cyclist,
    /// Cluster with no semantic label.
    Unknown,
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ObjectClass::Car => "car",
            ObjectClass::Pedestrian => "pedestrian",
            ObjectClass::Cyclist => "cyclist",
            ObjectClass::Unknown => "unknown",
        };
        f.write_str(name)
    }
}

/// A detected (not yet tracked) object, as published on the detection
/// topics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedObject {
    /// Centroid position. Frame depends on the producing node: body frame
    /// out of `euclidean_cluster`, map frame after `range_vision_fusion`.
    pub position: Vec3,
    /// Half-extents of the bounding box.
    pub half_extents: Vec3,
    /// Heading estimate, radians (0 when unknown).
    pub yaw: f64,
    /// Semantic class.
    pub class: ObjectClass,
    /// Detector confidence in `[0, 1]`.
    pub confidence: f64,
    /// LiDAR points supporting the detection (0 for vision-only).
    pub point_count: u32,
}

impl DetectedObject {
    /// Creates an unclassified cluster detection.
    pub fn from_cluster(position: Vec3, half_extents: Vec3, point_count: u32) -> DetectedObject {
        DetectedObject {
            position,
            half_extents,
            yaw: 0.0,
            class: ObjectClass::Unknown,
            confidence: 1.0,
            point_count,
        }
    }
}

const CLASS_CODES: [ObjectClass; 4] =
    [ObjectClass::Car, ObjectClass::Pedestrian, ObjectClass::Cyclist, ObjectClass::Unknown];

/// Checkpoint encoding: a one-byte class code.
impl av_des::Leaf for ObjectClass {
    fn put(&self, w: &mut av_des::SnapWriter) {
        w.put_code(self, &CLASS_CODES);
    }
    fn get(r: &mut av_des::SnapReader<'_>) -> Result<ObjectClass, av_des::SnapError> {
        r.get_code("object class", &CLASS_CODES)
    }
}

/// Checkpoint encoding: the fields in declaration order.
impl av_des::Leaf for DetectedObject {
    fn put(&self, w: &mut av_des::SnapWriter) {
        self.position.put(w);
        self.half_extents.put(w);
        w.put_f64(self.yaw);
        self.class.put(w);
        w.put_f64(self.confidence);
        w.put_u32(self.point_count);
    }
    fn get(r: &mut av_des::SnapReader<'_>) -> Result<DetectedObject, av_des::SnapError> {
        Ok(DetectedObject {
            position: Vec3::get(r)?,
            half_extents: Vec3::get(r)?,
            yaw: r.get_f64()?,
            class: ObjectClass::get(r)?,
            confidence: r.get_f64()?,
            point_count: r.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_constructor_defaults() {
        let d = DetectedObject::from_cluster(Vec3::X, Vec3::splat(0.5), 12);
        assert_eq!(d.class, ObjectClass::Unknown);
        assert_eq!(d.point_count, 12);
        assert_eq!(d.yaw, 0.0);
    }

    #[test]
    fn class_display() {
        assert_eq!(ObjectClass::Car.to_string(), "car");
        assert_eq!(ObjectClass::Unknown.to_string(), "unknown");
    }
}
