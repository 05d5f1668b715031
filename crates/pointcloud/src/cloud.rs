//! The point-cloud container.

use av_des::{Leaf, SnapError, SnapReader, SnapWriter};
use av_geom::{Aabb, Pose, Vec3};
use std::fmt;

/// A single LiDAR return.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Position in the sensor (or map) frame, meters.
    pub position: Vec3,
    /// Return intensity in `[0, 1]`.
    pub intensity: f32,
    /// Laser ring index (0 = lowest beam), as VLP-style sensors report.
    pub ring: u8,
}

impl Point {
    /// Creates a point with zero intensity on ring 0.
    pub fn new(x: f64, y: f64, z: f64) -> Point {
        Point { position: Vec3::new(x, y, z), intensity: 0.0, ring: 0 }
    }

    /// Creates a fully specified point.
    pub fn with_attributes(position: Vec3, intensity: f32, ring: u8) -> Point {
        Point { position, intensity, ring }
    }
}

impl From<Vec3> for Point {
    fn from(position: Vec3) -> Point {
        Point { position, intensity: 0.0, ring: 0 }
    }
}

/// An ordered collection of LiDAR returns — one sweep, a filtered subset,
/// or a whole map.
///
/// ```
/// use av_pointcloud::{Point, PointCloud};
/// let cloud: PointCloud = [Point::new(0.0, 0.0, 0.0), Point::new(1.0, 0.0, 0.0)]
///     .into_iter()
///     .collect();
/// assert_eq!(cloud.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointCloud {
    points: Vec<Point>,
}

impl PointCloud {
    /// Creates an empty cloud.
    pub fn new() -> PointCloud {
        PointCloud::default()
    }

    /// Creates an empty cloud with capacity for `n` points.
    pub fn with_capacity(n: usize) -> PointCloud {
        PointCloud { points: Vec::with_capacity(n) }
    }

    /// Creates a cloud from bare positions.
    pub fn from_positions<I: IntoIterator<Item = Vec3>>(positions: I) -> PointCloud {
        PointCloud { points: positions.into_iter().map(Point::from).collect() }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the cloud has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends a point.
    pub fn push(&mut self, point: Point) {
        self.points.push(point);
    }

    /// The points as a slice.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Iterates over point positions.
    pub fn positions(&self) -> impl Iterator<Item = Vec3> + '_ {
        self.points.iter().map(|p| p.position)
    }

    /// Iterates over points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// The point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn point(&self, index: usize) -> Point {
        self.points[index]
    }

    /// Returns the cloud rigidly transformed by `pose` (sensor→map).
    pub fn transformed(&self, pose: &Pose) -> PointCloud {
        PointCloud {
            points: self
                .points
                .iter()
                .map(|p| Point {
                    position: pose.transform_point(p.position),
                    intensity: p.intensity,
                    ring: p.ring,
                })
                .collect(),
        }
    }

    /// The tightest bounding box of the cloud ([`Aabb::EMPTY`] when empty).
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(self.positions())
    }

    /// Returns a cloud with only the points satisfying `keep`.
    pub fn filtered(&self, mut keep: impl FnMut(&Point) -> bool) -> PointCloud {
        PointCloud { points: self.points.iter().filter(|p| keep(p)).copied().collect() }
    }

    /// Centroid of the point positions, or `None` for an empty cloud.
    pub fn centroid(&self) -> Option<Vec3> {
        if self.points.is_empty() {
            return None;
        }
        let sum = self.positions().fold(Vec3::ZERO, |acc, p| acc + p);
        Some(sum / self.points.len() as f64)
    }

    /// Extends the cloud with all points of `other`.
    pub fn append(&mut self, other: &PointCloud) {
        self.points.extend_from_slice(&other.points);
    }

    /// Approximate in-memory size in bytes (for modeling message copies).
    pub fn byte_size(&self) -> u64 {
        (self.points.len() * std::mem::size_of::<Point>()) as u64
    }
}

impl FromIterator<Point> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> PointCloud {
        PointCloud { points: iter.into_iter().collect() }
    }
}

impl Extend<Point> for PointCloud {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl fmt::Display for PointCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PointCloud({} points)", self.points.len())
    }
}

/// Checkpoint and bag encoding: the position, the intensity's f32 bit
/// pattern as a `u32`, then the ring byte.
impl Leaf for Point {
    fn put(&self, w: &mut SnapWriter) {
        self.position.put(w);
        w.put_u32(self.intensity.to_bits());
        w.put_u8(self.ring);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Point, SnapError> {
        Ok(Point {
            position: Vec3::get(r)?,
            intensity: f32::from_bits(r.get_u32()?),
            ring: r.get_u8()?,
        })
    }
}

/// Checkpoint and bag encoding: the points as a sequence.
impl Leaf for PointCloud {
    fn put(&self, w: &mut SnapWriter) {
        self.points.put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<PointCloud, SnapError> {
        Ok(PointCloud { points: Vec::get(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_geom::Quat;

    #[test]
    fn push_and_len() {
        let mut c = PointCloud::new();
        assert!(c.is_empty());
        c.push(Point::new(1.0, 2.0, 3.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.point(0).position, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn transform_moves_points() {
        let c = PointCloud::from_positions([Vec3::X]);
        let pose = Pose::new(Vec3::new(0.0, 1.0, 0.0), Quat::from_yaw(std::f64::consts::FRAC_PI_2));
        let t = c.transformed(&pose);
        assert!((t.point(0).position - Vec3::new(0.0, 2.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn transform_preserves_attributes() {
        let mut c = PointCloud::new();
        c.push(Point::with_attributes(Vec3::X, 0.7, 9));
        let t = c.transformed(&Pose::planar(1.0, 0.0, 0.0));
        assert_eq!(t.point(0).intensity, 0.7);
        assert_eq!(t.point(0).ring, 9);
    }

    #[test]
    fn centroid_and_bounds() {
        let c = PointCloud::from_positions([
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(1.0, 3.0, 0.0),
        ]);
        assert!((c.centroid().unwrap() - Vec3::new(1.0, 1.0, 0.0)).norm() < 1e-12);
        let b = c.bounds();
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(2.0, 3.0, 0.0));
        assert!(PointCloud::new().centroid().is_none());
        assert!(PointCloud::new().bounds().is_empty());
    }

    #[test]
    fn filter_keeps_matching() {
        let c = PointCloud::from_positions([
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.0, 0.0, 2.0),
        ]);
        let above = c.filtered(|p| p.position.z > 0.0);
        assert_eq!(above.len(), 2);
    }

    #[test]
    fn collect_append_extend() {
        let mut a: PointCloud = [Point::new(0.0, 0.0, 0.0)].into_iter().collect();
        let b = PointCloud::from_positions([Vec3::X, Vec3::Y]);
        a.append(&b);
        a.extend([Point::new(9.0, 9.0, 9.0)]);
        assert_eq!(a.len(), 4);
        assert_eq!((&a).into_iter().count(), 4);
    }

    #[test]
    fn byte_size_scales_with_len() {
        let c = PointCloud::from_positions((0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)));
        assert_eq!(c.byte_size(), 10 * std::mem::size_of::<Point>() as u64);
    }
}
