//! Message payloads exchanged on the bus.

use av_des::{Leaf, SnapError, SnapReader, SnapWriter};
use av_geom::{Pose, Twist};
use av_perception::fusion::VisionDetection2d;
use av_perception::{DetectedObject, OccupancyGrid};
use av_pointcloud::PointCloud;
use av_tracking::{PredictedObject, TrackedObject};
use av_world::{GnssFix, ImageFrame, ImuSample, LightState, RadarScan};

/// A localization estimate, as published on `/ndt_pose`.
#[derive(Debug, Clone, PartialEq)]
pub struct PoseEstimate {
    /// Estimated body→map pose.
    pub pose: Pose,
    /// NDT fitness at the solution.
    pub fitness: f64,
    /// Newton iterations the match took.
    pub iterations: u32,
}

/// Checkpoint encoding: the fields in declaration order.
impl Leaf for PoseEstimate {
    fn put(&self, w: &mut SnapWriter) {
        self.pose.put(w);
        w.put_f64(self.fitness);
        w.put_u32(self.iterations);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<PoseEstimate, SnapError> {
        Ok(PoseEstimate { pose: Pose::get(r)?, fitness: r.get_f64()?, iterations: r.get_u32()? })
    }
}

/// Every payload type the stack exchanges.
///
/// One enum (rather than `Any`-typed topics) keeps dispatch explicit:
/// a node receiving an unexpected variant is a wiring bug and panics in
/// its `on_message`.
#[derive(Debug, Clone)]
pub enum Msg {
    /// A LiDAR sweep (`/points_raw`, `/filtered_points`,
    /// `/points_ground`, `/points_no_ground`).
    PointCloud(PointCloud),
    /// A camera frame (`/image_raw`).
    Image(ImageFrame),
    /// A GNSS fix (`/gnss_pose`).
    Gnss(GnssFix),
    /// An IMU sample (`/imu_raw`).
    Imu(ImuSample),
    /// A localization estimate (`/ndt_pose`).
    Pose(PoseEstimate),
    /// 2D vision detections (`/detection/image_detector/objects`).
    VisionDetections(Vec<VisionDetection2d>),
    /// 3D detected objects, LiDAR or fused
    /// (`/detection/lidar_detector/objects`,
    /// `/detection/fusion_tools/objects`).
    DetectedObjects(Vec<DetectedObject>),
    /// Tracked objects (`/detection/object_tracker/objects`,
    /// `/detection/objects`).
    TrackedObjects(Vec<TrackedObject>),
    /// Tracks with predicted paths
    /// (`/prediction/motion_predictor/objects`).
    PredictedObjects(Vec<PredictedObject>),
    /// An occupancy grid (`/semantics/costmap*`).
    Costmap(OccupancyGrid),
    /// A velocity command (`/twist_raw`, `/twist_cmd`).
    Twist(Twist),
    /// A planned local path in map coordinates (`/final_waypoints`).
    Path(Vec<av_geom::Vec3>),
    /// Recognized traffic-light states (`/light_color`).
    LightColors(Vec<LightObservation>),
    /// A radar scan (`/radar_raw`, extension sensor).
    Radar(RadarScan),
}

/// One recognized traffic light, as published by
/// `traffic_light_recognition`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightObservation {
    /// HD-map light id.
    pub id: u32,
    /// Classified state.
    pub state: LightState,
    /// Classifier confidence in `[0, 1]`.
    pub confidence: f64,
    /// Distance to the light, meters.
    pub distance: f64,
}

/// Checkpoint encoding: the fields in declaration order.
impl Leaf for LightObservation {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(self.id);
        self.state.put(w);
        w.put_f64(self.confidence);
        w.put_f64(self.distance);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<LightObservation, SnapError> {
        Ok(LightObservation {
            id: r.get_u32()?,
            state: LightState::get(r)?,
            confidence: r.get_f64()?,
            distance: r.get_f64()?,
        })
    }
}

impl Msg {
    /// Short name of the variant, for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Msg::PointCloud(_) => "PointCloud",
            Msg::Image(_) => "Image",
            Msg::Gnss(_) => "Gnss",
            Msg::Imu(_) => "Imu",
            Msg::Pose(_) => "Pose",
            Msg::VisionDetections(_) => "VisionDetections",
            Msg::DetectedObjects(_) => "DetectedObjects",
            Msg::TrackedObjects(_) => "TrackedObjects",
            Msg::PredictedObjects(_) => "PredictedObjects",
            Msg::Costmap(_) => "Costmap",
            Msg::Twist(_) => "Twist",
            Msg::Path(_) => "Path",
            Msg::LightColors(_) => "LightColors",
            Msg::Radar(_) => "Radar",
        }
    }
}

/// Panics with a wiring diagnosis; used by nodes on unexpected payloads.
#[track_caller]
pub fn unexpected(node: &str, topic: &str, msg: &Msg) -> ! {
    panic!("node {node} received unexpected {} on {topic}", msg.kind_name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(Msg::PointCloud(PointCloud::new()).kind_name(), "PointCloud");
        assert_eq!(Msg::Twist(Twist::ZERO).kind_name(), "Twist");
    }
}
