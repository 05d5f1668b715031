//! Radar detection — the sensor interface the paper's Autoware had
//! "under development" (§II-A), implemented as an extension.
//!
//! Radar returns carry range, bearing and Doppler range-rate but no
//! shape or class. The node converts each return into an unclassified
//! [`DetectedObject`] in the map frame (sized by its radar cross-section)
//! and publishes it as an additional measurement stream for the tracker's
//! probabilistic data association.

use crate::calib::{Calibration, NodeCost};
use crate::msg::{unexpected, Msg};
use crate::topics;
use av_des::{Snap, StreamRng};
use av_geom::{Pose, Vec3};
use av_perception::DetectedObject;
use av_ros::{Execution, Message, Node, Outbox};

/// The `radar_detection` node.
pub struct RadarDetectionNode {
    cost: NodeCost,
    aux: NodeCost,
    rng: StreamRng,
    cached_pose: Option<Pose>,
}

impl RadarDetectionNode {
    /// Creates the node.
    pub fn new(calib: &Calibration, rng: StreamRng) -> RadarDetectionNode {
        RadarDetectionNode {
            cost: calib.radar_detection.clone(),
            aux: calib.auxiliary.clone(),
            rng,
            cached_pose: None,
        }
    }
}

impl Node<Msg> for RadarDetectionNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
        s.opt(&mut self.cached_pose, Snap::leaf);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        match &*msg.payload {
            Msg::Pose(estimate) => {
                self.cached_pose = Some(estimate.pose);
                Execution::cpu(self.aux.demand(0.0, &mut self.rng), self.aux.mem_intensity)
            }
            Msg::Radar(scan) => {
                let pose = self.cached_pose.unwrap_or(Pose::IDENTITY);
                let objects: Vec<DetectedObject> = scan
                    .targets
                    .iter()
                    .map(|t| {
                        let body =
                            Vec3::new(t.range * t.bearing.cos(), t.range * t.bearing.sin(), 0.0);
                        // RCS-informed size guess: big cross-section → car-ish.
                        let half = if t.rcs > 5.0 {
                            Vec3::new(2.2, 0.9, 0.75)
                        } else {
                            Vec3::new(0.4, 0.4, 0.85)
                        };
                        DetectedObject::from_cluster(pose.transform_point(body), half, 1)
                    })
                    .collect();
                let units = objects.len() as f64;
                out.publish(topics::RADAR_DETECTOR_OBJECTS, Msg::DetectedObjects(objects));
                Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
            }
            other => unexpected(topics::nodes::RADAR_DETECTION, topic, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PoseEstimate;
    use av_des::{RngStreams, SimTime};
    use av_ros::{Header, Lineage, Source};
    use av_world::{RadarScan, RadarTarget};

    fn message(payload: Msg) -> Message<Msg> {
        Message::new(
            Header {
                seq: 1,
                stamp: SimTime::from_millis(50),
                lineage: Lineage::origin(Source::Radar, SimTime::from_millis(50)),
            },
            payload,
        )
    }

    #[test]
    fn targets_become_map_frame_objects() {
        let calib = Calibration::default();
        let mut node = RadarDetectionNode::new(&calib, RngStreams::new(1).stream("r"));
        node.on_message(
            topics::NDT_POSE,
            &message(Msg::Pose(PoseEstimate {
                pose: Pose::planar(50.0, 10.0, 0.0),
                fitness: 1.0,
                iterations: 4,
            })),
            &mut Outbox::new(Lineage::empty()),
        );
        let scan = RadarScan {
            targets: vec![
                RadarTarget { range: 100.0, bearing: 0.0, range_rate: -8.0, rcs: 10.0 },
                RadarTarget { range: 30.0, bearing: 0.2, range_rate: 1.0, rcs: 0.8 },
            ],
        };
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(topics::RADAR_RAW, &message(Msg::Radar(scan)), &mut out);
        let items = out.into_items();
        assert_eq!(items[0].0, topics::RADAR_DETECTOR_OBJECTS);
        let Msg::DetectedObjects(objs) = &items[0].1 else { panic!() };
        assert_eq!(objs.len(), 2);
        // First target: 100 m dead ahead of (50, 10) → (150, 10).
        assert!((objs[0].position.x - 150.0).abs() < 1e-9);
        assert!((objs[0].position.y - 10.0).abs() < 1e-9);
        // RCS sizing.
        assert!(objs[0].half_extents.x > objs[1].half_extents.x);
    }

    #[test]
    fn empty_scan_publishes_empty() {
        let calib = Calibration::default();
        let mut node = RadarDetectionNode::new(&calib, RngStreams::new(1).stream("r2"));
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(topics::RADAR_RAW, &message(Msg::Radar(RadarScan::default())), &mut out);
        let items = out.into_items();
        let Msg::DetectedObjects(objs) = &items[0].1 else { panic!() };
        assert!(objs.is_empty());
    }
}
