//! The camera pipeline nodes: DNN detection and LiDAR/vision fusion.

use crate::calib::{Calibration, NodeCost, VisionCost};
use crate::msg::{unexpected, Msg};
use crate::topics;
use av_des::{Snap, StreamRng};
use av_geom::Pose;
use av_perception::fusion::VisionDetection2d;
use av_perception::{fuse_objects, DetectedObject, FusionParams};
use av_ros::{Execution, Lineage, Message, Node, Outbox};
use av_vision::{DetectorParams, VisionDetector};

/// `vision_detection`: the DNN object detector (SSD512 / SSD300 / YOLO —
/// the stack's configuration variable).
///
/// The synthesis + the real ranking/NMS run in the callback; the modeled
/// execution is CPU pre-processing → GPU inference → CPU post-processing,
/// the split Fig 8 reports.
pub struct VisionDetectionNode {
    detector: VisionDetector,
    cost: VisionCost,
    rng: StreamRng,
}

impl VisionDetectionNode {
    /// Creates the node for a detector kind.
    pub fn new(
        kind: av_vision::DetectorKind,
        calib: &Calibration,
        rng: StreamRng,
    ) -> VisionDetectionNode {
        VisionDetectionNode {
            detector: VisionDetector::new(kind, DetectorParams::default()),
            cost: calib.vision_cost(kind),
            rng,
        }
    }

    /// The configured detector kind.
    pub fn kind(&self) -> av_vision::DetectorKind {
        self.detector.kind()
    }

    /// Hot-swaps the detector network (the supervision layer's detector
    /// fallback: run the cheapest network while the primary reloads).
    /// The node's RNG stream is untouched so the swap itself does not
    /// perturb unrelated draws.
    pub fn set_kind(&mut self, kind: av_vision::DetectorKind, cost: VisionCost) {
        self.detector = VisionDetector::new(kind, DetectorParams::default());
        self.cost = cost;
    }
}

impl Node<Msg> for VisionDetectionNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        // The detector may have been hot-swapped by the supervision
        // layer's fallback, so the active kind and its cost model are
        // dynamic state.
        let mut kind = self.detector.kind();
        s.leaf(&mut kind);
        self.cost.snap(s);
        if s.is_load() {
            self.set_kind(kind, self.cost.clone());
        }
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::Image(frame) = &*msg.payload else {
            unexpected(topics::nodes::VISION_DETECTION, topic, &msg.payload)
        };
        let output = self.detector.detect(frame, &mut self.rng);
        let kilo_candidates = output.candidates_scored as f64 / 1000.0;
        out.publish(topics::IMAGE_DETECTOR_OBJECTS, Msg::VisionDetections(output.detections));
        let pre = self.cost.preprocess.demand(0.0, &mut self.rng);
        let post = self.cost.postprocess.demand(kilo_candidates, &mut self.rng);
        Execution::cpu(pre, self.cost.preprocess.mem_intensity)
            .then_gpu(self.cost.gpu_kernel, self.cost.copy_bytes, self.cost.energy_j)
            .then_cpu(post, self.cost.postprocess.mem_intensity)
    }
}

/// `range_vision_fusion`: matches the latest LiDAR clusters with each
/// incoming vision frame, transforms the fused objects into the map frame
/// using the latest localization, and republishes with merged lineage —
/// so downstream path latency accounts for *both* sensors, as the paper's
/// Table IV paths require.
pub struct RangeVisionFusionNode {
    params: FusionParams,
    cost: NodeCost,
    aux: NodeCost,
    rng: StreamRng,
    cached_lidar: Option<(Vec<DetectedObject>, Lineage)>,
    cached_pose: Option<Pose>,
}

impl RangeVisionFusionNode {
    /// Creates the node.
    pub fn new(params: FusionParams, calib: &Calibration, rng: StreamRng) -> RangeVisionFusionNode {
        RangeVisionFusionNode {
            params,
            cost: calib.range_vision_fusion.clone(),
            aux: calib.auxiliary.clone(),
            rng,
            cached_lidar: None,
            cached_pose: None,
        }
    }

    fn fuse(
        &mut self,
        vision: &[VisionDetection2d],
        vision_lineage: &Lineage,
    ) -> (Vec<DetectedObject>, Lineage) {
        let (lidar, lidar_lineage) = match &self.cached_lidar {
            Some((objs, lineage)) => (objs.as_slice(), lineage.clone()),
            None => (&[] as &[DetectedObject], Lineage::empty()),
        };
        let mut fused = fuse_objects(lidar, vision, &self.params);
        // Transform body-frame objects into the map frame.
        if let Some(pose) = &self.cached_pose {
            for obj in &mut fused {
                obj.position = pose.transform_point(obj.position);
                obj.yaw += pose.yaw();
            }
        }
        (fused, vision_lineage.merged(&lidar_lineage))
    }
}

impl Node<Msg> for RangeVisionFusionNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
        s.opt(&mut self.cached_lidar, |s, (objs, lineage)| {
            // Encoded as the `DetectedObjects` payload it arrived as.
            let mut msg = Msg::DetectedObjects(std::mem::take(objs));
            s.leaf(&mut msg);
            let Msg::DetectedObjects(restored) = msg else {
                panic!("checkpoint corrupt: cached lidar is not DetectedObjects")
            };
            *objs = restored;
            s.leaf(lineage);
        });
        s.opt(&mut self.cached_pose, Snap::leaf);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        match &*msg.payload {
            Msg::DetectedObjects(objs) => {
                self.cached_lidar = Some((objs.clone(), msg.header.lineage.clone()));
                Execution::cpu(self.aux.demand(0.0, &mut self.rng), self.aux.mem_intensity)
            }
            Msg::Pose(estimate) => {
                self.cached_pose = Some(estimate.pose);
                Execution::cpu(self.aux.demand(0.0, &mut self.rng), self.aux.mem_intensity)
            }
            Msg::VisionDetections(vision) => {
                let (fused, lineage) = self.fuse(vision, &msg.header.lineage);
                let units = fused.len() as f64 + vision.len() as f64;
                out.publish_with_lineage(
                    topics::FUSION_TOOLS_OBJECTS,
                    Msg::DetectedObjects(fused),
                    lineage,
                );
                Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
            }
            other => unexpected(topics::nodes::RANGE_VISION_FUSION, topic, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PoseEstimate;
    use av_des::{RngStreams, SimTime};
    use av_geom::Vec3;
    use av_perception::ObjectClass;
    use av_ros::{Header, Source};
    use av_vision::DetectorKind;
    use av_world::{CameraConfig, CameraModel, ScenarioConfig, World};

    fn message(payload: Msg, source: Source, stamp_ms: u64) -> Message<Msg> {
        Message::new(
            Header {
                seq: 1,
                stamp: SimTime::from_millis(stamp_ms),
                lineage: Lineage::origin(source, SimTime::from_millis(stamp_ms)),
            },
            payload,
        )
    }

    #[test]
    fn vision_node_three_phase_execution() {
        let calib = Calibration::default();
        let mut node =
            VisionDetectionNode::new(DetectorKind::Ssd512, &calib, RngStreams::new(1).stream("v"));
        assert_eq!(node.kind(), DetectorKind::Ssd512);
        let world = World::generate(&ScenarioConfig::smoke_test());
        let frame = CameraModel::new(CameraConfig::default()).capture(&world, &world.snapshot(0.0));
        let mut out = Outbox::new(Lineage::empty());
        let exec = node.on_message(
            topics::IMAGE_RAW,
            &message(Msg::Image(frame), Source::Camera, 100),
            &mut out,
        );
        assert_eq!(exec.phases.len(), 3);
        assert_eq!(out.len(), 1);
        // SSD512's CPU+GPU lands near its 73 ms standalone anchor.
        let total = exec.cpu_demand().as_millis_f64() + exec.gpu_demand().as_millis_f64();
        assert!((60.0..90.0).contains(&total), "SSD512 demand {total} ms");
    }

    #[test]
    fn yolo_is_gpu_dominated() {
        let calib = Calibration::default();
        let mut node =
            VisionDetectionNode::new(DetectorKind::YoloV3, &calib, RngStreams::new(1).stream("y"));
        let world = World::generate(&ScenarioConfig::smoke_test());
        let frame = CameraModel::new(CameraConfig::default()).capture(&world, &world.snapshot(0.0));
        let mut out = Outbox::new(Lineage::empty());
        let exec = node.on_message(
            topics::IMAGE_RAW,
            &message(Msg::Image(frame), Source::Camera, 100),
            &mut out,
        );
        let gpu = exec.gpu_demand().as_millis_f64();
        let cpu = exec.cpu_demand().as_millis_f64();
        assert!(gpu / (gpu + cpu) > 0.85, "YOLO GPU share {}", gpu / (gpu + cpu));
    }

    #[test]
    fn fusion_combines_and_transforms() {
        let calib = Calibration::default();
        let mut node = RangeVisionFusionNode::new(
            FusionParams::default(),
            &calib,
            RngStreams::new(1).stream("f"),
        );
        // Cache pose and lidar objects.
        node.on_message(
            topics::NDT_POSE,
            &message(
                Msg::Pose(PoseEstimate {
                    pose: Pose::planar(100.0, 50.0, 0.0),
                    fitness: 1.0,
                    iterations: 5,
                }),
                Source::Lidar,
                90,
            ),
            &mut Outbox::new(Lineage::empty()),
        );
        let cluster = DetectedObject::from_cluster(Vec3::new(12.0, 0.0, 0.0), Vec3::splat(0.9), 30);
        node.on_message(
            topics::LIDAR_DETECTOR_OBJECTS,
            &message(Msg::DetectedObjects(vec![cluster]), Source::Lidar, 95),
            &mut Outbox::new(Lineage::empty()),
        );
        // Vision arrives: fuse.
        let vision = vec![VisionDetection2d {
            bbox: (600.0, 300.0, 80.0, 120.0),
            class: ObjectClass::Car,
            confidence: 0.9,
        }];
        let mut out = Outbox::new(Lineage::origin(Source::Camera, SimTime::from_millis(100)));
        node.on_message(
            topics::IMAGE_DETECTOR_OBJECTS,
            &message(Msg::VisionDetections(vision), Source::Camera, 100),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        let items = out.into_items();
        let (topic, payload, lineage) = &items[0];
        assert_eq!(topic, topics::FUSION_TOOLS_OBJECTS);
        // Lineage carries both sensors.
        assert!(lineage.stamp_of(Source::Camera).is_some());
        assert!(lineage.stamp_of(Source::Lidar).is_some());
        // Object classified and transformed to map frame.
        let Msg::DetectedObjects(fused) = payload else { panic!("wrong payload") };
        assert_eq!(fused[0].class, ObjectClass::Car);
        assert!((fused[0].position.x - 112.0).abs() < 1e-9);
    }

    #[test]
    fn fusion_without_cached_lidar_emits_empty() {
        let calib = Calibration::default();
        let mut node = RangeVisionFusionNode::new(
            FusionParams::default(),
            &calib,
            RngStreams::new(1).stream("f2"),
        );
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(
            topics::IMAGE_DETECTOR_OBJECTS,
            &message(Msg::VisionDetections(vec![]), Source::Camera, 100),
            &mut out,
        );
        assert_eq!(out.len(), 1, "fusion always publishes (possibly empty) output");
    }
}
