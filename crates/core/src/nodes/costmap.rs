//! The costmap nodes: points-driven and objects-driven rasterization.

use crate::calib::{Calibration, NodeCost};
use crate::frontend::Frames;
use crate::msg::{unexpected, Msg};
use crate::topics;
use av_des::{Snap, StreamRng};
use av_geom::Pose;
use av_perception::costmap::ObjectFootprint;
use av_perception::{CostmapGenerator, CostmapParams};
use av_ros::{Execution, Message, Node, Outbox};
use std::rc::Rc;

/// `costmap_generator`: rasterizes `/points_no_ground` into the drivable
/// grid.
pub struct CostmapGeneratorNode {
    generator: CostmapGenerator,
    cost: NodeCost,
    rng: StreamRng,
    frames: Option<Rc<Frames>>,
}

impl CostmapGeneratorNode {
    /// Creates the node.
    pub fn new(params: CostmapParams, calib: &Calibration, rng: StreamRng) -> CostmapGeneratorNode {
        CostmapGeneratorNode {
            generator: CostmapGenerator::new(params),
            cost: calib.costmap_points.clone(),
            rng,
            frames: None,
        }
    }

    /// Takes grids the LiDAR front end computed ahead from `frames`; a
    /// cloud without one is rasterized here.
    pub(crate) fn with_frames(self, frames: Rc<Frames>) -> CostmapGeneratorNode {
        CostmapGeneratorNode { frames: Some(frames), ..self }
    }
}

impl Node<Msg> for CostmapGeneratorNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::PointCloud(no_ground) = &*msg.payload else {
            unexpected(topics::nodes::COSTMAP_GENERATOR, topic, &msg.payload)
        };
        let ahead =
            self.frames.as_ref().and_then(|f| f.product(&msg.header.lineage, |p| p.costmap.take()));
        let grid = ahead.unwrap_or_else(|| self.generator.from_points(no_ground));
        let units = no_ground.len() as f64 / 1000.0;
        out.publish(topics::COSTMAP_POINTS, Msg::Costmap(grid));
        Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
    }
}

/// `costmap_generator_obj`: rasterizes tracked objects and their predicted
/// paths — the node whose tail latency the paper tracks across detector
/// configurations (72 → 120 ms between SSD300 and SSD512).
pub struct CostmapGeneratorObjNode {
    generator: CostmapGenerator,
    cost: NodeCost,
    aux: NodeCost,
    rng: StreamRng,
    cached_pose: Option<Pose>,
}

impl CostmapGeneratorObjNode {
    /// Creates the node.
    pub fn new(
        params: CostmapParams,
        calib: &Calibration,
        rng: StreamRng,
    ) -> CostmapGeneratorObjNode {
        CostmapGeneratorObjNode {
            generator: CostmapGenerator::new(params),
            cost: calib.costmap_objects.clone(),
            aux: calib.auxiliary.clone(),
            rng,
            cached_pose: None,
        }
    }
}

impl Node<Msg> for CostmapGeneratorObjNode {
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
            Msg::PredictedObjects(predicted) => {
                // Objects arrive in the map frame; the grid is ego-centered.
                let to_body = self.cached_pose.map(|p| p.inverse()).unwrap_or(Pose::IDENTITY);
                let footprints: Vec<ObjectFootprint> = predicted
                    .iter()
                    .map(|p| ObjectFootprint {
                        position: to_body.transform_point(p.object.position),
                        half_extents: p.object.half_extents,
                        yaw: p.object.yaw - self.cached_pose.map(|q| q.yaw()).unwrap_or(0.0),
                        path: p.path.iter().map(|&w| to_body.transform_point(w)).collect(),
                    })
                    .collect();
                let grid = self.generator.from_objects(&footprints);
                let units = footprints.len() as f64;
                out.publish(topics::COSTMAP_OBJECTS, Msg::Costmap(grid));
                Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
            }
            other => unexpected(topics::nodes::COSTMAP_GENERATOR_OBJ, topic, other),
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
    use av_pointcloud::PointCloud;
    use av_ros::{Header, Lineage, Source};
    use av_tracking::{PredictedObject, TrackedObject};

    fn message(payload: Msg) -> Message<Msg> {
        Message::new(
            Header {
                seq: 1,
                stamp: SimTime::from_millis(100),
                lineage: Lineage::origin(Source::Lidar, SimTime::from_millis(100)),
            },
            payload,
        )
    }

    #[test]
    fn points_costmap_marks_obstacles() {
        let calib = Calibration::default();
        let mut node = CostmapGeneratorNode::new(
            CostmapParams::default(),
            &calib,
            RngStreams::new(1).stream("c"),
        );
        let cloud = PointCloud::from_positions([Vec3::new(6.0, 1.0, 0.0)]);
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(topics::POINTS_NO_GROUND, &message(Msg::PointCloud(cloud)), &mut out);
        let items = out.into_items();
        let Msg::Costmap(grid) = &items[0].1 else { panic!() };
        assert!(grid.cost_at(Vec3::new(6.0, 1.0, 0.0)) > 0);
    }

    #[test]
    fn object_costmap_transforms_to_body_frame() {
        let calib = Calibration::default();
        let mut node = CostmapGeneratorObjNode::new(
            CostmapParams::default(),
            &calib,
            RngStreams::new(1).stream("o"),
        );
        // Ego at (100, 0) heading +x; object 10 m ahead in map frame.
        node.on_message(
            topics::NDT_POSE,
            &message(Msg::Pose(PoseEstimate {
                pose: Pose::planar(100.0, 0.0, 0.0),
                fitness: 1.0,
                iterations: 5,
            })),
            &mut Outbox::new(Lineage::empty()),
        );
        let track = TrackedObject {
            id: 1,
            position: Vec3::new(110.0, 0.0, 0.0),
            velocity: Vec3::new(5.0, 0.0, 0.0),
            yaw: 0.0,
            yaw_rate: 0.0,
            half_extents: Vec3::new(2.0, 0.9, 0.75),
            class: ObjectClass::Car,
            age: 10,
            model_probs: [0.8, 0.1, 0.1],
        };
        let predicted = PredictedObject {
            path: vec![Vec3::new(112.5, 0.0, 0.0), Vec3::new(115.0, 0.0, 0.0)],
            object: track,
        };
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(
            topics::MOTION_PREDICTOR_OBJECTS,
            &message(Msg::PredictedObjects(vec![predicted])),
            &mut out,
        );
        let items = out.into_items();
        let Msg::Costmap(grid) = &items[0].1 else { panic!() };
        // Body frame: the object sits 10 m ahead.
        assert!(grid.cost_at(Vec3::new(10.0, 0.0, 0.0)) > 0);
        // Predicted position 15 m ahead carries decayed cost.
        let future = grid.cost_at(Vec3::new(15.0, 0.0, 0.0));
        assert!(future > 0 && future < 100);
    }

    #[test]
    fn object_costmap_cost_scales_with_objects() {
        let calib = Calibration::default();
        let mut node = CostmapGeneratorObjNode::new(
            CostmapParams::default(),
            &calib,
            RngStreams::new(1).stream("o2"),
        );
        let many: Vec<PredictedObject> = (0..60)
            .map(|i| PredictedObject {
                object: TrackedObject {
                    id: i,
                    position: Vec3::new(10.0 + (i % 30) as f64, (i / 30) as f64 * 3.0, 0.0),
                    velocity: Vec3::ZERO,
                    yaw: 0.0,
                    yaw_rate: 0.0,
                    half_extents: Vec3::splat(0.5),
                    class: ObjectClass::Unknown,
                    age: 5,
                    model_probs: [0.4, 0.4, 0.2],
                },
                path: vec![],
            })
            .collect();
        let exec_many = node.on_message(
            topics::MOTION_PREDICTOR_OBJECTS,
            &message(Msg::PredictedObjects(many)),
            &mut Outbox::new(Lineage::empty()),
        );
        let exec_none = node.on_message(
            topics::MOTION_PREDICTOR_OBJECTS,
            &message(Msg::PredictedObjects(vec![])),
            &mut Outbox::new(Lineage::empty()),
        );
        assert!(exec_many.cpu_demand() > exec_none.cpu_demand() * 2);
    }
}
