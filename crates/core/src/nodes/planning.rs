//! The actuation-layer nodes (exercised by examples; excluded from the
//! headline experiments, as in the paper §III-C).

use crate::calib::{Calibration, NodeCost};
use crate::msg::{unexpected, Msg};
use crate::topics;
use av_des::{Snap, StreamRng};
use av_geom::{Pose, Vec3};
use av_perception::OccupancyGrid;
use av_planning::{
    LocalPlanner, LocalPlannerParams, PurePursuit, PurePursuitParams, TwistFilter,
    TwistFilterParams, Waypoint,
};
use av_ros::{Execution, Message, Node, Outbox};

/// `op_local_planner`: picks the best rollout against the latest costmap
/// and publishes the local path (map frame).
pub struct OpLocalPlannerNode {
    planner: LocalPlanner,
    global_path: Vec<Waypoint>,
    cost: NodeCost,
    aux: NodeCost,
    rng: StreamRng,
    cached_pose: Option<Pose>,
    last_pose_stamp: Option<av_des::SimTime>,
    hold_after_stale_s: Option<f64>,
    holds: u64,
}

impl OpLocalPlannerNode {
    /// Creates the node with the route's global waypoints.
    pub fn new(
        params: LocalPlannerParams,
        global_path: Vec<Waypoint>,
        calib: &Calibration,
        rng: StreamRng,
    ) -> OpLocalPlannerNode {
        OpLocalPlannerNode {
            planner: LocalPlanner::new(params),
            global_path,
            cost: calib.planning.clone(),
            aux: calib.auxiliary.clone(),
            rng,
            cached_pose: None,
            last_pose_stamp: None,
            hold_after_stale_s: None,
            holds: 0,
        }
    }

    /// Enables the safe-stop degradation: when the latest pose is older
    /// than `secs` at costmap time (stale perception — localization down
    /// or stalled), the planner publishes a single-point hold path at the
    /// last known position instead of a rollout, and the controller
    /// downstream commands no forward motion.
    pub fn hold_after_stale(mut self, secs: f64) -> OpLocalPlannerNode {
        assert!(secs.is_finite() && secs > 0.0, "stale-pose hold threshold must be positive");
        self.hold_after_stale_s = Some(secs);
        self
    }

    /// How many planning cycles degraded to the hold path.
    pub fn hold_count(&self) -> u64 {
        self.holds
    }

    /// `true` when the hold gate is armed and the pose is stale at `now`.
    fn pose_stale(&self, now: av_des::SimTime) -> bool {
        let Some(limit) = self.hold_after_stale_s else { return false };
        match self.last_pose_stamp {
            Some(stamp) => now.saturating_since(stamp).as_secs_f64() > limit,
            None => true,
        }
    }

    fn plan(&mut self, costmap: &OccupancyGrid) -> Option<Vec<Vec3>> {
        let pose = self.cached_pose?;
        let rollout = self.planner.best(&pose, &self.global_path, costmap)?;
        // Rollout samples are body frame; publish in map frame.
        Some(rollout.samples.iter().map(|&p| pose.transform_point(p)).collect())
    }
}

impl Node<Msg> for OpLocalPlannerNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
        s.opt(&mut self.cached_pose, Snap::leaf);
        s.opt(&mut self.last_pose_stamp, Snap::time);
        s.u64(&mut self.holds);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        match &*msg.payload {
            Msg::Pose(estimate) => {
                self.cached_pose = Some(estimate.pose);
                self.last_pose_stamp = Some(msg.header.stamp);
                Execution::cpu(self.aux.demand(0.0, &mut self.rng), self.aux.mem_intensity)
            }
            Msg::Costmap(grid) => {
                if self.pose_stale(msg.header.stamp) {
                    self.holds += 1;
                    if let Some(pose) = self.cached_pose {
                        out.publish(topics::FINAL_WAYPOINTS, Msg::Path(vec![pose.translation]));
                    }
                } else if let Some(path) = self.plan(grid) {
                    out.publish(topics::FINAL_WAYPOINTS, Msg::Path(path));
                }
                Execution::cpu(self.cost.demand(7.0, &mut self.rng), self.cost.mem_intensity)
            }
            other => unexpected(topics::nodes::OP_LOCAL_PLANNER, topic, other),
        }
    }
}

/// `pure_pursuit`: turns the local path into a velocity command.
pub struct PurePursuitNode {
    controller: PurePursuit,
    cost: NodeCost,
    aux: NodeCost,
    rng: StreamRng,
    cached_pose: Option<Pose>,
}

impl PurePursuitNode {
    /// Creates the node.
    pub fn new(params: PurePursuitParams, calib: &Calibration, rng: StreamRng) -> PurePursuitNode {
        PurePursuitNode {
            controller: PurePursuit::new(params),
            cost: calib.planning.clone(),
            aux: calib.auxiliary.clone(),
            rng,
            cached_pose: None,
        }
    }
}

impl Node<Msg> for PurePursuitNode {
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
            Msg::Path(path) => {
                if let Some(pose) = self.cached_pose {
                    let speed = self.controller.params().cruise_speed;
                    if let Some(twist) = self.controller.control(&pose, speed, path) {
                        out.publish(topics::TWIST_RAW, Msg::Twist(twist));
                    }
                }
                Execution::cpu(self.cost.demand(1.0, &mut self.rng), self.cost.mem_intensity)
            }
            other => unexpected(topics::nodes::PURE_PURSUIT, topic, other),
        }
    }
}

/// `twist_filter`: low-pass + rate limits on the velocity command.
pub struct TwistFilterNode {
    filter: TwistFilter,
    cost: NodeCost,
    rng: StreamRng,
    last_stamp: Option<av_des::SimTime>,
}

impl TwistFilterNode {
    /// Creates the node.
    pub fn new(params: TwistFilterParams, calib: &Calibration, rng: StreamRng) -> TwistFilterNode {
        TwistFilterNode {
            filter: TwistFilter::new(params),
            cost: calib.auxiliary.clone(),
            rng,
            last_stamp: None,
        }
    }
}

impl Node<Msg> for TwistFilterNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.filter.snap(s);
        s.opt(&mut self.last_stamp, Snap::time);
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::Twist(raw) = &*msg.payload else {
            unexpected(topics::nodes::TWIST_FILTER, topic, &msg.payload)
        };
        let dt = match self.last_stamp {
            Some(last) => msg.header.stamp.saturating_since(last).as_secs_f64().max(1e-3),
            None => 0.1,
        };
        self.last_stamp = Some(msg.header.stamp);
        let smoothed = self.filter.apply(*raw, dt);
        out.publish(topics::TWIST_CMD, Msg::Twist(smoothed));
        Execution::cpu(self.cost.demand(0.0, &mut self.rng), self.cost.mem_intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PoseEstimate;
    use av_des::{RngStreams, SimTime};
    use av_perception::{CostmapGenerator, CostmapParams};
    use av_pointcloud::PointCloud;
    use av_ros::{Header, Lineage, Source};

    fn message(payload: Msg, stamp_ms: u64) -> Message<Msg> {
        Message::new(
            Header {
                seq: 1,
                stamp: SimTime::from_millis(stamp_ms),
                lineage: Lineage::origin(Source::Lidar, SimTime::from_millis(stamp_ms)),
            },
            payload,
        )
    }

    fn straight_waypoints() -> Vec<Waypoint> {
        (0..40)
            .map(|i| Waypoint { position: Vec3::new(i as f64 * 2.0, 0.0, 0.0), speed_limit: 10.0 })
            .collect()
    }

    #[test]
    fn planner_pursuit_filter_chain() {
        let calib = Calibration::default();
        let mut planner = OpLocalPlannerNode::new(
            LocalPlannerParams::default(),
            straight_waypoints(),
            &calib,
            RngStreams::new(1).stream("lp"),
        );
        let pose = Msg::Pose(PoseEstimate {
            pose: Pose::planar(0.0, 0.0, 0.0),
            fitness: 1.0,
            iterations: 5,
        });
        planner.on_message(
            topics::NDT_POSE,
            &message(pose.clone(), 90),
            &mut Outbox::new(Lineage::empty()),
        );
        let empty_grid =
            CostmapGenerator::new(CostmapParams::default()).from_points(&PointCloud::new());
        let mut out = Outbox::new(Lineage::empty());
        planner.on_message(
            topics::COSTMAP_OBJECTS,
            &message(Msg::Costmap(empty_grid), 100),
            &mut out,
        );
        let items = out.into_items();
        assert_eq!(items[0].0, topics::FINAL_WAYPOINTS);
        let Msg::Path(path) = items[0].1.clone() else { panic!() };
        assert!(!path.is_empty());

        let mut pursuit = PurePursuitNode::new(
            PurePursuitParams::default(),
            &calib,
            RngStreams::new(1).stream("pp"),
        );
        pursuit.on_message(
            topics::NDT_POSE,
            &message(pose, 100),
            &mut Outbox::new(Lineage::empty()),
        );
        let mut out = Outbox::new(Lineage::empty());
        pursuit.on_message(topics::FINAL_WAYPOINTS, &message(Msg::Path(path), 105), &mut out);
        let items = out.into_items();
        assert_eq!(items[0].0, topics::TWIST_RAW);
        let Msg::Twist(raw) = items[0].1.clone() else { panic!() };
        assert!(raw.speed() > 0.0);

        let mut filter = TwistFilterNode::new(
            TwistFilterParams::default(),
            &calib,
            RngStreams::new(1).stream("tf"),
        );
        let mut out = Outbox::new(Lineage::empty());
        filter.on_message(topics::TWIST_RAW, &message(Msg::Twist(raw), 110), &mut out);
        let items = out.into_items();
        assert_eq!(items[0].0, topics::TWIST_CMD);
        let Msg::Twist(smoothed) = items[0].1.clone() else { panic!() };
        assert!(smoothed.speed() < raw.speed(), "filter must ramp up gradually");
    }
}
