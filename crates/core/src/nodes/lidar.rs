//! The LiDAR pipeline nodes: voxel filter, NDT localization, ground
//! filter, clustering.

use crate::calib::{Calibration, NodeCost};
use crate::frontend::Frames;
use crate::msg::{unexpected, Msg, PoseEstimate};
use crate::topics;
use av_des::{SimTime, Snap, StreamRng};
use av_geom::Pose;
use av_perception::{
    ClusterParams, EuclideanCluster, NdtMatcher, NdtParams, NdtWorkspace, RayGroundFilter,
    RayGroundParams,
};
use av_pointcloud::{NdtGrid, VoxelGrid};
use av_ros::{Execution, Lineage, Message, Node, Outbox};
use std::rc::Rc;
use std::sync::Arc;

/// `voxel_grid_filter`: down-samples `/points_raw` for localization.
pub struct VoxelGridFilterNode {
    filter: VoxelGrid,
    cost: NodeCost,
    rng: StreamRng,
    frames: Option<Rc<Frames>>,
}

impl VoxelGridFilterNode {
    /// Creates the node with the given leaf size.
    pub fn new(leaf_size: f64, calib: &Calibration, rng: StreamRng) -> VoxelGridFilterNode {
        VoxelGridFilterNode {
            filter: VoxelGrid::new(leaf_size),
            cost: calib.voxel_grid_filter.clone(),
            rng,
            frames: None,
        }
    }

    /// Takes filtered clouds the LiDAR front end computed ahead from
    /// `frames`; a sweep without one is filtered here.
    pub(crate) fn with_frames(self, frames: Rc<Frames>) -> VoxelGridFilterNode {
        VoxelGridFilterNode { frames: Some(frames), ..self }
    }
}

impl Node<Msg> for VoxelGridFilterNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::PointCloud(cloud) = &*msg.payload else {
            unexpected(topics::nodes::VOXEL_GRID_FILTER, topic, &msg.payload)
        };
        let ahead = self
            .frames
            .as_ref()
            .and_then(|f| f.product(&msg.header.lineage, |p| p.filtered.take()));
        let filtered = ahead.unwrap_or_else(|| self.filter.filter(cloud));
        let units = cloud.len() as f64 / 1000.0;
        out.publish(topics::FILTERED_POINTS, Msg::PointCloud(filtered));
        Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
    }
}

/// `ndt_matching`: localizes against the HD map's NDT grid, seeded by the
/// previous pose advanced with the latest IMU motion (and by GNSS before
/// the first convergence).
pub struct NdtMatchingNode {
    matcher: NdtMatcher,
    // Map cells packed by earlier alignments; a cache, so not snapped.
    workspace: NdtWorkspace,
    cost: NodeCost,
    aux: NodeCost,
    rng: StreamRng,
    pose: Pose,
    localized: bool,
    consecutive_rejects: u32,
    last_match_stamp: Option<SimTime>,
    speed: f64,
    yaw_rate: f64,
    sensor_height: f64,
    last_gnss: Option<av_geom::Vec3>,
    last_accept_stamp: Option<SimTime>,
    awaiting_seed: bool,
    // Lineage of the GNSS fix currently seeding the pose. Merged into
    // published poses until the first accepted scan match, so the
    // post-restart reseed handshake stays visible in blame chains.
    seed_lineage: Lineage,
}

impl NdtMatchingNode {
    /// Creates the node around a map grid (owned or shared) and an
    /// initial pose guess.
    pub fn new(
        map: impl Into<Arc<NdtGrid>>,
        initial_guess: Pose,
        sensor_height: f64,
        calib: &Calibration,
        rng: StreamRng,
    ) -> NdtMatchingNode {
        NdtMatchingNode {
            matcher: NdtMatcher::new(map, NdtParams::default()),
            workspace: NdtWorkspace::default(),
            cost: calib.ndt_matching.clone(),
            aux: calib.auxiliary.clone(),
            rng,
            pose: initial_guess,
            localized: false,
            consecutive_rejects: 0,
            last_match_stamp: None,
            speed: 0.0,
            yaw_rate: 0.0,
            sensor_height,
            last_gnss: None,
            last_accept_stamp: None,
            awaiting_seed: false,
            seed_lineage: Lineage::empty(),
        }
    }

    /// The latest pose estimate.
    pub fn pose(&self) -> Pose {
        self.pose
    }

    /// Whether the filter currently holds an accepted scan match (false
    /// before the first convergence and after a losing streak).
    pub fn is_localized(&self) -> bool {
        self.localized
    }

    fn predicted_guess(&self, stamp: SimTime) -> Pose {
        let dt = match self.last_match_stamp {
            Some(last) => stamp.saturating_since(last).as_secs_f64(),
            None => return self.pose,
        };
        // Dead-reckon with the IMU-observed motion (the paper: "the IMU
        // may be used to anticipate where the subsequent positions are
        // likely to be").
        let yaw = self.pose.yaw() + self.yaw_rate * dt * 0.5;
        let delta = av_geom::Vec3::new(yaw.cos(), yaw.sin(), 0.0) * (self.speed * dt);
        Pose::planar(
            self.pose.translation.x + delta.x,
            self.pose.translation.y + delta.y,
            self.pose.yaw() + self.yaw_rate * dt,
        )
    }
}

impl Node<Msg> for NdtMatchingNode {
    /// A relaunched `ndt_matching` has lost its scan-to-scan state: it
    /// keeps only the static map and the last published pose (the launch
    /// file's `initial_pose`), and must re-converge — reseeded by GNSS —
    /// before it reports itself localized again.
    fn on_restart(&mut self) {
        self.localized = false;
        self.consecutive_rejects = 0;
        self.last_match_stamp = None;
        self.last_accept_stamp = None;
        self.last_gnss = None;
        self.speed = 0.0;
        self.yaw_rate = 0.0;
        // Like the real node after a relaunch: do not scan-match until a
        // fresh pose seed arrives. The crash-time pose is stale (the
        // vehicle kept moving), and matching from it can lock onto a
        // false local optimum that then shuts out the GNSS reseed.
        self.awaiting_seed = true;
    }

    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
        s.leaf(&mut self.pose);
        s.bool(&mut self.localized);
        s.u32(&mut self.consecutive_rejects);
        s.opt(&mut self.last_match_stamp, Snap::time);
        s.f64(&mut self.speed);
        s.f64(&mut self.yaw_rate);
        s.opt(&mut self.last_gnss, Snap::leaf);
        s.opt(&mut self.last_accept_stamp, Snap::time);
        s.bool(&mut self.awaiting_seed);
        s.leaf(&mut self.seed_lineage);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        match &*msg.payload {
            Msg::Imu(imu) => {
                self.speed = imu.speed;
                self.yaw_rate = imu.yaw_rate;
                Execution::cpu(self.aux.demand(0.0, &mut self.rng), self.aux.mem_intensity)
            }
            Msg::Gnss(fix) => {
                if !self.localized {
                    // Meter-level position seed; when moving, two
                    // consecutive fixes also give a heading seed (the
                    // standard GNSS initial-pose recipe).
                    let yaw = match self.last_gnss {
                        Some(prev) => {
                            let delta = fix.position - prev;
                            if delta.norm_xy() > 3.0 {
                                delta.y.atan2(delta.x)
                            } else {
                                self.pose.yaw()
                            }
                        }
                        None => self.pose.yaw(),
                    };
                    self.pose = Pose::planar(fix.position.x, fix.position.y, yaw);
                    self.seed_lineage = msg.header.lineage.clone();
                }
                self.last_gnss = Some(fix.position);
                self.awaiting_seed = false;
                Execution::cpu(self.aux.demand(0.0, &mut self.rng), self.aux.mem_intensity)
            }
            Msg::PointCloud(filtered) => {
                if self.awaiting_seed {
                    // No pose seed yet after the relaunch: the real node
                    // publishes nothing until /initialpose or a GNSS fix
                    // arrives, so drop the scan on the floor (cheap).
                    return Execution::cpu(
                        self.aux.demand(0.0, &mut self.rng),
                        self.aux.mem_intensity,
                    );
                }
                // The sweep is in the sensor frame; the map was built with
                // the sensor's mounting height, so lift the scan onto the
                // same z before the planar alignment.
                let lifted = filtered.transformed(&Pose::new(
                    av_geom::Vec3::new(0.0, 0.0, self.sensor_height),
                    av_geom::Quat::IDENTITY,
                ));
                let guess = self.predicted_guess(msg.header.stamp);
                let result = self.matcher.align_with(&lifted, &guess, &mut self.workspace);
                // Accept solid matches near the motion prediction; a weak
                // or jumping match is rejected (coast on dead reckoning),
                // and a streak of rejections declares the filter lost so
                // the next GNSS fix can reseed it — standard ndt_matching
                // failure handling. The acceptance gate widens with the
                // time spent coasting: after a sensor gap the dead-
                // reckoned prediction has drifted, and the first good
                // match back may legitimately sit meters away.
                let jump = result.pose.translation.distance(guess.translation);
                let coast_s = self
                    .last_accept_stamp
                    .map(|t| msg.header.stamp.saturating_since(t).as_secs_f64())
                    .unwrap_or(10.0);
                let gate = 3.0 + 6.0 * coast_s.min(10.0);
                if result.matched_points > 100 && result.fitness > 0.15 && jump < gate {
                    self.pose = result.pose;
                    self.localized = true;
                    self.consecutive_rejects = 0;
                    self.last_accept_stamp = Some(msg.header.stamp);
                } else {
                    self.pose = guess;
                    self.consecutive_rejects += 1;
                    if self.consecutive_rejects > 10 {
                        self.localized = false;
                    }
                }
                let accepted_now = self.consecutive_rejects == 0 && self.localized;
                self.last_match_stamp = Some(msg.header.stamp);
                let payload = Msg::Pose(PoseEstimate {
                    pose: self.pose,
                    fitness: result.fitness,
                    iterations: result.iterations,
                });
                if self.seed_lineage.is_empty() {
                    out.publish(topics::NDT_POSE, payload);
                } else {
                    // While converging from a GNSS seed the pose still
                    // derives from that fix: keep its ancestry on the
                    // published estimate (and drop it once a scan match is
                    // accepted — from then on the pose is map-matched).
                    let lineage = out.default_lineage().merged(&self.seed_lineage);
                    out.publish_with_lineage(topics::NDT_POSE, payload, lineage);
                    if accepted_now {
                        self.seed_lineage = Lineage::empty();
                    }
                }
                let units = result.iterations as f64;
                Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
            }
            other => unexpected(topics::nodes::NDT_MATCHING, topic, other),
        }
    }
}

/// `ray_ground_filter`: splits the raw sweep into ground / non-ground.
pub struct RayGroundFilterNode {
    filter: RayGroundFilter,
    cost: NodeCost,
    rng: StreamRng,
    frames: Option<Rc<Frames>>,
}

impl RayGroundFilterNode {
    /// Creates the node.
    pub fn new(
        params: RayGroundParams,
        calib: &Calibration,
        rng: StreamRng,
    ) -> RayGroundFilterNode {
        RayGroundFilterNode {
            filter: RayGroundFilter::new(params),
            cost: calib.ray_ground_filter.clone(),
            rng,
            frames: None,
        }
    }

    /// Takes ground splits the LiDAR front end computed ahead from
    /// `frames`; a sweep without one is split here.
    pub(crate) fn with_frames(self, frames: Rc<Frames>) -> RayGroundFilterNode {
        RayGroundFilterNode { frames: Some(frames), ..self }
    }
}

impl Node<Msg> for RayGroundFilterNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::PointCloud(cloud) = &*msg.payload else {
            unexpected(topics::nodes::RAY_GROUND_FILTER, topic, &msg.payload)
        };
        let ahead =
            self.frames.as_ref().and_then(|f| f.product(&msg.header.lineage, |p| p.split.take()));
        let split = ahead.unwrap_or_else(|| self.filter.split(cloud));
        let units = cloud.len() as f64 / 1000.0;
        out.publish(topics::POINTS_GROUND, Msg::PointCloud(split.ground));
        out.publish(topics::POINTS_NO_GROUND, Msg::PointCloud(split.no_ground));
        Execution::cpu(self.cost.demand(units, &mut self.rng), self.cost.mem_intensity)
    }
}

/// `euclidean_cluster`: groups non-ground points into objects. The
/// nearest-neighbour phase is GPU-accelerated in Autoware, giving the node
/// its Table V GPU share; clustering proper and bounding-box extraction
/// stay on the CPU.
pub struct EuclideanClusterNode {
    clusterer: EuclideanCluster,
    cost: NodeCost,
    gpu_kernel: av_des::SimDuration,
    gpu_energy_j: f64,
    rng: StreamRng,
    frames: Option<Rc<Frames>>,
}

impl EuclideanClusterNode {
    /// Creates the node.
    pub fn new(params: ClusterParams, calib: &Calibration, rng: StreamRng) -> EuclideanClusterNode {
        EuclideanClusterNode {
            clusterer: EuclideanCluster::new(params),
            cost: calib.euclidean_cluster.clone(),
            gpu_kernel: calib.cluster_gpu_kernel,
            gpu_energy_j: calib.cluster_gpu_energy_j,
            rng,
            frames: None,
        }
    }

    /// Takes detections the LiDAR front end computed ahead from
    /// `frames`; a cloud without them is clustered here.
    pub(crate) fn with_frames(self, frames: Rc<Frames>) -> EuclideanClusterNode {
        EuclideanClusterNode { frames: Some(frames), ..self }
    }
}

impl Node<Msg> for EuclideanClusterNode {
    fn snap(&mut self, s: &mut Snap<'_>) {
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        let Msg::PointCloud(no_ground) = &*msg.payload else {
            unexpected(topics::nodes::EUCLIDEAN_CLUSTER, topic, &msg.payload)
        };
        let ahead = self
            .frames
            .as_ref()
            .and_then(|f| f.product(&msg.header.lineage, |p| p.detections.take()));
        let detections = ahead.unwrap_or_else(|| self.clusterer.detect(no_ground));
        let units = no_ground.len() as f64 / 1000.0;
        let copy_bytes = no_ground.byte_size();
        out.publish(topics::LIDAR_DETECTOR_OBJECTS, Msg::DetectedObjects(detections));
        // CPU preparation → GPU neighbour search → CPU extraction.
        let cpu = self.cost.demand(units, &mut self.rng);
        let pre = cpu.mul_f64(0.6);
        let post = cpu.mul_f64(0.4);
        Execution::cpu(pre, self.cost.mem_intensity)
            .then_gpu(self.gpu_kernel, copy_bytes, self.gpu_energy_j)
            .then_cpu(post, self.cost.mem_intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::RngStreams;
    use av_geom::Vec3;
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

    fn rng(name: &str) -> StreamRng {
        RngStreams::new(1).stream(name)
    }

    #[test]
    fn voxel_node_downsamples_and_publishes() {
        let calib = Calibration::default();
        let mut node = VoxelGridFilterNode::new(1.0, &calib, rng("v"));
        let cloud = PointCloud::from_positions(
            (0..100).map(|i| Vec3::new((i % 10) as f64 * 0.05, (i / 10) as f64 * 0.05, 0.0)),
        );
        let mut out = Outbox::new(Lineage::empty());
        let exec =
            node.on_message(topics::POINTS_RAW, &message(Msg::PointCloud(cloud), 100), &mut out);
        assert_eq!(out.len(), 1);
        assert!(!exec.cpu_demand().is_zero());
        assert!(exec.gpu_demand().is_zero());
    }

    #[test]
    fn ray_ground_node_publishes_both_outputs() {
        let calib = Calibration::default();
        let mut node = RayGroundFilterNode::new(RayGroundParams::default(), &calib, rng("g"));
        let cloud = PointCloud::from_positions(
            (1..40).map(|i| Vec3::new(i as f64, 0.0, -1.9)).chain([Vec3::new(10.0, 0.0, 0.0)]),
        );
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(topics::POINTS_RAW, &message(Msg::PointCloud(cloud), 100), &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn cluster_node_has_gpu_phase() {
        let calib = Calibration::default();
        let mut node = EuclideanClusterNode::new(ClusterParams::default(), &calib, rng("c"));
        let cloud = PointCloud::from_positions(
            (0..30).map(|i| Vec3::new(5.0 + (i % 6) as f64 * 0.2, (i / 6) as f64 * 0.2, 0.0)),
        );
        let mut out = Outbox::new(Lineage::empty());
        let exec = node.on_message(
            topics::POINTS_NO_GROUND,
            &message(Msg::PointCloud(cloud), 100),
            &mut out,
        );
        assert_eq!(exec.phases.len(), 3);
        assert!(!exec.gpu_demand().is_zero());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn ndt_node_localizes_against_map() {
        // Structured map: ground + wall.
        let mut map_pts = PointCloud::new();
        let mut r = rng("map");
        for _ in 0..3000 {
            map_pts.push(av_pointcloud::Point::new(
                r.uniform(0.0, 30.0),
                r.uniform(0.0, 30.0),
                r.normal(0.0, 0.02),
            ));
            map_pts.push(av_pointcloud::Point::new(
                30.0 + r.normal(0.0, 0.02),
                r.uniform(0.0, 30.0),
                r.uniform(0.0, 4.0),
            ));
            map_pts.push(av_pointcloud::Point::new(
                r.uniform(0.0, 30.0),
                30.0 + r.normal(0.0, 0.02),
                r.uniform(0.0, 4.0),
            ));
        }
        let grid = NdtGrid::build(&map_pts, 2.0, 6);
        let calib = Calibration::default();
        let mut node = NdtMatchingNode::new(grid, Pose::IDENTITY, 0.0, &calib, rng("n"));

        // Scan from true pose (0.3, 0.2, 0.02).
        let true_pose = Pose::planar(0.3, 0.2, 0.02);
        let scan = map_pts
            .filtered(|p| p.position.x < 20.0 && p.position.y < 20.0)
            .transformed(&true_pose.inverse());
        let mut out = Outbox::new(Lineage::empty());
        let exec = node.on_message(
            topics::FILTERED_POINTS,
            &message(Msg::PointCloud(scan), 100),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(!exec.cpu_demand().is_zero());
        let err = node.pose().translation.distance(true_pose.translation);
        assert!(err < 0.1, "localization error {err}");
    }

    #[test]
    fn ndt_aux_inputs_are_cheap_and_publish_nothing() {
        let grid = NdtGrid::build(&PointCloud::new(), 2.0, 6);
        let calib = Calibration::default();
        let mut node = NdtMatchingNode::new(grid, Pose::IDENTITY, 0.0, &calib, rng("n2"));
        let mut out = Outbox::new(Lineage::empty());
        let exec = node.on_message(
            topics::IMU_RAW,
            &message(
                Msg::Imu(av_world::ImuSample {
                    linear_accel: Vec3::ZERO,
                    yaw_rate: 0.1,
                    speed: 8.0,
                }),
                100,
            ),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(exec.cpu_demand().as_millis_f64() < 1.0);
        // GNSS before localization moves the guess.
        node.on_message(
            topics::GNSS_POSE,
            &message(
                Msg::Gnss(av_world::GnssFix { position: Vec3::new(5.0, 6.0, 0.0), accuracy: 1.0 }),
                150,
            ),
            &mut Outbox::new(Lineage::empty()),
        );
        assert!((node.pose().translation.x - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unexpected")]
    fn wrong_payload_panics() {
        let calib = Calibration::default();
        let mut node = VoxelGridFilterNode::new(1.0, &calib, rng("x"));
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(
            topics::POINTS_RAW,
            &message(Msg::Twist(av_geom::Twist::ZERO), 0),
            &mut out,
        );
    }
}
