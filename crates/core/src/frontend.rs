//! The LiDAR front end, one tick ahead.
//!
//! The LiDAR stream is open-loop: the ego follows its route by script,
//! so nothing the stack computes changes the next sweep. Tick k+1's
//! *frame* — the sweep, the voxel-filtered cloud, the ground split, the
//! cluster detections and the points costmap — is a pure function of
//! the configuration, the tick time and the `"lidar_noise"` stream's
//! state after tick k. [`drive`](crate::stack::drive) therefore runs a
//! scoped helper thread ([`serve`]) that computes the next tick's frame
//! while the engine thread runs the current tick's closed-loop work.
//!
//! The engine thread [`Frames::request`]s a frame once the LiDAR
//! timer's next tick time is known, [`Frames::take`]s it at the tick
//! and adopts the helper's RNG end state. A job the helper has not
//! started is stolen back and computed inline; a job in progress is
//! waited for. The products wait in a small cache keyed by the tick's
//! LiDAR origin stamp, where each of the four nodes takes its own; a
//! node whose key misses computes inline. Either way every bit is the
//! one the inline path gives (DESIGN.md, "The LiDAR front end runs a
//! tick ahead").

use crate::stack::{wants, StackConfig};
use crate::topics::nodes as node_names;
use av_des::{SimTime, StreamRng};
use av_perception::{
    ClusterParams, CostmapGenerator, CostmapParams, DetectedObject, EuclideanCluster, GroundSplit,
    OccupancyGrid, RayGroundFilter, RayGroundParams,
};
use av_pointcloud::{PointCloud, VoxelGrid};
use av_ros::{Lineage, Source};
use av_world::{LidarModel, World};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The ground filter's parameters in a drive of `config`: the sensor
/// sits at the LiDAR's mounting height.
pub(crate) fn ground_params(config: &StackConfig) -> RayGroundParams {
    RayGroundParams { sensor_height: config.lidar.mount_height, ..RayGroundParams::default() }
}

/// What the four stateless LiDAR nodes publish for one sweep. A field
/// is `None` when its node is not launched, and once its node took it.
#[derive(Debug, Default)]
pub(crate) struct Products {
    pub(crate) filtered: Option<PointCloud>,
    pub(crate) split: Option<GroundSplit>,
    pub(crate) detections: Option<Vec<DetectedObject>>,
    pub(crate) costmap: Option<OccupancyGrid>,
}

impl Products {
    fn is_empty(&self) -> bool {
        self.filtered.is_none()
            && self.split.is_none()
            && self.detections.is_none()
            && self.costmap.is_none()
    }
}

/// The sensor model and the kernels of the launched LiDAR nodes, built
/// from the configuration alone, so each thread builds its own.
struct FrontEnd {
    world: World,
    lidar: LidarModel,
    voxel: Option<VoxelGrid>,
    ground: Option<RayGroundFilter>,
    cluster: Option<EuclideanCluster>,
    costmap: Option<CostmapGenerator>,
}

impl FrontEnd {
    fn new(config: &StackConfig) -> FrontEnd {
        let launched = |node| wants(&config.selection, node);
        FrontEnd {
            world: World::generate(&config.scenario),
            lidar: LidarModel::new(config.lidar.clone()),
            voxel: launched(node_names::VOXEL_GRID_FILTER)
                .then(|| VoxelGrid::new(config.voxel_leaf)),
            ground: launched(node_names::RAY_GROUND_FILTER)
                .then(|| RayGroundFilter::new(ground_params(config))),
            cluster: launched(node_names::EUCLIDEAN_CLUSTER)
                .then(|| EuclideanCluster::new(ClusterParams::default())),
            costmap: launched(node_names::COSTMAP_GENERATOR)
                .then(|| CostmapGenerator::new(CostmapParams::default())),
        }
    }

    /// The frame of the LiDAR tick at `at`, drawing the sweep's noise
    /// from a copy of `start`.
    fn frame(&self, at: SimTime, start: StreamRng) -> Frame {
        let mut rng = start.clone();
        let t = at.as_secs_f64();
        let sweep = self.lidar.scan(&self.world, &self.world.snapshot(t), &mut rng);
        let split = self.ground.as_ref().map(|g| g.split(&sweep));
        let no_ground = split.as_ref().map(|s| &s.no_ground);
        let products = Products {
            filtered: self.voxel.as_ref().map(|v| v.filter(&sweep)),
            detections: self.cluster.as_ref().zip(no_ground).map(|(c, cloud)| c.detect(cloud)),
            costmap: self.costmap.as_ref().zip(no_ground).map(|(g, cloud)| g.from_points(cloud)),
            split,
        };
        Frame { at, start, end: rng, sweep, products }
    }
}

/// One LiDAR tick computed ahead: its time, the noise stream before and
/// after the sweep, the sweep and its products.
struct Frame {
    at: SimTime,
    start: StreamRng,
    end: StreamRng,
    sweep: PointCloud,
    products: Products,
}

/// A frame requested and not yet started.
struct Job {
    at: SimTime,
    rng: StreamRng,
}

/// What the engine and the helper share. At most one job is ever in
/// flight: the engine requests tick k+1 only after it has taken tick k.
#[derive(Default)]
struct Slot {
    /// Requested, not started: the helper may start it, or the engine
    /// may steal it back.
    job: Option<Job>,
    /// The helper is computing a frame.
    busy: bool,
    /// The helper's last frame, not yet taken.
    done: Option<Frame>,
    /// One side is gone: the drive is over, or a thread panicked.
    closed: bool,
}

/// The engine thread's and the helper's meeting point.
#[derive(Default)]
pub(crate) struct Exchange {
    slot: Mutex<Slot>,
    wake: Condvar,
}

impl Exchange {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // The only panics under the lock are the closed-exchange asserts,
        // and every update is a plain field store: a poisoned slot is
        // still a valid one.
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        self.wake.wait(slot).unwrap_or_else(|e| e.into_inner())
    }
}

/// Closes the exchange when dropped, normally or by a panic, so the
/// other side never waits for a thread that is gone.
pub(crate) struct Hangup<'a>(pub(crate) &'a Exchange);

impl Drop for Hangup<'_> {
    fn drop(&mut self) {
        let mut slot = self.0.lock();
        slot.closed = true;
        slot.busy = false;
        self.0.wake.notify_all();
    }
}

/// The helper thread's loop: compute each requested frame until the
/// exchange closes. The front end is built at the first job, after the
/// session's map build, so its world never adds to that build's heap
/// peak.
pub(crate) fn serve(config: &StackConfig, exchange: &Exchange) {
    let _hangup = Hangup(exchange);
    let mut front_end = None;
    loop {
        let job = {
            let mut slot = exchange.lock();
            loop {
                if slot.closed {
                    return;
                }
                if let Some(job) = slot.job.take() {
                    slot.busy = true;
                    break job;
                }
                slot = exchange.wait(slot);
            }
        };
        let front_end = front_end.get_or_insert_with(|| FrontEnd::new(config));
        let frame = front_end.frame(job.at, job.rng);
        let mut slot = exchange.lock();
        slot.busy = false;
        slot.done = Some(frame);
        exchange.wake.notify_all();
    }
}

/// How many ticks' products wait for their nodes. A node whose queue
/// holds an older sweep than this computes it inline.
const KEPT_TICKS: usize = 4;

/// The engine thread's side of the front end: requests and takes frames,
/// and keeps their products for the four nodes. A cache: never part of a
/// checkpoint.
pub(crate) struct Frames {
    exchange: Arc<Exchange>,
    products: RefCell<VecDeque<(SimTime, Products)>>,
}

impl Frames {
    pub(crate) fn new(exchange: Arc<Exchange>) -> Frames {
        Frames { exchange, products: RefCell::default() }
    }

    /// Asks the helper for the frame of the LiDAR tick at `at`, whose
    /// sweep draws from `rng` as it stands now.
    pub(crate) fn request(&self, at: SimTime, rng: &StreamRng) {
        let mut slot = self.exchange.lock();
        assert!(!slot.closed, "the LiDAR front-end helper stopped");
        slot.job = Some(Job { at, rng: rng.clone() });
        self.exchange.wake.notify_all();
    }

    /// The sweep of the LiDAR tick at `at` drawing from `rng`, when the
    /// helper computed it: `rng` moves to the helper's end state and the
    /// products wait for their nodes. `None` when the tick must compute
    /// inline — nothing was requested, or the job had not started and is
    /// stolen back. A job in progress is waited for.
    pub(crate) fn take(&self, at: SimTime, rng: &mut StreamRng) -> Option<PointCloud> {
        let frame = {
            let mut slot = self.exchange.lock();
            while slot.busy {
                slot = self.exchange.wait(slot);
            }
            assert!(!slot.closed, "the LiDAR front-end helper stopped");
            if slot.job.take().is_some() {
                return None;
            }
            slot.done.take()
        }?;
        if frame.at != at || frame.start != *rng {
            return None;
        }
        *rng = frame.end;
        let mut kept = self.products.borrow_mut();
        if kept.len() == KEPT_TICKS {
            kept.pop_front();
        }
        kept.push_back((at, frame.products));
        Some(frame.sweep)
    }

    /// Takes one product of the sweep `lineage` descends from, if it was
    /// computed ahead and not yet taken.
    pub(crate) fn product<T>(
        &self,
        lineage: &Lineage,
        pick: impl FnOnce(&mut Products) -> Option<T>,
    ) -> Option<T> {
        let stamp = lineage.stamp_of(Source::Lidar)?;
        let mut kept = self.products.borrow_mut();
        let i = kept.iter().position(|(at, _)| *at == stamp)?;
        let product = pick(&mut kept[i].1);
        if kept[i].1.is_empty() {
            kept.remove(i);
        }
        product
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::msg::Msg;
    use crate::nodes::{
        CostmapGeneratorNode, EuclideanClusterNode, RayGroundFilterNode, VoxelGridFilterNode,
    };
    use crate::topics;
    use av_des::RngStreams;
    use av_ros::{Header, Message, Node, Outbox};
    use av_vision::DetectorKind;

    /// Runs `node` on `cloud` and renders what it publishes.
    fn inline(node: &mut dyn Node<Msg>, topic: &str, cloud: &PointCloud) -> Vec<String> {
        let lineage = Lineage::origin(Source::Lidar, SimTime::from_millis(100));
        let header = Header { seq: 1, stamp: SimTime::from_millis(100), lineage };
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(topic, &Message::new(header, Msg::PointCloud(cloud.clone())), &mut out);
        out.into_items().into_iter().map(|(topic, msg, _)| format!("{topic} {msg:?}")).collect()
    }

    /// A frame equals, bit for bit, what the sweep and the four nodes
    /// give inline. Debug renders every `f64` exactly, so equal text is
    /// equal bits.
    #[test]
    fn frame_products_equal_the_nodes_inline_outputs() {
        for config in [
            StackConfig::smoke_test(DetectorKind::YoloV3),
            StackConfig::paper_default(DetectorKind::YoloV3),
        ] {
            let calib = Calibration::default();
            let streams = RngStreams::new(config.seed);
            let front_end = FrontEnd::new(&config);
            let world = World::generate(&config.scenario);
            let lidar = LidarModel::new(config.lidar.clone());
            let mut rng = streams.stream("lidar_noise");
            for at in [SimTime::from_millis(101), SimTime::from_millis(4_203)] {
                let frame = front_end.frame(at, rng.clone());
                let t = at.as_secs_f64();
                let sweep = lidar.scan(&world, &world.snapshot(t), &mut rng);
                assert_eq!(frame.sweep, sweep);
                assert_eq!(frame.end, rng, "noise end state");

                let products = frame.products;
                let filtered = products.filtered.expect("full stack");
                let mut voxel = VoxelGridFilterNode::new(config.voxel_leaf, &calib, rng.clone());
                let want = inline(&mut voxel, topics::POINTS_RAW, &sweep);
                assert_eq!(
                    want,
                    [format!("{} {:?}", topics::FILTERED_POINTS, Msg::PointCloud(filtered))]
                );

                let split = products.split.expect("full stack");
                let mut ground =
                    RayGroundFilterNode::new(ground_params(&config), &calib, rng.clone());
                let want = inline(&mut ground, topics::POINTS_RAW, &sweep);
                assert_eq!(
                    want,
                    [
                        format!("{} {:?}", topics::POINTS_GROUND, Msg::PointCloud(split.ground)),
                        format!(
                            "{} {:?}",
                            topics::POINTS_NO_GROUND,
                            Msg::PointCloud(split.no_ground.clone())
                        ),
                    ]
                );

                let detections = products.detections.expect("full stack");
                let mut cluster =
                    EuclideanClusterNode::new(ClusterParams::default(), &calib, rng.clone());
                let want = inline(&mut cluster, topics::POINTS_NO_GROUND, &split.no_ground);
                let got = Msg::DetectedObjects(detections);
                assert_eq!(want, [format!("{} {got:?}", topics::LIDAR_DETECTOR_OBJECTS)]);

                let costmap = products.costmap.expect("full stack");
                let mut points =
                    CostmapGeneratorNode::new(CostmapParams::default(), &calib, rng.clone());
                let want = inline(&mut points, topics::POINTS_NO_GROUND, &split.no_ground);
                let got = Msg::Costmap(costmap);
                assert_eq!(want, [format!("{} {got:?}", topics::COSTMAP_POINTS)]);
            }
        }
    }

    /// A job the helper has not started is stolen back; a finished frame
    /// is taken, its noise end state adopted, and each product is taken
    /// once, by the stamp of its sweep.
    #[test]
    fn frames_are_stolen_or_taken_and_products_taken_once_by_stamp() {
        let config = StackConfig::smoke_test(DetectorKind::YoloV3);
        let exchange = Arc::new(Exchange::default());
        let frames = Frames::new(Arc::clone(&exchange));
        let start = RngStreams::new(config.seed).stream("lidar_noise");
        let at = SimTime::from_millis(101);

        // No helper runs, so the job is never started: the tick steals it.
        let mut rng = start.clone();
        frames.request(at, &start);
        assert!(frames.take(at, &mut rng).is_none());
        assert_eq!(rng, start, "a stolen job leaves the stream to the inline scan");

        std::thread::scope(|scope| {
            scope.spawn(|| serve(&config, &exchange));
            let _hangup = Hangup(&exchange);
            frames.request(at, &start);
            let mut slot = exchange.lock();
            while slot.done.is_none() {
                slot = exchange.wait(slot);
            }
            drop(slot);
            let sweep = frames.take(at, &mut rng).expect("the helper's frame");

            let (world, lidar) =
                (World::generate(&config.scenario), LidarModel::new(config.lidar.clone()));
            let mut inline_rng = start.clone();
            let inline = lidar.scan(&world, &world.snapshot(at.as_secs_f64()), &mut inline_rng);
            assert_eq!(sweep, inline);
            assert_eq!(rng, inline_rng, "the engine adopts the helper's end state");

            let raw = Lineage::origin(Source::Lidar, at);
            let later = Lineage::origin(Source::Lidar, SimTime::from_millis(201));
            assert!(frames.product(&later, |p| p.filtered.take()).is_none(), "another tick");
            assert!(frames.product(&raw, |p| p.filtered.take()).is_some());
            assert!(frames.product(&raw, |p| p.filtered.take()).is_none(), "taken, not cloned");
        });
    }

    /// A standalone node's frame carries its product alone: the helper
    /// computes nothing nobody takes.
    #[test]
    fn isolated_nodes_get_only_their_own_product() {
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.selection =
            crate::stack::NodeSelection::Isolated(node_names::VOXEL_GRID_FILTER.into());
        let rng = RngStreams::new(1).stream("lidar_noise");
        let products = FrontEnd::new(&config).frame(SimTime::from_millis(100), rng).products;
        assert!(products.filtered.is_some());
        assert!(products.split.is_none() && products.detections.is_none());
        assert!(products.costmap.is_none());
    }
}
