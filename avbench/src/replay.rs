//! Untimed attribution of one drive's host time to its layers.
//!
//! A drive is a black box from outside: `run_drive` builds the world and
//! the HD map, then the discrete-event engine dispatches sensor ticks and
//! node callbacks. This pass times the same pieces through their public
//! functions, on the same configuration and RNG streams:
//!
//! * `World::generate` and `build_map`, exactly as a session calls them;
//! * every sensor tick the drive published (scene snapshot, LiDAR scan,
//!   camera capture, GNSS/IMU samples), at the tick times its trace shows;
//! * every node callback the drive ran, in the order it started, on the
//!   message it consumed: the nodes are rebuilt from their public
//!   constructors, named by the traced drive's `TraceData.nodes` and
//!   checked against its `subscriptions`.
//!
//! Nodes and sensors are deterministic, so the replay recomputes exactly
//! the drive's messages (the published topics of every callback are
//! compared). What the drive's wall time leaves over is the engine
//! residual: event queue, bus dispatch, platform model and recorders.

use av_core::determinism::run_hash;
use av_core::metrics::blame_scalars;
use av_core::nodes::*;
use av_core::stack::{build_map, checkpoint_drive, run_drive, Checkpoint, RunConfig, StackConfig};
use av_core::topics::{self, nodes as names};
use av_core::Msg;
use av_des::{RngStreams, SimTime, StreamRng};
use av_perception::{ClusterParams, CostmapParams, FusionParams, RayGroundParams};
use av_ros::{Header, Lineage, Message, Node, Outbox, Source};
use av_trace::export::render_chrome_trace;
use av_trace::{TraceData, TraceEvent};
use av_tracking::{PredictParams, TrackerParams};
use av_world::{CameraModel, GnssFix, ImuSample, LidarModel, World};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One perception node's share of a drive.
#[derive(Debug)]
pub struct NodeShare {
    /// Node name.
    pub name: String,
    /// Callbacks the node ran in the real (traced) drive.
    pub calls: u64,
    /// Host time of those callbacks in the replay, seconds.
    pub self_s: f64,
}

impl NodeShare {
    /// Attributed host nanoseconds per real callback.
    pub fn ns_per_call(&self) -> f64 {
        self.self_s * 1e9 / self.calls.max(1) as f64
    }
}

/// Where one drive's host time went.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Wall time of the untraced drive, seconds.
    pub drive_wall_s: f64,
    /// `World::generate`, seconds.
    pub generate_s: f64,
    /// `build_map`, seconds.
    pub build_map_s: f64,
    /// Scene snapshots for the camera and LiDAR ticks, seconds.
    pub snapshot_s: f64,
    /// LiDAR scans, seconds.
    pub scan_s: f64,
    /// Camera captures, seconds.
    pub capture_s: f64,
    /// GNSS and IMU samples, seconds.
    pub nav_s: f64,
    /// Sensor ticks replayed.
    pub sensor_calls: u64,
    /// Replayed callbacks whose input was missing or whose published
    /// topics differed from the drive's (0 when the replay is faithful).
    pub replay_mismatches: u64,
    /// LiDAR points generated.
    pub lidar_points: u64,
    /// Perception nodes, in `PERCEPTION` order.
    pub nodes: Vec<NodeShare>,
    /// Messages delivered to subscriptions in the real drive.
    pub msgs_delivered: u64,
    /// Messages displaced from full queues in the real drive.
    pub msgs_dropped: u64,
    /// Node callbacks in the real drive.
    pub callbacks: u64,
    /// Trace events the traced drive recorded.
    pub trace_events: u64,
    /// `render_chrome_trace` on that trace, seconds.
    pub render_chrome_s: f64,
    /// Size of the rendered Chrome trace, bytes.
    pub chrome_bytes: u64,
    /// Critical-path blame over that trace, seconds.
    pub blame_s: f64,
    /// `run_hash` over the untraced report, seconds.
    pub run_hash_s: f64,
    /// Size of a mid-drive checkpoint, bytes.
    pub capture_bytes: u64,
    /// `Checkpoint::from_bytes` on it, seconds.
    pub decode_s: f64,
}

impl Attribution {
    /// Sensor generation, seconds.
    pub fn sensor_s(&self) -> f64 {
        self.snapshot_s + self.scan_s + self.capture_s + self.nav_s
    }

    /// Node callback time.
    pub fn node_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.self_s).sum()
    }

    /// Drive wall time not explained by set-up, sensors or nodes.
    pub fn residual_s(&self) -> f64 {
        self.drive_wall_s - self.generate_s - self.build_map_s - self.sensor_s() - self.node_s()
    }
}

/// Rounds of (cold drive, replay). The round with the median residual is
/// reported whole, so its parts add up to its own drive's wall time and a
/// host hiccup in one round does not skew the split.
const ROUNDS: usize = 3;

/// Attributes one drive of `config` over `duration_s` virtual seconds.
pub fn attribute(config: &StackConfig, duration_s: f64) -> Result<Attribution, String> {
    let run = RunConfig::seconds(duration_s);
    let (traced, checkpoint) =
        checkpoint_drive(config, &run.clone().with_trace(), (duration_s / 2.0).max(0.5));
    let trace = traced.trace.as_ref().ok_or("traced drive carried no trace")?;

    let mut rounds: Vec<Attribution> =
        (0..ROUNDS).map(|_| round(config, &run, trace)).collect::<Result<_, _>>()?;
    rounds.sort_by(|x, y| x.residual_s().total_cmp(&y.residual_s()));
    let mut a = rounds.swap_remove(ROUNDS / 2);

    a.callbacks = trace.callback_count() as u64;
    a.trace_events = trace.events.len() as u64;
    let (chrome, render_s) = timed(|| render_chrome_trace("avbench", trace));
    a.render_chrome_s = render_s;
    a.chrome_bytes = chrome.len() as u64;
    let (blame, blame_s) = timed(|| blame_scalars(&traced));
    blame?;
    a.blame_s = blame_s;
    a.capture_bytes = checkpoint.size_bytes() as u64;
    let (decoded, decode_s) = timed(|| Checkpoint::from_bytes(checkpoint.as_bytes().to_vec()));
    decoded?;
    a.decode_s = decode_s;
    Ok(a)
}

/// One cold drive, then its parts rebuilt and timed.
fn round(config: &StackConfig, run: &RunConfig, trace: &TraceData) -> Result<Attribution, String> {
    let mut a = Attribution::default();
    let (report, wall) = timed(|| run_drive(config, run));
    a.drive_wall_s = wall;
    a.run_hash_s = timed(|| run_hash(&report)).1;
    for d in &report.drops {
        a.msgs_delivered += d.delivered;
        a.msgs_dropped += d.dropped;
    }

    let streams = RngStreams::new(config.seed);
    let (world, generate_s) = timed(|| World::generate(&config.scenario));
    a.generate_s = generate_s;
    let lidar = LidarModel::new(config.lidar.clone());
    let (map, build_map_s) =
        timed(|| build_map(&world, &lidar, config.map_cell_size, &mut streams.stream("mapping")));
    a.build_map_s = build_map_s;

    let mut replay = Replay::build(config, &world, map, trace)?;
    replay.feed(config, &world, &lidar, trace, &mut a);
    a.nodes = topics::nodes::PERCEPTION
        .iter()
        .filter_map(|&name| {
            let i = replay.names.iter().position(|n| n == name)?;
            Some(NodeShare {
                name: name.to_string(),
                calls: replay.calls[i],
                self_s: replay.busy_ns[i] as f64 / 1e9,
            })
        })
        .collect();
    Ok(a)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// The perception graph rebuilt from public node constructors, wired the
/// way a traced drive reports its topology.
pub struct Replay {
    names: Vec<String>,
    nodes: Vec<Box<dyn Node<Msg>>>,
    routes: BTreeMap<String, Vec<usize>>,
    busy_ns: Vec<u64>,
    calls: Vec<u64>,
}

impl Replay {
    /// Builds one node per traced node name, with the parameters and RNG
    /// streams a session gives it, and routes each topic to the nodes the
    /// trace says subscribe to it.
    pub fn build(
        config: &StackConfig,
        world: &World,
        map: av_pointcloud::NdtGrid,
        trace: &TraceData,
    ) -> Result<Replay, String> {
        let streams = RngStreams::new(config.seed);
        let calib = &config.calib;
        let mut map = Some(map);
        let mut nodes: Vec<Box<dyn Node<Msg>>> = Vec::new();
        for name in &trace.nodes {
            let s = |stream: &str| streams.stream(stream);
            let node: Box<dyn Node<Msg>> = match name.as_str() {
                names::VOXEL_GRID_FILTER => {
                    Box::new(VoxelGridFilterNode::new(config.voxel_leaf, calib, s("voxel")))
                }
                names::NDT_MATCHING => Box::new(NdtMatchingNode::new(
                    map.take().ok_or("two ndt_matching nodes")?,
                    world.ego_state(0.0).pose,
                    config.lidar.mount_height,
                    calib,
                    s("ndt"),
                )),
                names::RAY_GROUND_FILTER => Box::new(RayGroundFilterNode::new(
                    RayGroundParams {
                        sensor_height: config.lidar.mount_height,
                        ..RayGroundParams::default()
                    },
                    calib,
                    s("ground"),
                )),
                names::EUCLIDEAN_CLUSTER => Box::new(EuclideanClusterNode::new(
                    ClusterParams::default(),
                    calib,
                    s("cluster"),
                )),
                names::VISION_DETECTION => {
                    Box::new(VisionDetectionNode::new(config.detector, calib, s("vision")))
                }
                names::RANGE_VISION_FUSION => Box::new(RangeVisionFusionNode::new(
                    FusionParams {
                        image_width: config.camera.width,
                        hfov_deg: config.camera.hfov_deg,
                        ..FusionParams::default()
                    },
                    calib,
                    s("fusion"),
                )),
                names::IMM_UKF_PDA_TRACKER => Box::new(ImmUkfPdaTrackerNode::new(
                    TrackerParams::default(),
                    calib,
                    s("tracker"),
                )),
                names::UKF_TRACK_RELAY => Box::new(UkfTrackRelayNode::new(calib, s("relay"))),
                names::NAIVE_MOTION_PREDICT => Box::new(NaiveMotionPredictNode::new(
                    PredictParams::default(),
                    calib,
                    s("predict"),
                )),
                names::COSTMAP_GENERATOR => Box::new(CostmapGeneratorNode::new(
                    CostmapParams::default(),
                    calib,
                    s("costmap"),
                )),
                names::COSTMAP_GENERATOR_OBJ => Box::new(CostmapGeneratorObjNode::new(
                    CostmapParams::default(),
                    calib,
                    s("costmap_obj"),
                )),
                other => return Err(format!("replay has no constructor for node {other:?}")),
            };
            nodes.push(node);
        }
        let mut routes: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (topic, node) in &trace.subscriptions {
            let i = trace
                .nodes
                .iter()
                .position(|n| n == node)
                .ok_or_else(|| format!("subscription of unknown node {node:?}"))?;
            routes.entry(topic.clone()).or_default().push(i);
        }
        let n = nodes.len();
        Ok(Replay {
            names: trace.nodes.clone(),
            nodes,
            routes,
            busy_ns: vec![0; n],
            calls: vec![0; n],
        })
    }

    /// The replay's node names and its `(topic, node)` routing, sorted.
    #[cfg(test)]
    fn wiring(&self) -> (Vec<String>, Vec<(String, String)>) {
        let mut subs: Vec<(String, String)> = self
            .routes
            .iter()
            .flat_map(|(topic, nodes)| {
                nodes.iter().map(|&i| (topic.clone(), self.names[i].clone()))
            })
            .collect();
        subs.sort();
        (self.names.clone(), subs)
    }

    /// Regenerates every sensor message the drive published and runs
    /// every callback of the drive on the message it consumed, timing
    /// sensors into `a` and callbacks into the per-node counters.
    fn feed(
        &mut self,
        config: &StackConfig,
        world: &World,
        lidar: &LidarModel,
        trace: &TraceData,
        a: &mut Attribution,
    ) {
        const SENSORS: [(&str, Source); 4] = [
            (topics::POINTS_RAW, Source::Lidar),
            (topics::IMAGE_RAW, Source::Camera),
            (topics::GNSS_POSE, Source::Gnss),
            (topics::IMU_RAW, Source::Imu),
        ];
        // A published sensor message either starts a callback at once or
        // queues: both leave its publish time in the trace.
        let mut ticks: BTreeMap<&str, BTreeSet<SimTime>> = BTreeMap::new();
        for e in &trace.events {
            let (topic, time) = match e {
                TraceEvent::Callback { topic, arrival, .. } => (topic, *arrival),
                TraceEvent::Enqueued { topic, time, .. } => (topic, *time),
                _ => continue,
            };
            if let Some((name, _)) = SENSORS.iter().find(|(name, _)| name == topic) {
                ticks.entry(name).or_default().insert(time);
            }
        }

        // One timeline, as the engine ran it: each sensor message is
        // generated at its tick, right before the callbacks that start
        // then, and callbacks run in start order (emission order breaks
        // ties), so data is as warm in cache as it was in the drive.
        let mut steps: Vec<(SimTime, usize, usize)> = Vec::new();
        for (s, (topic, _)) in SENSORS.iter().enumerate() {
            steps.extend(ticks.get(topic).into_iter().flatten().map(|&at| (at, 0, s)));
        }
        for (k, e) in trace.events.iter().enumerate() {
            if let TraceEvent::Callback { started, .. } = e {
                steps.push((*started, 1, k));
            }
        }
        steps.sort_unstable();

        let streams = RngStreams::new(config.seed);
        let mut sensors = Sensors {
            world,
            lidar,
            camera: CameraModel::new(config.camera.clone()),
            lidar_rng: streams.stream("lidar_noise"),
            gnss_rng: streams.stream("gnss_noise"),
            imu_rng: streams.stream("imu_noise"),
        };
        let mut published = Published::default();
        for (at, rank, index) in steps {
            if rank == 0 {
                let (topic, source) = SENSORS[index];
                let payload = sensors.sample(source, at.as_secs_f64(), a);
                published.publish(topic, at, payload, Lineage::origin(source, at));
                continue;
            }
            let TraceEvent::Callback { node, topic, arrival, completed, published: want, .. } =
                &trace.events[index]
            else {
                unreachable!("only callbacks were scheduled")
            };
            let routed = self.routes.get(topic).into_iter().flatten();
            let Some(i) = routed.copied().find(|&i| &self.names[i] == node) else {
                a.replay_mismatches += 1;
                continue;
            };
            let Some(message) = published.get(topic, *arrival) else {
                a.replay_mismatches += 1;
                continue;
            };
            let mut out = Outbox::new(message.header.lineage.clone());
            let started = Instant::now();
            self.nodes[i].on_message(topic, &message, &mut out);
            self.busy_ns[i] += started.elapsed().as_nanos() as u64;
            self.calls[i] += 1;
            let items = out.into_items();
            if items.len() != want.len() || items.iter().zip(want).any(|(o, w)| &o.0 != w) {
                a.replay_mismatches += 1;
            }
            for (out_topic, payload, lineage) in items {
                published.publish(&out_topic, *completed, payload, lineage);
            }
        }
    }
}

/// The drive's sensor models and noise streams, in session order.
struct Sensors<'a> {
    world: &'a World,
    lidar: &'a LidarModel,
    camera: CameraModel,
    lidar_rng: StreamRng,
    gnss_rng: StreamRng,
    imu_rng: StreamRng,
}

impl Sensors<'_> {
    /// One sensor tick at `t` seconds, timed into `a`.
    fn sample(&mut self, source: Source, t: f64, a: &mut Attribution) -> Msg {
        a.sensor_calls += 1;
        let started = Instant::now();
        if matches!(source, Source::Gnss | Source::Imu) {
            let ego = self.world.ego_state(t);
            let payload = if source == Source::Gnss {
                Msg::Gnss(GnssFix::sample(&ego, 1.5, &mut self.gnss_rng))
            } else {
                Msg::Imu(ImuSample::sample(&ego, &mut self.imu_rng))
            };
            a.nav_s += started.elapsed().as_secs_f64();
            return payload;
        }
        let scene = self.world.snapshot(t);
        a.snapshot_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        if source == Source::Lidar {
            let sweep = self.lidar.scan(self.world, &scene, &mut self.lidar_rng);
            a.scan_s += started.elapsed().as_secs_f64();
            a.lidar_points += sweep.len() as u64;
            Msg::PointCloud(sweep)
        } else {
            let frame = self.camera.capture(self.world, &scene);
            a.capture_s += started.elapsed().as_secs_f64();
            Msg::Image(frame)
        }
    }
}

/// Every message the replay published, by topic and publish time.
#[derive(Default)]
struct Published {
    messages: BTreeMap<(String, SimTime), Message<Msg>>,
    seq: BTreeMap<String, u64>,
}

impl Published {
    fn publish(&mut self, topic: &str, at: SimTime, payload: Msg, lineage: Lineage) {
        let n = self.seq.entry(topic.to_string()).or_insert(0);
        *n += 1;
        let header = Header { seq: *n, stamp: at, lineage };
        self.messages.insert((topic.to_string(), at), Message::new(header, payload));
    }

    fn get(&self, topic: &str, at: SimTime) -> Option<Message<Msg>> {
        self.messages.get(&(topic.to_string(), at)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_vision::DetectorKind;

    fn smoke() -> StackConfig {
        StackConfig::smoke_test(DetectorKind::Ssd300)
    }

    #[test]
    fn replay_wiring_equals_the_traced_topology() {
        let _alone = crate::TIMED_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let config = smoke();
        let report = run_drive(&config, &RunConfig::seconds(2.0).with_trace());
        let trace = report.trace.as_ref().expect("traced");
        let world = World::generate(&config.scenario);
        let lidar = LidarModel::new(config.lidar.clone());
        let map =
            build_map(&world, &lidar, config.map_cell_size, &mut RngStreams::new(1).stream("m"));
        let replay = Replay::build(&config, &world, map, trace).expect("every node constructible");
        let (nodes, subs) = replay.wiring();
        assert_eq!(nodes, trace.nodes);
        let mut want = trace.subscriptions.clone();
        want.sort();
        assert_eq!(subs, want);
        let perception: Vec<String> =
            topics::nodes::PERCEPTION.iter().map(|n| n.to_string()).collect();
        let mut sorted = nodes.clone();
        sorted.sort();
        let mut want = perception.clone();
        want.sort();
        assert_eq!(sorted, want, "a clean full-stack drive runs exactly the perception nodes");
    }

    #[test]
    fn attribution_never_explains_more_than_the_drive_took() {
        let _alone = crate::TIMED_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let a = attribute(&smoke(), 4.0).expect("attribution");
        assert!(a.nodes.iter().all(|n| n.calls > 0 && n.self_s > 0.0));
        assert!(a.sensor_calls > 0 && a.lidar_points > 0 && a.trace_events > 0);
        assert_eq!(a.replay_mismatches, 0, "the replay recomputes the drive's messages");
        assert_eq!(a.callbacks, a.nodes.iter().map(|n| n.calls).sum::<u64>());
        assert!(
            a.residual_s() >= -0.05 * a.drive_wall_s,
            "residual {:.4} s of a {:.4} s drive",
            a.residual_s(),
            a.drive_wall_s
        );
    }
}
