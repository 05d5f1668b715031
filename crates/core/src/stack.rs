//! Stack assembly and drive execution.
//!
//! [`run_drive`] is the reproduction's experiment engine: generate the
//! world, build the HD map (the paper's `ndt_mapping` step), register the
//! node graph on the bus, replay the sensor streams in virtual time, and
//! return a [`RunReport`] with everything the paper's tables and figures
//! are derived from.

use crate::calib::Calibration;
use crate::fault::{FaultPlan, FaultSpec};
use crate::map::{session_map, MapCache};
use crate::msg::Msg;
use crate::nodes::*;
use crate::supervision::{FallbackLocalizer, FaultReport, SupervisionPolicy, Supervisor};
use crate::topics::{self, nodes as node_names};
use av_des::{RngStreams, Sim, SimDuration, SimTime, Snap, StreamRng};
use av_perception::{ClusterParams, CostmapParams, FusionParams, RayGroundParams};
use av_planning::{LocalPlannerParams, PurePursuitParams, TwistFilterParams, Waypoint};
use av_platform::{CpuStats, GpuStats, Platform, PowerReport};
use av_profiling::{LatencyRecorder, PathSpec, SharedRecorder, Summary, Table};
use av_ros::{
    Bus, BusObserver, DropStats, EdgeFaultKind, FanoutObserver, FaultKind, Lineage, Message, Node,
    Outbox, RestoredContinuation, Source, SubscriptionSpec,
};
use av_trace::{MetricSample, SharedTracer, TraceConfig, TraceData, TraceEvent};
use av_tracking::{PredictParams, TrackerParams};
use av_vision::DetectorKind;
use av_world::{CameraConfig, CameraModel, LidarConfig, LidarModel, ScenarioConfig, World};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

pub use crate::checkpoint::{
    drive_fingerprint, drive_fingerprint_stripped, Checkpoint, CheckpointHeader, CHECKPOINT_VERSION,
};
pub use crate::map::build_map;
pub use av_des::SchedPolicyKind;

/// The computation paths of Table IV, as [`PathSpec`]s.
pub fn computation_paths() -> Vec<PathSpec> {
    vec![
        PathSpec::new("localization", node_names::NDT_MATCHING, Source::Lidar),
        PathSpec::new("costmap_points", node_names::COSTMAP_GENERATOR, Source::Lidar),
        PathSpec::new("costmap_vision_obj", node_names::COSTMAP_GENERATOR_OBJ, Source::Camera),
        PathSpec::new("costmap_cluster_obj", node_names::COSTMAP_GENERATOR_OBJ, Source::Lidar),
    ]
}

/// A sensor outage window for failure injection ("stimulating the AV
/// system on a varied number of situations to capture such flaws",
/// §IV-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Blackout {
    /// Which sensor goes dark.
    pub source: Source,
    /// Outage start, seconds into the drive.
    pub from_s: f64,
    /// Outage end, seconds into the drive.
    pub to_s: f64,
}

impl Blackout {
    /// `true` while `t` (seconds) is inside the outage. The window is
    /// half-open, `[from_s, to_s)`: a sensor tick exactly at `from_s` is
    /// suppressed, a tick exactly at `to_s` publishes again — so
    /// back-to-back windows `[a, b)` + `[b, c)` compose without double-
    /// covering or leaking the boundary instant.
    pub fn covers(&self, t: f64) -> bool {
        t >= self.from_s && t < self.to_s
    }

    /// Validates the window: both endpoints finite, `from_s >= 0`, and
    /// `from_s < to_s` (empty and inverted windows are configuration
    /// bugs, not no-ops).
    pub fn validate(&self) -> Result<(), String> {
        if !self.from_s.is_finite() || !self.to_s.is_finite() {
            return Err(format!(
                "blackout window must be finite, got {}-{}",
                self.from_s, self.to_s
            ));
        }
        if self.from_s < 0.0 {
            return Err(format!("blackout start must be >= 0, got {}", self.from_s));
        }
        if self.from_s >= self.to_s {
            return Err(format!(
                "blackout window must have from < to, got {}-{}",
                self.from_s, self.to_s
            ));
        }
        Ok(())
    }
}

fn blacked_out(blackouts: &[Blackout], source: Source, t: f64) -> bool {
    blackouts.iter().any(|b| b.source == source && b.covers(t))
}

/// Which nodes to launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSelection {
    /// The full perception stack (the paper's measurement setup).
    FullStack,
    /// A single node "running standalone" (Fig 8's isolation runs).
    Isolated(String),
}

/// Full configuration of one characterization run.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Vision detector choice — the experimental variable.
    pub detector: DetectorKind,
    /// Drive scenario.
    pub scenario: ScenarioConfig,
    /// LiDAR sensor parameters.
    pub lidar: LidarConfig,
    /// Camera sensor parameters.
    pub camera: CameraConfig,
    /// Cost-model calibration.
    pub calib: Calibration,
    /// Master seed for all run-level randomness (sensor noise, jitter).
    pub seed: u64,
    /// Node selection (full stack vs isolation).
    pub selection: NodeSelection,
    /// Also launch the actuation layer (planner, pure pursuit, twist
    /// filter). Off for the headline experiments, like the paper.
    pub with_actuation: bool,
    /// Also launch `traffic_light_recognition` (extension: needs the
    /// HD-map light annotations the paper's map lacked). Off for the
    /// headline experiments.
    pub with_traffic_lights: bool,
    /// Also launch the radar pipeline (extension: the sensor interface
    /// the paper's Autoware had "under development"). Off for the
    /// headline experiments.
    pub with_radar: bool,
    /// Radar sensor parameters (used when `with_radar`).
    pub radar: av_world::RadarConfig,
    /// Sensor blackout windows for failure injection: during each window
    /// the named sensor's driver publishes nothing.
    pub blackouts: Vec<Blackout>,
    /// Node-fault plan (crashes, stalls, slowdowns, edge drops, timer
    /// skews). An empty plan arms nothing: the run is bit-identical to
    /// one built before the fault plane existed.
    pub faults: FaultPlan,
    /// Supervision-layer policy (liveness, restart backoff, fallbacks).
    /// Only consulted when the fault plan is non-empty.
    pub supervision: SupervisionPolicy,
    /// Queue capacity of the single-depth data subscriptions (the paper's
    /// Autoware launch files use depth 1 everywhere on the perception
    /// chain; sweeps vary this to study head-of-line drops). The GNSS and
    /// IMU side channels keep their own fixed depths.
    pub queue_capacity: usize,
    /// Callback scheduling policy: how a node picks among several ready
    /// messages when it frees up (and which sensor clock wins an
    /// exact-tie). [`SchedPolicyKind::Fifo`] reproduces the historical
    /// arrival order bit-for-bit; the other policies reorder only
    /// same-instant choices, never time itself.
    pub sched_policy: SchedPolicyKind,
    /// Voxel leaf size for `voxel_grid_filter`, meters.
    pub voxel_leaf: f64,
    /// NDT map cell size, meters.
    pub map_cell_size: f64,
}

impl StackConfig {
    /// The paper-scale configuration: 8-minute urban drive, default
    /// sensors.
    pub fn paper_default(detector: DetectorKind) -> StackConfig {
        StackConfig {
            detector,
            scenario: ScenarioConfig::urban_drive(),
            lidar: LidarConfig::default(),
            camera: CameraConfig::default(),
            calib: Calibration::default(),
            seed: 2020,
            selection: NodeSelection::FullStack,
            with_actuation: false,
            with_traffic_lights: false,
            with_radar: false,
            radar: av_world::RadarConfig::default(),
            blackouts: Vec::new(),
            faults: FaultPlan::default(),
            supervision: SupervisionPolicy::default(),
            queue_capacity: 1,
            sched_policy: SchedPolicyKind::Fifo,
            voxel_leaf: 1.0,
            map_cell_size: 2.0,
        }
    }

    /// A small, fast configuration for tests: 10 s drive, tiny LiDAR.
    pub fn smoke_test(detector: DetectorKind) -> StackConfig {
        StackConfig {
            scenario: ScenarioConfig::smoke_test(),
            lidar: LidarConfig::tiny(),
            ..StackConfig::paper_default(detector)
        }
    }

    /// Start of the earliest blackout window, seconds; `None` without
    /// blackouts.
    pub fn earliest_blackout_s(&self) -> Option<f64> {
        self.blackouts.iter().map(|b| b.from_s).min_by(f64::total_cmp)
    }
}

/// Runtime options independent of the stack configuration.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Overrides the scenario duration (seconds), e.g. for quick runs.
    pub duration_s: Option<f64>,
    /// When set, record a structured event trace and metrics time series
    /// (see `av-trace`). Tracing is read-only — enabling it does not
    /// perturb any other run output.
    pub trace: Option<TraceConfig>,
}

impl RunConfig {
    /// A run capped at `secs` seconds, without tracing.
    pub const fn seconds(secs: f64) -> RunConfig {
        RunConfig { duration_s: Some(secs), trace: None }
    }

    /// Enables tracing at the default cadence.
    pub fn with_trace(mut self) -> RunConfig {
        self.trace = Some(TraceConfig::default());
        self
    }

    /// Where a run of `config` ends in virtual time: `duration_s`, else
    /// the scenario's duration, rounded to the nanosecond.
    pub fn horizon(&self, config: &StackConfig) -> SimTime {
        SimTime::from_secs_f64_round(self.duration_s.unwrap_or(config.scenario.duration_s))
    }
}

/// Everything measured during a drive.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Detector the run used.
    pub detector: DetectorKind,
    /// Virtual duration of the drive.
    pub elapsed: SimDuration,
    /// The latency recorder (node + path distributions). Owned, so the
    /// report is `Send` and can be returned from a worker thread.
    pub recorder: LatencyRecorder,
    /// Per-subscription delivery/drop statistics.
    pub drops: Vec<DropStats>,
    /// CPU statistics.
    pub cpu: CpuStats,
    /// CPU core count (for utilization shares).
    pub cores: usize,
    /// GPU statistics.
    pub gpu: GpuStats,
    /// Mean power over the drive.
    pub power: PowerReport,
    /// Mean localization error vs ground truth, meters (sanity metric).
    pub localization_error_m: f64,
    /// Localization error over the final seconds of the drive, meters —
    /// distinguishes transient divergence (e.g. during an injected
    /// blackout) from a permanently lost filter.
    pub localization_error_final_m: f64,
    /// The structured event trace, when [`RunConfig::trace`] was set.
    /// Owned data, so the report stays `Send`.
    pub trace: Option<TraceData>,
    /// Fault/supervision outcomes, when the fault plan was non-empty.
    /// `None` for clean runs, so their reports (and golden hashes) are
    /// untouched by the fault plane's existence.
    pub fault: Option<FaultReport>,
}

impl RunReport {
    /// Summary for one node.
    pub fn node_summary(&self, node: &str) -> Summary {
        self.recorder.node_summary(node)
    }

    /// Summary for one computation path.
    pub fn path_summary(&self, path: &str) -> Summary {
        self.recorder.path_summary(path)
    }

    /// The end-to-end latency summary: the worst path by mean (the
    /// paper's definition) with its name.
    pub fn end_to_end(&self) -> Option<(String, Summary)> {
        self.recorder.worst_path_by_mean()
    }

    /// Fig 5-style per-node latency table.
    pub fn node_table(&self) -> Table {
        let mut table = Table::with_headers(&[
            "Node",
            "n",
            "Mean (ms)",
            "Std",
            "Min",
            "p25",
            "Median",
            "p75",
            "p99",
            "Max",
        ]);
        for node in node_names::PERCEPTION {
            let s = self.node_summary(node);
            if s.count == 0 {
                continue;
            }
            table.add_row(vec![
                node.to_string(),
                s.count.to_string(),
                format!("{:.2}", s.mean),
                format!("{:.2}", s.std_dev),
                format!("{:.2}", s.min),
                format!("{:.2}", s.p25),
                format!("{:.2}", s.median),
                format!("{:.2}", s.p75),
                format!("{:.2}", s.p99),
                format!("{:.2}", s.max),
            ]);
        }
        table
    }

    /// Fig 6-style path latency table.
    pub fn path_table(&self) -> Table {
        let mut table = Table::with_headers(&[
            "Computation path",
            "n",
            "Mean (ms)",
            "p25",
            "Median",
            "p75",
            "p99",
            "Max",
        ]);
        let recorder = &self.recorder;
        for path in recorder.paths() {
            let s = recorder.path_summary(&path);
            if s.count == 0 {
                continue;
            }
            table.add_row(vec![
                path,
                s.count.to_string(),
                format!("{:.2}", s.mean),
                format!("{:.2}", s.p25),
                format!("{:.2}", s.median),
                format!("{:.2}", s.p75),
                format!("{:.2}", s.p99),
                format!("{:.2}", s.max),
            ]);
        }
        table
    }

    /// Table III-style drop table (subscriptions with at least one drop).
    pub fn drop_table(&self) -> Table {
        let mut table =
            Table::with_headers(&["Topic", "Subscribed by node", "Delivered", "Dropped", "%"]);
        for d in &self.drops {
            if d.dropped == 0 {
                continue;
            }
            table.add_row(vec![
                d.topic.clone(),
                d.node.clone(),
                d.delivered.to_string(),
                d.dropped.to_string(),
                format!("{:.1}%", d.drop_rate() * 100.0),
            ]);
        }
        table
    }
}

/// Shares a node between the bus and the caller (so drivers can read the
/// NDT pose for ground-truth comparison).
struct Shared<N>(Rc<RefCell<N>>);

impl<N: Node<Msg>> Node<Msg> for Shared<N> {
    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        self.0.borrow_mut().on_message(topic, msg, out)
    }

    fn on_restart(&mut self) {
        self.0.borrow_mut().on_restart();
    }

    fn snap(&mut self, s: &mut Snap<'_>) {
        self.0.borrow_mut().snap(s);
    }
}

use av_ros::Execution;

fn global_waypoints(world: &World) -> Vec<Waypoint> {
    let route = world.route();
    let n = (route.length() / 4.0).ceil() as usize;
    (0..n)
        .map(|i| {
            let s = i as f64 * route.length() / n as f64;
            Waypoint { position: route.pose_with_offset(s, -1.75).translation, speed_limit: 13.9 }
        })
        .collect()
}

fn wants(selection: &NodeSelection, node: &str) -> bool {
    match selection {
        NodeSelection::FullStack => true,
        NodeSelection::Isolated(only) => only == node,
    }
}

/// Runs one full characterization drive and reports the measurements.
///
/// Deterministic: identical configs produce identical reports.
pub fn run_drive(config: &StackConfig, run: &RunConfig) -> RunReport {
    drive(config, run, DriveRequest::default()).0
}

/// Runs a drive like [`run_drive`] and additionally captures a
/// [`Checkpoint`] at virtual time `barrier_s`: [`drive`] with only
/// `capture_at_s` set, under the same contract.
pub fn checkpoint_drive(
    config: &StackConfig,
    run: &RunConfig,
    barrier_s: f64,
) -> (RunReport, Checkpoint) {
    let request = DriveRequest { capture_at_s: Some(barrier_s), ..DriveRequest::default() };
    let (report, checkpoint) = drive(config, run, request);
    (report, checkpoint.expect("drive captures when a capture time is supplied"))
}

/// One pause point of a streamed [`drive`].
#[derive(Debug)]
pub struct DriveProgress<'a> {
    /// Virtual time of the pause, seconds. Multiples of the slice width
    /// for intermediate pauses; the run horizon for the final one.
    pub time_s: f64,
    /// `true` on the last call, after the end-of-run drain.
    pub done: bool,
    /// Trace events recorded since the previous pause, in emission
    /// order. Empty when the run is untraced.
    pub new_events: &'a [TraceEvent],
    /// Total events recorded so far (cumulative over all pauses).
    pub events_total: usize,
}

/// The callback a streamed [`drive`] hands each [`DriveProgress`] to.
pub type OnProgress<'a> = &'a mut dyn FnMut(DriveProgress<'_>);

/// What one [`drive`] does beyond a plain cold batch run. The default
/// request is exactly [`run_drive`].
#[derive(Default)]
pub struct DriveRequest<'a> {
    /// Resume from this checkpoint instead of starting at virtual time
    /// zero.
    pub from: Option<&'a Checkpoint>,
    /// Capture a [`Checkpoint`] at this virtual time, seconds.
    pub capture_at_s: Option<f64>,
    /// Pause every `slice_s` virtual seconds (the first element) and
    /// hand the callback a [`DriveProgress`] at each pause, plus a final
    /// `done` one after the end-of-run drain.
    pub stream: Option<(f64, OnProgress<'a>)>,
    /// Take the HD map from this cache, shared with the caller's other
    /// drives, instead of building a fresh one. Either way the map is
    /// the same; only the build is skipped.
    pub maps: Option<&'a MapCache>,
}

/// Runs one drive — cold or resumed, batch or streamed, with or without
/// a capture — and returns its report plus the checkpoint
/// `capture_at_s` asked for.
///
/// Every request reproduces [`run_drive`] of the same configuration
/// byte for byte: same report, same trace, same golden hash.
///
/// * `from`: only the virtual seconds after the checkpoint's barrier
///   are simulated; the ones before it were simulated once, when the
///   checkpoint was captured. The checkpoint must admit the run
///   ([`CheckpointHeader::admits`]): the configuration must match the
///   one the checkpoint was captured under, except for blackout windows,
///   which may differ when every window of both configurations starts
///   strictly after the barrier (the prefix-sharing contract: such runs
///   are indistinguishable up to the barrier).
/// * `capture_at_s`: the capture is a pure read at a pause. At the
///   horizon it is taken before the end-of-run drain, so a later
///   request can extend the drive or replay it as a pure drain. At
///   `from`'s own barrier there is nothing new to capture, and the
///   returned checkpoint is `None`.
/// * `stream`: pausing is the capture barrier without a capture, and
///   reading the tracer between slices is a pure read. Trace events
///   are recorded in nondecreasing [`TraceEvent::emission_time`] order,
///   so the pause at barrier `t` delivers precisely the events with
///   emission time `<= t`, and a finished run's event stream can later
///   be re-partitioned into the identical slice sequence from its
///   `RunReport` alone (how cached responses replay their live event
///   stream). A resumed streamed run replays the pauses before the
///   checkpoint barrier from the restored tracer, so its pulse sequence
///   equals a cold streamed run's.
///
/// # Panics
///
/// Panics when `from` does not match the configuration (see above) or
/// its tracing mode, when the run duration lies before `from`'s
/// barrier, unless `0 < capture_at_s <= duration` (cold) or
/// `barrier <= capture_at_s <= duration` (resumed from `from`'s
/// barrier), and unless the slice width of `stream` is positive and
/// finite.
pub fn drive(
    config: &StackConfig,
    run: &RunConfig,
    request: DriveRequest<'_>,
) -> (RunReport, Option<Checkpoint>) {
    let DriveRequest { from, capture_at_s, mut stream, maps } = request;
    if let Some((slice_s, _)) = &stream {
        assert!(slice_s.is_finite() && *slice_s > 0.0, "slice_s must be positive and finite");
    }
    let session = build_session(config, run, maps);
    match from {
        None => session.start_fresh(),
        Some(checkpoint) => session.resume_from(checkpoint, config),
    }
    let start = session.sim.now();

    // Pause points: the slice barriers short of the horizon (`true`:
    // emit a pulse) merged with the capture barrier (`false`).
    let mut pauses: Vec<(SimTime, bool)> = match &stream {
        Some((slice_s, _)) => (1u64..)
            .map(|slice| SimTime::from_secs_f64_round(slice_s * slice as f64))
            .take_while(|&barrier| barrier < session.until)
            .map(|barrier| (barrier, true))
            .collect(),
        None => Vec::new(),
    };
    if let Some(secs) = capture_at_s {
        let barrier = SimTime::from_secs_f64_round(secs);
        assert!(barrier <= session.until, "checkpoint barrier must not exceed the run duration");
        // `from` itself is the capture at its own barrier: nothing new.
        if from.is_none() || barrier != start {
            assert!(barrier > start, "checkpoint barrier must lie ahead of the run's start point");
            pauses.push((barrier, false));
        }
    }
    pauses.sort_by_key(|&(barrier, _)| barrier);

    // Everything the restored tracer holds — exactly the events with
    // emission time at or before the checkpoint barrier. Only a
    // streamed resume replays from it.
    let restored: Vec<TraceEvent> = match (&session.tracer, &stream, from) {
        (Some(tracer), Some(_), Some(_)) => tracer.events_since(0),
        _ => Vec::new(),
    };
    let events_since = |cursor: usize| match &session.tracer {
        Some(tracer) => tracer.events_since(cursor),
        None => Vec::new(),
    };
    let mut checkpoint = None;
    let mut cursor = 0usize;
    for (barrier, pulse) in pauses {
        if !pulse {
            session.sim.run_until(barrier);
            checkpoint = Some(session.capture(config, barrier));
            continue;
        }
        let new_events = if barrier < start {
            // Replayed pause: the emission-time prefix of the restored
            // trace, without advancing the simulator (it is already at
            // the checkpoint barrier).
            let n = restored[cursor..].iter().take_while(|e| e.emission_time() <= barrier).count();
            restored[cursor..cursor + n].to_vec()
        } else {
            session.sim.run_until(barrier);
            events_since(cursor)
        };
        cursor += new_events.len();
        let (_, on_progress) = stream.as_mut().expect("only a streamed drive pulses");
        on_progress(DriveProgress {
            time_s: barrier.as_secs_f64(),
            done: false,
            new_events: &new_events,
            events_total: cursor,
        });
    }
    session.sim.run_until(session.until);
    // Let in-flight work complete so the last frames are counted.
    session.sim.run();
    if let Some((_, on_progress)) = stream {
        let new_events = events_since(cursor);
        on_progress(DriveProgress {
            time_s: session.until.as_secs_f64(),
            done: true,
            new_events: &new_events,
            events_total: cursor + new_events.len(),
        });
    }
    (session.report(config), checkpoint)
}

/// Constructs the whole session — world, map, platform, bus, nodes,
/// supervision, timers — without scheduling a single event. Both a
/// fresh start and a checkpoint resume share this phase; the only
/// randomness consumed is the (stateless) per-name stream derivation
/// plus the map build, identical in both cases and whether or not the
/// map comes out of `maps`.
fn build_session(config: &StackConfig, run: &RunConfig, maps: Option<&MapCache>) -> DriveSession {
    let sim = Sim::new();
    let streams = RngStreams::new(config.seed);
    let world = Rc::new(World::generate(&config.scenario));
    let lidar = Rc::new(LidarModel::new(config.lidar.clone()));
    let camera = Rc::new(CameraModel::new(config.camera.clone()));

    // HD map (the paper's ndt_mapping step).
    let map = session_map(maps, config, &world, &lidar);

    let platform = Platform::new(&sim, config.calib.cpu.clone(), config.calib.gpu.clone());
    let bus: Bus<Msg> = Bus::new(&sim, &platform);
    let recorder = SharedRecorder::new(LatencyRecorder::new(computation_paths()));
    let tracer = run.trace.as_ref().map(SharedTracer::new);

    // The supervision layer exists only when the fault plan can do
    // something; a clean run carries no supervisor, no extra observer
    // and no extra RNG stream, keeping it bit-identical to a run built
    // before the fault plane existed.
    let faults_active = !config.faults.is_empty();
    let supervisor: Option<Rc<Supervisor>> = if faults_active {
        config.supervision.validate().expect("invalid supervision policy");
        let mut watched: Vec<&str> = Vec::new();
        for spec in &config.faults.faults {
            if let Some(node) = spec.target_node() {
                if !watched.contains(&node) {
                    watched.push(node);
                }
            }
        }
        Some(Rc::new(Supervisor::new(config.supervision.clone(), &watched)))
    } else {
        None
    };

    // Observer wiring: the recorder stays first so its measurements are
    // untouched by tracing or supervision; the supervisor comes last so
    // it reacts to events both other sinks have already recorded.
    let mut extra_sinks: Vec<Rc<RefCell<dyn BusObserver>>> = Vec::new();
    if let Some(tracer) = &tracer {
        extra_sinks.push(tracer.observer());
    }
    if let Some(sup) = &supervisor {
        extra_sinks.push(sup.observer());
    }
    if extra_sinks.is_empty() {
        bus.set_shared_observer(recorder.observer());
    } else {
        let mut fanout = FanoutObserver::new();
        fanout.push(recorder.observer());
        for sink in extra_sinks {
            fanout.push(sink);
        }
        bus.set_observer(fanout);
    }

    let calib = &config.calib;
    let sel = &config.selection;
    let crashed = config.faults.crashed_nodes();
    // Each subscription carries its static scheduling hints: `rank` is the
    // Priority policy's urgency (lower = dispatched first) and
    // `downstream_ms` the estimated remaining chain cost past this node,
    // the slack term the chain-aware policy subtracts from the path
    // deadline. Both are calibrated against the default cost model; they
    // are scheduling hints, not measurements, so they stay static across
    // detectors. FIFO never reads them.
    let sub = |topic: &str, capacity: usize, rank: u64, downstream_ms: u64| SubscriptionSpec {
        rank,
        downstream: SimDuration::from_millis(downstream_ms),
        ..SubscriptionSpec::new(topic, capacity)
    };
    let q1 = |topic: &str, rank: u64, downstream_ms: u64| {
        sub(topic, config.queue_capacity, rank, downstream_ms)
    };

    // Localization chain: the paper's deadline-defining path.
    if wants(sel, node_names::VOXEL_GRID_FILTER) {
        bus.add_node(
            node_names::VOXEL_GRID_FILTER,
            VoxelGridFilterNode::new(config.voxel_leaf, calib, streams.stream("voxel")),
            &[q1(topics::POINTS_RAW, 10, 60)],
        );
    }

    let initial_pose = world.ego_state(0.0).pose;
    let ndt_shared = Rc::new(RefCell::new(NdtMatchingNode::new(
        map,
        initial_pose,
        config.lidar.mount_height,
        calib,
        streams.stream("ndt"),
    )));
    if wants(sel, node_names::NDT_MATCHING) {
        bus.add_node(
            node_names::NDT_MATCHING,
            Shared(Rc::clone(&ndt_shared)),
            &[
                q1(topics::FILTERED_POINTS, 10, 15),
                sub(topics::GNSS_POSE, 4, 40, 15),
                sub(topics::IMU_RAW, 16, 40, 15),
            ],
        );
    }

    // LiDAR perception chain.
    if wants(sel, node_names::RAY_GROUND_FILTER) {
        bus.add_node(
            node_names::RAY_GROUND_FILTER,
            RayGroundFilterNode::new(
                RayGroundParams {
                    sensor_height: config.lidar.mount_height,
                    ..RayGroundParams::default()
                },
                calib,
                streams.stream("ground"),
            ),
            &[q1(topics::POINTS_RAW, 20, 45)],
        );
    }

    if wants(sel, node_names::EUCLIDEAN_CLUSTER) {
        bus.add_node(
            node_names::EUCLIDEAN_CLUSTER,
            EuclideanClusterNode::new(ClusterParams::default(), calib, streams.stream("cluster")),
            &[q1(topics::POINTS_NO_GROUND, 20, 20)],
        );
    }

    // Vision chain (heaviest single node). The supervisor takes the
    // shared handle for the detector fallback (hot-swap to the cheapest
    // network during post-restart warmup) when the plan crashes it;
    // sharing changes nothing about the node's behavior.
    let mut vision_shared: Option<Rc<RefCell<VisionDetectionNode>>> = None;
    if wants(sel, node_names::VISION_DETECTION) {
        let node = VisionDetectionNode::new(config.detector, calib, streams.stream("vision"));
        let shared = Rc::new(RefCell::new(node));
        if faults_active && crashed.contains(&node_names::VISION_DETECTION) {
            vision_shared = Some(Rc::clone(&shared));
        }
        bus.add_node(
            node_names::VISION_DETECTION,
            Shared(shared),
            &[q1(topics::IMAGE_RAW, 20, 25)],
        );
    }

    // The dead-reckoning fallback localizer rides along only when the
    // plan can take the primary down; it listens continuously (warm
    // state) but publishes nothing until the supervisor activates it.
    let fallback_loc: Option<Rc<RefCell<FallbackLocalizer>>> = if faults_active
        && crashed.contains(&node_names::NDT_MATCHING)
        && wants(sel, node_names::NDT_MATCHING)
    {
        let node = Rc::new(RefCell::new(FallbackLocalizer::new(
            initial_pose,
            calib,
            streams.stream("fallback_loc"),
        )));
        bus.add_node(
            node_names::FALLBACK_LOCALIZER,
            Shared(Rc::clone(&node)),
            &[sub(topics::GNSS_POSE, 4, 40, 10), sub(topics::IMU_RAW, 16, 40, 10)],
        );
        Some(node)
    } else {
        None
    };

    // Fusion / tracking mid-chain.
    if wants(sel, node_names::RANGE_VISION_FUSION) {
        bus.add_node(
            node_names::RANGE_VISION_FUSION,
            RangeVisionFusionNode::new(
                FusionParams {
                    image_width: config.camera.width,
                    hfov_deg: config.camera.hfov_deg,
                    ..FusionParams::default()
                },
                calib,
                streams.stream("fusion"),
            ),
            &[
                q1(topics::LIDAR_DETECTOR_OBJECTS, 25, 20),
                q1(topics::IMAGE_DETECTOR_OBJECTS, 25, 20),
                q1(topics::NDT_POSE, 35, 20),
            ],
        );
    }

    if wants(sel, node_names::IMM_UKF_PDA_TRACKER) {
        bus.add_node(
            node_names::IMM_UKF_PDA_TRACKER,
            ImmUkfPdaTrackerNode::new(TrackerParams::default(), calib, streams.stream("tracker")),
            &[q1(topics::FUSION_TOOLS_OBJECTS, 25, 15), q1(topics::RADAR_DETECTOR_OBJECTS, 25, 15)],
        );
    }

    if wants(sel, node_names::UKF_TRACK_RELAY) {
        bus.add_node(
            node_names::UKF_TRACK_RELAY,
            UkfTrackRelayNode::new(calib, streams.stream("relay")),
            &[q1(topics::OBJECT_TRACKER_OBJECTS, 25, 12)],
        );
    }

    if wants(sel, node_names::NAIVE_MOTION_PREDICT) {
        bus.add_node(
            node_names::NAIVE_MOTION_PREDICT,
            NaiveMotionPredictNode::new(PredictParams::default(), calib, streams.stream("predict")),
            &[q1(topics::DETECTION_OBJECTS, 25, 10)],
        );
    }

    // Costmap sinks (path terminals).
    if wants(sel, node_names::COSTMAP_GENERATOR) {
        bus.add_node(
            node_names::COSTMAP_GENERATOR,
            CostmapGeneratorNode::new(CostmapParams::default(), calib, streams.stream("costmap")),
            &[q1(topics::POINTS_NO_GROUND, 15, 2)],
        );
    }

    if wants(sel, node_names::COSTMAP_GENERATOR_OBJ) {
        bus.add_node(
            node_names::COSTMAP_GENERATOR_OBJ,
            CostmapGeneratorObjNode::new(
                CostmapParams::default(),
                calib,
                streams.stream("costmap_obj"),
            ),
            &[q1(topics::MOTION_PREDICTOR_OBJECTS, 15, 2), q1(topics::NDT_POSE, 35, 2)],
        );
    }

    // Extensions.
    if config.with_traffic_lights {
        bus.add_node(
            node_names::TRAFFIC_LIGHT_RECOGNITION,
            TrafficLightRecognitionNode::new(
                world.traffic_lights().to_vec(),
                calib,
                streams.stream("traffic_light"),
            ),
            &[q1(topics::IMAGE_RAW, 30, 5), q1(topics::NDT_POSE, 35, 5)],
        );
    }

    if config.with_radar {
        bus.add_node(
            node_names::RADAR_DETECTION,
            RadarDetectionNode::new(calib, streams.stream("radar_node")),
            &[q1(topics::RADAR_RAW, 20, 18), q1(topics::NDT_POSE, 35, 18)],
        );
    }

    // Actuation: most control-critical, cheapest remaining work.
    if config.with_actuation {
        let mut planner = OpLocalPlannerNode::new(
            LocalPlannerParams::default(),
            global_waypoints(&world),
            calib,
            streams.stream("local_planner"),
        );
        if faults_active {
            // Safe-stop degradation: with perception stale beyond the
            // liveness timeout, hold position instead of extrapolating a
            // rollout from a dead pose.
            planner = planner.hold_after_stale(config.supervision.liveness_timeout_s);
        }
        bus.add_node(
            node_names::OP_LOCAL_PLANNER,
            planner,
            &[q1(topics::COSTMAP_OBJECTS, 5, 8), q1(topics::NDT_POSE, 35, 8)],
        );
        bus.add_node(
            node_names::PURE_PURSUIT,
            PurePursuitNode::new(PurePursuitParams::default(), calib, streams.stream("pursuit")),
            &[q1(topics::FINAL_WAYPOINTS, 5, 3), q1(topics::NDT_POSE, 35, 3)],
        );
        bus.add_node(
            node_names::TWIST_FILTER,
            TwistFilterNode::new(TwistFilterParams::default(), calib, streams.stream("twist")),
            &[q1(topics::TWIST_RAW, 5, 1)],
        );
    }

    // --- Scheduler policy -------------------------------------------------
    // FIFO leaves the bus in its construction state: no policy call and no
    // trace header, and it never reads the subscriptions' scheduling
    // hints — the run is bit-identical to one built before scheduling
    // policies existed. Any other policy is wired here, with the paper's
    // 100 ms deadline as the per-path budget.
    if config.sched_policy != SchedPolicyKind::Fifo {
        let budget = SimDuration::from_millis(crate::metrics::DEADLINE_MS as u64);
        bus.set_sched_policy(config.sched_policy, budget);
        if let Some(tracer) = &tracer {
            tracer.set_policy(config.sched_policy.name());
        }
    }

    // --- Fault plane -----------------------------------------------------
    // Arm every planned fault up front. Each fault announces itself with
    // an `inject` event at t=0 (so traces carry the plan), then acts at
    // its own schedule. Edge faults draw from dedicated per-fault RNG
    // streams, so arming them perturbs no other stream. Timed fault
    // events (inject markers, crashes) are *recorded* here and scheduled
    // by `start_fresh` — or re-inserted by `resume_from` with their
    // original event identity — so construction itself queues nothing.
    let mut fault_events: Vec<FaultEventRec> = Vec::new();
    if faults_active {
        let t = SimTime::from_secs_f64_round;
        let registered = bus.node_names();
        let node_known = |name: &str| registered.iter().any(|n| n == name);
        for spec in &config.faults.faults {
            let label = spec.label();
            let marker = spec.target_node().map(str::to_string).unwrap_or_else(|| match spec {
                FaultSpec::TimerSkew { source, .. } => source.name().to_string(),
                _ => unreachable!("every non-skew fault targets a node"),
            });
            fault_events.push(FaultEventRec {
                time: SimTime::ZERO,
                seq: Cell::new(0),
                action: FaultAction::Inject { marker, label: label.clone() },
            });
            match spec {
                FaultSpec::Crash { node, at_s } => {
                    if node_known(node) {
                        fault_events.push(FaultEventRec {
                            time: t(*at_s),
                            seq: Cell::new(0),
                            action: FaultAction::Crash { node: node.clone() },
                        });
                    }
                }
                FaultSpec::Stall { node, from_s, to_s } => {
                    if node_known(node) {
                        bus.set_stall(node, t(*from_s), t(*to_s));
                    }
                }
                FaultSpec::Slow { node, factor, from_s, to_s } => {
                    if node_known(node) {
                        bus.set_slow(node, *factor, t(*from_s), t(*to_s));
                    }
                }
                FaultSpec::Drop { topic, node, rate, from_s, to_s }
                | FaultSpec::Duplicate { topic, node, rate, from_s, to_s } => {
                    let kind = match spec {
                        FaultSpec::Duplicate { .. } => EdgeFaultKind::Duplicate,
                        _ => EdgeFaultKind::Drop,
                    };
                    let rng = streams.stream(&format!("fault-{label}"));
                    bus.set_edge_fault(topic, node, kind, *rate, t(*from_s)..t(*to_s), rng);
                }
                FaultSpec::TimerSkew { .. } => {} // applied to the sensor clocks below
            }
        }
    }

    // Fallback wiring + the supervision heartbeat.
    if let Some(sup) = &supervisor {
        if let Some(fb) = &fallback_loc {
            sup.set_localization_fallback(node_names::NDT_MATCHING, Rc::clone(fb));
        }
        if let Some(vs) = &vision_shared {
            let cheap = DetectorKind::cheapest();
            sup.set_detector_fallback(
                node_names::VISION_DETECTION,
                Rc::clone(vs),
                (config.detector, calib.vision_cost(config.detector)),
                (cheap, calib.vision_cost(cheap)),
            );
        }
    }

    // A publisher timer-skew fault dilates one sensor clock's periods
    // inside its window; every other clock runs unskewed.
    let timer_skew = |source: Source| -> Option<(f64, SimTime, SimTime)> {
        config.faults.faults.iter().find_map(|spec| match spec {
            FaultSpec::TimerSkew { source: s, factor, from_s, to_s } if *s == source => Some((
                *factor,
                SimTime::from_secs_f64_round(*from_s),
                SimTime::from_secs_f64_round(*to_s),
            )),
            _ => None,
        })
    };

    // --- Sensor drivers -------------------------------------------------
    // Timers are registered (closure built, RNG derived) but not armed;
    // arming is the start phase's job. Sensor-noise RNG cells go into the
    // session's registry so checkpoints can carry their positions.
    let until = run.horizon(config);

    let mut timers: Vec<Rc<RefCell<TimerState>>> = Vec::new();
    let mut noise_rngs: Vec<(&'static str, Rc<RefCell<StreamRng>>)> = Vec::new();
    let mut register = |key: u64,
                        period: SimDuration,
                        jitter: SimDuration,
                        rng: StreamRng,
                        skew: Option<(f64, SimTime, SimTime)>,
                        tick: Box<dyn FnMut()>| {
        timers.push(Rc::new(RefCell::new(TimerState {
            sim: sim.clone(),
            key,
            period,
            jitter,
            rng,
            until,
            skew,
            tick,
            pending: None,
        })));
    };
    // Sensor clocks get a static urgency key under a non-FIFO policy so
    // exact-nanosecond tick collisions resolve by sensor criticality
    // instead of registration order. Under FIFO every key is 0 — the
    // historical heap order, bit-for-bit. Infrastructure timers (the
    // samplers, the supervisor) always keep key 0: read-only probes run
    // before the publication they would otherwise observe late.
    let sensor_key = |k: u64| if config.sched_policy == SchedPolicyKind::Fifo { 0 } else { k };

    // One sensor driver: a `<source>_clock` timer, skewed by the plan's
    // timer-skew fault on that source, that hands `sample` the tick time
    // (seconds) and whether the sensor is blacked out then, and publishes
    // what it returns as the origin of a `source` lineage.
    let mut sensor = |source: Source,
                      key: u64,
                      period: SimDuration,
                      jitter: SimDuration,
                      topic: &'static str,
                      mut sample: Box<dyn FnMut(f64, bool) -> Option<Msg>>| {
        let (sim, bus, blackouts) = (sim.clone(), bus.clone(), config.blackouts.clone());
        let tick = Box::new(move || {
            let now = sim.now();
            let t = now.as_secs_f64();
            if let Some(msg) = sample(t, blacked_out(&blackouts, source, t)) {
                bus.publish(topic, msg, Lineage::origin(source, now));
            }
        });
        let clock = streams.stream(&format!("{}_clock", source.name()));
        register(sensor_key(key), period, jitter, clock, timer_skew(source), tick);
    };
    let ms = SimDuration::from_millis;
    let mut noise = |name: &'static str| {
        let rng = Rc::new(RefCell::new(streams.stream(name)));
        noise_rngs.push((name, Rc::clone(&rng)));
        rng
    };

    let (w, l, rng) = (Rc::clone(&world), Rc::clone(&lidar), noise("lidar_noise"));
    let lidar_period = SimDuration::from_secs_f64(1.0 / config.lidar.rate_hz);
    let scan = move |t: f64, dark: bool| {
        (!dark).then(|| Msg::PointCloud(l.scan(&w, &w.snapshot(t), &mut rng.borrow_mut())))
    };
    sensor(Source::Lidar, 1, lidar_period, ms(2), topics::POINTS_RAW, Box::new(scan));

    let (w, c) = (Rc::clone(&world), Rc::clone(&camera));
    let camera_period = SimDuration::from_secs_f64(1.0 / config.camera.rate_hz);
    let capture =
        move |t: f64, dark: bool| (!dark).then(|| Msg::Image(c.capture(&w, &w.snapshot(t))));
    sensor(Source::Camera, 2, camera_period, ms(3), topics::IMAGE_RAW, Box::new(capture));

    // GNSS and IMU draw their noise before the blackout check, so the RNG
    // stream stays phase-aligned with an uninterrupted run; an outage
    // (urban canyon, tunnel) only suppresses the publication.
    let (w, rng) = (Rc::clone(&world), noise("gnss_noise"));
    let fix = move |t: f64, dark: bool| {
        let fix = av_world::GnssFix::sample(&w.ego_state(t), 1.5, &mut rng.borrow_mut());
        (!dark).then_some(Msg::Gnss(fix))
    };
    sensor(Source::Gnss, 4, SimDuration::from_secs(1), ms(0), topics::GNSS_POSE, Box::new(fix));

    let (w, rng) = (Rc::clone(&world), noise("imu_noise"));
    let imu = move |t: f64, dark: bool| {
        let sample = av_world::ImuSample::sample(&w.ego_state(t), &mut rng.borrow_mut());
        (!dark).then_some(Msg::Imu(sample))
    };
    sensor(Source::Imu, 5, ms(10), ms(0), topics::IMU_RAW, Box::new(imu));

    if config.with_radar {
        let radar = av_world::RadarModel::new(config.radar.clone());
        let (w, rng) = (Rc::clone(&world), noise("radar_noise"));
        let period = SimDuration::from_secs_f64(1.0 / config.radar.rate_hz);
        let scan = move |t: f64, dark: bool| {
            (!dark).then(|| Msg::Radar(radar.scan(&w.snapshot(t), &mut rng.borrow_mut())))
        };
        sensor(Source::Radar, 3, period, ms(1), topics::RADAR_RAW, Box::new(scan));
    }

    // Localization-error sampler (1 Hz diagnostic). The first seconds of
    // a run are a startup transient, not steady-state localization: the
    // matcher still runs at its iteration cap, so scans queue behind the
    // slow first services and the published pose lags truth by the
    // accumulated pipeline delay until the backlog drains (~3 s). The
    // metric is a steady-state sanity check, so sampling starts after a
    // fixed warmup once the filter holds a lock; losses of lock after
    // that show up as divergence.
    const LOC_WARMUP_S: f64 = 4.0;
    let loc_errors = Rc::new(RefCell::new(Vec::<f64>::new()));
    let mut loc_tracking_started: Option<Rc<Cell<bool>>> = None;
    if wants(sel, node_names::NDT_MATCHING) {
        // The lock latch lives in a session-held cell (not a closure
        // local) so checkpoints can carry it across a resume.
        let started = Rc::new(Cell::new(false));
        loc_tracking_started = Some(Rc::clone(&started));
        register(
            0,
            SimDuration::from_secs(1),
            SimDuration::ZERO,
            streams.stream("loc_clock"),
            None,
            {
                let (sim, world) = (sim.clone(), Rc::clone(&world));
                let ndt = Rc::clone(&ndt_shared);
                let fallback = fallback_loc.clone();
                let errors = Rc::clone(&loc_errors);
                Box::new(move || {
                    let now = sim.now();
                    if !started.get() && ndt.borrow().is_localized() {
                        started.set(true);
                    }
                    if !started.get() || now.as_secs_f64() < LOC_WARMUP_S {
                        return;
                    }
                    let truth = world.ego_state(now.as_secs_f64()).pose;
                    // While the dead-reckoning fallback holds the pose
                    // stream, its estimate is the one the stack consumes.
                    let estimate = match &fallback {
                        Some(fb) if fb.borrow().is_active() => fb.borrow().pose(),
                        _ => ndt.borrow().pose(),
                    };
                    errors.borrow_mut().push(
                        truth.translation.truncate().distance(estimate.translation.truncate()),
                    );
                })
            },
        );
    }

    // Trace metrics sampler: a fixed-cadence, read-only probe of queue
    // depths, per-node busy fractions and platform counters. The stream
    // name is unique ("trace_clock") and the jitter zero, so scheduling it
    // draws no randomness and perturbs nothing — a traced run produces
    // bit-identical non-trace outputs to an untraced one.
    let mut trace_prev: Option<Rc<RefCell<TracePrev>>> = None;
    if let Some(tracer) = &tracer {
        tracer.set_topology(
            bus.node_names(),
            bus.queue_depths().into_iter().map(|(topic, node, _)| (topic, node)).collect(),
        );
        let interval = run.trace.as_ref().expect("tracer implies config").sample_interval;
        assert!(!interval.is_zero(), "trace sample interval must be positive");
        // The sampler's delta baselines live in a session-held cell (not
        // closure locals) so checkpoints can carry the phase.
        let prev = Rc::new(RefCell::new(TracePrev::new()));
        trace_prev = Some(Rc::clone(&prev));
        register(0, interval, SimDuration::ZERO, streams.stream("trace_clock"), None, {
            let (sim, bus, platform) = (sim.clone(), bus.clone(), platform.clone());
            let tracer = tracer.clone();
            let power = config.calib.power.clone();
            let cores = config.calib.cpu.cores;
            Box::new(move || {
                let now = sim.now();
                let mut prev = prev.borrow_mut();
                let node_busy = bus.node_busy_times();
                if prev.node_busy.is_empty() {
                    prev.node_busy = vec![SimDuration::ZERO; node_busy.len()];
                }
                let interval_s = interval.as_secs_f64();
                let node_busy_frac: Vec<f64> = node_busy
                    .iter()
                    .zip(prev.node_busy.iter())
                    .map(|((_, busy), prev)| busy.saturating_sub(*prev).as_secs_f64() / interval_s)
                    .collect();
                let cpu_busy = platform.cpu().busy_time_by_now();
                let gpu_busy = platform.gpu().busy_time_by_now();
                let gpu_energy = platform.gpu().stats().total_energy_j;
                let cpu_delta = cpu_busy.saturating_sub(prev.cpu_busy);
                let gpu_delta = gpu_busy.saturating_sub(prev.gpu_busy);
                let energy_delta = gpu_energy - prev.gpu_energy;
                let report = power.interval_power(cpu_delta, cores, energy_delta, interval);
                tracer.push_sample(MetricSample {
                    time: now,
                    queue_depths: bus
                        .queue_depths()
                        .into_iter()
                        .map(|(_, _, depth)| depth as u64)
                        .collect(),
                    node_busy_frac,
                    cpu_util: cpu_delta.as_secs_f64() / (cores as f64 * interval_s),
                    gpu_util: gpu_delta.as_secs_f64() / interval_s,
                    cpu_w: report.cpu_w,
                    gpu_w: report.gpu_w,
                });
                prev.node_busy = node_busy.into_iter().map(|(_, busy)| busy).collect();
                prev.cpu_busy = cpu_busy;
                prev.gpu_busy = gpu_busy;
                prev.gpu_energy = gpu_energy;
            })
        });
    }

    // The supervision heartbeat: the liveness check runs on the same
    // virtual clock, with no jitter, so every supervisor decision is a
    // pure function of the configuration.
    if let Some(sup) = &supervisor {
        register(
            0,
            SimDuration::from_secs_f64(config.supervision.heartbeat_interval_s),
            SimDuration::ZERO,
            streams.stream("supervisor_clock"),
            None,
            {
                let (sim, bus) = (sim.clone(), bus.clone());
                let sup = Rc::clone(sup);
                Box::new(move || sup.tick(&bus, sim.now()))
            },
        );
    }

    DriveSession {
        sim,
        bus,
        platform,
        recorder,
        tracer,
        supervisor,
        timers,
        noise_rngs,
        fault_events,
        loc_errors,
        loc_tracking_started,
        trace_prev,
        until,
    }
}

// --- Periodic timers --------------------------------------------------

/// One registered periodic timer: fires `tick` every `period` (± a small
/// deterministic timing jitter, as real sensor clocks drift — without it
/// the perfectly periodic virtual clocks phase-lock and contention
/// patterns repeat unrealistically) until `until`. First firing after
/// one period.
///
/// `skew` is the fault plane's publisher-timer skew: while the current
/// time is inside `[from, to)`, the whole period (base + jitter draw) is
/// dilated by the factor. The jitter RNG is drawn identically either
/// way, so a skew window shifts phase without desynchronizing the
/// stream from an unskewed run's draw sequence.
///
/// `pending` records the (fire time, event sequence) of the scheduled
/// next tick — the event identity a checkpoint needs to re-insert it on
/// resume in the exact original order among equal-time events.
struct TimerState {
    sim: Sim,
    /// Equal-time urgency key for the tick events (see
    /// `Sim::schedule_at_keyed`): 0 for FIFO runs and infrastructure
    /// timers, a static sensor rank under a non-FIFO policy. Recomputed
    /// from the configuration at build time, so checkpoints never store
    /// it.
    key: u64,
    period: SimDuration,
    jitter: SimDuration,
    rng: StreamRng,
    until: SimTime,
    skew: Option<(f64, SimTime, SimTime)>,
    tick: Box<dyn FnMut()>,
    pending: Option<(SimTime, u64)>,
}

/// Draws the next period and schedules the tick.
fn arm_timer(state: &Rc<RefCell<TimerState>>) {
    let at = {
        let mut s = state.borrow_mut();
        let base = s.period - s.jitter / 2;
        let extra =
            if s.jitter.is_zero() { SimDuration::ZERO } else { s.jitter.mul_f64(s.rng.next_f64()) };
        let mut delay = base + extra;
        if let Some((factor, from, to)) = s.skew {
            let now = s.sim.now();
            if now >= from && now < to {
                delay = delay.mul_f64(factor);
            }
        }
        s.sim.now() + delay
    };
    schedule_tick(state, at);
}

/// Schedules the timer's tick at absolute time `at`, recording the event
/// identity in `pending`. Used both by [`arm_timer`] (fresh arms, drawn
/// delay) and by checkpoint resume (re-inserting a saved pending tick at
/// its original time, without consuming a jitter draw).
fn schedule_tick(state: &Rc<RefCell<TimerState>>, at: SimTime) {
    let (sim, key) = {
        let s = state.borrow();
        (s.sim.clone(), s.key)
    };
    state.borrow_mut().pending = Some((at, sim.next_seq()));
    let state = Rc::clone(state);
    sim.schedule_at_keyed(at, key, move || {
        {
            let mut s = state.borrow_mut();
            s.pending = None;
            if s.sim.now() > s.until {
                return;
            }
            (s.tick)();
        }
        arm_timer(&state);
    });
}

// --- Timed fault events -----------------------------------------------

/// What a deferred fault event does when it fires.
#[derive(Clone)]
enum FaultAction {
    /// The t=0 plan announcement (`inject` marker in traces).
    Inject { marker: String, label: String },
    /// A node crash at its planned instant.
    Crash { node: String },
}

/// A timed fault event: recorded at build, scheduled at start, with the
/// live event sequence stamped at scheduling so checkpoints can save it.
struct FaultEventRec {
    time: SimTime,
    seq: Cell<u64>,
    action: FaultAction,
}

fn schedule_fault_event(sim: &Sim, bus: &Bus<Msg>, ev: &FaultEventRec) {
    ev.seq.set(sim.next_seq());
    let bus = bus.clone();
    let action = ev.action.clone();
    sim.schedule_at(ev.time, move || match action {
        FaultAction::Inject { marker, label } => bus.emit_fault(FaultKind::Inject, &marker, &label),
        FaultAction::Crash { node } => bus.crash_node(&node),
    });
}

// --- Checkpointing ----------------------------------------------------

/// The trace-metrics sampler's delta baselines (previous busy counters),
/// session-held so a checkpoint carries the sampler's phase.
struct TracePrev {
    node_busy: Vec<SimDuration>,
    cpu_busy: SimDuration,
    gpu_busy: SimDuration,
    gpu_energy: f64,
}

impl TracePrev {
    fn new() -> TracePrev {
        TracePrev {
            node_busy: Vec::new(),
            cpu_busy: SimDuration::ZERO,
            gpu_busy: SimDuration::ZERO,
            gpu_energy: 0.0,
        }
    }
}

/// A pending event a resumed session re-inserts.
enum Restored {
    Timer(usize),
    Fault(usize),
    Bus(RestoredContinuation),
}

/// A fully constructed drive: simulator, bus, platform, observers, and
/// the registries (timers, noise RNGs, timed fault events, sampler
/// cells) that make the session's complete dynamic state reachable for
/// checkpointing. Built by [`build_session`]; nothing is on the event
/// queue until [`DriveSession::start_fresh`] or
/// [`DriveSession::resume_from`] runs.
struct DriveSession {
    sim: Sim,
    bus: Bus<Msg>,
    platform: Platform,
    recorder: SharedRecorder,
    tracer: Option<SharedTracer>,
    supervisor: Option<Rc<Supervisor>>,
    timers: Vec<Rc<RefCell<TimerState>>>,
    noise_rngs: Vec<(&'static str, Rc<RefCell<StreamRng>>)>,
    fault_events: Vec<FaultEventRec>,
    loc_errors: Rc<RefCell<Vec<f64>>>,
    loc_tracking_started: Option<Rc<Cell<bool>>>,
    trace_prev: Option<Rc<RefCell<TracePrev>>>,
    until: SimTime,
}

impl DriveSession {
    /// Starts a fresh run: schedules the timed fault events, then arms
    /// every timer — in registration order, so equal-time events (the
    /// t=0 inject markers, first sensor ticks) get the same sequence
    /// numbers as they always have.
    fn start_fresh(&self) {
        for ev in &self.fault_events {
            schedule_fault_event(&self.sim, &self.bus, ev);
        }
        for timer in &self.timers {
            arm_timer(timer);
        }
    }

    /// Serializes the session's complete dynamic state at `barrier`
    /// (which must be the current virtual time, with every event up to
    /// the barrier already executed and all pending events strictly
    /// beyond it): the [`CheckpointHeader`], then [`DriveSession::snap`].
    fn capture(&self, config: &StackConfig, barrier: SimTime) -> Checkpoint {
        debug_assert_eq!(self.sim.now(), barrier);
        let mut header = CheckpointHeader::of(config, barrier, self.tracer.is_some());
        let mut s = Snap::save();
        s.leaf(&mut header);
        self.snap(&mut s, barrier);
        Checkpoint::captured(header, s.into_bytes())
    }

    /// Restores `checkpoint` onto this freshly built session: overlays
    /// all dynamic state, then re-inserts every pending event — timer
    /// ticks, in-flight bus continuations, not-yet-fired fault events —
    /// in their original global `(time, sequence)` order, so equal-time
    /// FIFO ties replay exactly as a straight-through run would.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint does not match this session's
    /// configuration (see [`drive`]) or the bytes are corrupt.
    fn resume_from(&self, checkpoint: &Checkpoint, config: &StackConfig) {
        let barrier = SimTime::from_nanos(checkpoint.barrier_ns());
        assert!(
            barrier <= self.until,
            "run duration {} s lies before the checkpoint barrier {} s",
            self.until.as_secs_f64(),
            barrier.as_secs_f64()
        );
        let mut header = *checkpoint.header();
        let run = CheckpointHeader::of(config, barrier, self.tracer.is_some());
        if let Err(e) = header.admits(&run) {
            panic!("{e}");
        }

        // Read past the header (parsed when the checkpoint was built) to
        // the state sections.
        let mut s = Snap::load(checkpoint.as_bytes());
        s.leaf(&mut header);
        let mut events = self.snap(&mut s, barrier);
        assert!(s.is_exhausted(), "checkpoint has trailing bytes");

        // Re-insert every pending event in the original global dispatch
        // order `(time, key, seq)`. Sequence numbers only increase, so
        // events re-stamped in this order keep their relative order among
        // themselves *and* precede everything scheduled after the barrier
        // — exactly the heap relation the original run had. (Under FIFO
        // every key is 0 and this is the historical `(time, seq)` sort.)
        events.sort_by_key(|&(time, key, seq, _)| (time, key, seq));
        for (time, _, _, event) in events {
            match event {
                Restored::Timer(i) => schedule_tick(&self.timers[i], time),
                Restored::Fault(i) => {
                    schedule_fault_event(&self.sim, &self.bus, &self.fault_events[i]);
                }
                Restored::Bus(c) => self.bus.schedule_restored(c),
            }
        }
    }

    /// Saves or restores every state section after the header. Loading
    /// returns the pending events to re-insert (saving returns none) as
    /// `(time, key, seq, what)`: the key is each event's urgency key as
    /// it will be re-scheduled (the timer's config-derived key; fault
    /// events and bus continuations are key 0), so sorting by
    /// `(time, key, seq)` reproduces the heap order the original run
    /// dispatched in.
    fn snap(&self, s: &mut Snap<'_>, barrier: SimTime) -> Vec<(SimTime, u64, u64, Restored)> {
        let mut events = Vec::new();

        s.tag("sim");
        let mut now = self.sim.now();
        let mut executed = self.sim.events_executed();
        s.time(&mut now);
        s.u64(&mut executed);
        if s.is_load() {
            self.sim.restore_counters(now, executed);
        }

        s.tag("noise");
        s.check_len(self.noise_rngs.len(), "checkpoint noise-stream count mismatch");
        for (name, rng) in &self.noise_rngs {
            s.check_str(name, "checkpoint noise-stream order mismatch");
            rng.borrow_mut().snap(s);
        }

        s.tag("timers");
        s.check_len(self.timers.len(), "checkpoint timer count mismatch");
        for (i, timer) in self.timers.iter().enumerate() {
            let mut timer = timer.borrow_mut();
            timer.rng.snap(s);
            let mut pending = timer.pending;
            s.opt(&mut pending, Snap::leaf);
            if let (true, Some((at, seq))) = (s.is_load(), pending) {
                events.push((at, timer.key, seq, Restored::Timer(i)));
            }
        }

        s.tag("fault-events");
        s.check_len(self.fault_events.len(), "checkpoint fault-event count mismatch");
        for (i, ev) in self.fault_events.iter().enumerate() {
            let (mut at, mut seq) = (ev.time, ev.seq.get());
            s.time(&mut at);
            s.u64(&mut seq);
            debug_assert_eq!(at, ev.time, "fault-event schedule mismatch");
            // Events at or before the barrier already fired inside the
            // checkpointed prefix; their effects are in the saved state.
            if s.is_load() && at > barrier {
                events.push((at, 0, seq, Restored::Fault(i)));
            }
        }

        s.tag("samplers");
        let loc = self.loc_tracking_started.as_ref();
        if let Some(cell) = s.check_some(loc, "checkpoint localization-sampler mismatch") {
            let mut started = cell.get();
            s.bool(&mut started);
            cell.set(started);
        }
        let prev = self.trace_prev.as_ref();
        if let Some(prev) = s.check_some(prev, "checkpoint metrics-sampler mismatch") {
            let mut prev = prev.borrow_mut();
            s.leaf(&mut prev.node_busy);
            s.dur(&mut prev.cpu_busy);
            s.dur(&mut prev.gpu_busy);
            s.f64(&mut prev.gpu_energy);
        }

        s.tag("loc-errors");
        s.leaf(&mut *self.loc_errors.borrow_mut());

        self.platform.cpu().snap(s);
        self.platform.gpu().snap(s);
        for c in self.bus.snap(s) {
            events.push((c.time, 0, c.seq, Restored::Bus(c)));
        }
        let supervisor = self.supervisor.as_ref();
        if let Some(sup) = s.check_some(supervisor, "checkpoint supervision mismatch") {
            sup.snap(s);
        }
        self.recorder.snap(s);
        if let Some(tracer) = &self.tracer {
            tracer.snap(s);
        }
        events
    }

    /// Assembles the run report from the session's final state.
    fn report(&self, config: &StackConfig) -> RunReport {
        let elapsed = self.sim.now().saturating_since(SimTime::ZERO);
        let cpu = self.platform.cpu().stats();
        let gpu = self.platform.gpu().stats();
        let power = config.calib.power.report(&cpu, config.calib.cpu.cores, &gpu, elapsed);
        let errors = self.loc_errors.borrow();
        let localization_error_m = if errors.is_empty() {
            f64::NAN
        } else {
            errors.iter().sum::<f64>() / errors.len() as f64
        };
        let localization_error_final_m = if errors.len() >= 3 {
            errors[errors.len() - 3..].iter().sum::<f64>() / 3.0
        } else {
            localization_error_m
        };

        RunReport {
            detector: config.detector,
            elapsed,
            recorder: self.recorder.snapshot(),
            drops: self.bus.drop_stats(),
            cpu,
            cores: config.calib.cpu.cores,
            gpu,
            power,
            localization_error_m,
            localization_error_final_m,
            trace: self.tracer.as_ref().map(|t| t.snapshot()),
            fault: self.supervisor.as_ref().map(|sup| {
                sup.report(
                    self.sim.now(),
                    self.bus.fault_lost_count(),
                    self.bus.fault_duplicated_count(),
                )
            }),
        }
    }
}

/// Extension trait avoiding an `as u64` sprinkle for fractional-second
/// durations.
pub(crate) trait SimTimeExt {
    fn from_secs_f64_round(secs: f64) -> SimTime;
}

impl SimTimeExt for SimTime {
    fn from_secs_f64_round(secs: f64) -> SimTime {
        SimTime::from_nanos((secs * 1e9).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(detector: DetectorKind) -> RunReport {
        run_drive(&StackConfig::smoke_test(detector), &RunConfig::seconds(6.0))
    }

    fn resume(config: &StackConfig, run: &RunConfig, from: &Checkpoint) -> RunReport {
        drive(config, run, DriveRequest { from: Some(from), ..DriveRequest::default() }).0
    }

    /// One streamed pause: `(time_s, done, events_total, new_events)`.
    type Pulse = (f64, bool, usize, Vec<TraceEvent>);

    #[test]
    fn streamed_drive_is_byte_identical_and_slices_partition_by_emission_time() {
        // Every request shape on one traced drive with a supervised crash:
        // from {cold, 2 s} x capture {none, 4 s, horizon} x stream {batch, 1 s}.
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
        let run = RunConfig::seconds(6.0).with_trace();
        let straight = run_drive(&config, &run);
        let (_, cp2) = checkpoint_drive(&config, &run, 2.0);
        let h = crate::determinism::run_hash;

        let mut cold_pulses: Option<Vec<Pulse>> = None;
        for from in [None, Some(&cp2)] {
            for capture_at_s in [None, Some(4.0), Some(6.0)] {
                let mut batch_capture = None;
                for streamed in [false, true] {
                    let case = format!(
                        "from {:?}, capture {capture_at_s:?}, streamed {streamed}",
                        from.map(Checkpoint::barrier_s)
                    );
                    let mut pulses: Vec<Pulse> = Vec::new();
                    let mut on_progress = |p: DriveProgress<'_>| {
                        pulses.push((p.time_s, p.done, p.events_total, p.new_events.to_vec()));
                    };
                    let stream = streamed.then_some((1.0, &mut on_progress as OnProgress<'_>));
                    let (report, captured) = drive(
                        &config,
                        &run,
                        DriveRequest { from, capture_at_s, stream, maps: None },
                    );
                    assert_eq!(h(&report), h(&straight), "run hash diverged: {case}");
                    assert_eq!(captured.is_some(), capture_at_s.is_some(), "{case}");
                    let bytes = captured.map(|cp| cp.as_bytes().to_vec());
                    if !streamed {
                        batch_capture = bytes;
                        continue;
                    }
                    assert!(bytes == batch_capture, "streaming changed the capture: {case}");
                    match &cold_pulses {
                        None => cold_pulses = Some(pulses),
                        Some(cold) => assert!(pulses == *cold, "pulses diverged: {case}"),
                    }
                }
            }
        }

        // Pauses at 1..5 s plus the final drain at 6 s; only the last
        // one is `done`.
        let cold = cold_pulses.expect("a cold streamed run");
        assert_eq!(
            cold.iter().map(|p| (p.0, p.1)).collect::<Vec<_>>(),
            vec![(1.0, false), (2.0, false), (3.0, false), (4.0, false), (5.0, false), (6.0, true)]
        );

        // The concatenated deltas are exactly the final trace, and each
        // intermediate pause delivered precisely the events with
        // emission time at or before its barrier.
        let all = &straight.trace.as_ref().expect("traced").events;
        let streamed_events: Vec<TraceEvent> = cold.iter().flat_map(|p| p.3.clone()).collect();
        assert_eq!(streamed_events, *all);
        let mut offset = 0usize;
        for (t, done, total, new_events) in &cold {
            offset += new_events.len();
            assert_eq!(*total, offset, "events_total at {t}s is not the sum of the slices");
            if !done {
                let barrier = SimTime::from_secs_f64_round(*t);
                let by_time = all.iter().filter(|e| e.emission_time() <= barrier).count();
                assert_eq!(offset, by_time, "slice at {t}s is not the emission-time prefix");
            }
        }
        assert_eq!(offset, all.len());

        // Capturing at `from`'s own barrier is a pure drain with nothing
        // new to capture.
        let (_, cp6) = checkpoint_drive(&config, &run, 6.0);
        let request =
            DriveRequest { from: Some(&cp6), capture_at_s: Some(6.0), ..DriveRequest::default() };
        let (drained, none) = drive(&config, &run, request);
        assert_eq!(h(&drained), h(&straight));
        assert!(none.is_none());
    }

    #[test]
    fn smoke_run_produces_all_node_stats() {
        let report = quick(DetectorKind::YoloV3);
        for node in [
            node_names::VOXEL_GRID_FILTER,
            node_names::NDT_MATCHING,
            node_names::RAY_GROUND_FILTER,
            node_names::EUCLIDEAN_CLUSTER,
            node_names::VISION_DETECTION,
            node_names::RANGE_VISION_FUSION,
            node_names::IMM_UKF_PDA_TRACKER,
            node_names::COSTMAP_GENERATOR,
        ] {
            let s = report.node_summary(node);
            assert!(s.count > 0, "no samples for {node}");
            assert!(s.mean > 0.0, "zero latency for {node}");
        }
    }

    #[test]
    fn smoke_run_traces_all_paths() {
        let report = quick(DetectorKind::YoloV3);
        for path in ["localization", "costmap_points", "costmap_vision_obj", "costmap_cluster_obj"]
        {
            let s = report.path_summary(path);
            assert!(s.count > 0, "no samples for path {path}");
            // Paths are strictly longer than their terminal node's own
            // latency floor.
            assert!(s.mean > 1.0, "path {path} too fast: {}", s.mean);
        }
        let (name, e2e) = report.end_to_end().unwrap();
        assert!(!name.is_empty());
        assert!(e2e.mean >= report.path_summary("localization").mean);
    }

    #[test]
    fn localization_tracks_ground_truth() {
        let report = quick(DetectorKind::YoloV3);
        assert!(
            report.localization_error_m < 1.0,
            "localization diverged: {} m",
            report.localization_error_m
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(DetectorKind::Ssd300);
        let b = quick(DetectorKind::Ssd300);
        let na = a.node_summary(node_names::NDT_MATCHING);
        let nb = b.node_summary(node_names::NDT_MATCHING);
        assert_eq!(na.count, nb.count);
        assert_eq!(na.mean, nb.mean);
        assert_eq!(a.cpu.tasks_completed, b.cpu.tasks_completed);
        assert_eq!(a.gpu.total_energy_j, b.gpu.total_energy_j);
    }

    #[test]
    fn isolated_vision_runs_alone() {
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.selection = NodeSelection::Isolated(node_names::VISION_DETECTION.to_string());
        let report = run_drive(&config, &RunConfig::seconds(6.0));
        assert!(report.node_summary(node_names::VISION_DETECTION).count > 0);
        assert_eq!(report.node_summary(node_names::NDT_MATCHING).count, 0);
        assert_eq!(report.node_summary(node_names::EUCLIDEAN_CLUSTER).count, 0);
    }

    #[test]
    fn platform_accounting_populated() {
        let report = quick(DetectorKind::Ssd512);
        assert!(report.cpu.tasks_completed > 50);
        assert!(report.gpu.jobs_completed > 10);
        assert!(report.power.cpu_w > report.cpu.utilization(report.cores, report.elapsed));
        assert!(report.power.gpu_w > 10.0);
        let util = report.cpu.utilization(report.cores, report.elapsed);
        assert!(util > 0.0 && util < 1.0, "CPU util {util}");
    }

    #[test]
    fn deeper_queues_absorb_drops() {
        let shallow = quick(DetectorKind::Ssd512);
        let mut config = StackConfig::smoke_test(DetectorKind::Ssd512);
        config.queue_capacity = 16;
        let deep = run_drive(&config, &RunConfig::seconds(6.0));
        let dropped = |r: &RunReport| r.drops.iter().map(|d| d.dropped).sum::<u64>();
        assert!(
            dropped(&deep) <= dropped(&shallow),
            "capacity 16 must not drop more than capacity 1: {} vs {}",
            dropped(&deep),
            dropped(&shallow)
        );
    }

    #[test]
    fn gnss_blackout_silences_the_fix_stream() {
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.blackouts = vec![Blackout { source: Source::Gnss, from_s: 0.0, to_s: 100.0 }];
        let report = run_drive(&config, &RunConfig::seconds(6.0));
        let gnss_delivered: u64 =
            report.drops.iter().filter(|d| d.topic == topics::GNSS_POSE).map(|d| d.delivered).sum();
        assert_eq!(gnss_delivered, 0, "blacked-out GNSS must deliver nothing");
        // The LiDAR pipeline is untouched.
        assert!(report.node_summary(node_names::VOXEL_GRID_FILTER).count > 0);
    }

    #[test]
    fn crash_fault_is_supervised_and_recovers() {
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
        let report = run_drive(&config, &RunConfig::seconds(10.0));
        let fault = report.fault.as_ref().expect("faulted run reports fault stats");
        assert_eq!(fault.crashes, 1);
        assert!(fault.restarts >= 1, "supervisor must restart the node: {fault:?}");
        assert!(fault.heartbeat_misses >= 1);
        assert!(fault.recovery_latency_ms > 0.0, "recovery must be measured: {fault:?}");
        assert!(fault.time_degraded_s > 0.0);
        // The fallback localizer keeps the pose stream alive during the
        // outage, then hands back to NDT.
        assert!(fault.fallback_enters >= 1, "loc fallback must engage: {fault:?}");
        assert!(fault.fallback_exits >= 1, "loc fallback must disengage: {fault:?}");
        // NDT keeps matching after the restart: it sees more frames than
        // the outage alone would allow.
        assert!(report.node_summary(node_names::NDT_MATCHING).count > 0);
        assert!(
            report.localization_error_m < 5.0,
            "post-restart localization must re-converge: {} m",
            report.localization_error_m
        );
    }

    #[test]
    fn disabled_supervision_leaves_the_crash_unrecovered() {
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
        config.supervision.restarts_enabled = false;
        let report = run_drive(&config, &RunConfig::seconds(10.0));
        let fault = report.fault.as_ref().unwrap();
        assert_eq!(fault.crashes, 1);
        assert_eq!(fault.restarts, 0);
        // Degraded until the end of the run: crash at 3 s, run is 10 s.
        assert!(fault.time_degraded_s > 6.0, "censored outage: {fault:?}");
    }

    #[test]
    fn edge_drop_fault_loses_messages_deterministically() {
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.faults = FaultPlan::parse("drop:/filtered_points>ndt_matching:0.5:1-5").unwrap();
        let a = run_drive(&config, &RunConfig::seconds(6.0));
        let b = run_drive(&config, &RunConfig::seconds(6.0));
        let fa = a.fault.as_ref().unwrap();
        let fb = b.fault.as_ref().unwrap();
        assert!(fa.messages_lost > 0, "50% drop over 4 s must lose messages");
        assert_eq!(fa.messages_lost, fb.messages_lost, "edge-drop RNG must be seeded");
        assert_eq!(
            a.node_summary(node_names::NDT_MATCHING).count,
            b.node_summary(node_names::NDT_MATCHING).count
        );
    }

    #[test]
    fn stall_and_slow_faults_inflate_the_target_node_only() {
        let clean = quick(DetectorKind::YoloV3);
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.faults = FaultPlan::parse("slow:euclidean_cluster:x4:0-100").unwrap();
        let slowed = run_drive(&config, &RunConfig::seconds(6.0));
        let node = node_names::EUCLIDEAN_CLUSTER;
        assert!(
            slowed.node_summary(node).mean > 1.5 * clean.node_summary(node).mean,
            "x4 service inflation must show up in {node} latency"
        );
    }

    #[test]
    fn empty_fault_plan_reports_no_fault_stats() {
        let report = quick(DetectorKind::YoloV3);
        assert!(report.fault.is_none(), "clean runs must not carry fault stats");
    }

    #[test]
    fn tables_render() {
        let report = quick(DetectorKind::YoloV3);
        let nodes = report.node_table().to_string();
        assert!(nodes.contains("ndt_matching"));
        let paths = report.path_table().to_string();
        assert!(paths.contains("costmap_cluster_obj"));
        // Drop table may be empty for a short quiet run; just render it.
        let _ = report.drop_table().to_string();
    }

    #[test]
    fn checkpoint_resume_reproduces_the_straight_run() {
        let config = StackConfig::smoke_test(DetectorKind::YoloV3);
        let run = RunConfig::seconds(6.0);
        let straight = run_drive(&config, &run);
        let (through, checkpoint) = checkpoint_drive(&config, &run, 2.5);
        let resumed = resume(&config, &run, &checkpoint);
        assert!(checkpoint.size_bytes() > 0);
        assert!((checkpoint.barrier_s() - 2.5).abs() < 1e-12);
        let h = crate::determinism::run_hash;
        assert_eq!(h(&straight), h(&through), "capturing must not perturb the run");
        assert_eq!(h(&straight), h(&resumed), "resume must replay bit-identically");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_under_tracing() {
        let config = StackConfig::smoke_test(DetectorKind::Ssd300);
        let run = RunConfig::seconds(6.0).with_trace();
        let straight = run_drive(&config, &run);
        let (_, checkpoint) = checkpoint_drive(&config, &run, 3.0);
        let resumed = resume(&config, &run, &checkpoint);
        // run_hash folds the full structured trace, so this covers the
        // event timeline and metrics time series byte-for-byte.
        assert!(straight.trace.is_some());
        assert_eq!(crate::determinism::run_hash(&straight), crate::determinism::run_hash(&resumed));
    }

    #[test]
    fn checkpoint_mid_outage_resumes_identically() {
        // Crash at 3 s; barrier at 4 s lands inside the degraded window
        // with the fallback localizer active and the restart pending.
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
        let run = RunConfig::seconds(10.0);
        let straight = run_drive(&config, &run);
        let (_, checkpoint) = checkpoint_drive(&config, &run, 4.0);
        let resumed = resume(&config, &run, &checkpoint);
        assert_eq!(crate::determinism::run_hash(&straight), crate::determinism::run_hash(&resumed));
        let fault = resumed.fault.as_ref().expect("fault stats survive the resume");
        assert_eq!(fault.crashes, 1);
        assert!(fault.restarts >= 1);
    }

    #[test]
    fn checkpoint_before_a_planned_crash_still_fires_it() {
        // Barrier at 2 s, crash planned for 3 s: the not-yet-fired fault
        // event must be carried across the checkpoint and fire on resume.
        let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
        config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
        let run = RunConfig::seconds(10.0);
        let straight = run_drive(&config, &run);
        let (_, checkpoint) = checkpoint_drive(&config, &run, 2.0);
        let resumed = resume(&config, &run, &checkpoint);
        assert_eq!(crate::determinism::run_hash(&straight), crate::determinism::run_hash(&resumed));
        assert_eq!(resumed.fault.as_ref().unwrap().crashes, 1);
    }

    #[test]
    fn chained_checkpoints_reproduce_the_straight_run() {
        let config = StackConfig::smoke_test(DetectorKind::YoloV3);
        let run = RunConfig::seconds(6.0);
        let straight = run_drive(&config, &run);
        let (_, first) = checkpoint_drive(&config, &run, 2.0);
        let (resumed, second) = drive(
            &config,
            &run,
            DriveRequest { from: Some(&first), capture_at_s: Some(4.0), ..DriveRequest::default() },
        );
        let rejoined = resume(&config, &run, &second.expect("captured at 4 s"));
        let h = crate::determinism::run_hash;
        assert_eq!(h(&straight), h(&resumed));
        assert_eq!(h(&straight), h(&rejoined));
    }

    #[test]
    fn blackout_divergent_resume_matches_its_own_cold_run() {
        // The prefix-sharing contract: a checkpoint of the clean config
        // may seed any member whose outage windows all start after the
        // barrier, and the resumed run must equal that member's cold run.
        let clean = StackConfig::smoke_test(DetectorKind::YoloV3);
        let run = RunConfig::seconds(6.0);
        let (_, checkpoint) = checkpoint_drive(&clean, &run, 2.0);
        let mut member = clean.clone();
        member.blackouts = vec![Blackout { source: Source::Gnss, from_s: 3.0, to_s: 5.0 }];
        let cold = run_drive(&member, &run);
        let warm = resume(&member, &run, &checkpoint);
        assert_eq!(crate::determinism::run_hash(&cold), crate::determinism::run_hash(&warm));
    }

    #[test]
    #[should_panic(expected = "different configuration")]
    fn resume_rejects_a_foreign_config() {
        let config = StackConfig::smoke_test(DetectorKind::YoloV3);
        let run = RunConfig::seconds(6.0);
        let (_, checkpoint) = checkpoint_drive(&config, &run, 2.0);
        let mut other = config.clone();
        other.seed = 999;
        let _ = resume(&other, &run, &checkpoint);
    }

    #[test]
    #[should_panic(expected = "strictly after the barrier")]
    fn resume_rejects_a_blackout_straddling_the_barrier() {
        let clean = StackConfig::smoke_test(DetectorKind::YoloV3);
        let run = RunConfig::seconds(6.0);
        let (_, checkpoint) = checkpoint_drive(&clean, &run, 2.0);
        let mut member = clean.clone();
        member.blackouts = vec![Blackout { source: Source::Gnss, from_s: 1.0, to_s: 3.0 }];
        let _ = resume(&member, &run, &checkpoint);
    }
}
