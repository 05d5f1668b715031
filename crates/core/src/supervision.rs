//! The supervision layer: liveness tracking, restart-with-backoff, and
//! graceful degradation over the fault plane.
//!
//! A production AV stack does not just crash when a node dies — a
//! lifecycle manager notices the silent node, relaunches it, and the
//! rest of the stack degrades gracefully in the meantime (Autoware's
//! health checker + runtime manager). This module reproduces that
//! control loop on top of the deterministic fault plane:
//!
//! * [`SupervisionPolicy`] — the knobs: heartbeat cadence, liveness
//!   timeout, exponential restart backoff, detector-fallback warmup.
//! * [`Supervisor`] — watches nodes targeted by the fault plan through a
//!   [`BusObserver`], detects heartbeat misses, schedules restarts with
//!   exponential backoff, and drives the fallbacks. Its periodic
//!   [`Supervisor::tick`] runs on the same simulated clock as
//!   everything else, so every decision is deterministic and every
//!   action lands in the golden hash via the bus's fault events.
//! * [`FallbackLocalizer`] — dead-reckoning + GNSS-reseed pose source
//!   that keeps `/ndt_pose` alive while `ndt_matching` is down.
//! * [`FaultReport`] — the per-run outcome scalars (recovery latency,
//!   time degraded, messages lost) folded into the determinism hash and
//!   surfaced through [`crate::metrics`].
//!
//! The supervisor never mutates the bus from inside an observer
//! callback: observers only record, and the tick plans under one state
//! borrow, then acts with the borrow released (crash/restart/fault
//! events re-enter the observer).

use crate::calib::{Calibration, NodeCost, VisionCost};
use crate::msg::{unexpected, Msg, PoseEstimate};
use crate::nodes::VisionDetectionNode;
use crate::topics;
use av_des::{SimDuration, SimTime, Snap, StreamRng};
use av_geom::{Pose, Vec3};
use av_ros::{
    Bus, BusObserver, Execution, FaultKind, Lineage, Message, Node, Outbox, ProcessedEvent,
};
use av_vision::DetectorKind;
use std::cell::RefCell;
use std::rc::Rc;

/// The supervision-layer knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionPolicy {
    /// How often the supervisor's liveness check runs, seconds.
    pub heartbeat_interval_s: f64,
    /// A watched node silent for longer than this is declared missing.
    pub liveness_timeout_s: f64,
    /// Backoff before the first restart attempt, seconds.
    pub restart_initial_backoff_s: f64,
    /// Multiplier applied to the backoff per consecutive attempt.
    pub restart_backoff_factor: f64,
    /// Backoff ceiling, seconds.
    pub restart_max_backoff_s: f64,
    /// How long a restarted detector runs the cheapest network before
    /// reverting to the primary (model reload / engine rebuild window).
    pub detector_fallback_warmup_s: f64,
    /// When `false` the supervisor only observes (no restarts, no
    /// fallbacks) — the unsupervised baseline.
    pub restarts_enabled: bool,
}

impl Default for SupervisionPolicy {
    fn default() -> SupervisionPolicy {
        SupervisionPolicy {
            heartbeat_interval_s: 0.25,
            liveness_timeout_s: 1.0,
            restart_initial_backoff_s: 0.5,
            restart_backoff_factor: 2.0,
            restart_max_backoff_s: 8.0,
            detector_fallback_warmup_s: 2.0,
            restarts_enabled: true,
        }
    }
}

impl SupervisionPolicy {
    /// Backoff before restart attempt `attempt` (0-based), seconds:
    /// `initial * factor^attempt`, capped at the ceiling.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        (self.restart_initial_backoff_s * self.restart_backoff_factor.powi(attempt as i32))
            .min(self.restart_max_backoff_s)
    }

    /// Validates the policy, mirroring the spec-loader conventions.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("heartbeat_interval_s", self.heartbeat_interval_s),
            ("liveness_timeout_s", self.liveness_timeout_s),
            ("restart_initial_backoff_s", self.restart_initial_backoff_s),
            ("restart_max_backoff_s", self.restart_max_backoff_s),
            ("detector_fallback_warmup_s", self.detector_fallback_warmup_s),
        ];
        for (name, value) in positive {
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("supervision {name} must be finite and positive, got {value}"));
            }
        }
        if !self.restart_backoff_factor.is_finite() || self.restart_backoff_factor < 1.0 {
            return Err(format!(
                "supervision restart_backoff_factor must be >= 1, got {}",
                self.restart_backoff_factor
            ));
        }
        if self.restart_max_backoff_s < self.restart_initial_backoff_s {
            return Err(format!(
                "supervision restart_max_backoff_s ({}) must be >= restart_initial_backoff_s ({})",
                self.restart_max_backoff_s, self.restart_initial_backoff_s
            ));
        }
        Ok(())
    }
}

/// Per-run fault and supervision outcomes, folded into the golden hash
/// and surfaced as [`crate::metrics`] scalars.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Node crashes observed.
    pub crashes: u64,
    /// Heartbeat misses the supervisor reported.
    pub heartbeat_misses: u64,
    /// Restarts issued.
    pub restarts: u64,
    /// Fallback activations.
    pub fallback_enters: u64,
    /// Fallback deactivations.
    pub fallback_exits: u64,
    /// Messages lost to the fault plane (down-node discards + edge drops).
    pub messages_lost: u64,
    /// Messages duplicated by edge faults.
    pub messages_duplicated: u64,
    /// Total wall-clock the stack spent degraded (crash-to-recovery
    /// outages plus detector-fallback windows; open episodes censored at
    /// run end), seconds.
    pub time_degraded_s: f64,
    /// Worst crash-to-recovery latency (crash event to the node's first
    /// completed callback after restart; censored at run end if the run
    /// finishes mid-outage), milliseconds. Zero when nothing crashed.
    pub recovery_latency_ms: f64,
}

/// Liveness bookkeeping for one watched node.
#[derive(Debug)]
struct WatchState {
    name: String,
    /// Completion time of the node's latest callback.
    last_seen: Option<SimTime>,
    /// Set while the node is crashed.
    down_since: Option<SimTime>,
    /// Pending restart deadline (crash detected, backoff running).
    restart_at: Option<SimTime>,
    /// Set between the restart and the node's first callback after it.
    restarted_at: Option<SimTime>,
    /// Start of the current outage (first crash of the episode); cleared
    /// when recovery completes.
    recover_from: Option<SimTime>,
    /// Consecutive restart attempts in the current outage.
    attempts: u32,
    /// Debounce: one heartbeat-miss event per silence episode.
    miss_reported: bool,
}

impl WatchState {
    fn new(name: &str) -> WatchState {
        WatchState {
            name: name.to_string(),
            last_seen: None,
            down_since: None,
            restart_at: None,
            restarted_at: None,
            recover_from: None,
            attempts: 0,
            miss_reported: false,
        }
    }
}

/// Detector graceful degradation: after a restart the vision node runs
/// the cheapest network for a warmup window, then reverts to the primary.
struct DetectorFallback {
    node: String,
    handle: Rc<RefCell<VisionDetectionNode>>,
    primary: (DetectorKind, VisionCost),
    cheap: (DetectorKind, VisionCost),
    /// Set by the observer when the node restarts; consumed by the tick.
    pending: bool,
    active_since: Option<SimTime>,
    revert_at: Option<SimTime>,
}

/// Shared supervisor state (observer + tick + report all see this).
struct SupervisorState {
    policy: SupervisionPolicy,
    watched: Vec<WatchState>,
    crashes: u64,
    heartbeat_misses: u64,
    restarts: u64,
    fallback_enters: u64,
    fallback_exits: u64,
    recovery_latencies_s: Vec<f64>,
    degraded_s: f64,
    loc_fallback: Option<(String, Rc<RefCell<FallbackLocalizer>>)>,
    loc_fallback_active: bool,
    detector: Option<DetectorFallback>,
}

/// The observer half: records heartbeats and fault events. Never calls
/// back into the bus.
struct SupervisorObserver {
    state: Rc<RefCell<SupervisorState>>,
}

impl BusObserver for SupervisorObserver {
    fn node_processed(&mut self, event: &ProcessedEvent) {
        let mut s = self.state.borrow_mut();
        if let Some(w) = s.watched.iter_mut().find(|w| w.name == event.node) {
            w.last_seen = Some(event.completed);
        }
    }

    fn fault_event(&mut self, kind: FaultKind, node: &str, _info: &str, time: SimTime) {
        let mut s = self.state.borrow_mut();
        match kind {
            FaultKind::Crash => {
                s.crashes += 1;
                if let Some(w) = s.watched.iter_mut().find(|w| w.name == node) {
                    w.down_since = Some(time);
                    w.recover_from.get_or_insert(time);
                    w.restarted_at = None;
                    w.restart_at = None;
                }
            }
            FaultKind::Restart => {
                s.restarts += 1;
                if let Some(w) = s.watched.iter_mut().find(|w| w.name == node) {
                    w.down_since = None;
                    w.restarted_at = Some(time);
                    w.restart_at = None;
                    w.attempts += 1;
                }
                if let Some(det) = &mut s.detector {
                    if det.node == node {
                        det.pending = true;
                    }
                }
            }
            FaultKind::HeartbeatMiss => s.heartbeat_misses += 1,
            FaultKind::FallbackEnter => s.fallback_enters += 1,
            FaultKind::FallbackExit => s.fallback_exits += 1,
            FaultKind::Inject | FaultKind::MessageLost | FaultKind::MessageDuplicated => {}
        }
    }
}

/// An action the tick decided on; executed after the state borrow is
/// released because each one re-enters the observer.
enum Act {
    Miss { node: String, info: String },
    Restart { node: String },
    LocEnter { primary: String, handle: Rc<RefCell<FallbackLocalizer>> },
    LocExit { primary: String, handle: Rc<RefCell<FallbackLocalizer>> },
    DetEnter { node: String, info: String, handle: Rc<RefCell<VisionDetectionNode>> },
    DetExit { node: String, info: String, handle: Rc<RefCell<VisionDetectionNode>> },
}

/// The supervision control loop. See the module docs for the protocol.
pub struct Supervisor {
    state: Rc<RefCell<SupervisorState>>,
}

impl Supervisor {
    /// Creates a supervisor watching the named nodes (typically every
    /// node the fault plan targets).
    pub fn new(policy: SupervisionPolicy, watched: &[&str]) -> Supervisor {
        Supervisor {
            state: Rc::new(RefCell::new(SupervisorState {
                policy,
                watched: watched.iter().map(|n| WatchState::new(n)).collect(),
                crashes: 0,
                heartbeat_misses: 0,
                restarts: 0,
                fallback_enters: 0,
                fallback_exits: 0,
                recovery_latencies_s: Vec::new(),
                degraded_s: 0.0,
                loc_fallback: None,
                loc_fallback_active: false,
                detector: None,
            })),
        }
    }

    /// The observer to fan bus events into.
    pub fn observer(&self) -> Rc<RefCell<dyn BusObserver>> {
        Rc::new(RefCell::new(SupervisorObserver { state: Rc::clone(&self.state) }))
    }

    /// Arms the localization fallback: while `primary` is in an outage,
    /// `handle` is activated and keeps the pose stream alive.
    pub fn set_localization_fallback(&self, primary: &str, handle: Rc<RefCell<FallbackLocalizer>>) {
        let mut s = self.state.borrow_mut();
        s.loc_fallback = Some((primary.to_string(), handle));
    }

    /// Arms the detector fallback: after `node` restarts, it runs
    /// `cheap` for the policy's warmup window, then reverts to `primary`.
    pub fn set_detector_fallback(
        &self,
        node: &str,
        handle: Rc<RefCell<VisionDetectionNode>>,
        primary: (DetectorKind, VisionCost),
        cheap: (DetectorKind, VisionCost),
    ) {
        let mut s = self.state.borrow_mut();
        s.detector = Some(DetectorFallback {
            node: node.to_string(),
            handle,
            primary,
            cheap,
            pending: false,
            active_since: None,
            revert_at: None,
        });
    }

    /// One liveness check: detect silent nodes, issue due restarts, and
    /// drive the fallbacks. Runs on the heartbeat cadence.
    pub fn tick(&self, bus: &Bus<Msg>, now: SimTime) {
        let mut acts: Vec<Act> = Vec::new();
        {
            let mut s = self.state.borrow_mut();
            let policy = s.policy.clone();
            let mut finished: Vec<f64> = Vec::new();
            for w in &mut s.watched {
                // Recovery completes at the node's first callback after a
                // restart; latency spans the whole outage (crash →
                // detection → backoff → restart → first output).
                if let (Some(restarted), Some(seen)) = (w.restarted_at, w.last_seen) {
                    if seen > restarted {
                        if let Some(from) = w.recover_from.take() {
                            finished.push(seen.saturating_since(from).as_secs_f64());
                        }
                        w.restarted_at = None;
                        w.attempts = 0;
                        w.miss_reported = false;
                    }
                }
                let silence =
                    now.saturating_since(w.last_seen.unwrap_or(SimTime::ZERO)).as_secs_f64();
                if silence < policy.liveness_timeout_s {
                    w.miss_reported = false;
                } else if !w.miss_reported {
                    w.miss_reported = true;
                    acts.push(Act::Miss {
                        node: w.name.clone(),
                        info: format!("silent_for={silence:.2}s"),
                    });
                    if w.down_since.is_some() && policy.restarts_enabled && w.restart_at.is_none() {
                        let backoff = policy.backoff_s(w.attempts);
                        w.restart_at = Some(now + SimDuration::from_secs_f64(backoff));
                    }
                }
                if let Some(at) = w.restart_at {
                    if w.down_since.is_some() && now >= at {
                        w.restart_at = None;
                        acts.push(Act::Restart { node: w.name.clone() });
                    }
                }
            }
            s.degraded_s += finished.iter().sum::<f64>();
            s.recovery_latencies_s.extend(finished);

            // Localization fallback tracks the primary's outage window.
            if policy.restarts_enabled {
                if let Some((primary, handle)) = &s.loc_fallback {
                    let in_outage = s
                        .watched
                        .iter()
                        .find(|w| w.name == *primary)
                        .is_some_and(|w| w.recover_from.is_some());
                    if in_outage && !s.loc_fallback_active {
                        acts.push(Act::LocEnter {
                            primary: primary.clone(),
                            handle: Rc::clone(handle),
                        });
                    } else if !in_outage && s.loc_fallback_active {
                        acts.push(Act::LocExit {
                            primary: primary.clone(),
                            handle: Rc::clone(handle),
                        });
                    }
                }
                for act in &acts {
                    match act {
                        Act::LocEnter { .. } => s.loc_fallback_active = true,
                        Act::LocExit { .. } => s.loc_fallback_active = false,
                        _ => {}
                    }
                }
            }

            // Detector fallback: enter on restart, revert after warmup.
            if policy.restarts_enabled {
                if let Some(det) = &mut s.detector {
                    if det.pending {
                        det.pending = false;
                        det.active_since = Some(now);
                        det.revert_at = Some(
                            now + SimDuration::from_secs_f64(policy.detector_fallback_warmup_s),
                        );
                        acts.push(Act::DetEnter {
                            node: det.node.clone(),
                            info: format!("detector={}", det.cheap.0.name()),
                            handle: Rc::clone(&det.handle),
                        });
                    } else if det.revert_at.is_some_and(|at| now >= at) {
                        det.revert_at = None;
                        acts.push(Act::DetExit {
                            node: det.node.clone(),
                            info: format!("detector={}", det.primary.0.name()),
                            handle: Rc::clone(&det.handle),
                        });
                    }
                }
            }
        }

        for act in &acts {
            match act {
                Act::Miss { node, info } => bus.emit_fault(FaultKind::HeartbeatMiss, node, info),
                Act::Restart { node } => bus.restart_node(node),
                Act::LocEnter { primary, handle } => {
                    handle.borrow_mut().set_active(true);
                    bus.emit_fault(
                        FaultKind::FallbackEnter,
                        primary,
                        topics::nodes::FALLBACK_LOCALIZER,
                    );
                }
                Act::LocExit { primary, handle } => {
                    handle.borrow_mut().set_active(false);
                    bus.emit_fault(
                        FaultKind::FallbackExit,
                        primary,
                        topics::nodes::FALLBACK_LOCALIZER,
                    );
                }
                Act::DetEnter { node, info, handle } => {
                    let (kind, cost) = {
                        let s = self.state.borrow();
                        let det = s.detector.as_ref().expect("detector fallback armed");
                        (det.cheap.0, det.cheap.1.clone())
                    };
                    handle.borrow_mut().set_kind(kind, cost);
                    bus.emit_fault(FaultKind::FallbackEnter, node, info);
                }
                Act::DetExit { node, info, handle } => {
                    let (kind, cost) = {
                        let mut s = self.state.borrow_mut();
                        let det = s.detector.as_mut().expect("detector fallback armed");
                        // Close the degraded window at the revert time.
                        let closed = det.active_since.take();
                        if let Some(since) = closed {
                            s.degraded_s += now.saturating_since(since).as_secs_f64();
                        }
                        let det = s.detector.as_ref().expect("detector fallback armed");
                        (det.primary.0, det.primary.1.clone())
                    };
                    handle.borrow_mut().set_kind(kind, cost);
                    bus.emit_fault(FaultKind::FallbackExit, node, info);
                }
            }
        }
    }

    /// Saves or restores the supervisor's dynamic bookkeeping for a
    /// checkpoint. The policy, watch list and fallback wiring are
    /// configuration and are rebuilt from the run config on resume.
    ///
    /// # Panics
    ///
    /// Loading panics when the checkpoint's watch list or fallback
    /// wiring does not match this supervisor's configuration.
    pub fn snap(&self, s: &mut Snap<'_>) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        s.tag("supervisor");
        s.check_len(st.watched.len(), "checkpoint watch-list size mismatch");
        for watch in &mut st.watched {
            s.check_str(&watch.name, "checkpoint watch-list order mismatch");
            s.opt(&mut watch.last_seen, Snap::time);
            s.opt(&mut watch.down_since, Snap::time);
            s.opt(&mut watch.restart_at, Snap::time);
            s.opt(&mut watch.restarted_at, Snap::time);
            s.opt(&mut watch.recover_from, Snap::time);
            s.u32(&mut watch.attempts);
            s.bool(&mut watch.miss_reported);
        }
        s.u64(&mut st.crashes);
        s.u64(&mut st.heartbeat_misses);
        s.u64(&mut st.restarts);
        s.u64(&mut st.fallback_enters);
        s.u64(&mut st.fallback_exits);
        s.leaf(&mut st.recovery_latencies_s);
        s.f64(&mut st.degraded_s);
        s.bool(&mut st.loc_fallback_active);
        let detector = st.detector.as_mut();
        if let Some(det) = s.check_some(detector, "checkpoint detector-fallback wiring mismatch") {
            s.bool(&mut det.pending);
            s.opt(&mut det.active_since, Snap::time);
            s.opt(&mut det.revert_at, Snap::time);
        }
    }

    /// Folds the supervisor's bookkeeping into the per-run report.
    /// Open outage / fallback episodes are censored at `end`.
    pub fn report(&self, end: SimTime, lost: u64, duplicated: u64) -> FaultReport {
        let s = self.state.borrow();
        let mut degraded = s.degraded_s;
        let mut latencies = s.recovery_latencies_s.clone();
        for w in &s.watched {
            if let Some(from) = w.recover_from {
                let open = end.saturating_since(from).as_secs_f64();
                degraded += open;
                latencies.push(open);
            }
        }
        if let Some(det) = &s.detector {
            if let Some(since) = det.active_since {
                degraded += end.saturating_since(since).as_secs_f64();
            }
        }
        let worst = latencies.iter().fold(0.0f64, |a, &b| a.max(b));
        FaultReport {
            crashes: s.crashes,
            heartbeat_misses: s.heartbeat_misses,
            restarts: s.restarts,
            fallback_enters: s.fallback_enters,
            fallback_exits: s.fallback_exits,
            messages_lost: lost,
            messages_duplicated: duplicated,
            time_degraded_s: degraded,
            recovery_latency_ms: worst * 1000.0,
        }
    }
}

/// Dead-reckoning pose source: the localization fallback. It listens to
/// IMU and GNSS continuously (so its state is warm when activated) but
/// publishes `/ndt_pose` only while active — a clean run never sees a
/// message from it.
pub struct FallbackLocalizer {
    active: bool,
    pose: Pose,
    speed: f64,
    yaw_rate: f64,
    last_imu_stamp: Option<SimTime>,
    last_gnss: Option<Vec3>,
    imu_count: u64,
    // Lineage of the last GNSS fix absorbed into the dead-reckoned pose,
    // merged into every published fallback pose so blame chains stay
    // anchored to real acquisitions across a fault window.
    reseed_lineage: Lineage,
    cost: NodeCost,
    rng: StreamRng,
}

/// Publish one dead-reckoned pose per this many IMU samples (100 Hz IMU
/// → 10 Hz pose stream, matching the primary's LiDAR-rate cadence).
const IMU_PUBLISH_DIVIDER: u64 = 10;

impl FallbackLocalizer {
    /// Creates the fallback seeded with the route's initial pose guess.
    pub fn new(initial_guess: Pose, calib: &Calibration, rng: StreamRng) -> FallbackLocalizer {
        FallbackLocalizer {
            active: false,
            pose: initial_guess,
            speed: 0.0,
            yaw_rate: 0.0,
            last_imu_stamp: None,
            last_gnss: None,
            imu_count: 0,
            reseed_lineage: Lineage::empty(),
            cost: calib.auxiliary.clone(),
            rng,
        }
    }

    /// The current dead-reckoned pose.
    pub fn pose(&self) -> Pose {
        self.pose
    }

    /// Whether the fallback is publishing.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Engages / disengages publishing (driven by the supervisor).
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }
}

impl Node<Msg> for FallbackLocalizer {
    fn snap(&mut self, s: &mut Snap<'_>) {
        s.bool(&mut self.active);
        s.leaf(&mut self.pose);
        s.f64(&mut self.speed);
        s.f64(&mut self.yaw_rate);
        s.opt(&mut self.last_imu_stamp, Snap::time);
        s.opt(&mut self.last_gnss, Snap::leaf);
        s.u64(&mut self.imu_count);
        s.leaf(&mut self.reseed_lineage);
        self.rng.snap(s);
    }

    fn on_message(&mut self, topic: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
        match &*msg.payload {
            Msg::Imu(imu) => {
                // Midpoint-yaw dead reckoning, the same kinematic model
                // the primary uses between scan matches.
                if let Some(last) = self.last_imu_stamp {
                    let dt = msg.header.stamp.saturating_since(last).as_secs_f64();
                    let yaw = self.pose.yaw() + self.yaw_rate * dt * 0.5;
                    let delta = Vec3::new(yaw.cos(), yaw.sin(), 0.0) * (self.speed * dt);
                    self.pose = Pose::planar(
                        self.pose.translation.x + delta.x,
                        self.pose.translation.y + delta.y,
                        self.pose.yaw() + self.yaw_rate * dt,
                    );
                }
                self.last_imu_stamp = Some(msg.header.stamp);
                self.speed = imu.speed;
                self.yaw_rate = imu.yaw_rate;
                self.imu_count += 1;
                if self.active && self.imu_count.is_multiple_of(IMU_PUBLISH_DIVIDER) {
                    // The dead-reckoned pose derives from the triggering
                    // IMU sample *and* the last GNSS reseed.
                    let lineage = out.default_lineage().merged(&self.reseed_lineage);
                    out.publish_with_lineage(
                        topics::NDT_POSE,
                        Msg::Pose(PoseEstimate { pose: self.pose, fitness: 0.0, iterations: 0 }),
                        lineage,
                    );
                }
                Execution::cpu(self.cost.demand(0.0, &mut self.rng), self.cost.mem_intensity)
            }
            Msg::Gnss(fix) => {
                // Meter-level reseed; two consecutive fixes far enough
                // apart also give a heading (the GNSS initial-pose
                // recipe the primary uses).
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
                self.last_gnss = Some(fix.position);
                self.reseed_lineage = msg.header.lineage.clone();
                Execution::cpu(self.cost.demand(0.0, &mut self.rng), self.cost.mem_intensity)
            }
            other => unexpected(topics::nodes::FALLBACK_LOCALIZER, topic, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_des::{RngStreams, Sim};
    use av_platform::{CpuConfig, GpuConfig, Platform};
    use av_ros::{Header, Lineage, Source, SubscriptionSpec};
    use av_world::{GnssFix, ImuSample};

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = SupervisionPolicy::default();
        assert_eq!(policy.backoff_s(0), 0.5);
        assert_eq!(policy.backoff_s(1), 1.0);
        assert_eq!(policy.backoff_s(2), 2.0);
        assert_eq!(policy.backoff_s(10), 8.0, "capped at restart_max_backoff_s");
        policy.validate().expect("defaults validate");
    }

    #[test]
    fn policy_validation_rejects_bad_knobs() {
        let bad = SupervisionPolicy { liveness_timeout_s: 0.0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SupervisionPolicy { restart_backoff_factor: 0.5, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SupervisionPolicy {
            restart_max_backoff_s: 0.1,
            restart_initial_backoff_s: 0.5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = SupervisionPolicy { heartbeat_interval_s: f64::NAN, ..Default::default() };
        assert!(bad.validate().is_err());
    }

    fn message(payload: Msg, source: Source, stamp: SimTime) -> Message<Msg> {
        Message::new(Header { seq: 1, stamp, lineage: Lineage::origin(source, stamp) }, payload)
    }

    #[test]
    fn fallback_localizer_dead_reckons_and_publishes_only_when_active() {
        let calib = Calibration::default();
        let mut node =
            FallbackLocalizer::new(Pose::IDENTITY, &calib, RngStreams::new(1).stream("fl"));
        // Warm up: a first IMU sample sets speed/heading state.
        let imu = |speed: f64, ms: u64| {
            message(
                Msg::Imu(ImuSample { linear_accel: Vec3::ZERO, yaw_rate: 0.0, speed }),
                Source::Imu,
                SimTime::from_millis(ms),
            )
        };
        let mut out = Outbox::new(Lineage::empty());
        for i in 0..20 {
            node.on_message(topics::IMU_RAW, &imu(10.0, 10 * i), &mut out);
        }
        assert!(out.is_empty(), "inactive fallback must stay silent");
        // 190 ms at 10 m/s (after the first warm-up sample) ≈ 1.9 m.
        assert!((node.pose().translation.x - 1.9).abs() < 1e-9);

        node.set_active(true);
        let mut out = Outbox::new(Lineage::empty());
        for i in 20..40 {
            node.on_message(topics::IMU_RAW, &imu(10.0, 10 * i), &mut out);
        }
        assert_eq!(out.len(), 2, "active fallback publishes 1-in-{IMU_PUBLISH_DIVIDER}");
        let items = out.into_items();
        assert_eq!(items[0].0, topics::NDT_POSE);
    }

    #[test]
    fn fallback_localizer_reseeds_from_gnss_with_heading() {
        let calib = Calibration::default();
        let mut node =
            FallbackLocalizer::new(Pose::IDENTITY, &calib, RngStreams::new(1).stream("fl2"));
        let fix = |x: f64, y: f64, ms: u64| {
            message(
                Msg::Gnss(GnssFix { position: Vec3::new(x, y, 0.0), accuracy: 1.0 }),
                Source::Gnss,
                SimTime::from_millis(ms),
            )
        };
        let mut out = Outbox::new(Lineage::empty());
        node.on_message(topics::GNSS_POSE, &fix(100.0, 50.0, 100), &mut out);
        assert!((node.pose().translation.x - 100.0).abs() < 1e-9);
        assert!(node.pose().yaw().abs() < 1e-9, "single fix keeps prior heading");
        node.on_message(topics::GNSS_POSE, &fix(100.0, 60.0, 1100), &mut out);
        assert!(
            (node.pose().yaw() - std::f64::consts::FRAC_PI_2).abs() < 1e-9,
            "two fixes 10 m apart give a heading"
        );
        assert!(out.is_empty(), "GNSS handling publishes nothing");
    }

    /// A minimal node so the supervisor has something to watch on a real
    /// bus: echoes input after a fixed CPU burst.
    struct Echo;
    impl Node<Msg> for Echo {
        fn on_message(&mut self, _t: &str, msg: &Message<Msg>, out: &mut Outbox<Msg>) -> Execution {
            let Msg::Imu(_) = &*msg.payload else { panic!("echo expects imu") };
            let _ = out;
            Execution::cpu(SimDuration::from_millis(1), 0.0)
        }
    }

    fn test_bus(sim: &Sim) -> Bus<Msg> {
        let platform = Platform::new(
            sim,
            CpuConfig {
                cores: 4,
                dispatch_overhead: SimDuration::ZERO,
                mem_bandwidth: 1.0,
                contention_exponent: 1.0,
            },
            GpuConfig { copy_bandwidth: 1e12, launch_overhead: SimDuration::ZERO },
        );
        Bus::new(sim, &platform)
    }

    #[test]
    fn supervisor_detects_crash_restarts_and_reports_recovery() {
        let sim = Sim::new();
        let bus = test_bus(&sim);
        bus.add_node("echo", Echo, &[SubscriptionSpec::new("in", 4)]);

        let supervisor = Supervisor::new(SupervisionPolicy::default(), &["echo"]);
        bus.set_shared_observer(supervisor.observer());

        // 100 Hz input keeps the heartbeat alive.
        for i in 0..1000u64 {
            let t = SimTime::from_millis(10 * i);
            let bus = bus.clone();
            sim.schedule_at(t, move || {
                bus.publish(
                    "in",
                    Msg::Imu(ImuSample { linear_accel: Vec3::ZERO, yaw_rate: 0.0, speed: 0.0 }),
                    Lineage::origin(Source::Imu, t),
                );
            });
        }
        // Crash at 2 s; supervisor ticks at 4 Hz.
        {
            let bus = bus.clone();
            sim.schedule_at(SimTime::from_millis(2000), move || bus.crash_node("echo"));
        }
        for i in 0..40u64 {
            let t = SimTime::from_millis(250 * i);
            let bus = bus.clone();
            let sup = Supervisor { state: Rc::clone(&supervisor.state) };
            sim.schedule_at(t, move || sup.tick(&bus, t));
        }
        sim.run();

        let report = supervisor.report(SimTime::from_millis(10_000), bus.fault_lost_count(), 0);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.restarts, 1, "one restart recovers the echo node");
        assert!(report.heartbeat_misses >= 1);
        assert!(report.messages_lost > 0, "input arriving while down is lost");
        // Recovery = detection (~1-1.25 s) + backoff (0.5 s) + first
        // callback; well under 2.5 s, and degraded time matches it.
        assert!(
            report.recovery_latency_ms > 1000.0 && report.recovery_latency_ms < 2500.0,
            "recovery latency {} ms",
            report.recovery_latency_ms
        );
        assert!((report.time_degraded_s - report.recovery_latency_ms / 1000.0).abs() < 1e-9);
        assert!(!bus.is_down("echo"));
    }

    #[test]
    fn disabled_restarts_leave_the_node_down() {
        let sim = Sim::new();
        let bus = test_bus(&sim);
        bus.add_node("echo", Echo, &[SubscriptionSpec::new("in", 4)]);
        let policy = SupervisionPolicy { restarts_enabled: false, ..Default::default() };
        let supervisor = Supervisor::new(policy, &["echo"]);
        bus.set_shared_observer(supervisor.observer());
        {
            let bus = bus.clone();
            sim.schedule_at(SimTime::from_millis(1000), move || bus.crash_node("echo"));
        }
        for i in 0..20u64 {
            let t = SimTime::from_millis(250 * i);
            let bus = bus.clone();
            let sup = Supervisor { state: Rc::clone(&supervisor.state) };
            sim.schedule_at(t, move || sup.tick(&bus, t));
        }
        sim.run();
        let report = supervisor.report(SimTime::from_millis(5000), bus.fault_lost_count(), 0);
        assert_eq!(report.restarts, 0);
        assert!(bus.is_down("echo"), "no supervisor restart when disabled");
        assert!(report.recovery_latency_ms > 0.0, "open outage censored at run end");
    }
}
