//! Deterministic event trace and time-series metrics for the AV stack.
//!
//! The paper's method is *full-stack observability*: per-callback latency
//! (Fig 5), end-to-end computation paths followed through message headers
//! (Fig 6), queue drops (Table III), and device utilization/power over the
//! drive (Tables V–VI). The aggregate tables built by `av-profiling` keep
//! only end-of-run summaries; this crate keeps the underlying *timeline*.
//!
//! [`TraceRecorder`] hooks the same [`av_ros::BusObserver`] seam as the
//! latency recorder and stores, **in virtual time only**:
//!
//! * one span per node callback (arrival / start / complete, so queue wait
//!   and processing are separately visible),
//! * the output lineage of every callback (rendered as Chrome *flow
//!   events* — Fig 6's computation paths become arrows),
//! * an instant event per queue drop and a counter per enqueue/dequeue,
//! * fixed-cadence [`MetricSample`]s of per-subscription queue depth,
//!   per-node busy fraction, and platform CPU/GPU utilization & power.
//!
//! Because nothing here reads a wall clock or draws randomness, the trace
//! is a pure function of the simulated run: byte-identical across
//! `--jobs` levels and foldable into the determinism golden hash. The
//! [`export`] module renders Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and a metrics CSV, and reads that JSON
//! back into the exact [`TraceData`] it came from. [`analysis`]
//! recomputes the paper tables and [`blame`] the critical paths from a
//! [`TraceData`] alone, whether recorded live or read from a file, giving
//! the reproduction an internal consistency oracle.

#![warn(missing_docs)]

pub mod analysis;
pub mod blame;
pub mod diff;
pub mod export;
pub mod json;

use av_des::{Leaf, SimDuration, SimTime, Snap, SnapError, SnapReader, SnapWriter};
use av_ros::{BusObserver, FaultKind, ProcessedEvent, Source};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Configuration of the trace layer.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Cadence of the metrics time series (queue depth, busy fraction,
    /// utilization, power).
    pub sample_interval: SimDuration,
}

impl Default for TraceConfig {
    /// 100 ms sampling — 10 Hz, the cadence of the stack's LiDAR input.
    fn default() -> TraceConfig {
        TraceConfig { sample_interval: SimDuration::from_millis(100) }
    }
}

/// One structured middleware event, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A completed node callback (becomes a wait + processing span pair).
    Callback {
        /// Node name.
        node: String,
        /// Input topic.
        topic: String,
        /// Message arrival (enqueue) time.
        arrival: SimTime,
        /// Callback start (dequeue) time.
        started: SimTime,
        /// Output-ready time.
        completed: SimTime,
        /// Output lineage `(source, acquisition stamp)` pairs.
        lineage: Vec<(Source, SimTime)>,
        /// Topics published by this invocation.
        published: Vec<String>,
    },
    /// A message queued behind a busy node (`depth` after the push).
    Enqueued {
        /// Topic name.
        topic: String,
        /// Subscribing node.
        node: String,
        /// Queue depth after the enqueue.
        depth: usize,
        /// Event time.
        time: SimTime,
    },
    /// A queued message pulled for processing (`depth` after the pop).
    Dequeued {
        /// Topic name.
        topic: String,
        /// Subscribing node.
        node: String,
        /// Queue depth after the dequeue.
        depth: usize,
        /// Event time.
        time: SimTime,
    },
    /// A queued message displaced by a newer one (`depth` after the drop).
    Dropped {
        /// Topic name.
        topic: String,
        /// Subscribing node.
        node: String,
        /// Queue depth after the drop.
        depth: usize,
        /// Event time.
        time: SimTime,
    },
    /// A fault-plane or supervision event (injection, crash, heartbeat
    /// miss, restart, fallback transition, message lost/duplicated).
    Fault {
        /// Kind of the event.
        kind: FaultKind,
        /// Affected node (or sensor source for timer skews).
        node: String,
        /// Kind-specific detail (topic, factor, backoff).
        info: String,
        /// Event time.
        time: SimTime,
    },
    /// A non-FIFO scheduling policy chose among several pending inputs
    /// (only real choices are recorded: FIFO runs never emit these, so
    /// the FIFO trace stays byte-identical to the pre-policy format).
    SchedDecision {
        /// Node whose next message was chosen.
        node: String,
        /// Topic that won the pull.
        topic: String,
        /// How many queue heads competed (≥ 2).
        considered: u64,
        /// The winner's urgency key (lower = more urgent; policy units).
        key: i64,
        /// Decision time.
        time: SimTime,
    },
}

impl TraceEvent {
    /// The virtual time at which the event was *recorded* by the bus
    /// observer: `completed` for callbacks (a span is only known once
    /// its processing ends), the event's own `time` for everything
    /// else. Events appear in [`TraceData::events`] in nondecreasing
    /// emission order, so a prefix of the vector is exactly the set of
    /// events a live observer has seen up to some barrier — the
    /// property incremental streaming (`av-serve`) relies on to replay
    /// a finished run's event stream byte-for-byte.
    pub fn emission_time(&self) -> SimTime {
        match self {
            TraceEvent::Callback { completed, .. } => *completed,
            TraceEvent::Enqueued { time, .. }
            | TraceEvent::Dequeued { time, .. }
            | TraceEvent::Dropped { time, .. }
            | TraceEvent::Fault { time, .. }
            | TraceEvent::SchedDecision { time, .. } => *time,
        }
    }
}

/// One fixed-cadence metrics sample, covering the interval ending at
/// `time`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSample {
    /// End of the sampled interval.
    pub time: SimTime,
    /// Queue depth per subscription, parallel to
    /// [`TraceData::subscriptions`].
    pub queue_depths: Vec<u64>,
    /// Fraction of the interval each node spent executing callbacks,
    /// parallel to [`TraceData::nodes`].
    pub node_busy_frac: Vec<f64>,
    /// CPU utilization over the interval (busy core-time / cores ×
    /// interval).
    pub cpu_util: f64,
    /// GPU utilization over the interval.
    pub gpu_util: f64,
    /// Mean CPU power over the interval, watts.
    pub cpu_w: f64,
    /// Mean GPU power over the interval, watts.
    pub gpu_w: f64,
}

/// The complete recorded trace of one run. Owned data only, so it can
/// cross the run-pool thread boundary inside a `RunReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Metrics cadence the sampler used.
    pub sample_interval: SimDuration,
    /// Name of the non-FIFO scheduling policy the run executed under,
    /// or `None` for the default FIFO order. Kept optional so FIFO
    /// traces (and their golden hashes) stay byte-identical to runs
    /// recorded before policies existed; any trace containing
    /// [`TraceEvent::SchedDecision`] events must carry `Some`.
    pub policy: Option<String>,
    /// Node names in bus-registration order.
    pub nodes: Vec<String>,
    /// `(topic, node)` per subscription, in bus-registration order.
    pub subscriptions: Vec<(String, String)>,
    /// Middleware events in emission order.
    pub events: Vec<TraceEvent>,
    /// Metrics time series.
    pub samples: Vec<MetricSample>,
}

impl TraceData {
    /// Drop counts per `(topic, node)`, derived purely from the recorded
    /// drop events — the trace-side of Table III.
    pub fn drop_counts(&self) -> BTreeMap<(String, String), u64> {
        let mut counts = BTreeMap::new();
        for event in &self.events {
            if let TraceEvent::Dropped { topic, node, .. } = event {
                *counts.entry((topic.clone(), node.clone())).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Total number of drop events recorded.
    pub fn dropped_total(&self) -> u64 {
        self.drop_counts().values().sum()
    }

    /// Number of callback spans recorded.
    pub fn callback_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, TraceEvent::Callback { .. })).count()
    }

    /// Fault/supervision event counts per `(kind name, node)`.
    pub fn fault_counts(&self) -> BTreeMap<(String, String), u64> {
        let mut counts = BTreeMap::new();
        for event in &self.events {
            if let TraceEvent::Fault { kind, node, .. } = event {
                *counts.entry((kind.name().to_string(), node.clone())).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Number of scheduler-decision events recorded.
    pub fn sched_decision_count(&self) -> u64 {
        self.events.iter().filter(|e| matches!(e, TraceEvent::SchedDecision { .. })).count() as u64
    }
}

/// The bus observer that records [`TraceEvent`]s.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    data: TraceData,
}

impl BusObserver for TraceRecorder {
    fn node_processed(&mut self, event: &ProcessedEvent) {
        self.data.events.push(TraceEvent::Callback {
            node: event.node.clone(),
            topic: event.topic.clone(),
            arrival: event.arrival,
            started: event.started,
            completed: event.completed,
            lineage: event.lineage.iter().collect(),
            published: event.published.clone(),
        });
    }

    fn message_dropped(&mut self, topic: &str, node: &str, depth: usize, time: SimTime) {
        self.data.events.push(TraceEvent::Dropped {
            topic: topic.to_string(),
            node: node.to_string(),
            depth,
            time,
        });
    }

    fn message_enqueued(&mut self, topic: &str, node: &str, depth: usize, time: SimTime) {
        self.data.events.push(TraceEvent::Enqueued {
            topic: topic.to_string(),
            node: node.to_string(),
            depth,
            time,
        });
    }

    fn message_dequeued(&mut self, topic: &str, node: &str, depth: usize, time: SimTime) {
        self.data.events.push(TraceEvent::Dequeued {
            topic: topic.to_string(),
            node: node.to_string(),
            depth,
            time,
        });
    }

    fn fault_event(&mut self, kind: FaultKind, node: &str, info: &str, time: SimTime) {
        self.data.events.push(TraceEvent::Fault {
            kind,
            node: node.to_string(),
            info: info.to_string(),
            time,
        });
    }

    fn sched_decision(
        &mut self,
        node: &str,
        topic: &str,
        considered: u64,
        key: i64,
        time: SimTime,
    ) {
        self.data.events.push(TraceEvent::SchedDecision {
            node: node.to_string(),
            topic: topic.to_string(),
            considered,
            key,
            time,
        });
    }
}

/// Shared handle installing a [`TraceRecorder`] as a bus observer while
/// keeping the recorded data reachable by the run driver — the trace
/// sibling of `av_profiling::SharedRecorder`.
#[derive(Debug, Clone, Default)]
pub struct SharedTracer {
    inner: Rc<RefCell<TraceRecorder>>,
}

impl SharedTracer {
    /// Creates a tracer with the given metrics cadence.
    pub fn new(config: &TraceConfig) -> SharedTracer {
        let tracer = SharedTracer::default();
        tracer.inner.borrow_mut().data.sample_interval = config.sample_interval;
        tracer
    }

    /// The observer handle, for [`av_ros::Bus::set_shared_observer`] or a
    /// fan-out.
    pub fn observer(&self) -> Rc<RefCell<dyn BusObserver>> {
        Rc::clone(&self.inner) as Rc<RefCell<dyn BusObserver>>
    }

    /// Records the bus topology (node and subscription order) the metric
    /// vectors index into.
    pub fn set_topology(&self, nodes: Vec<String>, subscriptions: Vec<(String, String)>) {
        let mut inner = self.inner.borrow_mut();
        inner.data.nodes = nodes;
        inner.data.subscriptions = subscriptions;
    }

    /// Records the run's non-FIFO scheduling policy in the trace
    /// header. FIFO runs must *not* call this — their header stays
    /// absent so pre-policy traces and hashes are reproduced
    /// byte-for-byte.
    pub fn set_policy(&self, policy: impl Into<String>) {
        self.inner.borrow_mut().data.policy = Some(policy.into());
    }

    /// Appends one metrics sample.
    pub fn push_sample(&self, sample: MetricSample) {
        self.inner.borrow_mut().data.samples.push(sample);
    }

    /// Clones the recorded trace out of the shared handle.
    pub fn snapshot(&self) -> TraceData {
        self.inner.borrow().data.clone()
    }

    /// Clones the events recorded at positions `from..`, so a paused
    /// run can ship just the delta since the previous pause instead of
    /// re-exporting the whole trace at the end.
    pub fn events_since(&self, from: usize) -> Vec<TraceEvent> {
        self.inner.borrow().data.events.get(from..).unwrap_or(&[]).to_vec()
    }

    /// Saves or restores the recorded trace as a checkpoint section,
    /// replacing any current contents on load.
    ///
    /// Everything is owned data in emission order, so the encoding is a
    /// direct walk; restoring and then continuing the run appends events
    /// exactly where a straight-through run would, keeping the exported
    /// trace byte-identical.
    pub fn snap(&self, s: &mut Snap<'_>) {
        let data = &mut self.inner.borrow_mut().data;
        s.tag("tracer");
        s.dur(&mut data.sample_interval);
        s.opt(&mut data.policy, Snap::str);
        s.leaf(&mut data.nodes);
        s.leaf(&mut data.subscriptions);
        s.leaf(&mut data.events);
        s.vec(&mut data.samples, |s, sample| {
            s.time(&mut sample.time);
            s.leaf(&mut sample.queue_depths);
            s.leaf(&mut sample.node_busy_frac);
            s.f64(&mut sample.cpu_util);
            s.f64(&mut sample.gpu_util);
            s.f64(&mut sample.cpu_w);
            s.f64(&mut sample.gpu_w);
        });
    }
}

/// Checkpoint encoding: a variant byte, then the variant's fields.
impl Leaf for TraceEvent {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            TraceEvent::Callback {
                node,
                topic,
                arrival,
                started,
                completed,
                lineage,
                published,
            } => {
                w.put_u8(0);
                w.put_str(node);
                w.put_str(topic);
                arrival.put(w);
                started.put(w);
                completed.put(w);
                w.put_usize(lineage.len());
                for &(source, stamp) in lineage {
                    w.put_u64(source.code());
                    stamp.put(w);
                }
                published.put(w);
            }
            TraceEvent::Enqueued { topic, node, depth, time }
            | TraceEvent::Dequeued { topic, node, depth, time }
            | TraceEvent::Dropped { topic, node, depth, time } => {
                w.put_u8(match self {
                    TraceEvent::Enqueued { .. } => 1,
                    TraceEvent::Dequeued { .. } => 2,
                    _ => 3,
                });
                w.put_str(topic);
                w.put_str(node);
                w.put_usize(*depth);
                time.put(w);
            }
            TraceEvent::Fault { kind, node, info, time } => {
                w.put_u8(4);
                w.put_str(kind.name());
                w.put_str(node);
                w.put_str(info);
                time.put(w);
            }
            TraceEvent::SchedDecision { node, topic, considered, key, time } => {
                w.put_u8(5);
                w.put_str(node);
                w.put_str(topic);
                w.put_u64(*considered);
                w.put_i64(*key);
                time.put(w);
            }
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Result<TraceEvent, SnapError> {
        Ok(match r.get_u8()? {
            0 => TraceEvent::Callback {
                node: r.get_str()?,
                topic: r.get_str()?,
                arrival: SimTime::get(r)?,
                started: SimTime::get(r)?,
                completed: SimTime::get(r)?,
                lineage: {
                    let n = r.get_len()?;
                    let mut lineage = Vec::with_capacity(n);
                    for _ in 0..n {
                        lineage.push((Source::from_code(r.get_u64()?)?, SimTime::get(r)?));
                    }
                    lineage
                },
                published: Vec::get(r)?,
            },
            tag @ 1..=3 => {
                let (topic, node, depth, time) =
                    (r.get_str()?, r.get_str()?, r.get_usize()?, SimTime::get(r)?);
                match tag {
                    1 => TraceEvent::Enqueued { topic, node, depth, time },
                    2 => TraceEvent::Dequeued { topic, node, depth, time },
                    _ => TraceEvent::Dropped { topic, node, depth, time },
                }
            }
            4 => {
                let name = r.get_str()?;
                let kind = FaultKind::parse(&name)
                    .ok_or_else(|| SnapError::Corrupt(format!("unknown fault kind {name:?}")))?;
                TraceEvent::Fault {
                    kind,
                    node: r.get_str()?,
                    info: r.get_str()?,
                    time: SimTime::get(r)?,
                }
            }
            5 => TraceEvent::SchedDecision {
                node: r.get_str()?,
                topic: r.get_str()?,
                considered: r.get_u64()?,
                key: r.get_i64()?,
                time: SimTime::get(r)?,
            },
            code => {
                return Err(SnapError::UnknownCode { what: "trace event tag", code: code.into() })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_event(topic: &str, node: &str) -> TraceEvent {
        TraceEvent::Dropped {
            topic: topic.to_string(),
            node: node.to_string(),
            depth: 0,
            time: SimTime::ZERO,
        }
    }

    #[test]
    fn drop_counts_group_by_subscription() {
        let mut data = TraceData::default();
        data.events.push(drop_event("/image_raw", "vision"));
        data.events.push(drop_event("/image_raw", "vision"));
        data.events.push(drop_event("/points_raw", "ndt"));
        let counts = data.drop_counts();
        assert_eq!(counts[&("/image_raw".to_string(), "vision".to_string())], 2);
        assert_eq!(counts[&("/points_raw".to_string(), "ndt".to_string())], 1);
        assert_eq!(data.dropped_total(), 3);
        assert_eq!(data.callback_count(), 0);
    }

    #[test]
    fn recorder_stores_events_in_order() {
        let tracer = SharedTracer::new(&TraceConfig::default());
        let obs = tracer.observer();
        obs.borrow_mut().message_enqueued("/t", "n", 1, SimTime::from_millis(1));
        obs.borrow_mut().message_dropped("/t", "n", 0, SimTime::from_millis(2));
        obs.borrow_mut().message_dequeued("/t", "n", 0, SimTime::from_millis(3));
        let data = tracer.snapshot();
        assert_eq!(data.events.len(), 3);
        assert!(matches!(data.events[0], TraceEvent::Enqueued { depth: 1, .. }));
        assert!(matches!(data.events[1], TraceEvent::Dropped { depth: 0, .. }));
        assert!(matches!(data.events[2], TraceEvent::Dequeued { depth: 0, .. }));
        assert_eq!(data.sample_interval, SimDuration::from_millis(100));
    }

    /// A tracer holding one event of each kind, a policy and a sample.
    fn sample_tracer() -> SharedTracer {
        let tracer = SharedTracer::new(&TraceConfig::default());
        tracer.set_topology(
            vec!["vision".to_string(), "ndt".to_string()],
            vec![("/image_raw".to_string(), "vision".to_string())],
        );
        {
            let obs = tracer.observer();
            let mut obs = obs.borrow_mut();
            obs.message_enqueued("/image_raw", "vision", 1, SimTime::from_millis(1));
            obs.message_dropped("/image_raw", "vision", 0, SimTime::from_millis(2));
            obs.node_processed(&ProcessedEvent {
                node: "vision".to_string(),
                topic: "/image_raw".to_string(),
                arrival: SimTime::from_millis(2),
                started: SimTime::from_millis(3),
                completed: SimTime::from_millis(9),
                lineage: av_ros::Lineage::origin(Source::Camera, SimTime::from_millis(1)),
                published: vec!["/vision_objects".to_string()],
            });
            obs.fault_event(FaultKind::Crash, "ndt", "", SimTime::from_millis(5));
            obs.sched_decision("vision", "/image_raw", 2, -42, SimTime::from_millis(6));
        }
        tracer.set_policy("edf");
        tracer.push_sample(MetricSample {
            time: SimTime::from_millis(100),
            queue_depths: vec![1],
            node_busy_frac: vec![0.5, 0.25],
            cpu_util: 0.4,
            gpu_util: 0.7,
            cpu_w: 11.0,
            gpu_w: 19.5,
        });
        tracer
    }

    /// Random bytes, every truncation of every event's encoding and a
    /// length prefix beyond the bytes left all decode to an error, never
    /// a panic.
    #[test]
    fn event_decoder_rejects_garbage_and_truncation() {
        let mut rng = av_des::RngStreams::new(0x5eed).stream("trace-garbage");
        for _ in 0..512 {
            let soup: Vec<u8> = (0..rng.uniform_usize(200)).map(|_| rng.next_u64() as u8).collect();
            let _ = TraceEvent::get(&mut SnapReader::new(&soup));
        }
        for event in sample_tracer().snapshot().events {
            let mut w = SnapWriter::new();
            event.put(&mut w);
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                let r = TraceEvent::get(&mut SnapReader::new(&bytes[..cut]));
                assert!(r.is_err(), "{event:?} cut at {cut} must error");
            }
        }
        let mut w = SnapWriter::new();
        w.put_u8(0); // a callback ...
        w.put_str("vision");
        w.put_str("/image_raw");
        [SimTime::ZERO; 3].put(&mut w);
        w.put_usize(usize::MAX); // ... with 2^64 - 1 lineage entries
        let err = TraceEvent::get(&mut SnapReader::new(&w.into_bytes())).unwrap_err();
        assert!(matches!(err, SnapError::Truncated { need: usize::MAX, have: 0, .. }), "{err}");
    }

    #[test]
    fn tracer_state_round_trips() {
        let tracer = sample_tracer();
        let mut s = Snap::save();
        tracer.snap(&mut s);
        let bytes = s.into_bytes();

        let restored = SharedTracer::default();
        restored.snap(&mut Snap::load(&bytes));
        assert_eq!(restored.snapshot(), tracer.snapshot());

        // Re-serializing the restored state is byte-identical.
        let mut s2 = Snap::save();
        restored.snap(&mut s2);
        assert_eq!(s2.into_bytes(), bytes);
    }
}
