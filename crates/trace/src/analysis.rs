//! Recomputing the paper's tables *from a recorded trace alone*.
//!
//! This is the internal consistency oracle: `trace_report` reads an
//! exported Chrome trace back through [`crate::export::trace_from_chrome`],
//! reruns the Fig 6 path latency and Table III drop-count computations here
//! on the typed events, and asserts exact equality with what
//! `av_profiling::LatencyRecorder` measured live. The arithmetic
//! deliberately mirrors the recorder's — the same `SimTime` stamps go
//! through the identical `saturating_since(..).as_millis_f64()` chain into
//! an `av_profiling::Distribution` — so agreement is bit-exact, not
//! approximate.

use crate::{TraceData, TraceEvent};
use av_profiling::{Distribution, PathSpec};
use std::collections::BTreeMap;

/// Occupancy of one subscription queue, reconstructed from its queue
/// events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStat {
    /// Number of queue events (enqueues + dequeues + drops).
    pub events: u64,
    /// Highest depth any of them reported.
    pub max_depth: u64,
}

/// Health of one recomputed path: whether every sink publication could be
/// anchored to the spec's lineage source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathVerdict {
    /// Every sink publication carried the source stamp.
    Ok,
    /// The sink node never published — wrong sink name or a dead node.
    NoSinkActivity,
    /// The sink published, but some publications lacked the lineage
    /// source — a broken stamping chain upstream. Carries the count.
    MissingLineage {
        /// Sink publications without the source stamp.
        missing: u64,
    },
}

impl PathVerdict {
    /// `true` only for [`PathVerdict::Ok`].
    pub fn is_ok(self) -> bool {
        self == PathVerdict::Ok
    }

    /// Short human-readable rendering (`ok`, `no-sink-activity`,
    /// `missing-lineage(n)`).
    pub fn describe(self) -> String {
        match self {
            PathVerdict::Ok => "ok".to_string(),
            PathVerdict::NoSinkActivity => "no-sink-activity".to_string(),
            PathVerdict::MissingLineage { missing } => format!("missing-lineage({missing})"),
        }
    }
}

/// One path's recomputed latency distribution plus its health verdict.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// Path name from the spec.
    pub name: String,
    /// End-to-end latency distribution (ms).
    pub latency: Distribution,
    /// Whether the path was fully anchored. A silent empty distribution
    /// can no longer masquerade as a healthy quiet path.
    pub verdict: PathVerdict,
}

/// Everything recomputed from one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Callback slices seen (all, including non-publishing ones).
    pub callbacks: usize,
    /// Per-path latency distributions and verdicts, in spec order.
    pub paths: Vec<PathReport>,
    /// Per-node processing-latency distributions (ms), publishing
    /// callbacks only — Fig 5's measurement.
    pub nodes: BTreeMap<String, Distribution>,
    /// Drop counts per `(topic, node)` — Table III's measurement.
    pub drops: BTreeMap<(String, String), u64>,
    /// Queue occupancy per `(topic, node)` — the congestion signal
    /// `trace_diff` compares between runs.
    pub queues: BTreeMap<(String, String), QueueStat>,
    /// Fault/supervision event counts per `(kind name, node)` — empty for
    /// clean runs, so `trace_diff` flags faulted-vs-clean pairs.
    pub faults: BTreeMap<(String, String), u64>,
    /// Scheduler policy name from the trace header, if the run declared
    /// one. FIFO runs omit it.
    pub policy: Option<String>,
    /// Scheduler decision events seen in the trace. Nonzero only under a
    /// non-FIFO policy.
    pub sched_decisions: u64,
}

impl TraceReport {
    /// `true` when the scheduler header is self-consistent: decision
    /// events are only present if the run header names the policy that
    /// produced them. Mirrors the [`PathVerdict::MissingLineage`] idea —
    /// a trace with anonymous scheduling decisions is loud, not silently
    /// accepted.
    pub fn sched_header_consistent(&self) -> bool {
        self.sched_decisions == 0 || self.policy.is_some()
    }
}

/// Recomputes path latencies, node latencies, drop, fault and queue
/// statistics from a trace's events.
pub fn analyze_trace(data: &TraceData, specs: &[PathSpec]) -> TraceReport {
    let mut report = TraceReport {
        callbacks: data.callback_count(),
        paths: specs
            .iter()
            .map(|s| PathReport {
                name: s.name.clone(),
                latency: Distribution::new(),
                verdict: PathVerdict::NoSinkActivity,
            })
            .collect(),
        drops: data.drop_counts(),
        faults: data.fault_counts(),
        policy: data.policy.clone(),
        sched_decisions: data.sched_decision_count(),
        ..TraceReport::default()
    };
    // Sink publications lacking the lineage stamp, per path.
    let mut missing: Vec<u64> = vec![0; specs.len()];

    for event in &data.events {
        match event {
            // Callbacks without outputs are auxiliary: the live recorder
            // skips them for both node and path statistics.
            TraceEvent::Callback { node, started, completed, lineage, published, .. }
                if !published.is_empty() =>
            {
                report
                    .nodes
                    .entry(node.clone())
                    .or_default()
                    .record(completed.saturating_since(*started).as_millis_f64());
                let paths = specs.iter().zip(&mut report.paths).zip(&mut missing);
                for ((spec, path), missing) in paths.filter(|((s, _), _)| s.sink_node == *node) {
                    match lineage.iter().find(|(source, _)| *source == spec.source) {
                        Some(&(_, origin)) => {
                            path.latency.record(completed.saturating_since(origin).as_millis_f64())
                        }
                        None => *missing += 1,
                    }
                }
            }
            TraceEvent::Enqueued { topic, node, depth, .. }
            | TraceEvent::Dequeued { topic, node, depth, .. }
            | TraceEvent::Dropped { topic, node, depth, .. } => {
                let stat = report.queues.entry((topic.clone(), node.clone())).or_default();
                stat.events += 1;
                stat.max_depth = stat.max_depth.max(*depth as u64);
            }
            _ => {}
        }
    }
    for (path, &miss) in report.paths.iter_mut().zip(&missing) {
        path.verdict = if miss > 0 {
            PathVerdict::MissingLineage { missing: miss }
        } else if path.latency.is_empty() {
            PathVerdict::NoSinkActivity
        } else {
            PathVerdict::Ok
        };
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::tests::round_trip;
    use av_des::{SimDuration, SimTime};
    use av_ros::Source;

    /// The report of a trace read back from its Chrome export.
    fn analyze_exported(data: &TraceData, specs: &[PathSpec]) -> TraceReport {
        analyze_trace(&round_trip(data), specs)
    }

    fn callback(
        node: &str,
        arrival_ms: u64,
        started_ms: u64,
        completed_ms: u64,
        lineage: Vec<(Source, SimTime)>,
        published: bool,
    ) -> TraceEvent {
        TraceEvent::Callback {
            node: node.to_string(),
            topic: "/in".to_string(),
            arrival: SimTime::from_millis(arrival_ms),
            started: SimTime::from_millis(started_ms),
            completed: SimTime::from_millis(completed_ms),
            lineage,
            published: if published { vec!["/out".to_string()] } else { vec![] },
        }
    }

    #[test]
    fn roundtrip_recovers_paths_and_drops() {
        let data = TraceData {
            sample_interval: SimDuration::from_millis(100),
            nodes: vec!["ndt".to_string()],
            subscriptions: vec![("/in".to_string(), "ndt".to_string())],
            events: vec![
                callback(
                    "ndt",
                    100,
                    110,
                    150,
                    vec![(Source::Lidar, SimTime::from_millis(100))],
                    true,
                ),
                callback(
                    "ndt",
                    200,
                    200,
                    260,
                    vec![(Source::Lidar, SimTime::from_millis(200))],
                    true,
                ),
                // Auxiliary callback: no outputs, must be skipped.
                callback(
                    "ndt",
                    300,
                    300,
                    310,
                    vec![(Source::Lidar, SimTime::from_millis(300))],
                    false,
                ),
                TraceEvent::Dropped {
                    topic: "/in".to_string(),
                    node: "ndt".to_string(),
                    depth: 0,
                    time: SimTime::from_millis(250),
                },
            ],
            samples: vec![],
            policy: None,
        };
        let specs = vec![PathSpec::new("localization", "ndt", Source::Lidar)];
        let report = analyze_exported(&data, &specs);

        assert_eq!(report.callbacks, 3);
        let path = &report.paths[0];
        assert_eq!(path.name, "localization");
        assert_eq!(path.verdict, PathVerdict::Ok);
        // 150−100 = 50 ms, 260−200 = 60 ms; auxiliary callback excluded.
        assert_eq!(path.latency.samples(), &[50.0, 60.0]);
        assert_eq!(report.nodes["ndt"].samples(), &[40.0, 60.0]);
        assert_eq!(report.drops[&("/in".to_string(), "ndt".to_string())], 1);
        // The drop's companion queue counter is recovered too.
        let q = report.queues[&("/in".to_string(), "ndt".to_string())];
        assert_eq!(q.events, 1);
        assert_eq!(q.max_depth, 0);
    }

    #[test]
    fn queue_counters_track_max_depth() {
        let data = TraceData {
            nodes: vec!["ndt".to_string()],
            subscriptions: vec![("/in".to_string(), "ndt".to_string())],
            events: vec![
                TraceEvent::Enqueued {
                    topic: "/in".to_string(),
                    node: "ndt".to_string(),
                    depth: 1,
                    time: SimTime::from_millis(1),
                },
                TraceEvent::Enqueued {
                    topic: "/in".to_string(),
                    node: "ndt".to_string(),
                    depth: 2,
                    time: SimTime::from_millis(2),
                },
                TraceEvent::Dequeued {
                    topic: "/in".to_string(),
                    node: "ndt".to_string(),
                    depth: 1,
                    time: SimTime::from_millis(3),
                },
            ],
            ..TraceData::default()
        };
        let report = analyze_exported(&data, &[]);
        let q = report.queues[&("/in".to_string(), "ndt".to_string())];
        assert_eq!(q.events, 3);
        assert_eq!(q.max_depth, 2);
    }

    #[test]
    fn fault_instants_roundtrip_through_export() {
        use av_ros::FaultKind;
        let data = TraceData {
            nodes: vec!["ndt".to_string()],
            events: vec![
                TraceEvent::Fault {
                    kind: FaultKind::Crash,
                    node: "ndt".to_string(),
                    info: "lost=1".to_string(),
                    time: SimTime::from_millis(100),
                },
                TraceEvent::Fault {
                    kind: FaultKind::Restart,
                    node: "ndt".to_string(),
                    info: String::new(),
                    time: SimTime::from_millis(600),
                },
                TraceEvent::Fault {
                    kind: FaultKind::Restart,
                    node: "ndt".to_string(),
                    info: String::new(),
                    time: SimTime::from_millis(900),
                },
            ],
            ..TraceData::default()
        };
        let report = analyze_exported(&data, &[]);
        assert_eq!(report.faults[&("crash".to_string(), "ndt".to_string())], 1);
        assert_eq!(report.faults[&("restart".to_string(), "ndt".to_string())], 2);
    }

    #[test]
    fn wrong_sink_or_missing_source_not_recorded() {
        let data = TraceData {
            nodes: vec!["other".to_string()],
            events: vec![callback("other", 0, 0, 10, vec![(Source::Camera, SimTime::ZERO)], true)],
            ..TraceData::default()
        };
        let specs = vec![
            PathSpec::new("localization", "ndt", Source::Lidar),
            PathSpec::new("by_camera", "other", Source::Lidar),
        ];
        let report = analyze_trace(&data, &specs);
        assert!(report.paths[0].latency.is_empty(), "wrong sink node");
        assert_eq!(report.paths[0].verdict, PathVerdict::NoSinkActivity);
        assert_eq!(report.paths[0].verdict.describe(), "no-sink-activity");
        assert!(report.paths[1].latency.is_empty(), "missing lineage source");
        assert_eq!(
            report.paths[1].verdict,
            PathVerdict::MissingLineage { missing: 1 },
            "a sink publication without the stamp is loud, not silently empty"
        );
        assert!(!report.paths[1].verdict.is_ok());
        assert_eq!(report.paths[1].verdict.describe(), "missing-lineage(1)");
    }

    #[test]
    fn sched_policy_and_decisions_roundtrip_through_export() {
        let decision = TraceEvent::SchedDecision {
            node: "fusion".to_string(),
            topic: "/image_obj".to_string(),
            considered: 2,
            key: -42,
            time: SimTime::from_millis(5),
        };
        let data = TraceData {
            nodes: vec!["fusion".to_string()],
            events: vec![decision.clone()],
            policy: Some("edf".to_string()),
            ..TraceData::default()
        };
        let report = analyze_exported(&data, &[]);
        assert_eq!(report.policy.as_deref(), Some("edf"));
        assert_eq!(report.sched_decisions, 1);
        assert!(report.sched_header_consistent());

        // Decision events with no declared policy: loud inconsistency.
        let anonymous = TraceData { events: vec![decision], policy: None, ..TraceData::default() };
        let report = analyze_exported(&anonymous, &[]);
        assert_eq!(report.policy, None);
        assert_eq!(report.sched_decisions, 1);
        assert!(!report.sched_header_consistent());

        // FIFO-shaped traces (no decisions, no header) are consistent.
        assert!(TraceReport::default().sched_header_consistent());
    }
}
