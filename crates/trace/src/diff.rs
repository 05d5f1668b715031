//! Trace diffing: regression hunting on the timeline.
//!
//! Two exported traces of "the same" workload — before/after a code
//! change, or two points of a parameter sweep — are aligned by node name
//! and by lineage-anchored computation path, and compared at the
//! distribution level: per-node latency shifts, drops that appeared or
//! vanished, and queue-depth divergence. Identity is exact (bit-level
//! sample equality), so a self-diff reports **zero** differences and any
//! behavioural change — one extra drop, one nanosecond of latency —
//! registers. This is the ROADMAP's "trace-diffing between runs"
//! workload: point it at a nightly trace and yesterday's golden one and
//! the regression's location falls out of the table.

use crate::analysis::{QueueStat, TraceReport};
use crate::blame::{BlameReport, Component};
use av_profiling::{Distribution, Table};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A latency-distribution comparison for one aligned entity (node or
/// path).
#[derive(Debug, Clone, PartialEq)]
pub struct DistShift {
    /// Node or path name.
    pub name: String,
    /// Sample counts on each side.
    pub count: (usize, usize),
    /// Mean latency on each side, ms.
    pub mean_ms: (f64, f64),
    /// p99 latency on each side, ms.
    pub p99_ms: (f64, f64),
    /// `true` when the sample vectors are bit-identical.
    pub identical: bool,
}

impl DistShift {
    fn compare(name: &str, a: Option<&Distribution>, b: Option<&Distribution>) -> DistShift {
        let empty = Distribution::new();
        let a = a.unwrap_or(&empty);
        let b = b.unwrap_or(&empty);
        let (sa, sb) = (a.summary(), b.summary());
        DistShift {
            name: name.to_string(),
            count: (sa.count, sb.count),
            mean_ms: (sa.mean, sb.mean),
            p99_ms: (sa.p99, sb.p99),
            identical: a.samples() == b.samples(),
        }
    }

    /// Mean shift `b − a`, ms.
    pub fn mean_delta(&self) -> f64 {
        self.mean_ms.1 - self.mean_ms.0
    }

    /// p99 shift `b − a`, ms.
    pub fn p99_delta(&self) -> f64 {
        self.p99_ms.1 - self.p99_ms.0
    }
}

/// A `(topic, node)` subscription whose drop count differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropChange {
    /// Topic name.
    pub topic: String,
    /// Subscribing node.
    pub node: String,
    /// Drop counts on each side.
    pub count: (u64, u64),
}

impl DropChange {
    /// `true` when side B drops where side A did not at all.
    pub fn is_new(&self) -> bool {
        self.count.0 == 0 && self.count.1 > 0
    }

    /// `true` when side A's drops vanished entirely on side B.
    pub fn is_vanished(&self) -> bool {
        self.count.0 > 0 && self.count.1 == 0
    }
}

/// A `(topic, node)` subscription whose queue occupancy differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueChange {
    /// Topic name.
    pub topic: String,
    /// Subscribing node.
    pub node: String,
    /// Queue statistics on each side.
    pub stat: (QueueStat, QueueStat),
}

/// A `(fault kind, node)` pair whose event count differs — a faulted run
/// diffed against a clean one shows every injection/supervision event as
/// a change here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultChange {
    /// Fault kind name (`crash`, `restart`, …).
    pub kind: String,
    /// Affected node.
    pub node: String,
    /// Event counts on each side.
    pub count: (u64, u64),
}

/// Default blame-share movement that counts as a composition shift
/// (5 percentage points of a path's total time).
pub const BLAME_SHIFT_EPSILON: f64 = 0.05;

/// A critical-path composition shift for one path: the *shape* of where
/// its time goes changed, even if the total barely moved.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameShift {
    /// Path name.
    pub path: String,
    /// Dominant component name on each side (by instance histogram).
    pub dominant: (String, String),
    /// Nodes whose mean blame share moved more than epsilon:
    /// `(node, share A, share B)`.
    pub moved_nodes: Vec<(String, f64, f64)>,
}

impl BlameShift {
    /// `true` when the dominant component itself changed.
    pub fn dominant_changed(&self) -> bool {
        self.dominant.0 != self.dominant.1
    }
}

/// Compares two blame attributions path-by-path and reports composition
/// shifts: a changed dominant component, or any node whose mean blame
/// share moved more than `epsilon`. Paths with no instances on either
/// side are skipped.
pub fn diff_blame(a: &BlameReport, b: &BlameReport, epsilon: f64) -> Vec<BlameShift> {
    let mut names: Vec<&str> = a.paths.iter().map(|p| p.name.as_str()).collect();
    for p in &b.paths {
        if !names.contains(&p.name.as_str()) {
            names.push(&p.name);
        }
    }
    let dominant_of = |report: &BlameReport, name: &str| -> Option<&'static str> {
        let path = report.path(name)?;
        if path.instances.is_empty() {
            return None;
        }
        let hist = path.dominant_histogram();
        Component::ALL.into_iter().max_by_key(|c| hist[c.idx()]).map(Component::name)
    };
    let mut shifts = Vec::new();
    for name in names {
        let da = dominant_of(a, name);
        let db = dominant_of(b, name);
        if da.is_none() && db.is_none() {
            continue;
        }
        let shares_a = a.path(name).map(|p| p.mean_node_share()).unwrap_or_default();
        let shares_b = b.path(name).map(|p| p.mean_node_share()).unwrap_or_default();
        let nodes: BTreeSet<&String> = shares_a.keys().chain(shares_b.keys()).collect();
        let moved_nodes: Vec<(String, f64, f64)> = nodes
            .into_iter()
            .filter_map(|node| {
                let sa = shares_a.get(node).copied().unwrap_or(0.0);
                let sb = shares_b.get(node).copied().unwrap_or(0.0);
                ((sb - sa).abs() > epsilon).then(|| (node.clone(), sa, sb))
            })
            .collect();
        let dominant = (da.unwrap_or("-").to_string(), db.unwrap_or("-").to_string());
        if dominant.0 != dominant.1 || !moved_nodes.is_empty() {
            shifts.push(BlameShift { path: name.to_string(), dominant, moved_nodes });
        }
    }
    shifts
}

/// The full comparison of two trace reports.
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    /// Total callback slices on each side.
    pub callbacks: (usize, usize),
    /// Per-node latency comparison, over the union of node names.
    pub nodes: Vec<DistShift>,
    /// Per-path latency comparison, in spec order.
    pub paths: Vec<DistShift>,
    /// Subscriptions whose drop counts differ (only differing ones).
    pub drop_changes: Vec<DropChange>,
    /// Subscriptions whose queue occupancy differs (only differing ones).
    pub queue_changes: Vec<QueueChange>,
    /// Fault/supervision event counts that differ (only differing ones).
    pub fault_changes: Vec<FaultChange>,
    /// Critical-path composition shifts, when blame attributions were
    /// compared (see [`diff_blame`]); empty otherwise.
    pub blame_shifts: Vec<BlameShift>,
}

impl TraceDiff {
    /// Number of differing findings: shifted nodes + shifted paths +
    /// drop changes + queue changes + fault changes + a callback-count
    /// mismatch.
    pub fn difference_count(&self) -> usize {
        usize::from(self.callbacks.0 != self.callbacks.1)
            + self.nodes.iter().filter(|s| !s.identical).count()
            + self.paths.iter().filter(|s| !s.identical).count()
            + self.drop_changes.len()
            + self.queue_changes.len()
            + self.fault_changes.len()
            + self.blame_shifts.len()
    }

    /// `true` when the two traces are behaviourally identical.
    pub fn is_identical(&self) -> bool {
        self.difference_count() == 0
    }
}

/// Compares two analyzed traces. Both sides should have been analyzed
/// with the same path specs so paths align by construction.
pub fn diff_reports(a: &TraceReport, b: &TraceReport) -> TraceDiff {
    let node_names: BTreeSet<&String> = a.nodes.keys().chain(b.nodes.keys()).collect();
    let nodes = node_names
        .into_iter()
        .map(|name| DistShift::compare(name, a.nodes.get(name), b.nodes.get(name)))
        .collect();

    let path_names: Vec<&String> = {
        let mut names: Vec<&String> = a.paths.iter().map(|p| &p.name).collect();
        for p in &b.paths {
            if !names.contains(&&p.name) {
                names.push(&p.name);
            }
        }
        names
    };
    let find = |report: &'_ TraceReport, name: &String| -> Option<Distribution> {
        report.paths.iter().find(|p| &p.name == name).map(|p| p.latency.clone())
    };
    let paths = path_names
        .into_iter()
        .map(|name| DistShift::compare(name, find(a, name).as_ref(), find(b, name).as_ref()))
        .collect();

    let drop_keys: BTreeSet<&(String, String)> = a.drops.keys().chain(b.drops.keys()).collect();
    let drop_changes = drop_keys
        .into_iter()
        .filter_map(|key| {
            let (ca, cb) =
                (a.drops.get(key).copied().unwrap_or(0), b.drops.get(key).copied().unwrap_or(0));
            (ca != cb).then(|| DropChange {
                topic: key.0.clone(),
                node: key.1.clone(),
                count: (ca, cb),
            })
        })
        .collect();

    let queue_keys: BTreeSet<&(String, String)> = a.queues.keys().chain(b.queues.keys()).collect();
    let queue_changes = queue_keys
        .into_iter()
        .filter_map(|key| {
            let (qa, qb) = (
                a.queues.get(key).copied().unwrap_or_default(),
                b.queues.get(key).copied().unwrap_or_default(),
            );
            (qa != qb).then(|| QueueChange {
                topic: key.0.clone(),
                node: key.1.clone(),
                stat: (qa, qb),
            })
        })
        .collect();

    let fault_keys: BTreeSet<&(String, String)> = a.faults.keys().chain(b.faults.keys()).collect();
    let fault_changes = fault_keys
        .into_iter()
        .filter_map(|key| {
            let (fa, fb) =
                (a.faults.get(key).copied().unwrap_or(0), b.faults.get(key).copied().unwrap_or(0));
            (fa != fb).then(|| FaultChange {
                kind: key.0.clone(),
                node: key.1.clone(),
                count: (fa, fb),
            })
        })
        .collect();

    TraceDiff {
        callbacks: (a.callbacks, b.callbacks),
        nodes,
        paths,
        drop_changes,
        queue_changes,
        fault_changes,
        blame_shifts: Vec::new(),
    }
}

fn shift_table(shifts: &[DistShift]) -> Table {
    let mut table = Table::with_headers(&[
        "Name", "n A", "n B", "Mean A", "Mean B", "Δmean", "p99 A", "p99 B", "Δp99",
    ]);
    for s in shifts.iter().filter(|s| !s.identical) {
        table.add_row(vec![
            s.name.clone(),
            s.count.0.to_string(),
            s.count.1.to_string(),
            format!("{:.2}", s.mean_ms.0),
            format!("{:.2}", s.mean_ms.1),
            format!("{:+.2}", s.mean_delta()),
            format!("{:.2}", s.p99_ms.0),
            format!("{:.2}", s.p99_ms.1),
            format!("{:+.2}", s.p99_delta()),
        ]);
    }
    table
}

fn push_section(out: &mut String, title: &str, table: &Table) {
    let _ = writeln!(out, "## {title}\n");
    if table.is_empty() {
        out.push_str("(no differences)\n\n");
    } else {
        let _ = writeln!(out, "{table}");
    }
}

/// Renders the diff as the `trace_diff` binary's report text.
pub fn render_diff(label_a: &str, label_b: &str, diff: &TraceDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# trace diff — A: {label_a}  B: {label_b}\n");
    let _ = writeln!(
        out,
        "callback slices: {} vs {} ({:+})\n",
        diff.callbacks.0,
        diff.callbacks.1,
        diff.callbacks.1 as i64 - diff.callbacks.0 as i64
    );

    push_section(&mut out, "Node latency shifts (ms)", &shift_table(&diff.nodes));
    push_section(&mut out, "Path latency shifts (ms)", &shift_table(&diff.paths));

    let mut drops = Table::with_headers(&["Topic", "Node", "Drops A", "Drops B", "Δ", "Kind"]);
    for d in &diff.drop_changes {
        let kind = if d.is_new() {
            "NEW"
        } else if d.is_vanished() {
            "vanished"
        } else {
            "changed"
        };
        drops.add_row(vec![
            d.topic.clone(),
            d.node.clone(),
            d.count.0.to_string(),
            d.count.1.to_string(),
            format!("{:+}", d.count.1 as i64 - d.count.0 as i64),
            kind.to_string(),
        ]);
    }
    push_section(&mut out, "Drop changes", &drops);

    let mut queues = Table::with_headers(&[
        "Topic",
        "Node",
        "Events A",
        "Events B",
        "Max depth A",
        "Max depth B",
    ]);
    for q in &diff.queue_changes {
        queues.add_row(vec![
            q.topic.clone(),
            q.node.clone(),
            q.stat.0.events.to_string(),
            q.stat.1.events.to_string(),
            q.stat.0.max_depth.to_string(),
            q.stat.1.max_depth.to_string(),
        ]);
    }
    push_section(&mut out, "Queue divergence", &queues);

    let mut faults = Table::with_headers(&["Kind", "Node", "Events A", "Events B", "Δ"]);
    for f in &diff.fault_changes {
        faults.add_row(vec![
            f.kind.clone(),
            f.node.clone(),
            f.count.0.to_string(),
            f.count.1.to_string(),
            format!("{:+}", f.count.1 as i64 - f.count.0 as i64),
        ]);
    }
    push_section(&mut out, "Fault-event changes", &faults);

    let mut blame = Table::with_headers(&[
        "Path",
        "Dominant A",
        "Dominant B",
        "Node",
        "Share A",
        "Share B",
        "Δ",
    ]);
    for s in &diff.blame_shifts {
        if s.moved_nodes.is_empty() {
            blame.add_row(vec![
                s.path.clone(),
                s.dominant.0.clone(),
                s.dominant.1.clone(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        for (node, sa, sb) in &s.moved_nodes {
            blame.add_row(vec![
                s.path.clone(),
                s.dominant.0.clone(),
                s.dominant.1.clone(),
                node.clone(),
                format!("{:.1}%", sa * 100.0),
                format!("{:.1}%", sb * 100.0),
                format!("{:+.1}%", (sb - sa) * 100.0),
            ]);
        }
    }
    push_section(&mut out, "Critical-path composition shifts", &blame);

    if diff.is_identical() {
        out.push_str("traces identical: 0 differences\n");
    } else {
        let _ = writeln!(out, "{} difference(s) found", diff.difference_count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_trace;
    use crate::export::tests::round_trip;
    use crate::{TraceData, TraceEvent};
    use av_des::SimTime;
    use av_ros::Source;

    fn small_trace(latency_ms: u64, with_drop: bool) -> TraceData {
        let mut events = vec![TraceEvent::Callback {
            node: "ndt".to_string(),
            topic: "/in".to_string(),
            arrival: SimTime::from_millis(100),
            started: SimTime::from_millis(100),
            completed: SimTime::from_millis(100 + latency_ms),
            lineage: vec![(Source::Lidar, SimTime::from_millis(100))],
            published: vec!["/pose".to_string()],
        }];
        if with_drop {
            events.push(TraceEvent::Dropped {
                topic: "/in".to_string(),
                node: "ndt".to_string(),
                depth: 1,
                time: SimTime::from_millis(150),
            });
        }
        TraceData { nodes: vec!["ndt".to_string()], events, ..TraceData::default() }
    }

    fn analyze(data: &TraceData) -> TraceReport {
        analyze_trace(&round_trip(data), &[])
    }

    #[test]
    fn self_diff_is_identical() {
        let report = analyze(&small_trace(40, true));
        let diff = diff_reports(&report, &report);
        assert!(diff.is_identical(), "self diff must be empty: {diff:?}");
        let text = render_diff("a", "a", &diff);
        assert!(text.contains("traces identical: 0 differences"), "{text}");
    }

    #[test]
    fn latency_shift_and_new_drop_are_reported() {
        let a = analyze(&small_trace(40, false));
        let b = analyze(&small_trace(55, true));
        let diff = diff_reports(&a, &b);
        assert!(!diff.is_identical());
        let ndt = diff.nodes.iter().find(|s| s.name == "ndt").unwrap();
        assert!(!ndt.identical);
        assert!((ndt.mean_delta() - 15.0).abs() < 1e-9);
        assert_eq!(diff.drop_changes.len(), 1);
        assert!(diff.drop_changes[0].is_new());
        // The drop's queue counter diverges too.
        assert_eq!(diff.queue_changes.len(), 1);
        let text = render_diff("a", "b", &diff);
        assert!(text.contains("NEW"));
        assert!(text.contains("difference(s) found"));
    }

    #[test]
    fn fault_events_flag_faulted_vs_clean() {
        use av_ros::FaultKind;
        let clean = analyze(&small_trace(40, false));
        let mut faulted_data = small_trace(40, false);
        faulted_data.events.push(TraceEvent::Fault {
            kind: FaultKind::Crash,
            node: "ndt".to_string(),
            info: "lost=0".to_string(),
            time: SimTime::from_millis(120),
        });
        let faulted = analyze(&faulted_data);
        let diff = diff_reports(&clean, &faulted);
        assert!(!diff.is_identical());
        assert_eq!(diff.fault_changes.len(), 1);
        assert_eq!(diff.fault_changes[0].kind, "crash");
        assert_eq!(diff.fault_changes[0].count, (0, 1));
        let text = render_diff("clean", "faulted", &diff);
        assert!(text.contains("Fault-event changes"), "{text}");
        // Symmetric self-diff of the faulted trace stays clean.
        assert!(diff_reports(&faulted, &faulted).is_identical());
    }

    #[test]
    fn vanished_node_counts_as_shift() {
        let a = analyze(&small_trace(40, false));
        let empty = analyze(&TraceData::default());
        let diff = diff_reports(&a, &empty);
        let ndt = diff.nodes.iter().find(|s| s.name == "ndt").unwrap();
        assert_eq!(ndt.count, (1, 0));
        assert!(!ndt.identical);
    }

    /// lidar@100 → filter → sink, with the filter's queue wait and
    /// compute time dialed by the caller.
    fn blamed(wait_ms: u64, compute_ms: u64) -> BlameReport {
        use crate::blame::analyze_blame;
        let started = 100 + wait_ms;
        let done = started + compute_ms;
        let data = TraceData {
            nodes: vec!["filter".to_string(), "sink".to_string()],
            events: vec![
                TraceEvent::Callback {
                    node: "filter".to_string(),
                    topic: "/raw".to_string(),
                    arrival: SimTime::from_millis(100),
                    started: SimTime::from_millis(started),
                    completed: SimTime::from_millis(done),
                    lineage: vec![(Source::Lidar, SimTime::from_millis(100))],
                    published: vec!["/mid".to_string()],
                },
                TraceEvent::Callback {
                    node: "sink".to_string(),
                    topic: "/mid".to_string(),
                    arrival: SimTime::from_millis(done),
                    started: SimTime::from_millis(done),
                    completed: SimTime::from_millis(done + 10),
                    lineage: vec![(Source::Lidar, SimTime::from_millis(100))],
                    published: vec!["/out".to_string()],
                },
            ],
            ..TraceData::default()
        };
        let specs = [av_profiling::PathSpec::new("p", "sink", Source::Lidar)];
        analyze_blame(&data, &specs).unwrap()
    }

    #[test]
    fn blame_self_diff_reports_no_shift() {
        let a = blamed(10, 60);
        assert!(diff_blame(&a, &a, BLAME_SHIFT_EPSILON).is_empty());
    }

    #[test]
    fn blame_dominant_flip_and_share_move_are_flagged() {
        // A: 10 ms wait / 60 ms compute at the filter (compute-dominant,
        // filter holds 70/80 of the path). B: 60 ms wait / 10 ms compute
        // (queue-dominant, filter still 70/80 but sink share unchanged) —
        // only the dominant flips. C: 0 wait / 10 ms compute shrinks the
        // filter to 10/20, moving both node shares past epsilon.
        let a = blamed(10, 60);
        let b = blamed(60, 10);
        let flips = diff_blame(&a, &b, BLAME_SHIFT_EPSILON);
        assert_eq!(flips.len(), 1, "{flips:?}");
        assert_eq!(flips[0].path, "p");
        assert!(flips[0].dominant_changed());
        assert_eq!(flips[0].dominant, ("compute".to_string(), "queue_wait".to_string()));
        assert!(flips[0].moved_nodes.is_empty(), "node split unchanged: {flips:?}");

        let c = blamed(0, 10);
        let moves = diff_blame(&a, &c, BLAME_SHIFT_EPSILON);
        assert_eq!(moves.len(), 1, "{moves:?}");
        assert!(!moves[0].dominant_changed());
        let filter = moves[0].moved_nodes.iter().find(|(n, _, _)| n == "filter").unwrap();
        assert!((filter.1 - 0.875).abs() < 1e-9 && (filter.2 - 0.5).abs() < 1e-9, "{moves:?}");

        // The shifts land in the rendered report and the diff count.
        let mut diff =
            diff_reports(&analyze(&small_trace(40, false)), &analyze(&small_trace(40, false)));
        assert!(diff.is_identical());
        diff.blame_shifts = flips;
        assert_eq!(diff.difference_count(), 1);
        let text = render_diff("a", "b", &diff);
        assert!(text.contains("Critical-path composition shifts"), "{text}");
        assert!(text.contains("queue_wait"), "{text}");
    }

    #[test]
    fn blame_path_missing_on_one_side_is_a_shift() {
        let a = blamed(10, 60);
        let empty = BlameReport { paths: Vec::new() };
        let shifts = diff_blame(&a, &empty, BLAME_SHIFT_EPSILON);
        assert_eq!(shifts.len(), 1);
        assert_eq!(shifts[0].dominant, ("compute".to_string(), "-".to_string()));
    }
}
