//! Critical-path extraction and blame attribution over the event trace.
//!
//! For every end-to-end path instance (sensor acquisition → sink
//! publication) this module reconstructs the full causal chain from the
//! recorded callback/lineage events and decomposes its latency into
//! exact, additive components:
//!
//! * **compute** — a chain callback executing (start → complete),
//! * **queue_wait** — the triggering message waiting in a subscription
//!   queue (arrival → start),
//! * **transport** — producer completion → consumer arrival (zero under
//!   the current zero-copy intra-process delivery model, kept explicit so
//!   a transport-cost model lands in an existing column),
//! * **alignment** — data sitting in a fusion node's cache waiting for
//!   the other modality's trigger (intake completion → fusing start),
//! * **degraded** — any portion of the above that overlaps a fault window
//!   (crash → restart, fallback enter → exit), reclassified so fault time
//!   is visible without breaking additivity.
//!
//! The components telescope over `[acquisition stamp, sink completion]`
//! by construction, so they sum to the recorded end-to-end latency in
//! exact integer nanoseconds — `blame_report --verify` gates on it.
//! Energy per frame is attributed by integrating each node's share of
//! sampled CPU+GPU power ([`av_profiling::RateIntegral`]) over the
//! instance's compute spans.
//!
//! On top of the per-instance decomposition sit the blame summaries the
//! paper's Finding 1 and COLA motivate: per-node contribution to the
//! p50/p99/max instance of each path (tail blame differs from mean blame
//! exactly when contention, not kernel compute, inflates the tail),
//! per-edge slack (alignment time by fusion node), and the
//! dominant-component histogram.

use crate::{TraceData, TraceEvent};
use av_des::SimTime;
use av_profiling::{Distribution, PathSpec, RateIntegral};
use av_ros::{FaultKind, Source};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// One additive latency component of a path instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// A chain callback executing.
    Compute,
    /// The triggering message waiting in a subscription queue.
    QueueWait,
    /// Producer completion → consumer arrival.
    Transport,
    /// Cached data waiting for a fusion trigger.
    Alignment,
    /// Any of the above overlapping a fault window.
    Degraded,
}

impl Component {
    /// Every component, in column order.
    pub const ALL: [Component; 5] = [
        Component::Compute,
        Component::QueueWait,
        Component::Transport,
        Component::Alignment,
        Component::Degraded,
    ];

    /// Stable lower-case name, used in CSV/track output.
    pub fn name(self) -> &'static str {
        match self {
            Component::Compute => "compute",
            Component::QueueWait => "queue_wait",
            Component::Transport => "transport",
            Component::Alignment => "alignment",
            Component::Degraded => "degraded",
        }
    }

    /// Index of this component within [`Component::ALL`] (and any
    /// parallel per-component array such as a dominant histogram).
    pub fn idx(self) -> usize {
        match self {
            Component::Compute => 0,
            Component::QueueWait => 1,
            Component::Transport => 2,
            Component::Alignment => 3,
            Component::Degraded => 4,
        }
    }
}

/// One contiguous piece of a path instance's timeline, attributed to one
/// node and one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The node this time is blamed on.
    pub node: String,
    /// What the time was spent on.
    pub component: Component,
    /// Segment start.
    pub from: SimTime,
    /// Segment end (`>= from`).
    pub to: SimTime,
}

impl Segment {
    /// Segment duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.to.saturating_since(self.from).as_nanos()
    }
}

/// One reconstructed end-to-end path instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PathInstance {
    /// Ordinal within the path, in completion order (matches the live
    /// recorder's sample order).
    pub seq: usize,
    /// The anchoring sensor acquisition stamp.
    pub origin: SimTime,
    /// Sink callback completion.
    pub completed: SimTime,
    /// The decomposition: ascending, contiguous, covering exactly
    /// `[origin, completed]`.
    pub segments: Vec<Segment>,
    /// Energy attributed to each node over this instance's compute spans,
    /// millijoules.
    pub energy_mj_by_node: BTreeMap<String, f64>,
}

impl PathInstance {
    /// End-to-end latency in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.completed.saturating_since(self.origin).as_nanos()
    }

    /// End-to-end latency in milliseconds — the exact arithmetic the live
    /// recorder uses, so values compare bit-exactly.
    pub fn total_ms(&self) -> f64 {
        self.completed.saturating_since(self.origin).as_millis_f64()
    }

    /// Sum of all segment durations — must equal [`PathInstance::total_ns`].
    pub fn components_sum_ns(&self) -> u64 {
        self.segments.iter().map(Segment::dur_ns).sum()
    }

    /// Per-component durations in [`Component::ALL`] order, ns.
    pub fn component_ns(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for seg in &self.segments {
            out[seg.component.idx()] += seg.dur_ns();
        }
        out
    }

    /// Per-node durations, ns.
    pub fn node_ns(&self) -> BTreeMap<&str, u64> {
        let mut out: BTreeMap<&str, u64> = BTreeMap::new();
        for seg in &self.segments {
            *out.entry(seg.node.as_str()).or_insert(0) += seg.dur_ns();
        }
        out
    }

    /// The largest component (ties resolve to the earlier entry of
    /// [`Component::ALL`]).
    pub fn dominant(&self) -> Component {
        let ns = self.component_ns();
        let mut best = Component::Compute;
        for c in Component::ALL {
            if ns[c.idx()] > ns[best.idx()] {
                best = c;
            }
        }
        best
    }

    /// The node blamed for the most time, with its share of the total
    /// (ties resolve to the lexicographically first node).
    pub fn top_node(&self) -> Option<(String, f64)> {
        let total = self.total_ns();
        self.node_ns()
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
            .map(|(n, ns)| (n.to_string(), if total == 0 { 0.0 } else { ns as f64 / total as f64 }))
    }

    /// Total attributed energy, millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy_mj_by_node.values().sum()
    }
}

/// All instances of one path, with the blame summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct PathBlame {
    /// Path name.
    pub name: String,
    /// Terminal node.
    pub sink_node: String,
    /// Anchoring source.
    pub source: Source,
    /// Instances in completion order.
    pub instances: Vec<PathInstance>,
}

impl PathBlame {
    /// End-to-end latency distribution recomputed from the component sums
    /// (ms). Bit-identical to the live recorder's when additivity holds.
    pub fn latency_distribution(&self) -> Distribution {
        self.instances.iter().map(PathInstance::total_ms).collect()
    }

    /// The instance realizing percentile `p` (nearest rank over totals;
    /// ties resolve to the earlier instance). `None` when empty.
    pub fn instance_at_percentile(&self, p: f64) -> Option<&PathInstance> {
        if self.instances.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..self.instances.len()).collect();
        order.sort_by_key(|&i| (self.instances[i].total_ns(), i));
        let rank = (p / 100.0 * (order.len() - 1) as f64).round() as usize;
        Some(&self.instances[order[rank.min(order.len() - 1)]])
    }

    /// Mean share of each component across all instances (duration
    /// weighted), in [`Component::ALL`] order.
    pub fn mean_component_share(&self) -> [f64; 5] {
        let mut ns = [0u64; 5];
        let mut total = 0u64;
        for inst in &self.instances {
            let c = inst.component_ns();
            for i in 0..5 {
                ns[i] += c[i];
            }
            total += inst.total_ns();
        }
        let mut out = [0.0f64; 5];
        if total > 0 {
            for i in 0..5 {
                out[i] = ns[i] as f64 / total as f64;
            }
        }
        out
    }

    /// Mean blame share per node across all instances (duration weighted).
    pub fn mean_node_share(&self) -> BTreeMap<String, f64> {
        let mut ns: BTreeMap<String, u64> = BTreeMap::new();
        let mut total = 0u64;
        for inst in &self.instances {
            for (node, d) in inst.node_ns() {
                *ns.entry(node.to_string()).or_insert(0) += d;
            }
            total += inst.total_ns();
        }
        ns.into_iter()
            .map(|(n, d)| (n, if total == 0 { 0.0 } else { d as f64 / total as f64 }))
            .collect()
    }

    /// A component's share within the instance at percentile `p`.
    pub fn component_share_at(&self, p: f64, component: Component) -> f64 {
        self.instance_at_percentile(p)
            .map(|inst| {
                let total = inst.total_ns();
                if total == 0 {
                    0.0
                } else {
                    inst.component_ns()[component.idx()] as f64 / total as f64
                }
            })
            .unwrap_or(0.0)
    }

    /// How many instances each component dominates, in [`Component::ALL`]
    /// order.
    pub fn dominant_histogram(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for inst in &self.instances {
            out[inst.dominant().idx()] += 1;
        }
        out
    }

    /// Per-edge slack: alignment time by fusion node — how long upstream
    /// data could have been delayed without changing the output, i.e. the
    /// wait for the other modality. Returns `(count, total_ns)` per node.
    pub fn edge_slack(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for inst in &self.instances {
            for seg in &inst.segments {
                if seg.component == Component::Alignment && seg.dur_ns() > 0 {
                    let e = out.entry(seg.node.clone()).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += seg.dur_ns();
                }
            }
        }
        out
    }

    /// Mean attributed energy per instance, by node (mJ).
    pub fn mean_energy_mj_by_node(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for inst in &self.instances {
            for (node, mj) in &inst.energy_mj_by_node {
                *out.entry(node.clone()).or_insert(0.0) += mj;
            }
        }
        let n = self.instances.len().max(1) as f64;
        for v in out.values_mut() {
            *v /= n;
        }
        out
    }
}

/// The full attribution for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameReport {
    /// One entry per spec, in spec order.
    pub paths: Vec<PathBlame>,
}

impl BlameReport {
    /// Looks a path up by name.
    pub fn path(&self, name: &str) -> Option<&PathBlame> {
        self.paths.iter().find(|p| p.name == name)
    }
}

/// Internal flat view of one recorded callback.
struct Cb {
    node_idx: usize,
    topic: String,
    arrival: u64,
    started: u64,
    completed: u64,
    lineage: Vec<(Source, u64)>,
    published: bool,
    publishes: Vec<String>,
}

impl Cb {
    fn stamp_of(&self, source: Source) -> Option<u64> {
        self.lineage.iter().find(|(s, _)| *s == source).map(|&(_, t)| t)
    }

    fn has(&self, source: Source, stamp: u64) -> bool {
        self.stamp_of(source) == Some(stamp)
    }
}

/// Reconstructs every path instance's causal chain and decomposes it.
///
/// Returns an error when a chain cannot be reconstructed (a lineage stamp
/// with no recorded carrier — a broken chain) or when the decomposition
/// of any instance fails to cover its span exactly.
pub fn analyze_blame(data: &TraceData, specs: &[PathSpec]) -> Result<BlameReport, String> {
    // Node name interning: segment attribution stores indexes during the
    // walk and resolves to strings once.
    let mut node_names: Vec<String> = Vec::new();
    let mut node_idx_of: HashMap<String, usize> = HashMap::new();
    let intern = |name: &str, names: &mut Vec<String>, map: &mut HashMap<String, usize>| {
        if let Some(&i) = map.get(name) {
            i
        } else {
            names.push(name.to_string());
            map.insert(name.to_string(), names.len() - 1);
            names.len() - 1
        }
    };

    let mut cbs: Vec<Cb> = Vec::new();
    for event in &data.events {
        if let TraceEvent::Callback {
            node,
            topic,
            arrival,
            started,
            completed,
            lineage,
            published,
        } = event
        {
            cbs.push(Cb {
                node_idx: intern(node, &mut node_names, &mut node_idx_of),
                topic: topic.clone(),
                arrival: arrival.as_nanos(),
                started: started.as_nanos(),
                completed: completed.as_nanos(),
                lineage: lineage.iter().map(|&(s, t)| (s, t.as_nanos())).collect(),
                published: !published.is_empty(),
                publishes: published.clone(),
            });
        }
    }

    // Producer index: (published topic, completion time) → callbacks, in
    // trace order. Delivery is synchronous, so a consumer's arrival time
    // equals its producer's completion time.
    let mut producers: HashMap<(String, u64), Vec<usize>> = HashMap::new();
    for (i, cb) in cbs.iter().enumerate() {
        for topic in &cb.publishes {
            producers.entry((topic.clone(), cb.completed)).or_default().push(i);
        }
    }
    // First carrier of each (node, source, stamp): the callback through
    // which that acquisition first entered the node. Later callbacks of
    // the node may re-publish the stamp from cached state; the first
    // carrier is the cache write the alignment wait is measured from.
    let mut first_carrier: HashMap<(usize, u64, u64), usize> = HashMap::new();
    for (i, cb) in cbs.iter().enumerate() {
        for &(source, stamp) in &cb.lineage {
            first_carrier.entry((cb.node_idx, source.code(), stamp)).or_insert(i);
        }
    }

    let windows = degraded_windows(data);
    let power = node_power_integrals(data);

    let mut paths = Vec::with_capacity(specs.len());
    for spec in specs {
        let Some(&sink_idx) = node_idx_of.get(&spec.sink_node) else {
            paths.push(PathBlame {
                name: spec.name.clone(),
                sink_node: spec.sink_node.clone(),
                source: spec.source,
                instances: Vec::new(),
            });
            continue;
        };
        let mut instances = Vec::new();
        for (i, cb) in cbs.iter().enumerate() {
            if cb.node_idx != sink_idx || !cb.published {
                continue;
            }
            let Some(stamp) = cb.stamp_of(spec.source) else { continue };
            let segments =
                walk_chain(&cbs, &producers, &first_carrier, i, spec.source, stamp, &node_names)
                    .map_err(|e| format!("path {} instance {}: {e}", spec.name, instances.len()))?;
            let mut energy_mj_by_node: BTreeMap<String, f64> = BTreeMap::new();
            for seg in &segments {
                if seg.component == Component::Compute {
                    if let Some(integral) = power.get(&seg.node) {
                        let joules = integral.integral(seg.from.as_nanos(), seg.to.as_nanos());
                        if joules != 0.0 {
                            *energy_mj_by_node.entry(seg.node.clone()).or_insert(0.0) +=
                                joules * 1000.0;
                        }
                    }
                }
            }
            let segments = split_degraded(segments, &windows);
            let instance = PathInstance {
                seq: instances.len(),
                origin: SimTime::from_nanos(stamp),
                completed: SimTime::from_nanos(cb.completed),
                segments,
                energy_mj_by_node,
            };
            if instance.components_sum_ns() != instance.total_ns() {
                return Err(format!(
                    "path {} instance {}: components sum {} ns != total {} ns",
                    spec.name,
                    instance.seq,
                    instance.components_sum_ns(),
                    instance.total_ns()
                ));
            }
            instances.push(instance);
        }
        paths.push(PathBlame {
            name: spec.name.clone(),
            sink_node: spec.sink_node.clone(),
            source: spec.source,
            instances,
        });
    }
    Ok(BlameReport { paths })
}

/// Walks one instance's causal chain backwards from the sink callback,
/// emitting contiguous segments that cover `[stamp, sink completion]`.
fn walk_chain(
    cbs: &[Cb],
    producers: &HashMap<(String, u64), Vec<usize>>,
    first_carrier: &HashMap<(usize, u64, u64), usize>,
    sink: usize,
    source: Source,
    stamp: u64,
    node_names: &[String],
) -> Result<Vec<Segment>, String> {
    let seg = |node_idx: usize, component: Component, from: u64, to: u64| Segment {
        node: node_names[node_idx].clone(),
        component,
        from: SimTime::from_nanos(from),
        to: SimTime::from_nanos(to),
    };
    let mut segs: Vec<Segment> = Vec::new();
    let mut cur = sink;
    for _ in 0..cbs.len() + 1 {
        let c = &cbs[cur];
        segs.push(seg(c.node_idx, Component::Compute, c.started, c.completed));
        // Trigger edge: the message that started this callback carried the
        // stamp — the producer completed exactly at our arrival.
        let trigger = producers
            .get(&(c.topic.clone(), c.arrival))
            .and_then(|v| v.iter().find(|&&p| p != cur && cbs[p].has(source, stamp)))
            .copied();
        if let Some(p) = trigger {
            segs.push(seg(c.node_idx, Component::QueueWait, c.arrival, c.started));
            segs.push(seg(c.node_idx, Component::Transport, cbs[p].completed, c.arrival));
            cur = p;
            continue;
        }
        // Cache edge: the stamp entered this node through an earlier
        // callback (fusion intake) and waited for this trigger.
        let intake = first_carrier
            .get(&(c.node_idx, source.code(), stamp))
            .copied()
            .filter(|&a| a != cur && cbs[a].completed <= c.started);
        if let Some(a) = intake {
            segs.push(seg(c.node_idx, Component::Alignment, cbs[a].completed, c.started));
            cur = a;
            continue;
        }
        // Sensor edge: the raw acquisition published at the stamp.
        if stamp <= c.arrival {
            segs.push(seg(c.node_idx, Component::QueueWait, c.arrival, c.started));
            segs.push(seg(c.node_idx, Component::Transport, stamp, c.arrival));
            segs.reverse();
            // The chain telescopes by construction; verify contiguity so a
            // future indexing bug cannot silently mis-attribute.
            let mut at = stamp;
            for s in &segs {
                if s.from.as_nanos() != at || s.to.as_nanos() < at {
                    return Err(format!(
                        "non-contiguous chain at {} ({} != {at})",
                        s.node,
                        s.from.as_nanos()
                    ));
                }
                at = s.to.as_nanos();
            }
            segs.retain(|s| s.dur_ns() > 0);
            return Ok(segs);
        }
        return Err(format!(
            "broken chain: {} stamp {stamp} ns has no recorded carrier into node {}",
            source.name(),
            node_names[c.node_idx]
        ));
    }
    Err("chain reconstruction did not terminate (cycle in trace)".to_string())
}

/// Fault windows: per-node crash → restart outages and fallback
/// enter → exit episodes, merged into a sorted disjoint union. Open
/// episodes extend to the end of time (the instance end censors them).
fn degraded_windows(data: &TraceData) -> Vec<(u64, u64)> {
    let mut open: BTreeMap<(String, u8), u64> = BTreeMap::new();
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for event in &data.events {
        let TraceEvent::Fault { kind, node, time, .. } = event else { continue };
        let t = time.as_nanos();
        match kind {
            FaultKind::Crash => {
                open.entry((node.clone(), 0)).or_insert(t);
            }
            FaultKind::Restart => {
                if let Some(from) = open.remove(&(node.clone(), 0)) {
                    windows.push((from, t));
                }
            }
            FaultKind::FallbackEnter => {
                open.entry((node.clone(), 1)).or_insert(t);
            }
            FaultKind::FallbackExit => {
                if let Some(from) = open.remove(&(node.clone(), 1)) {
                    windows.push((from, t));
                }
            }
            _ => {}
        }
    }
    for (_, from) in open {
        windows.push((from, u64::MAX));
    }
    windows.sort_unstable();
    // Merge overlaps.
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (from, to) in windows {
        match merged.last_mut() {
            Some((_, end)) if from <= *end => *end = (*end).max(to),
            _ => merged.push((from, to)),
        }
    }
    merged
}

/// Splits segments at fault-window boundaries; portions inside a window
/// become [`Component::Degraded`] (node attribution kept). Exact in
/// integer ns, so additivity is preserved.
fn split_degraded(segments: Vec<Segment>, windows: &[(u64, u64)]) -> Vec<Segment> {
    if windows.is_empty() {
        return segments;
    }
    let mut out = Vec::with_capacity(segments.len());
    for seg in segments {
        let (a, b) = (seg.from.as_nanos(), seg.to.as_nanos());
        let mut at = a;
        for &(wf, wt) in windows {
            if wt <= at || wf >= b {
                continue;
            }
            let from = wf.max(at);
            let to = wt.min(b);
            if from > at {
                out.push(Segment {
                    node: seg.node.clone(),
                    component: seg.component,
                    from: SimTime::from_nanos(at),
                    to: SimTime::from_nanos(from),
                });
            }
            out.push(Segment {
                node: seg.node.clone(),
                component: Component::Degraded,
                from: SimTime::from_nanos(from),
                to: SimTime::from_nanos(to),
            });
            at = to;
        }
        if at < b {
            out.push(Segment {
                node: seg.node.clone(),
                component: seg.component,
                from: SimTime::from_nanos(at),
                to: SimTime::from_nanos(b),
            });
        }
    }
    out
}

/// Per-node attributed power (W): each sampled interval's CPU+GPU power is
/// apportioned by the node's share of total node busy time in that
/// interval — the span-bounded busy integral the energy attribution
/// integrates over.
fn node_power_integrals(data: &TraceData) -> HashMap<String, RateIntegral> {
    let interval = data.sample_interval.as_nanos();
    let mut series: Vec<Vec<(u64, f64)>> = vec![Vec::new(); data.nodes.len()];
    for sample in &data.samples {
        let busy_total: f64 = sample.node_busy_frac.iter().sum();
        let watts = sample.cpu_w + sample.gpu_w;
        for (i, &frac) in sample.node_busy_frac.iter().enumerate() {
            let rate = if busy_total > 0.0 { watts * frac / busy_total } else { 0.0 };
            series[i].push((sample.time.as_nanos(), rate));
        }
    }
    data.nodes
        .iter()
        .zip(series)
        .map(|(node, s)| (node.clone(), RateIntegral::from_samples(&s, interval)))
        .collect()
}

// ---------------------------------------------------------------------------
// Deterministic renderings.

/// Milliseconds with a fixed 6-digit fraction via integer math — byte
/// deterministic with no float formatting.
fn ms_fmt(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
}

/// Seconds with a fixed 9-digit fraction via integer math.
fn sec_fmt(ns: u64) -> String {
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

/// Renders the per-instance decomposition CSV: one row per path instance,
/// byte-deterministic.
pub fn render_blame_csv(report: &BlameReport) -> String {
    let mut out = String::from(
        "path,seq,origin_s,completed_s,total_ms,compute_ms,queue_wait_ms,transport_ms,\
         alignment_ms,degraded_ms,dominant,top_node,top_node_share,energy_mj\n",
    );
    for path in &report.paths {
        for inst in &path.instances {
            let c = inst.component_ns();
            let (top, share) = inst.top_node().unwrap_or(("-".to_string(), 0.0));
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                path.name,
                inst.seq,
                sec_fmt(inst.origin.as_nanos()),
                sec_fmt(inst.completed.as_nanos()),
                ms_fmt(inst.total_ns()),
                ms_fmt(c[0]),
                ms_fmt(c[1]),
                ms_fmt(c[2]),
                ms_fmt(c[3]),
                ms_fmt(c[4]),
                inst.dominant().name(),
                top,
                share,
                inst.energy_mj(),
            );
        }
    }
    out
}

/// Renders the per-path summary CSV — the E-blame study's rows. The
/// optional `label` column carries the sweep point's knobs.
pub fn render_paths_csv(report: &BlameReport, label: &str) -> String {
    let mut out = String::from(
        "label,path,instances,mean_ms,p50_ms,p99_ms,max_ms,queue_share_mean,queue_share_p50,\
         queue_share_p99,align_share_p99,degraded_share_p99,dominant,top_node_p99,\
         top_node_p99_share,top_energy_node,top_energy_mj\n",
    );
    for path in &report.paths {
        let dist = path.latency_distribution();
        let s = dist.summary();
        let shares = path.mean_component_share();
        let hist = path.dominant_histogram();
        let dominant =
            Component::ALL.into_iter().max_by_key(|c| hist[c.idx()]).unwrap_or(Component::Compute);
        let (top_node, top_share) = path
            .instance_at_percentile(99.0)
            .and_then(PathInstance::top_node)
            .unwrap_or(("-".to_string(), 0.0));
        let (energy_node, energy_mj) = path
            .mean_energy_mj_by_node()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap_or(("-".to_string(), 0.0));
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            label,
            path.name,
            path.instances.len(),
            s.mean,
            s.median,
            s.p99,
            s.max,
            shares[Component::QueueWait.idx()],
            path.component_share_at(50.0, Component::QueueWait),
            path.component_share_at(99.0, Component::QueueWait),
            path.component_share_at(99.0, Component::Alignment),
            path.component_share_at(99.0, Component::Degraded),
            dominant.name(),
            top_node,
            top_share,
            energy_node,
            energy_mj,
        );
    }
    out
}

/// Renders a human-readable blame summary for stdout.
pub fn render_blame_summary(report: &BlameReport) -> String {
    let mut out = String::new();
    for path in &report.paths {
        let dist = path.latency_distribution();
        let s = dist.summary();
        let _ = writeln!(
            out,
            "path {} ({} ← {}): n={} mean={:.2} p50={:.2} p99={:.2} max={:.2} ms",
            path.name,
            path.sink_node,
            path.source.name(),
            s.count,
            s.mean,
            s.median,
            s.p99,
            s.max
        );
        if path.instances.is_empty() {
            continue;
        }
        let shares = path.mean_component_share();
        let mut line = String::from("  mean shares:");
        for c in Component::ALL {
            let _ = write!(line, " {} {:.1}%", c.name(), shares[c.idx()] * 100.0);
        }
        let _ = writeln!(out, "{line}");
        for (tag, p) in [("p50", 50.0), ("p99", 99.0), ("max", 100.0)] {
            if let Some(inst) = path.instance_at_percentile(p) {
                let c = inst.component_ns();
                let total = inst.total_ns().max(1);
                let (top, share) = inst.top_node().unwrap_or(("-".to_string(), 0.0));
                let _ = writeln!(
                    out,
                    "  {tag} instance: {:.2} ms — compute {:.1}% queue {:.1}% align {:.1}% \
                     degraded {:.1}%; top blame {} ({:.1}%)",
                    inst.total_ms(),
                    c[0] as f64 / total as f64 * 100.0,
                    c[1] as f64 / total as f64 * 100.0,
                    c[3] as f64 / total as f64 * 100.0,
                    c[4] as f64 / total as f64 * 100.0,
                    top,
                    share * 100.0
                );
            }
        }
        let hist = path.dominant_histogram();
        let mut line = String::from("  dominant histogram:");
        for c in Component::ALL {
            if hist[c.idx()] > 0 {
                let _ = write!(line, " {} {}", c.name(), hist[c.idx()]);
            }
        }
        let _ = writeln!(out, "{line}");
        for (node, (count, ns)) in path.edge_slack() {
            let _ = writeln!(
                out,
                "  slack at {node}: mean {:.2} ms over {count} waits",
                ns as f64 / count.max(1) as f64 / 1e6
            );
        }
        let energy = path.mean_energy_mj_by_node();
        if !energy.is_empty() {
            let mut line = String::from("  energy/frame (mJ):");
            let mut items: Vec<_> = energy.into_iter().collect();
            items.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for (node, mj) in items.into_iter().take(4) {
                let _ = write!(line, " {node} {mj:.1}");
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// Renders the Perfetto-compatible critical-path highlight track: for each
/// path, the p50/p99/max instances' chains as slices on dedicated threads,
/// one slice per segment named `<component>:<node>`. Loads standalone or
/// merged alongside the main trace (distinct pid).
pub fn render_blame_track(run: &str, report: &BlameReport) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{{\"name\":\"blame {}\"}}}}",
        crate::export::escape(run)
    ));
    let mut tid = 0usize;
    for path in &report.paths {
        for (tag, p) in [("p50", 50.0), ("p99", 99.0), ("max", 100.0)] {
            let Some(inst) = path.instance_at_percentile(p) else { continue };
            tid += 1;
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{tid},\"args\":{{\"name\":\"{}:{tag}\"}}}}",
                crate::export::escape(&path.name)
            ));
            for seg in &inst.segments {
                events.push(format!(
                    "{{\"name\":\"{}:{}\",\"cat\":\"blame\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{tid},\"args\":{{\"node\":\"{}\",\"component\":\"{}\",\"instance\":\"{tag}\",\"path\":\"{}\"}}}}",
                    seg.component.name(),
                    crate::export::escape(&seg.node),
                    crate::export::ts_us(seg.from),
                    crate::export::dur_us(seg.to.saturating_since(seg.from)),
                    crate::export::escape(&seg.node),
                    seg.component.name(),
                    crate::export::escape(&path.name),
                ));
            }
        }
    }
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"");
    out.push_str(&crate::export::escape(run));
    out.push_str("\",\"kind\":\"blame_track\"},\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricSample;
    use av_des::SimDuration;

    fn cb(
        node: &str,
        topic: &str,
        arrival_ms: u64,
        started_ms: u64,
        completed_ms: u64,
        lineage: Vec<(Source, u64)>,
        published: Vec<&str>,
    ) -> TraceEvent {
        TraceEvent::Callback {
            node: node.to_string(),
            topic: topic.to_string(),
            arrival: SimTime::from_millis(arrival_ms),
            started: SimTime::from_millis(started_ms),
            completed: SimTime::from_millis(completed_ms),
            lineage: lineage.into_iter().map(|(s, ms)| (s, SimTime::from_millis(ms))).collect(),
            published: published.into_iter().map(str::to_string).collect(),
        }
    }

    fn spec(name: &str, sink: &str, source: Source) -> PathSpec {
        PathSpec::new(name, sink, source)
    }

    /// lidar@100 → filter (wait 10, compute 40) → sink (wait 0, compute 30).
    fn linear_chain() -> TraceData {
        TraceData {
            nodes: vec!["filter".to_string(), "sink".to_string()],
            events: vec![
                cb("filter", "/raw", 100, 110, 150, vec![(Source::Lidar, 100)], vec!["/mid"]),
                cb("sink", "/mid", 150, 150, 180, vec![(Source::Lidar, 100)], vec!["/out"]),
            ],
            ..TraceData::default()
        }
    }

    #[test]
    fn linear_chain_decomposes_exactly() {
        let report = analyze_blame(&linear_chain(), &[spec("p", "sink", Source::Lidar)]).unwrap();
        let path = &report.paths[0];
        assert_eq!(path.instances.len(), 1);
        let inst = &path.instances[0];
        assert_eq!(inst.total_ns(), 80_000_000);
        assert_eq!(inst.components_sum_ns(), inst.total_ns());
        let c = inst.component_ns();
        assert_eq!(c[Component::Compute.idx()], 70_000_000, "40 + 30 ms compute");
        assert_eq!(c[Component::QueueWait.idx()], 10_000_000, "10 ms wait at filter");
        assert_eq!(c[Component::Transport.idx()], 0);
        assert_eq!(c[Component::Alignment.idx()], 0);
        assert_eq!(inst.dominant(), Component::Compute);
        let nodes = inst.node_ns();
        assert_eq!(nodes["filter"], 50_000_000);
        assert_eq!(nodes["sink"], 30_000_000);
        // Node shares sum to the whole.
        assert_eq!(nodes.values().sum::<u64>(), inst.total_ns());
        assert_eq!(inst.total_ms(), 80.0);
    }

    #[test]
    fn fusion_cache_becomes_alignment() {
        // camera@90 → vision publishes objects at 120; fusion caches them
        // (aux callback 120..121), then a lidar trigger at 160 fuses and
        // publishes at 170 with the camera stamp from the cache.
        let data = TraceData {
            nodes: vec!["vision".to_string(), "fusion".to_string()],
            events: vec![
                cb("vision", "/image", 90, 90, 120, vec![(Source::Camera, 90)], vec!["/vobj"]),
                cb("fusion", "/vobj", 120, 120, 121, vec![(Source::Camera, 90)], vec![]),
                cb(
                    "fusion",
                    "/lobj",
                    160,
                    160,
                    170,
                    vec![(Source::Lidar, 150), (Source::Camera, 90)],
                    vec!["/fused"],
                ),
            ],
            ..TraceData::default()
        };
        let report = analyze_blame(&data, &[spec("cam", "fusion", Source::Camera)]).unwrap();
        let inst = &report.paths[0].instances[0];
        assert_eq!(inst.total_ns(), 80_000_000, "90 → 170 ms");
        assert_eq!(inst.components_sum_ns(), inst.total_ns());
        let c = inst.component_ns();
        // vision compute 30 + intake compute 1 + fuse compute 10.
        assert_eq!(c[Component::Compute.idx()], 41_000_000);
        // Cache wait 121 → 160.
        assert_eq!(c[Component::Alignment.idx()], 39_000_000);
        let slack = report.paths[0].edge_slack();
        assert_eq!(slack["fusion"], (1, 39_000_000));
    }

    #[test]
    fn missing_carrier_is_a_broken_chain() {
        // Sink claims a camera stamp that never entered through any
        // recorded callback.
        let data = TraceData {
            nodes: vec!["sink".to_string()],
            events: vec![cb(
                "sink",
                "/in",
                200,
                200,
                210,
                vec![(Source::Camera, 50)],
                vec!["/out"],
            )],
            ..TraceData::default()
        };
        // The sensor edge rescues stamp <= arrival... stamp 50 < arrival
        // 200 means the sensor published at 50 but nothing carried it —
        // still attributable as sensor transport. A stamp *after* the
        // arrival is impossible and must error.
        let ok = analyze_blame(&data, &[spec("cam", "sink", Source::Camera)]).unwrap();
        assert_eq!(ok.paths[0].instances.len(), 1);
        let data_bad = TraceData {
            nodes: vec!["sink".to_string()],
            events: vec![cb(
                "sink",
                "/in",
                200,
                200,
                210,
                vec![(Source::Camera, 205)],
                vec!["/out"],
            )],
            ..TraceData::default()
        };
        assert!(analyze_blame(&data_bad, &[spec("cam", "sink", Source::Camera)]).is_err());
    }

    #[test]
    fn fault_window_reclassifies_as_degraded() {
        let mut data = linear_chain();
        data.events.insert(
            0,
            TraceEvent::Fault {
                kind: FaultKind::Crash,
                node: "other".to_string(),
                info: String::new(),
                time: SimTime::from_millis(120),
            },
        );
        data.events.push(TraceEvent::Fault {
            kind: FaultKind::Restart,
            node: "other".to_string(),
            info: String::new(),
            time: SimTime::from_millis(160),
        });
        let report = analyze_blame(&data, &[spec("p", "sink", Source::Lidar)]).unwrap();
        let inst = &report.paths[0].instances[0];
        assert_eq!(inst.components_sum_ns(), inst.total_ns(), "split keeps additivity");
        let c = inst.component_ns();
        assert_eq!(c[Component::Degraded.idx()], 40_000_000, "120 → 160 ms window");
        // 30 ms of filter compute + 10 of sink compute reclassified.
        assert_eq!(c[Component::Compute.idx()], 30_000_000);
    }

    #[test]
    fn energy_attribution_integrates_power_over_compute_spans() {
        let mut data = linear_chain();
        data.sample_interval = SimDuration::from_millis(100);
        // One interval (100, 200] ms: 10 W total, filter busy 0.4 of it,
        // sink 0.1 → filter gets 8 W, sink 2 W while executing.
        data.samples = vec![MetricSample {
            time: SimTime::from_millis(200),
            queue_depths: vec![],
            node_busy_frac: vec![0.4, 0.1],
            cpu_util: 0.5,
            gpu_util: 0.0,
            cpu_w: 10.0,
            gpu_w: 0.0,
        }];
        let report = analyze_blame(&data, &[spec("p", "sink", Source::Lidar)]).unwrap();
        let inst = &report.paths[0].instances[0];
        // filter computes 40 ms at 8 W = 320 mJ; sink 30 ms at 2 W = 60 mJ.
        assert!((inst.energy_mj_by_node["filter"] - 320.0).abs() < 1e-9);
        assert!((inst.energy_mj_by_node["sink"] - 60.0).abs() < 1e-9);
        assert!((inst.energy_mj() - 380.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_instances_and_histogram() {
        let mut events = Vec::new();
        // 10 instances with totals 10, 20, ..., 100 ms; the largest is
        // queue-dominated, the rest compute-dominated.
        for i in 0..10u64 {
            let stamp = 1000 * i;
            let wait = if i == 9 { 80 } else { 2 };
            events.push(cb(
                "sink",
                "/raw",
                stamp,
                stamp + wait,
                stamp + 10 * (i + 1),
                vec![(Source::Lidar, stamp)],
                vec!["/out"],
            ));
        }
        let data = TraceData { nodes: vec!["sink".to_string()], events, ..TraceData::default() };
        let report = analyze_blame(&data, &[spec("p", "sink", Source::Lidar)]).unwrap();
        let path = &report.paths[0];
        let p50 = path.instance_at_percentile(50.0).unwrap();
        let p99 = path.instance_at_percentile(99.0).unwrap();
        assert!(p50.total_ns() < p99.total_ns());
        assert_eq!(p99.total_ns(), 100_000_000);
        assert_eq!(p99.dominant(), Component::QueueWait);
        let hist = path.dominant_histogram();
        assert_eq!(hist[Component::Compute.idx()], 9);
        assert_eq!(hist[Component::QueueWait.idx()], 1);
        // The tail's queue share exceeds the median's: the Finding-1 shape.
        assert!(
            path.component_share_at(99.0, Component::QueueWait)
                > path.component_share_at(50.0, Component::QueueWait)
        );
        // The distribution recomputed from components matches the raw
        // latencies bit-exactly.
        let d = path.latency_distribution();
        assert_eq!(d.summary().max, 100.0);
    }

    #[test]
    fn chrome_roundtrip_preserves_blame_bytes() {
        let mut data = linear_chain();
        data.sample_interval = SimDuration::from_millis(100);
        data.subscriptions = vec![("/raw".to_string(), "filter".to_string())];
        data.samples = vec![MetricSample {
            time: SimTime::from_millis(200),
            queue_depths: vec![1],
            node_busy_frac: vec![0.4, 0.1],
            cpu_util: 0.5,
            gpu_util: 0.25,
            cpu_w: 10.0,
            gpu_w: 2.5,
        }];
        data.events.push(TraceEvent::Fault {
            kind: FaultKind::Crash,
            node: "other".to_string(),
            info: "x".to_string(),
            time: SimTime::from_millis(500),
        });
        let rebuilt = crate::export::tests::round_trip(&data);
        assert_eq!(rebuilt, data);
        let specs = [spec("p", "sink", Source::Lidar)];
        let direct = analyze_blame(&data, &specs).unwrap();
        let roundtrip = analyze_blame(&rebuilt, &specs).unwrap();
        assert_eq!(render_blame_csv(&direct), render_blame_csv(&roundtrip));
        assert_eq!(render_blame_track("t", &direct), render_blame_track("t", &roundtrip));
        assert_eq!(render_paths_csv(&direct, "l"), render_paths_csv(&roundtrip, "l"));
    }

    #[test]
    fn renders_are_deterministic_and_parse() {
        let report = analyze_blame(&linear_chain(), &[spec("p", "sink", Source::Lidar)]).unwrap();
        let csv = render_blame_csv(&report);
        assert_eq!(csv, render_blame_csv(&report));
        assert!(csv.starts_with("path,seq,origin_s"));
        assert!(csv.contains("p,0,0.100000000,0.180000000,80.000000,70.000000,10.000000"));
        let track = render_blame_track("run", &report);
        crate::json::parse(&track).expect("track is valid JSON");
        assert!(track.contains("\"compute:sink\""));
        let summary = render_blame_summary(&report);
        assert!(summary.contains("path p"));
    }
}
