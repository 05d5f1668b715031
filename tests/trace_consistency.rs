//! Cross-checks between the `av-trace` event timeline and the live
//! measurement layers: the trace must agree *exactly* — not approximately
//! — with the latency recorder, the bus drop counters, and itself after a
//! round-trip through the exported Chrome-trace JSON.

use av_core::fault::FaultPlan;
use av_core::stack::{computation_paths, run_drive, RunConfig, SchedPolicyKind, StackConfig};
use av_trace::analysis::analyze_trace;
use av_trace::export::{render_chrome_trace, render_metrics_csv, trace_from_chrome};
use av_trace::{json, TraceData, TraceEvent};
use av_vision::DetectorKind;
use std::collections::BTreeMap;

/// `trace` rendered to Chrome JSON and read back.
fn read_back(trace: &TraceData) -> TraceData {
    let doc = json::parse(&render_chrome_trace("consistency", trace)).expect("export parses");
    trace_from_chrome(&doc).expect("export reads back")
}

/// One traced drive, shared by every check in this file. SSD512 is the
/// paper's heaviest detector: it is the configuration whose camera queue
/// actually overflows, which keeps the drop cross-checks non-vacuous.
fn traced_run() -> av_core::stack::RunReport {
    let config = StackConfig::smoke_test(DetectorKind::Ssd512);
    run_drive(&config, &RunConfig::seconds(10.0).with_trace())
}

/// Queue depth per subscription at end of run, replayed from the events:
/// every queue event carries the depth *after* its operation, so the last
/// event per subscription is the residual occupancy.
fn residual_depths(trace: &TraceData) -> BTreeMap<(String, String), u64> {
    let mut depths = BTreeMap::new();
    for event in &trace.events {
        match event {
            TraceEvent::Enqueued { topic, node, depth, .. }
            | TraceEvent::Dequeued { topic, node, depth, .. }
            | TraceEvent::Dropped { topic, node, depth, .. } => {
                depths.insert((topic.clone(), node.clone()), *depth as u64);
            }
            TraceEvent::Callback { .. }
            | TraceEvent::Fault { .. }
            | TraceEvent::SchedDecision { .. } => {}
        }
    }
    depths
}

#[test]
fn trace_agrees_with_live_recorder_and_bus_counters() {
    let report = traced_run();
    let trace = report.trace.as_ref().expect("run was traced");

    // --- Satellite check: every observer drop callback is one bus drop. ---
    let bus_dropped: u64 = report.drops.iter().map(|d| d.dropped).sum();
    assert!(bus_dropped > 0, "SSD512 must overflow the camera queue or this test is vacuous");
    assert_eq!(
        trace.dropped_total(),
        bus_dropped,
        "total message_dropped callbacks must equal the summed Bus drop counters"
    );
    // And per subscription, against both the bus and the latency recorder.
    let bus_by_sub: BTreeMap<(String, String), u64> = report
        .drops
        .iter()
        .filter(|d| d.dropped > 0)
        .map(|d| ((d.topic.clone(), d.node.clone()), d.dropped))
        .collect();
    assert_eq!(trace.drop_counts(), bus_by_sub);
    let recorder_by_sub: BTreeMap<(String, String), u64> =
        report.recorder.observed_drops().iter().map(|(k, &v)| (k.clone(), v)).collect();
    assert_eq!(trace.drop_counts(), recorder_by_sub);

    // --- Queue-event conservation: enqueues = dequeues + drops + residual. ---
    let mut enq = 0u64;
    let mut deq = 0u64;
    let mut dropped = 0u64;
    for event in &trace.events {
        match event {
            TraceEvent::Enqueued { .. } => enq += 1,
            TraceEvent::Dequeued { .. } => deq += 1,
            TraceEvent::Dropped { .. } => dropped += 1,
            TraceEvent::Callback { .. }
            | TraceEvent::Fault { .. }
            | TraceEvent::SchedDecision { .. } => {}
        }
    }
    let residual: u64 = residual_depths(trace).values().sum();
    assert!(enq > 0, "a contended run must queue messages");
    assert_eq!(enq, deq + dropped + residual, "queue events must conserve messages");

    // --- Round-trip: read the exported JSON back, recompute the tables. ---
    let rehydrated = read_back(trace);
    assert!(rehydrated == *trace, "the export reads back exactly");
    let recomputed = analyze_trace(&rehydrated, &computation_paths());

    assert_eq!(recomputed.callbacks, trace.callback_count());
    assert_eq!(recomputed.drops, recorder_by_sub, "drops survive the JSON round-trip");

    // Fig 6 paths: bit-identical sample vectors, hence identical means.
    for path in &recomputed.paths {
        let name = &path.name;
        let live = report
            .recorder
            .path_latencies(name)
            .unwrap_or_else(|| panic!("live recorder missing path {name}"));
        assert_eq!(path.latency.samples(), live.samples(), "path {name} samples");
        assert!(path.latency.summary().count > 0, "path {name} must have samples");
        assert_eq!(path.latency.summary().mean.to_bits(), live.summary().mean.to_bits());
        assert!(path.verdict.is_ok(), "path {name} verdict {}", path.verdict.describe());
    }

    // Fig 5 nodes: same node set, bit-identical processing latencies.
    let mut live_nodes = report.recorder.nodes();
    live_nodes.sort();
    assert_eq!(recomputed.nodes.keys().cloned().collect::<Vec<_>>(), live_nodes);
    for (node, dist) in &recomputed.nodes {
        let live = report.recorder.node_latencies(node).expect("node known to recorder");
        assert_eq!(dist.samples(), live.samples(), "node {node} samples");
    }
}

/// The reader inverts the exporter on every kind of run: clean FIFO,
/// EDF (sched decisions and the policy header), crashes with the fallback
/// localizer (a backlog emptied without queue events) and deep queues
/// that overflow (enqueue past capacity, then drop).
#[test]
fn export_reads_back_exactly_on_four_drives() {
    let clean = StackConfig::smoke_test(DetectorKind::YoloV3);
    let mut edf = StackConfig::smoke_test(DetectorKind::Ssd512);
    edf.sched_policy = SchedPolicyKind::Edf;
    let mut crash = StackConfig::smoke_test(DetectorKind::Ssd512);
    crash.queue_capacity = 3;
    crash.faults = FaultPlan::parse("crash:ndt_matching@3+crash:vision_detection@3").unwrap();
    let mut drops = StackConfig::smoke_test(DetectorKind::Ssd512);
    drops.queue_capacity = 3;
    let traces: Vec<TraceData> = [clean, edf, crash, drops]
        .iter()
        .map(|config| run_drive(config, &RunConfig::seconds(8.0).with_trace()).trace.unwrap())
        .collect();
    for (drive, trace) in traces.iter().enumerate() {
        // `assert!`, not `assert_eq!`: a mismatch would print two
        // thousand-event traces.
        assert!(read_back(trace) == *trace, "drive {drive}: the export reads back exactly");
    }
    let [clean, edf, crash, drops] = &traces[..] else { unreachable!() };
    assert!(clean.policy.is_none() && clean.sched_decision_count() == 0);
    assert!(edf.policy.is_some() && edf.sched_decision_count() > 0, "EDF must make choices");
    let faults = crash.fault_counts();
    assert!(faults.keys().any(|(kind, _)| kind == "fallback_enter"), "{faults:?}");
    // The vision crash empties a backlog, so the reader must zero it.
    let lost = |e: &TraceEvent| matches!(e, TraceEvent::Fault { info, .. } if info == "lost=2");
    assert!(crash.events.iter().any(lost), "a crash must discard queued input");
    assert!(drops.dropped_total() > 0, "deep queues must still overflow");
    assert!(drops.events.iter().any(|e| matches!(e, TraceEvent::Enqueued { depth: 4, .. })));
}

#[test]
fn exports_are_deterministic_and_sampler_is_read_only() {
    let report_a = traced_run();
    let report_b = traced_run();
    let trace_a = report_a.trace.as_ref().unwrap();
    let trace_b = report_b.trace.as_ref().unwrap();

    // Identical configuration → byte-identical artifacts.
    assert_eq!(
        render_chrome_trace("det", trace_a),
        render_chrome_trace("det", trace_b),
        "trace JSON must be byte-identical across reruns"
    );
    assert_eq!(
        render_metrics_csv(trace_a),
        render_metrics_csv(trace_b),
        "metrics CSV must be byte-identical across reruns"
    );

    // The metrics sampler covers the whole drive at the configured cadence.
    assert_eq!(trace_a.sample_interval.as_millis_f64(), 100.0);
    assert_eq!(trace_a.samples.len(), 100, "10 s at 10 Hz");
    for sample in &trace_a.samples {
        assert!((0.0..=1.0).contains(&sample.cpu_util), "cpu_util {}", sample.cpu_util);
        assert!((0.0..=1.0).contains(&sample.gpu_util), "gpu_util {}", sample.gpu_util);
        assert!(sample.cpu_w > 0.0);
        assert!(sample.gpu_w > 0.0);
        assert_eq!(sample.queue_depths.len(), trace_a.subscriptions.len());
        assert_eq!(sample.node_busy_frac.len(), trace_a.nodes.len());
        for &frac in &sample.node_busy_frac {
            assert!((0.0..=1.0 + 1e-9).contains(&frac), "busy fraction {frac}");
        }
    }
    // Something actually executed: cumulative busy fraction is nonzero.
    let total_busy: f64 = trace_a.samples.iter().flat_map(|s| s.node_busy_frac.iter()).sum();
    assert!(total_busy > 0.0);

    // Tracing must not perturb the run: an untraced drive of the same
    // configuration produces identical measurements.
    let untraced =
        run_drive(&StackConfig::smoke_test(DetectorKind::Ssd512), &RunConfig::seconds(10.0));
    assert_eq!(untraced.elapsed, report_a.elapsed);
    assert_eq!(untraced.localization_error_m.to_bits(), report_a.localization_error_m.to_bits());
    assert_eq!(untraced.cpu.tasks_completed, report_a.cpu.tasks_completed);
    assert_eq!(untraced.gpu.total_energy_j.to_bits(), report_a.gpu.total_energy_j.to_bits());
    let drops_a: Vec<(String, String, u64, u64)> = report_a
        .drops
        .iter()
        .map(|d| (d.topic.clone(), d.node.clone(), d.delivered, d.dropped))
        .collect();
    let drops_u: Vec<(String, String, u64, u64)> = untraced
        .drops
        .iter()
        .map(|d| (d.topic.clone(), d.node.clone(), d.delivered, d.dropped))
        .collect();
    assert_eq!(drops_a, drops_u, "tracing must not change delivery/drop counters");
}
