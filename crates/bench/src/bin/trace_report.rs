//! `trace_report` — recomputes the paper's tables from a trace file alone.
//!
//! ```text
//! usage: trace_report <trace.json> [--paths-csv <out.csv>]  # analyze a trace
//!        trace_report --verify [--duration <s>] [--detector <name>]
//! ```
//!
//! File mode loads a Chrome trace written by `repro --trace` (or the
//! `trace_capture` example) and reprints the Fig 6 path latencies, the
//! Fig 5 per-node processing latencies, and the Table III drop counts —
//! all derived purely from the trace events, without access to the run.
//!
//! `--verify` is the internal consistency oracle: it runs one traced
//! drive, renders the trace to JSON, reads it back (the read-back trace
//! must equal the recorded one), recomputes the same quantities, and
//! asserts **exact** (bit-level, not epsilon) agreement with what the
//! live `LatencyRecorder` and the bus drop counters measured. Any
//! disagreement exits nonzero.

use av_bench::cli::{self, Args};
use av_bench::paper_config;
use av_core::stack::{computation_paths, run_drive, RunConfig};
use av_profiling::Table;
use av_trace::analysis::{analyze_trace, TraceReport};
use av_trace::export::{render_chrome_trace, trace_from_chrome};
use av_trace::json;
use av_vision::DetectorKind;

const USAGE: &str = "\
usage: trace_report <trace.json> [--paths-csv <out.csv>]  # analyze a trace
       trace_report --verify [--duration <s>] [--detector <name>]";

fn path_table(report: &TraceReport) -> Table {
    let mut table =
        Table::with_headers(&["Path", "Verdict", "Count", "Mean (ms)", "p99 (ms)", "Max (ms)"]);
    for path in &report.paths {
        let s = path.latency.summary();
        table.add_row(vec![
            path.name.clone(),
            path.verdict.describe(),
            s.count.to_string(),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.p99),
            format!("{:.2}", s.max),
        ]);
    }
    table
}

fn node_table(report: &TraceReport) -> Table {
    let mut table = Table::with_headers(&["Node", "Count", "Mean (ms)", "p99 (ms)", "Max (ms)"]);
    for (name, dist) in &report.nodes {
        let s = dist.summary();
        table.add_row(vec![
            name.clone(),
            s.count.to_string(),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.p99),
            format!("{:.2}", s.max),
        ]);
    }
    table
}

fn drop_table(report: &TraceReport) -> Table {
    let mut table = Table::with_headers(&["Topic", "Node", "Dropped"]);
    for ((topic, node), count) in &report.drops {
        table.add_row(vec![topic.clone(), node.clone(), count.to_string()]);
    }
    table
}

/// Per-path CSV for the E-sched study: one row per computation path with
/// the deadline-miss fraction against the paper's 100 ms budget. The
/// `policy` column comes from the trace's own header (`fifo` when the
/// run predates or omits scheduling policies).
fn render_paths_csv(report: &TraceReport) -> String {
    use std::fmt::Write as _;
    let policy = report.policy.as_deref().unwrap_or("fifo");
    let mut out = String::from("policy,path,count,p50_ms,p99_ms,max_ms,miss_frac\n");
    for path in &report.paths {
        let d = &path.latency;
        let _ = writeln!(
            out,
            "{},{},{},{:.3},{:.3},{:.3},{:.4}",
            policy,
            path.name,
            d.samples().len(),
            d.percentile(50.0),
            d.percentile(99.0),
            d.summary().max,
            d.fraction_above(av_core::metrics::DEADLINE_MS),
        );
    }
    out
}

fn print_report(title: &str, report: &TraceReport) {
    println!("# Trace report — {title}\n");
    println!("callback slices: {}\n", report.callbacks);
    if let Some(policy) = &report.policy {
        println!("sched policy: {policy} ({} decision events)\n", report.sched_decisions);
    }
    println!("## Fig 6 — end-to-end path latency (from trace)\n");
    println!("{}", path_table(report));
    println!("## Fig 5 — node processing latency (from trace)\n");
    println!("{}", node_table(report));
    println!("## Table III — dropped messages (from trace)\n");
    if report.drops.is_empty() {
        println!("(no drops recorded)\n");
    } else {
        println!("{}", drop_table(report));
    }
}

fn analyze_file(path: &str, paths_csv: Option<&str>) {
    let report = analyze_trace(&cli::read_trace(path), &computation_paths());
    print_report(path, &report);
    if let Some(out) = paths_csv {
        cli::write(out, render_paths_csv(&report));
        println!("paths csv: {out}");
    }
    let broken: Vec<&av_trace::analysis::PathReport> =
        report.paths.iter().filter(|p| !p.verdict.is_ok()).collect();
    if !broken.is_empty() {
        for p in &broken {
            eprintln!("path {}: {}", p.name, p.verdict.describe());
        }
        eprintln!("{} path(s) not fully anchored", broken.len());
        std::process::exit(1);
    }
    // A trace carrying scheduler decisions must also name the policy in
    // its run header — anonymous reordering is as loud as missing
    // lineage, not something to silently accept.
    if !report.sched_header_consistent() {
        eprintln!(
            "trace has {} sched-decision event(s) but no sched_policy run header",
            report.sched_decisions
        );
        std::process::exit(1);
    }
}

fn verify(duration_s: f64, detector: DetectorKind) {
    eprintln!("verify: running a traced {duration_s:.0} s drive with {detector}...");
    let config = paper_config(detector);
    let run = RunConfig::seconds(duration_s).with_trace();
    let live = run_drive(&config, &run);
    let trace = live.trace.as_ref().expect("traced run without trace data");

    // Round-trip through the exported bytes: the analysis must see exactly
    // what an external tool would.
    let rendered = render_chrome_trace(detector.name(), trace);
    let doc = json::parse(&rendered).expect("exported trace must parse");
    let rehydrated = trace_from_chrome(&doc).expect("exported trace must read back");
    let recomputed = analyze_trace(&rehydrated, &computation_paths());

    let mut failures = 0;
    let mut check = |label: String, ok: bool| {
        if ok {
            println!("  ok: {label}");
        } else {
            println!("  MISMATCH: {label}");
            failures += 1;
        }
    };

    // The reader is the exact inverse of the exporter: every event,
    // sample and header field (sched policy included) comes back as
    // recorded.
    check(
        format!(
            "trace reads back from its export exactly ({} events, policy {})",
            trace.events.len(),
            trace.policy.as_deref().unwrap_or("fifo, omitted")
        ),
        rehydrated == *trace,
    );

    // Fig 6: every path's sample vector must match the live recorder
    // bit-for-bit (hence so do mean, p99, ... — summaries are pure
    // functions of the samples).
    for path in &recomputed.paths {
        let name = &path.name;
        let live_samples =
            live.recorder.path_latencies(name).map(|d| d.samples().to_vec()).unwrap_or_default();
        check(
            format!(
                "path {name}: {} samples, mean {:.3} ms",
                live_samples.len(),
                path.latency.summary().mean
            ),
            path.latency.samples() == live_samples.as_slice(),
        );
        // A silently-empty path (missing lineage source) fails loudly.
        check(format!("path {name}: verdict {}", path.verdict.describe()), path.verdict.is_ok());
    }

    // Fig 5: per-node processing latencies.
    for node in live.recorder.nodes() {
        let live_samples =
            live.recorder.node_latencies(&node).map(|d| d.samples().to_vec()).unwrap_or_default();
        let from_trace =
            recomputed.nodes.get(&node).map(|d| d.samples().to_vec()).unwrap_or_default();
        check(format!("node {node}: {} samples", live_samples.len()), from_trace == live_samples);
    }
    check(
        "node set matches".to_string(),
        recomputed.nodes.keys().cloned().collect::<Vec<_>>() == {
            let mut n = live.recorder.nodes();
            n.sort();
            n
        },
    );

    // Table III: trace drop instants vs the recorder's observed drops and
    // the bus's own subscription counters.
    let observed: std::collections::BTreeMap<(String, String), u64> =
        live.recorder.observed_drops().iter().map(|(k, &v)| (k.clone(), v)).collect();
    check(
        format!("drop counts per subscription ({} dropping subscriptions)", observed.len()),
        recomputed.drops == observed,
    );
    let bus_dropped: u64 = live.drops.iter().map(|d| d.dropped).sum();
    let trace_dropped: u64 = recomputed.drops.values().sum();
    check(
        format!("total drops: trace {trace_dropped} == bus counters {bus_dropped}"),
        trace_dropped == bus_dropped,
    );

    // Decision events must never appear without the policy header (the
    // read-back check above already covers both surviving the export).
    check(
        format!("sched decisions ({}) only under a declared policy", recomputed.sched_decisions),
        recomputed.sched_header_consistent(),
    );

    println!();
    print_report(&format!("{detector} ({duration_s:.0} s verify run)"), &recomputed);
    if failures > 0 {
        eprintln!("verify FAILED: {failures} mismatch(es)");
        std::process::exit(1);
    }
    println!("verify passed: trace-derived tables match the live recorder exactly");
}

fn main() {
    let mut file: Option<String> = None;
    let mut do_verify = false;
    let mut duration_s = 10.0;
    let mut detector = DetectorKind::Ssd512;
    let mut paths_csv: Option<String> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verify" => do_verify = true,
            "--paths-csv" => paths_csv = Some(args.value()),
            "--duration" => duration_s = args.parse(),
            "--detector" => detector = args.parse_with(DetectorKind::parse),
            other if !other.starts_with('-') && file.is_none() => file = Some(arg),
            other => args.unknown(other),
        }
    }
    match (file, do_verify) {
        (Some(path), false) => analyze_file(&path, paths_csv.as_deref()),
        (None, true) => verify(duration_s, detector),
        (Some(_), true) => args.fail("--verify runs its own drive; do not also pass a trace file"),
        (None, false) => args.fail("a trace file or --verify is required"),
    }
}
