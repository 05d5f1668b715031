//! `blame_report` — critical-path extraction and blame attribution from a
//! trace file alone.
//!
//! ```text
//! usage: blame_report <trace.json> [--csv <out>] [--paths-csv <out>] [--label <l>]
//!                     [--track <out>]
//!        blame_report --verify [--duration <s>] [--detector <name>]
//! ```
//!
//! File mode loads a Chrome trace written by `repro --trace` (or `sweep
//! --trace`), reconstructs every computation path's causal chain, and
//! prints the blame summary: per-instance latency decomposed into
//! compute / queue-wait / transport / alignment / degraded, tail-instance
//! blame by node, edge slack, and attributed energy per frame. `--csv`
//! writes the per-instance decomposition, `--paths-csv` the per-path
//! summary rows (with `--label` filling the label column), `--track` the
//! Perfetto critical-path highlight track.
//!
//! `--verify` is the attribution oracle: it runs one clean and one
//! crash-faulted traced drive and asserts, for every path instance, that
//! the components sum **exactly** (integer nanoseconds, no epsilon) to the
//! recorded end-to-end latency, that blame shares sum to 1, that the
//! blame-derived latency distribution reproduces the live recorder's
//! samples bit-for-bit (hence p50/p99/max), and that the whole attribution
//! survives a Chrome-JSON round trip byte-identically. Any disagreement
//! exits nonzero.

use av_bench::cli::{self, Args};
use av_bench::paper_config;
use av_core::fault::FaultPlan;
use av_core::stack::{computation_paths, run_drive, RunConfig, StackConfig};
use av_trace::blame::{
    analyze_blame, render_blame_csv, render_blame_summary, render_blame_track, render_paths_csv,
    BlameReport,
};
use av_trace::export::{render_chrome_trace, trace_from_chrome};
use av_trace::json;
use av_vision::DetectorKind;

const USAGE: &str = "\
usage: blame_report <trace.json> [--csv <out>] [--paths-csv <out>] [--label <l>]
                    [--track <out>]
       blame_report --verify [--duration <s>] [--detector <name>]";

struct FileOpts {
    csv: Option<String>,
    paths_csv: Option<String>,
    label: String,
    track: Option<String>,
}

fn analyze_file(path: &str, opts: &FileOpts) {
    let report = analyze_blame(&cli::read_trace(path), &computation_paths()).unwrap_or_else(|e| {
        eprintln!("blame attribution failed: {e}");
        std::process::exit(1);
    });
    println!("# Blame report — {path}\n");
    print!("{}", render_blame_summary(&report));
    if let Some(out) = &opts.csv {
        cli::write(out, render_blame_csv(&report));
        eprintln!("wrote {out}");
    }
    if let Some(out) = &opts.paths_csv {
        cli::write(out, render_paths_csv(&report, &opts.label));
        eprintln!("wrote {out}");
    }
    if let Some(out) = &opts.track {
        // Label by file name, not path: the track bytes must not depend
        // on which directory the trace was read from.
        let run =
            std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        cli::write(out, render_blame_track(run, &report));
        eprintln!("wrote {out}");
    }
}

/// One verified attribution: the run's label, the live report, and the
/// blame computed from its trace.
fn verify_run(
    label: &str,
    config: &StackConfig,
    duration_s: f64,
    failures: &mut usize,
) -> BlameReport {
    eprintln!("verify: running a traced {duration_s:.0} s {label} drive...");
    let live = run_drive(config, &RunConfig::seconds(duration_s).with_trace());
    let trace = live.trace.as_ref().expect("traced run without trace data");
    let blame = analyze_blame(trace, &computation_paths()).unwrap_or_else(|e| {
        eprintln!("  FAIL: {label}: blame attribution failed: {e}");
        std::process::exit(1);
    });

    let mut check = |what: String, ok: bool| {
        if ok {
            println!("  ok: {label}: {what}");
        } else {
            println!("  MISMATCH: {label}: {what}");
            *failures += 1;
        }
    };

    for path in &blame.paths {
        let name = &path.name;
        // Exact additivity: integer nanoseconds, every instance.
        let broken =
            path.instances.iter().filter(|i| i.components_sum_ns() != i.total_ns()).count();
        check(
            format!("path {name}: components sum to e2e on all {} instances", path.instances.len()),
            broken == 0,
        );
        // Node blame covers the whole instance too.
        let uncovered = path
            .instances
            .iter()
            .filter(|i| i.node_ns().values().sum::<u64>() != i.total_ns())
            .count();
        check(format!("path {name}: node blame covers every instance"), uncovered == 0);
        // The blame-side latency distribution is the recorder's, bit-exact.
        let live_samples =
            live.recorder.path_latencies(name).map(|d| d.samples().to_vec()).unwrap_or_default();
        let dist = path.latency_distribution();
        check(
            format!("path {name}: {} samples match the live recorder", live_samples.len()),
            dist.samples() == live_samples.as_slice(),
        );
        let (live_p99, blame_p99) = (
            live.recorder.path_latencies(name).map(|d| d.summary().p99).unwrap_or(0.0),
            dist.summary().p99,
        );
        check(
            format!("path {name}: p99 {blame_p99:.3} ms reproduced exactly"),
            blame_p99 == live_p99,
        );
        // Attributed energy is finite and non-negative.
        check(
            format!("path {name}: attributed energy finite"),
            path.instances.iter().all(|i| i.energy_mj().is_finite() && i.energy_mj() >= 0.0),
        );
    }

    // Byte-determinism across the Chrome round trip: an external tool
    // reading the exported JSON must reproduce the attribution exactly.
    let rendered = render_chrome_trace(label, trace);
    let doc = json::parse(&rendered).expect("exported trace must parse");
    let rehydrated = trace_from_chrome(&doc).expect("exported trace must rehydrate");
    let reblamed =
        analyze_blame(&rehydrated, &computation_paths()).expect("rehydrated trace blames");
    check(
        "blame CSV is byte-identical across the Chrome round trip".to_string(),
        render_blame_csv(&blame) == render_blame_csv(&reblamed),
    );
    check(
        "blame track is byte-identical across the Chrome round trip".to_string(),
        render_blame_track(label, &blame) == render_blame_track(label, &reblamed),
    );
    blame
}

fn verify(duration_s: f64, detector: DetectorKind) {
    let mut failures = 0usize;
    let clean = paper_config(detector);
    let blame = verify_run("clean", &clean, duration_s, &mut failures);

    let mut faulted = paper_config(detector);
    faulted.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
    let fault_blame = verify_run("crash-faulted", &faulted, duration_s, &mut failures);
    // The crash must surface as degraded blame somewhere, not silently
    // vanish from the attribution.
    let degraded: u64 = fault_blame
        .paths
        .iter()
        .flat_map(|p| &p.instances)
        .map(|i| i.component_ns()[av_trace::blame::Component::Degraded.idx()])
        .sum();
    if degraded == 0 {
        println!("  MISMATCH: crash-faulted: no degraded time attributed");
        failures += 1;
    } else {
        println!("  ok: crash-faulted: {degraded} ns attributed as degraded");
    }

    println!();
    print!("{}", render_blame_summary(&blame));
    if failures > 0 {
        eprintln!("blame verify FAILED: {failures} mismatch(es)");
        std::process::exit(1);
    }
    println!("blame verify passed: attribution is exact, additive, and byte-stable");
}

fn main() {
    let mut file: Option<String> = None;
    let mut do_verify = false;
    let mut duration_s = 10.0;
    let mut detector = DetectorKind::Ssd512;
    let mut opts = FileOpts { csv: None, paths_csv: None, label: "trace".to_string(), track: None };
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verify" => do_verify = true,
            "--duration" => duration_s = args.parse(),
            "--detector" => detector = args.parse_with(DetectorKind::parse),
            "--csv" => opts.csv = Some(args.value()),
            "--paths-csv" => opts.paths_csv = Some(args.value()),
            "--label" => opts.label = args.value(),
            "--track" => opts.track = Some(args.value()),
            other if !other.starts_with('-') && file.is_none() => file = Some(arg),
            other => args.unknown(other),
        }
    }
    match (file, do_verify) {
        (Some(path), false) => analyze_file(&path, &opts),
        (None, true) => verify(duration_s, detector),
        (Some(_), true) => args.fail("--verify runs its own drive; do not also pass a trace file"),
        (None, false) => args.fail("a trace file or --verify is required"),
    }
}
