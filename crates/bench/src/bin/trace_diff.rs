//! `trace_diff` — regression hunting between two exported traces.
//!
//! ```text
//! usage: trace_diff <a.json> <b.json>
//! ```
//!
//! Loads two Chrome-format traces exported by this repo (`repro --trace`,
//! `sweep --trace`, or `trace_report`), aligns them by node name and by
//! lineage-anchored computation path, and reports per-node and per-path
//! latency-distribution shifts, drops that appeared or vanished,
//! queue-depth divergence, and critical-path composition shifts (the
//! dominant blame component flipped, or a node's blame share moved more
//! than 5 points — the tail moved even if the mean did not).
//!
//! Exit status: `0` when the traces are behaviourally identical (the
//! report says `traces identical: 0 differences`), `1` when differences
//! were found, `2` on usage or parse errors — so the self-diff doubles
//! as a determinism gate and a CI diff fails loudly.

use av_bench::cli::{self, Args};
use av_core::stack::computation_paths;
use av_trace::analysis::{analyze_trace, TraceReport};
use av_trace::blame::{analyze_blame, BlameReport};
use av_trace::diff::{diff_blame, diff_reports, render_diff, BLAME_SHIFT_EPSILON};

const USAGE: &str = "usage: trace_diff <a.json> <b.json>";

fn load(path: &str) -> (TraceReport, BlameReport) {
    let data = cli::read_trace(path);
    let paths = computation_paths();
    let blame = analyze_blame(&data, &paths)
        .unwrap_or_else(|e| cli::die(format_args!("{path} blame attribution failed: {e}")));
    (analyze_trace(&data, &paths), blame)
}

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut files = Vec::new();
    while let Some(arg) = args.next() {
        if arg.starts_with('-') {
            args.unknown(&arg);
        }
        files.push(arg);
    }
    let [a, b] = files.as_slice() else { args.fail("trace_diff takes exactly two trace files") };
    let (report_a, blame_a) = load(a);
    let (report_b, blame_b) = load(b);
    let mut diff = diff_reports(&report_a, &report_b);
    diff.blame_shifts = diff_blame(&blame_a, &blame_b, BLAME_SHIFT_EPSILON);
    print!("{}", render_diff(a, b, &diff));
    std::process::exit(i32::from(!diff.is_identical()));
}
