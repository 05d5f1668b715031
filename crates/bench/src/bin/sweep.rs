//! `sweep` — runs a batched scenario sweep and writes its artifacts.
//!
//! ```text
//! usage: sweep [--spec <file.json> | --builtin <smoke|detector-camera>]
//!              [--jobs <N>] [--check-jobs <N,M,...>] [--duration <seconds>]
//!              [--trace] [--results <dir>] [--list] [--ckpt-dir <dir>]
//! ```
//!
//! The spec (see `specs/` for examples) expands into a deterministic
//! point list; every point is an independent simulated drive, fanned out
//! over `--jobs` worker threads. Artifacts land under `--results`
//! (default `results/sweep/`):
//!
//! * `sweep_summary.txt` / `.csv` — one row per point (worst path, e2e
//!   mean/p99, drop %, power, localization error, golden run hash),
//! * `sweep_effects.txt` — which knobs move tail latency and drop rate,
//! * `point_<id>.txt` — per-point Fig 6 / Table III / Table VI report,
//! * `SWEEP_hashes.json` — the golden-hash manifest,
//! * with `--trace`, `trace_<id>.json` per point (Chrome trace format —
//!   feed any two to `trace_diff`).
//!
//! Everything is a pure function of the spec: `--check-jobs 1,8` reruns
//! the batch at each listed level and **exits nonzero** unless every
//! artifact byte and golden hash is identical.

use av_bench::cli::{self, bytes_hash, Args, Jobs};
use av_core::stack::RunConfig;
use av_sweep::{aggregate, run_sweep, run_sweep_streamed, PointResult, SweepArtifacts, SweepSpec};
use av_trace::export::render_chrome_trace;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "\
usage: sweep [--spec <file.json> | --builtin <smoke|detector-camera>]
             [--jobs <N>] [--check-jobs <N,M,...>] [--duration <seconds>]
             [--trace] [--results <dir>] [--list] [--ckpt-dir <dir>]";

struct Options {
    spec: SweepSpec,
    run: RunConfig,
    jobs: Jobs,
    results_dir: PathBuf,
    list: bool,
    ckpt_dir: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut spec = None;
    let mut run = RunConfig::default();
    let mut trace = false;
    let mut jobs = Jobs::default();
    let mut results_dir = PathBuf::from("results/sweep");
    let mut list = false;
    let mut ckpt_dir = None;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => {
                let path = args.value();
                spec =
                    Some(SweepSpec::from_json(&cli::read(&path)).unwrap_or_else(|e| {
                        cli::die(format_args!("invalid sweep spec {path}: {e}"))
                    }));
            }
            "--builtin" => {
                let name = args.value();
                spec = Some(SweepSpec::builtin(&name).unwrap_or_else(|| {
                    cli::die(format_args!(
                        "unknown builtin sweep {name:?} (try smoke, detector-camera)"
                    ))
                }));
            }
            "--duration" => run.duration_s = Some(args.parse()),
            "--trace" => trace = true,
            "--results" => results_dir = PathBuf::from(args.value()),
            "--list" => list = true,
            "--ckpt-dir" => ckpt_dir = Some(PathBuf::from(args.value())),
            flag if jobs.accept(flag, &mut args) => {}
            other => args.unknown(other),
        }
    }
    if trace {
        run = run.with_trace();
    }
    Options {
        spec: spec.unwrap_or_else(SweepSpec::builtin_smoke),
        run,
        jobs,
        results_dir,
        list,
        ckpt_dir,
    }
}

/// Renders every point's Chrome trace, in ordinal order.
fn render_traces(results: &[PointResult]) -> Vec<(String, String)> {
    let mut ordered: Vec<&PointResult> = results.iter().collect();
    ordered.sort_by_key(|r| r.point.ordinal);
    ordered
        .iter()
        .filter_map(|r| {
            r.report.trace.as_ref().map(|t| {
                let id = r.point.id();
                (id.clone(), render_chrome_trace(&format!("sweep_{id}"), t))
            })
        })
        .collect()
}

fn write_artifacts(dir: &Path, artifacts: &SweepArtifacts, traces: &[(String, String)]) {
    cli::write(dir.join("sweep_summary.txt"), &artifacts.summary_txt);
    cli::write(dir.join("sweep_summary.csv"), &artifacts.summary_csv);
    cli::write(dir.join("sweep_effects.txt"), &artifacts.effects_txt);
    cli::write(dir.join("SWEEP_hashes.json"), &artifacts.hashes_json);
    for (id, text) in &artifacts.per_point {
        cli::write(dir.join(format!("point_{id}.txt")), text);
    }
    for (id, json) in traces {
        cli::write(dir.join(format!("trace_{id}.json")), json);
    }
}

fn main() {
    let options = parse_args();
    if options.list {
        print!("{}", options.spec.describe());
        return;
    }
    let jobs = options.jobs.primary();
    let point_count = options.spec.points().len();
    println!("# sweep {:?}: {} point(s), jobs {jobs}\n", options.spec.name, point_count);

    // A durable checkpoint store survives this process: prefix-sharing
    // groups restore their barrier from whatever an earlier sweep left
    // behind and persist their own. It never changes an output byte —
    // the cross-jobs check below would catch it if it did.
    let store = options.ckpt_dir.as_deref().map(cli::open_store);

    let start = Instant::now();
    let (results, stats) =
        run_sweep_streamed(&options.spec, &options.run, jobs, store.as_ref(), |_| {});
    let batch_s = start.elapsed().as_secs_f64();
    let artifacts = aggregate(&options.spec, &results);
    let traces = render_traces(&results);

    write_artifacts(&options.results_dir, &artifacts, &traces);
    print!("{}", artifacts.summary_txt);
    println!("sweep golden hash: {:#018x}", artifacts.sweep_hash);
    println!("artifacts: {} (batch took {batch_s:.1} s)", options.results_dir.display());
    println!(
        "{} evaluation(s) of {point_count} point(s), {} map build(s)",
        stats.unique_points, stats.map_builds
    );
    if let (Some(store), Some(dir)) = (&store, &options.ckpt_dir) {
        println!(
            "checkpoint store {}: {} entr{} ({} B); {} of {} prefix group(s) restored from \
             disk, skipping {:.1} virtual s of leader prefix",
            dir.display(),
            store.len(),
            if store.len() == 1 { "y" } else { "ies" },
            store.total_bytes(),
            stats.store_prefix_hits,
            stats.prefix_groups,
            stats.store_saved_s
        );
    }
    for (id, json) in &traces {
        println!("trace_{id}.json: {}", bytes_hash(json));
    }

    // Cross-`--jobs` determinism check: rerun the whole batch at every
    // other requested level; every artifact byte must match.
    let passed = format!(
        "sweep determinism check passed: jobs {:?} all reproduce hash {:#018x}",
        options.jobs.check_levels(),
        artifacts.sweep_hash
    );
    options.jobs.check(
        "sweep",
        |level| {
            let rerun = run_sweep(&options.spec, &options.run, level);
            let other = aggregate(&options.spec, &rerun);
            let mut violations = Vec::new();
            if other.sweep_hash != artifacts.sweep_hash {
                violations.push(format!(
                    "sweep hash {:#018x} != {:#018x}",
                    other.sweep_hash, artifacts.sweep_hash
                ));
            }
            if other.summary_txt != artifacts.summary_txt
                || other.summary_csv != artifacts.summary_csv
                || other.effects_txt != artifacts.effects_txt
                || other.hashes_json != artifacts.hashes_json
                || other.per_point != artifacts.per_point
            {
                violations.push("aggregate artifact bytes differ".to_string());
            }
            if render_traces(&rerun) != traces {
                violations.push("trace artifact bytes differ".to_string());
            }
            violations
        },
        &passed,
    );
}
