//! `sweep` — runs a batched scenario sweep and writes its artifacts.
//!
//! ```text
//! sweep [--spec <file.json> | --builtin <smoke|detector-camera>]
//!       [--jobs <N>] [--check-jobs <N,M,...>] [--duration <seconds>]
//!       [--trace] [--results <dir>] [--list]
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

use av_core::ckptstore::CkptStore;
use av_core::determinism::Fnv64;
use av_core::parallel::effective_jobs;
use av_core::stack::RunConfig;
use av_sweep::{aggregate, run_sweep, run_sweep_streamed, PointResult, SweepArtifacts, SweepSpec};
use av_trace::export::render_chrome_trace;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Options {
    spec: SweepSpec,
    run: RunConfig,
    jobs: usize,
    check_jobs: Vec<usize>,
    results_dir: PathBuf,
    list: bool,
    ckpt_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--spec <file.json> | --builtin <smoke|detector-camera>] \
         [--jobs <N>] [--check-jobs <N,M,...>] [--duration <s>] [--trace] \
         [--results <dir>] [--list] [--ckpt-dir <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut spec = None;
    let mut run = RunConfig::default();
    let mut trace = false;
    let mut jobs = None;
    let mut check_jobs: Vec<usize> = Vec::new();
    let mut results_dir = PathBuf::from("results/sweep");
    let mut list = false;
    let mut ckpt_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => {
                let path = args.next().expect("--spec needs a file");
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
                spec = Some(SweepSpec::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("invalid sweep spec {path}: {e}");
                    std::process::exit(2);
                }));
            }
            "--builtin" => {
                let name = args.next().expect("--builtin needs a name");
                spec = Some(SweepSpec::builtin(&name).unwrap_or_else(|| {
                    eprintln!("unknown builtin sweep {name:?} (try smoke, detector-camera)");
                    std::process::exit(2);
                }));
            }
            "--duration" => {
                let value = args.next().expect("--duration needs seconds");
                run.duration_s = Some(value.parse().expect("invalid duration"));
            }
            "--trace" => trace = true,
            "--jobs" | "-j" => {
                let value = args.next().expect("--jobs needs a thread count");
                jobs = Some(value.parse().expect("invalid --jobs value"));
            }
            "--check-jobs" => {
                let value = args.next().expect("--check-jobs needs a comma-separated list");
                check_jobs = value
                    .split(',')
                    .map(|s| s.trim().parse().expect("invalid --check-jobs value"))
                    .collect();
                assert!(!check_jobs.is_empty(), "--check-jobs needs at least one level");
            }
            "--results" => {
                results_dir = PathBuf::from(args.next().expect("--results needs a directory"));
            }
            "--list" => list = true,
            "--ckpt-dir" => {
                ckpt_dir = Some(PathBuf::from(args.next().expect("--ckpt-dir needs a directory")));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if trace {
        run = run.with_trace();
    }
    if jobs.is_none() {
        jobs = check_jobs.first().copied();
    }
    Options {
        spec: spec.unwrap_or_else(SweepSpec::builtin_smoke),
        run,
        jobs: effective_jobs(jobs),
        check_jobs,
        results_dir,
        list,
        ckpt_dir,
    }
}

/// FNV-1a 64 hash of rendered artifact bytes, formatted like the golden
/// determinism hash.
fn bytes_hash(text: &str) -> String {
    let mut h = Fnv64::new();
    h.write_bytes(text.as_bytes());
    format!("{:#018x}", h.finish())
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
    std::fs::create_dir_all(dir).expect("create results dir");
    std::fs::write(dir.join("sweep_summary.txt"), &artifacts.summary_txt).expect("write summary");
    std::fs::write(dir.join("sweep_summary.csv"), &artifacts.summary_csv).expect("write csv");
    std::fs::write(dir.join("sweep_effects.txt"), &artifacts.effects_txt).expect("write effects");
    std::fs::write(dir.join("SWEEP_hashes.json"), &artifacts.hashes_json).expect("write hashes");
    for (id, text) in &artifacts.per_point {
        std::fs::write(dir.join(format!("point_{id}.txt")), text).expect("write point report");
    }
    for (id, json) in traces {
        std::fs::write(dir.join(format!("trace_{id}.json")), json).expect("write trace");
    }
}

fn main() {
    let options = parse_args();
    if options.list {
        print!("{}", options.spec.describe());
        return;
    }
    let point_count = options.spec.points().len();
    println!("# sweep {:?}: {} point(s), jobs {}\n", options.spec.name, point_count, options.jobs);

    // A durable checkpoint store survives this process: prefix-sharing
    // groups restore their barrier from whatever an earlier sweep left
    // behind and persist their own. It never changes an output byte —
    // the cross-jobs check below would catch it if it did.
    let store = options.ckpt_dir.as_ref().map(|dir| {
        let (store, recovery) = CkptStore::open(dir)
            .unwrap_or_else(|e| panic!("cannot open checkpoint store {}: {e}", dir.display()));
        eprint!("{}", recovery.render());
        store
    });

    let start = Instant::now();
    let (results, stats) =
        run_sweep_streamed(&options.spec, &options.run, options.jobs, store.as_ref(), |_| {});
    let batch_s = start.elapsed().as_secs_f64();
    let artifacts = aggregate(&options.spec, &results);
    let traces = render_traces(&results);

    write_artifacts(&options.results_dir, &artifacts, &traces);
    print!("{}", artifacts.summary_txt);
    println!("sweep golden hash: {:#018x}", artifacts.sweep_hash);
    println!("artifacts: {} (batch took {batch_s:.1} s)", options.results_dir.display());
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
    let verify_levels: Vec<usize> =
        options.check_jobs.iter().copied().filter(|&j| j != options.jobs).collect();
    if !verify_levels.is_empty() {
        for level in verify_levels {
            eprintln!("determinism check: rerunning sweep with --jobs {level}...");
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
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!(
                        "DETERMINISM VIOLATION between --jobs {} and --jobs {level}: {v}",
                        options.jobs
                    );
                }
                std::process::exit(1);
            }
        }
        println!(
            "sweep determinism check passed: jobs {:?} all reproduce hash {:#018x}",
            options.check_jobs, artifacts.sweep_hash
        );
    }
}
