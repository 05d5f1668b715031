//! `search` — runs a scenario-space search and writes its trajectory.
//!
//! ```text
//! usage: search [--spec <file.json> | --builtin <smoke>]
//!               [--jobs <N>] [--check-jobs <N,M,...>]
//!               [--resume <trajectory.json>] [--results <dir>] [--list]
//!               [--bench-resume <file.json>] [--ckpt-dir <dir>]
//! ```
//!
//! The spec (see `specs/search_*.json`) names an objective and a
//! strategy — bisection boundary finding along one knob, or seeded
//! worst-case successive halving over several. Each batch of
//! evaluations is an independent set of simulated drives fanned out over
//! `--jobs` worker threads; every batch decision is a pure function of
//! prior run outputs. Artifacts land under `--results` (default
//! `results/search/`):
//!
//! * `search_summary.txt` — the plan, the budget curve, the answer,
//! * `search_trajectory.txt` — every batch and evaluation,
//! * `search_trajectory.json` — the machine-readable trajectory; feed it
//!   back with `--resume` to replay or continue a run without paying for
//!   the already-evaluated batches,
//! * `SEARCH_hashes.json` — the golden-hash manifest.
//!
//! `--check-jobs 1,8` reruns the whole search from scratch at each
//! listed level and **exits nonzero** unless every artifact byte and
//! golden hash is identical.
//!
//! `--bench-resume <file>` runs the search twice — cold (every
//! evaluation simulates its full horizon from virtual time zero) and
//! warm (halving rungs resume their survivors from the previous rung's
//! checkpoints, with the evaluation cache on) — **exits nonzero**
//! unless both produce the identical search hash, and writes the
//! measured counts (evaluations, simulated virtual seconds, wall
//! clock, warm resumes, cache hits) to the given JSON file. This is
//! the E-resume experiment of `EXPERIMENTS.md`.

use av_bench::cli::{self, json_object, Args, Jobs};
use av_sweep::search::{run_search_with_store, trajectory_from_json};
use av_sweep::{
    run_search_instrumented, search_artifacts, BatchRecord, SearchArtifacts, SearchSpec,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "\
usage: search [--spec <file.json> | --builtin <smoke>]
              [--jobs <N>] [--check-jobs <N,M,...>]
              [--resume <trajectory.json>] [--results <dir>] [--list]
              [--bench-resume <file.json>] [--ckpt-dir <dir>]";

struct Options {
    spec: SearchSpec,
    jobs: Jobs,
    prior: Vec<BatchRecord>,
    results_dir: PathBuf,
    list: bool,
    bench_resume: Option<PathBuf>,
    ckpt_dir: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut spec = None;
    let mut jobs = Jobs::default();
    let mut prior = Vec::new();
    let mut results_dir = PathBuf::from("results/search");
    let mut list = false;
    let mut bench_resume = None;
    let mut ckpt_dir = None;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => {
                let path = args.value();
                spec =
                    Some(SearchSpec::from_json(&cli::read(&path)).unwrap_or_else(|e| {
                        cli::die(format_args!("invalid search spec {path}: {e}"))
                    }));
            }
            "--builtin" => {
                let name = args.value();
                spec = Some(SearchSpec::builtin(&name).unwrap_or_else(|| {
                    cli::die(format_args!("unknown builtin search {name:?} (try smoke)"))
                }));
            }
            "--resume" => {
                let path = args.value();
                prior = trajectory_from_json(&cli::read(&path))
                    .unwrap_or_else(|e| cli::die(format_args!("invalid trajectory {path}: {e}")));
            }
            "--results" => results_dir = PathBuf::from(args.value()),
            "--list" => list = true,
            "--bench-resume" => bench_resume = Some(PathBuf::from(args.value())),
            "--ckpt-dir" => ckpt_dir = Some(PathBuf::from(args.value())),
            flag if jobs.accept(flag, &mut args) => {}
            other => args.unknown(other),
        }
    }
    Options {
        spec: spec.unwrap_or_else(SearchSpec::builtin_smoke),
        jobs,
        prior,
        results_dir,
        list,
        bench_resume,
        ckpt_dir,
    }
}

fn write_artifacts(dir: &Path, artifacts: &SearchArtifacts) {
    cli::write(dir.join("search_summary.txt"), &artifacts.summary_txt);
    cli::write(dir.join("search_trajectory.txt"), &artifacts.trajectory_txt);
    cli::write(dir.join("search_trajectory.json"), &artifacts.trajectory_json);
    cli::write(dir.join("SEARCH_hashes.json"), &artifacts.hashes_json);
}

/// The E-resume experiment: one cold search, one warm search, identical
/// outcome demanded, measured costs written to `path`.
fn bench_resume(options: &Options, jobs: usize, path: &Path) {
    println!("# search bench-resume {:?}: jobs {jobs}\n", options.spec.name);
    eprintln!("cold search (no checkpoints, no cache)...");
    let start = Instant::now();
    let (cold, cold_stats) = run_search_instrumented(&options.spec, jobs, &[], false);
    let cold_wall_s = start.elapsed().as_secs_f64();
    eprintln!("warm search (checkpointed rungs + evaluation cache)...");
    let start = Instant::now();
    let (warm, warm_stats) = run_search_instrumented(&options.spec, jobs, &[], true);
    let warm_wall_s = start.elapsed().as_secs_f64();

    if cold.search_hash != warm.search_hash {
        eprintln!(
            "CHECKPOINT VIOLATION: warm search hash {:#018x} != cold search hash {:#018x}",
            warm.search_hash, cold.search_hash
        );
        std::process::exit(1);
    }
    // Warm artifacts are the canonical ones — they are byte-identical to
    // cold's, which the hash equality above just proved.
    let artifacts = search_artifacts(&options.spec, &warm);
    write_artifacts(&options.results_dir, &artifacts);

    let saved_s = cold_stats.simulated_s - warm_stats.simulated_s;
    let fields = [
        ("spec", format!("\"{}\"", options.spec.name)),
        ("jobs", jobs.to_string()),
        ("search_hash", format!("\"{:#018x}\"", warm.search_hash)),
        ("cold_evaluations", cold_stats.evaluations.to_string()),
        ("cold_simulated_s", format!("{:.3}", cold_stats.simulated_s)),
        ("cold_wall_s", format!("{cold_wall_s:.3}")),
        ("warm_evaluations", warm_stats.evaluations.to_string()),
        ("warm_simulated_s", format!("{:.3}", warm_stats.simulated_s)),
        ("warm_wall_s", format!("{warm_wall_s:.3}")),
        ("warm_resumes", warm_stats.warm_resumes.to_string()),
        ("resumed_prefix_s", format!("{:.3}", warm_stats.resumed_prefix_s)),
        ("cache_hits", warm_stats.cache_hits.to_string()),
        ("virtual_seconds_saved", format!("{saved_s:.3}")),
    ];
    cli::write(path, json_object(&fields));

    println!(
        "cold: {} evaluation(s), {:.1} virtual s simulated, {} map build(s), \
         {cold_wall_s:.1} s wall",
        cold_stats.evaluations, cold_stats.simulated_s, cold_stats.map_builds
    );
    println!(
        "warm: {} evaluation(s), {:.1} virtual s simulated, {} map build(s), \
         {warm_wall_s:.1} s wall ({} warm resume(s) skipping {:.1} virtual s, {} cache hit(s))",
        warm_stats.evaluations,
        warm_stats.simulated_s,
        warm_stats.map_builds,
        warm_stats.warm_resumes,
        warm_stats.resumed_prefix_s,
        warm_stats.cache_hits
    );
    println!(
        "identical search hash {:#018x}; warm saved {saved_s:.1} virtual s \
         ({:.0}% of cold); record: {}",
        warm.search_hash,
        100.0 * saved_s / cold_stats.simulated_s.max(f64::MIN_POSITIVE),
        path.display()
    );
}

fn main() {
    let options = parse_args();
    if options.list {
        print!("{}", options.spec.describe());
        return;
    }
    let jobs = options.jobs.primary();
    if let Some(path) = &options.bench_resume {
        bench_resume(&options, jobs, path);
        return;
    }
    println!("# search {:?}: jobs {jobs}\n", options.spec.name);

    // A durable checkpoint store survives this process: halving rungs
    // resume from whatever barriers an earlier search left behind, and
    // persist their own. The store never changes an output byte — the
    // cross-jobs check below would catch it if it did.
    let store = options.ckpt_dir.as_deref().map(cli::open_store);

    let start = Instant::now();
    let (outcome, stats) =
        run_search_with_store(&options.spec, jobs, &options.prior, store.as_ref());
    let search_s = start.elapsed().as_secs_f64();
    let artifacts = search_artifacts(&options.spec, &outcome);

    write_artifacts(&options.results_dir, &artifacts);
    print!("{}", artifacts.summary_txt);
    println!("search golden hash: {:#018x}", artifacts.search_hash);
    println!(
        "artifacts: {} ({} evaluation(s) took {search_s:.1} s, {} map build(s))",
        options.results_dir.display(),
        outcome.evaluations(),
        stats.map_builds
    );
    if let (Some(store), Some(dir)) = (&store, &options.ckpt_dir) {
        println!(
            "checkpoint store {}: {} entr{} ({} B); {} disk resume(s) skipping {:.1} virtual s, \
             {} evaluation(s) served whole from disk",
            dir.display(),
            store.len(),
            if store.len() == 1 { "y" } else { "ies" },
            store.total_bytes(),
            stats.store_resumes,
            stats.store_prefix_s,
            stats.store_hits
        );
    }

    // Cross-`--jobs` determinism check: rerun the whole search from
    // scratch (no prior) at every other requested level; every artifact
    // byte must match, which also proves any `--resume` prefix above was
    // byte-faithful to a fresh run.
    let passed = format!(
        "search determinism check passed: jobs {:?} all reproduce hash {:#018x}",
        options.jobs.check_levels(),
        artifacts.search_hash
    );
    options.jobs.check(
        "search",
        |level| {
            let other = search_artifacts(
                &options.spec,
                &run_search_instrumented(&options.spec, level, &[], true).0,
            );
            let mut violations = Vec::new();
            if other.search_hash != artifacts.search_hash {
                violations.push(format!(
                    "search hash {:#018x} != {:#018x}",
                    other.search_hash, artifacts.search_hash
                ));
            }
            if other != artifacts {
                violations.push("search artifact bytes differ".to_string());
            }
            violations
        },
        &passed,
    );
}
