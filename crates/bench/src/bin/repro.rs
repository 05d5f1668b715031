//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! usage: repro [--quick | --duration <seconds>] [--jobs <N>] [ARTIFACT...]
//!              [--results <dir>] [--csv <dir>] [--trace] [--check-jobs <N,M,...>]
//!
//! ARTIFACT: --fig5 --fig6 --fig7 --fig8 --table3 --table5 --table6
//!           --table7 --findings   (default: all)
//! ```
//!
//! The full (default) run replays the 8-minute drive once per detector
//! plus two isolation runs. Each drive is an independent deterministic
//! simulation, so the matrix fans out over `--jobs` worker threads
//! (default: all cores) without changing a single virtual-time result —
//! the golden determinism hash printed at the end is byte-identical for
//! any `--jobs` value. `--quick` shortens the drive to 60 s.
//!
//! `--trace` records the `av-trace` event timeline during every drive and
//! writes `trace_<detector>.json` (Chrome trace-event format, loadable in
//! Perfetto) plus `metrics_<detector>.csv` per full-stack run; their FNV
//! hashes are recorded in `BENCH_repro.json`. `--check-jobs 1,8` reruns
//! the whole matrix at each listed thread count and **exits nonzero** if
//! the golden hash — or any rendered trace artifact byte — differs
//! between levels.
//!
//! Tables are written under `--results` (default `results/`) with stable
//! ordering and no timestamps, so reruns diff clean; wall-clock timings
//! go to `BENCH_repro.json` in the same directory.

use av_bench::cli::{self, bytes_hash, json_object, Args, Jobs};
use av_bench::{paper_config, paper_run};
use av_core::determinism;
use av_core::experiments;
use av_core::findings::FindingsReport;
use av_core::stack::{RunConfig, RunReport};
use av_profiling::Table;
use av_trace::export::{render_chrome_trace, render_metrics_csv};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "\
usage: repro [--quick | --duration <seconds>] [--jobs <N>] [ARTIFACT...]
             [--results <dir>] [--csv <dir>] [--trace] [--check-jobs <N,M,...>]

ARTIFACT: --fig5 --fig6 --fig7 --fig8 --table3 --table5 --table6
          --table7 --findings   (default: all)";

struct Options {
    run: RunConfig,
    jobs: Jobs,
    artifacts: HashSet<String>,
    results_dir: PathBuf,
    csv_dir: Option<PathBuf>,
}

const ALL_ARTIFACTS: [&str; 9] =
    ["fig5", "fig6", "fig7", "fig8", "table3", "table5", "table6", "table7", "findings"];

fn parse_args() -> Options {
    let mut run = paper_run();
    let mut trace = false;
    let mut jobs = Jobs::default();
    let mut artifacts = HashSet::new();
    let mut results_dir = PathBuf::from("results");
    let mut csv_dir = None;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => run = av_bench::quick_run(),
            "--duration" => run.duration_s = Some(args.parse()),
            "--trace" => trace = true,
            "--results" => results_dir = PathBuf::from(args.value()),
            "--csv" => csv_dir = Some(PathBuf::from(args.value())),
            flag if jobs.accept(flag, &mut args) => {}
            other => {
                let name = other.trim_start_matches("--");
                if !ALL_ARTIFACTS.contains(&name) {
                    args.unknown(other);
                }
                artifacts.insert(name.to_string());
            }
        }
    }
    if artifacts.is_empty() {
        artifacts = ALL_ARTIFACTS.iter().map(|s| s.to_string()).collect();
    }
    if trace {
        run = run.with_trace();
    }
    Options { run, jobs, artifacts, results_dir, csv_dir }
}

fn emit(options: &Options, name: &str, title: &str, table: &Table) {
    println!("## {title}\n");
    println!("{table}");
    // Content is fully determined by the run outputs — no timestamps, no
    // host names — so the golden files diff clean between reruns.
    cli::write(options.results_dir.join(format!("{name}.txt")), format!("## {title}\n\n{table}\n"));
    if let Some(dir) = &options.csv_dir {
        let path = dir.join(format!("{name}.csv"));
        cli::write(&path, table.to_csv());
        println!("(csv: {})\n", path.display());
    }
}

fn main() {
    let options = parse_args();
    let jobs = options.jobs.primary();
    let wants = |a: &str| options.artifacts.contains(a);
    let needs_full_runs = wants("fig5")
        || wants("fig6")
        || wants("table3")
        || wants("table5")
        || wants("table6")
        || wants("findings");
    let needs_isolation = wants("fig8") || wants("findings");

    let duration = options
        .run
        .duration_s
        .unwrap_or_else(|| paper_config(av_vision::DetectorKind::Ssd512).scenario.duration_s);
    println!("# AV characterization reproduction (drive: {duration:.0} s per run, jobs: {jobs})\n");

    let runs_full_matrix = needs_full_runs && needs_isolation;
    if !options.jobs.check_levels().is_empty() && !runs_full_matrix {
        cli::die("--check-jobs requires the full artifact set (it compares matrix hashes)");
    }

    let total_start = Instant::now();
    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut reports: Vec<RunReport> = Vec::new();
    let mut isolation = Vec::new();
    let mut golden_hash: Option<u64> = None;

    if needs_full_runs && needs_isolation {
        // Fig 8's full-system halves are exactly the detector sweep, so
        // one shared batch covers both: 5 unique drives instead of 7.
        eprintln!("running experiment matrix (3 full + 2 isolated drives)...");
        let start = Instant::now();
        let matrix = experiments::run_matrix(paper_config, &options.run, jobs);
        timings.push(("matrix_runs".to_string(), start.elapsed().as_secs_f64()));
        golden_hash = Some(determinism::matrix_hash(&matrix));
        reports = matrix.reports;
        isolation = matrix.isolation;
    } else if needs_full_runs {
        eprintln!("running full-stack drives (3 detectors)...");
        let start = Instant::now();
        reports = experiments::run_all_detectors(paper_config, &options.run, jobs);
        timings.push(("full_runs".to_string(), start.elapsed().as_secs_f64()));
    } else if needs_isolation {
        eprintln!("running isolation drives (SSD512, YOLO standalone + full)...");
        let start = Instant::now();
        isolation = experiments::fig8(paper_config, &options.run, jobs);
        timings.push(("isolation_runs".to_string(), start.elapsed().as_secs_f64()));
    }
    for r in &reports {
        eprintln!(
            "  {}: {} tasks completed, localization err {:.2} m",
            r.detector, r.cpu.tasks_completed, r.localization_error_m
        );
    }

    if wants("fig5") {
        for report in &reports {
            emit(
                &options,
                &format!("fig5_{}", report.detector.name().to_lowercase()),
                &format!("Fig 5 — single-node latency (with {})", report.detector),
                &experiments::fig5_table(report),
            );
        }
    }

    if wants("table3") {
        emit(&options, "table3", "Table III — dropped messages", &experiments::table3(&reports));
    }

    if wants("fig6") {
        for report in &reports {
            emit(
                &options,
                &format!("fig6_{}", report.detector.name().to_lowercase()),
                &format!("Fig 6 — end-to-end path latency (with {})", report.detector),
                &experiments::fig6_table(report),
            );
        }
    }

    if wants("table5") {
        emit(
            &options,
            "table5",
            "Table V — CPU/GPU utilization share",
            &experiments::table5(&reports),
        );
    }

    if wants("table6") {
        emit(&options, "table6", "Table VI — mean power", &experiments::table6(&reports));
    }

    if wants("fig8") {
        emit(
            &options,
            "fig8",
            "Fig 8 — standalone vs full-system detector latency",
            &experiments::fig8_table(&isolation),
        );
    }

    // Microarchitecture artifacts are platform-independent of the drive.
    let uarch_scale = if options.run.duration_s.is_some() { 8 } else { 30 };
    if wants("table7") {
        let start = Instant::now();
        let table = experiments::table7(uarch_scale, 2020);
        timings.push(("uarch_table7".to_string(), start.elapsed().as_secs_f64()));
        emit(&options, "table7", "Table VII — microarchitecture profiling", &table);
    }

    if wants("fig7") {
        let start = Instant::now();
        let table = experiments::fig7(uarch_scale, 2020);
        timings.push(("uarch_fig7".to_string(), start.elapsed().as_secs_f64()));
        emit(&options, "fig7", "Fig 7 — instruction mix", &table);
    }

    if wants("findings") {
        let findings = FindingsReport::from_runs(&reports, isolation.clone());
        emit(&options, "findings", "Findings 1-5", &findings.to_table());
    }

    if let Some(hash) = golden_hash {
        println!("golden determinism hash: {hash:#018x}");
    }

    // Trace artifacts: one Chrome trace + metrics CSV per full-stack run,
    // with byte hashes recorded so reruns can be compared without the
    // (large) files themselves.
    let mut rendered: Vec<(String, String, String)> = Vec::new();
    let mut artifact_hashes: Vec<(String, String)> = Vec::new();
    if options.run.trace.is_some() {
        for report in &reports {
            let trace = report.trace.as_ref().expect("traced run without trace data");
            let name = report.detector.name().to_lowercase();
            let json = render_chrome_trace(&name, trace);
            let csv = render_metrics_csv(trace);
            let json_path = options.results_dir.join(format!("trace_{name}.json"));
            let csv_path = options.results_dir.join(format!("metrics_{name}.csv"));
            cli::write(&json_path, &json);
            cli::write(&csv_path, &csv);
            println!(
                "trace: {} ({} callbacks, {} drops); metrics: {} ({} samples)",
                json_path.display(),
                trace.callback_count(),
                trace.dropped_total(),
                csv_path.display(),
                trace.samples.len()
            );
            artifact_hashes.push((format!("trace_{name}.json"), bytes_hash(&json)));
            artifact_hashes.push((format!("metrics_{name}.csv"), bytes_hash(&csv)));
            rendered.push((name, json, csv));
        }
    }

    // Cross-`--jobs` determinism check: rerun the matrix at every other
    // requested level and demand an identical golden hash and (when
    // tracing) byte-identical rendered artifacts.
    if let Some(base_hash) = golden_hash {
        let passed = format!(
            "determinism check passed: jobs {:?} all reproduce hash {base_hash:#018x}",
            options.jobs.check_levels()
        );
        let rerun = |level| {
            let start = Instant::now();
            let matrix = experiments::run_matrix(paper_config, &options.run, level);
            timings.push((format!("check_jobs_{level}"), start.elapsed().as_secs_f64()));
            let hash = determinism::matrix_hash(&matrix);
            let mut violations = Vec::new();
            if hash != base_hash {
                violations.push(format!("golden hash {hash:#018x} != {base_hash:#018x}"));
            }
            for (report, (name, base_json, base_csv)) in matrix.reports.iter().zip(&rendered) {
                let trace = report.trace.as_ref().expect("traced run without trace data");
                if &render_chrome_trace(name, trace) != base_json
                    || &render_metrics_csv(trace) != base_csv
                {
                    violations.push(format!("trace artifacts for {name} differ"));
                }
            }
            violations
        };
        options.jobs.check("matrix", rerun, &passed);
    }

    // Wall-clock benchmark record: per-experiment timings so the perf
    // trajectory is tracked from run to run. This file is *about* wall
    // time, so it is the one results/ artifact that legitimately varies
    // between reruns; keys and their order stay fixed.
    timings.push(("total".to_string(), total_start.elapsed().as_secs_f64()));
    let mut fields: Vec<(&str, String)> =
        vec![("jobs", jobs.to_string()), ("drive_duration_s", format!("{duration:.1}"))];
    if let Some(hash) = golden_hash {
        fields.push(("golden_hash", format!("\"{hash:#018x}\"")));
    }
    if !artifact_hashes.is_empty() {
        let body = artifact_hashes
            .iter()
            .map(|(k, v)| format!("    \"{k}\": \"{v}\""))
            .collect::<Vec<_>>()
            .join(",\n");
        fields.push(("artifact_hashes", format!("{{\n{body}\n  }}")));
    }
    let timing_body =
        timings.iter().map(|(k, v)| format!("    \"{k}\": {v:.3}")).collect::<Vec<_>>().join(",\n");
    fields.push(("wall_clock_s", format!("{{\n{timing_body}\n  }}")));
    let bench_path = options.results_dir.join("BENCH_repro.json");
    cli::write(&bench_path, json_object(&fields));
    eprintln!("wall-clock record: {}", bench_path.display());
}
