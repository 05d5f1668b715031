//! `avbench` — the reproduction's own benchmark.
//!
//! ```text
//! avbench --workload <name|all> --seed <u64> [--seconds <s>] [--trace 0|1] [--spans <out.json>]
//! avbench --check
//! avbench --record <ledger.json> [--runs <n>] [--seed <u64>] [--seconds <s>]
//! avbench --compare <base.json> <new.json>
//! ```
//!
//! A run prints every metric as `name value unit`, then one JSON line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics, traced runs the per-layer
//! ones. Any failed check exits nonzero. See `README.md` for the metric
//! dictionary.

mod ledger;
mod metrics;
mod replay;
mod serve;
mod spans;
mod stats;
mod workloads;

use metrics::Reported;
use spans::Spans;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Plan, WORKLOADS};

/// The seed the pins were recorded under.
const DEFAULT_SEED: u64 = 1;
/// Measurement budget when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

const PINS: &str = include_str!("../pins.txt");

/// Tests that measure host time hold this, so they never share the two
/// cores with each other.
#[cfg(test)]
static TIMED_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn usage() -> String {
    "usage: avbench --workload <name|all> --seed <u64> [--seconds <s>] [--trace 0|1] \
     [--spans <out.json>]\n       avbench --check\n       avbench --record <ledger.json> \
     [--runs <n>] [--seed <u64>] [--seconds <s>]\n       avbench --compare <base.json> \
     <new.json>"
        .to_string()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    check: bool,
    record: Option<PathBuf>,
    runs: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
        check: false,
        record: None,
        runs: 5,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a finite, nonnegative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--check" => args.check = true,
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--compare" => {
                let base = PathBuf::from(value()?);
                args.compare = Some((base, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("avbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.check {
        check_all()
    } else if let Some((base, new)) = &args.compare {
        ledger::compare(base, new)
    } else if let Some(out) = &args.record {
        ledger::record(out, args.runs, args.seed, args.seconds)
    } else {
        match args.workload.as_deref() {
            Some("all") => run_all(&argv),
            Some(name) => run_one(name, &args),
            None => Err(usage()),
        }
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("avbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Scratch space inside the working directory, private to this process.
fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".avbench-work").join(format!("{workload}-{}", std::process::id()))
}

/// The pinned first-cycle digest of `workload` in `mode`, if any.
fn pin(mode: &str, workload: &str) -> Option<u64> {
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(mode) && f.next() == Some(workload))
            .then(|| u64::from_str_radix(f.next()?.trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}

/// Runs one workload in this process and checks it.
fn measure(name: &str, plan: &Plan) -> Result<(workloads::Outcome, Vec<spans::Span>), String> {
    let mut sp = Spans::new(plan.trace, Instant::now(), 0);
    let result = workloads::run(name, plan, &mut sp);
    let _ = std::fs::remove_dir_all(&plan.work);
    // Removes the shared parent too once no other run is using it.
    if let Some(parent) = plan.work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let mut outcome = result?;
    let mode = if plan.check { "check" } else { "full" };
    eprintln!("digest {mode} {name} 0x{:016x} (seed {})", outcome.digest.0, plan.seed);
    if plan.seed == DEFAULT_SEED {
        match pin(mode, name) {
            Some(want) if want == outcome.digest.0 => {}
            Some(want) => {
                outcome.failed += 1;
                outcome.errors.push(format!(
                    "{name}: first-cycle digest 0x{:016x} != pinned 0x{want:016x}",
                    outcome.digest.0
                ));
            }
            None => eprintln!("note: no {mode} pin for {name}"),
        }
    }
    for e in &outcome.errors {
        eprintln!("FAILED: {e}");
    }
    Ok((outcome, sp.into_spans()))
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    if !WORKLOADS.contains(&name) {
        return Err(format!("unknown workload {name:?} (expected one of {WORKLOADS:?} or all)"));
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        check: false,
        trace: args.trace,
        work: work_dir(name),
    };
    let (outcome, spans) = measure(name, &plan)?;
    if let Some(path) = &args.spans {
        std::fs::write(path, spans::chrome_trace(&spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let reported: Vec<Reported> = if args.trace {
        metrics::per_layer(&outcome, &spans)
    } else {
        metrics::end_to_end(&outcome)
    };
    let tail = stats::tail_percentile(outcome.op_s.len())
        .map_or("no tail percentile".to_string(), |p| {
            format!("p{p} {:.3} ms", stats::percentile(&outcome.op_s, p) * 1e3)
        });
    eprintln!(
        "{name}: {} ops, {} items over {:.3} s; op latency p50 {:.3} ms, {tail}",
        outcome.attempted,
        outcome.items,
        outcome.measured_s,
        stats::median(&outcome.op_s) * 1e3
    );
    for r in &reported {
        println!("{} {} {}", r.name, r.value, r.unit);
    }
    let correct = outcome.correct();
    println!("{}", metrics::result_json(correct, outcome.attempted, outcome.failed, &reported));
    Ok(correct)
}

/// `--workload all`: each workload in its own child process, so no
/// workload's heap or warm caches reach the next.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut shared: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            shared.push(a);
        }
    }
    let mut all_ok = true;
    for name in WORKLOADS {
        println!("== {name}");
        let status = Command::new(&exe)
            .args(&shared)
            .args(["--workload", name])
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// `--check`: every workload at tiny sizes, one cycle each, against the
/// pins.
fn check_all() -> Result<bool, String> {
    let mut all_ok = true;
    for name in WORKLOADS {
        let plan = Plan {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            check: true,
            trace: false,
            work: work_dir(name),
        };
        let (outcome, _) = measure(name, &plan)?;
        let ok = outcome.correct();
        println!(
            "check {name}: {} ({} ops, digest 0x{:016x})",
            if ok { "ok" } else { "FAILED" },
            outcome.attempted,
            outcome.digest.0
        );
        all_ok &= ok;
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_mode_passes_against_the_pins() {
        let _alone = TIMED_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        assert!(check_all().expect("check runs"), "a workload failed its check");
    }

    #[test]
    fn every_workload_has_both_pins() {
        for name in WORKLOADS {
            assert!(pin("full", name).is_some(), "no full pin for {name}");
            assert!(pin("check", name).is_some(), "no check pin for {name}");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload drive-paper --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus").is_err());
    }
}
