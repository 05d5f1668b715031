//! Ledgers: sets of recorded runs, and the diff between two of them.
//!
//! A ledger is `{"cores":…,"seconds":…,"runs":[{"workload":…,"seed":…,
//! "trace":0|1,"result":<result line>}]}`. `--record` fills one by
//! running every workload `--runs` times untraced and traced, each run
//! in its own child process; `--compare` judges every end-to-end median
//! against its bound and requires every exact counter to match.

use crate::metrics::{END_TO_END, EXACT_UNITS};
use crate::stats::{judge, median, relative_iqr, worsening, Verdict};
use crate::workloads::WORKLOADS;
use av_trace::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Runs every workload `runs` times untraced and traced, seeds
/// `seed..seed + runs`, and writes the ledger to `out`.
pub fn record(out: &Path, runs: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        for i in 0..runs as u64 {
            for trace in [0, 1] {
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &(seed + i).to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", &trace.to_string()])
                    .output()
                    .map_err(|e| format!("spawn {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or_default().to_string();
                let doc = json::parse(&last)
                    .map_err(|e| format!("{workload} seed {}: no result line ({e})", seed + i))?;
                all_ok &= output.status.success()
                    && matches!(doc.get("correct"), Some(JsonValue::Bool(true)));
                eprintln!("recorded {workload} seed {} trace {trace}", seed + i);
                rows.push(format!(
                    "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{trace},\"result\":{last}}}",
                    seed + i
                ));
            }
        }
    }
    let text = format!(
        "{{\"cores\":{cores},\"seconds\":{seconds:?},\"runs\":[\n{}\n]}}\n",
        rows.join(",\n")
    );
    std::fs::write(out, text).map_err(|e| format!("write {}: {e}", out.display()))?;
    Ok(all_ok)
}

/// One ledger's runs: `(workload, trace) -> [(seed, metric -> (value, unit))]`.
type Runs = BTreeMap<(String, u64), Vec<(u64, BTreeMap<String, (f64, String)>)>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let mut runs: Runs = BTreeMap::new();
    for run in doc.get("runs").and_then(JsonValue::as_array).ok_or_else(|| bad("no runs"))? {
        let workload =
            run.get("workload").and_then(JsonValue::as_str).ok_or_else(|| bad("workload"))?;
        let seed = run.get("seed").and_then(JsonValue::as_u64).ok_or_else(|| bad("seed"))?;
        let trace = run.get("trace").and_then(JsonValue::as_u64).ok_or_else(|| bad("trace"))?;
        let Some(JsonValue::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(bad("result.metrics"));
        };
        let mut values = BTreeMap::new();
        for (name, m) in metrics {
            let value = m.get("value").and_then(JsonValue::as_f64).ok_or_else(|| bad(name))?;
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or_default();
            values.insert(name.clone(), (value, unit.to_string()));
        }
        runs.entry((workload.to_string(), trace)).or_default().push((seed, values));
    }
    Ok(runs)
}

fn series(runs: &Runs, workload: &str, metric: &str) -> Vec<f64> {
    runs.get(&(workload.to_string(), 0))
        .map(|rs| rs.iter().filter_map(|(_, m)| m.get(metric).map(|v| v.0)).collect())
        .unwrap_or_default()
}

/// Exact counters of the traced runs that appear under the same seed in
/// both ledgers and differ: `(seed, metric, base, new)`.
fn counter_mismatches(base: &Runs, new: &Runs, workload: &str) -> (usize, Vec<String>) {
    let key = (workload.to_string(), 1);
    let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else { return (0, Vec::new()) };
    let mut checked = 0;
    let mut diffs = Vec::new();
    for (seed, bm) in b {
        let Some((_, nm)) = n.iter().find(|(s, _)| s == seed) else { continue };
        for (name, (bv, unit)) in bm {
            if !EXACT_UNITS.contains(&unit.as_str()) {
                continue;
            }
            checked += 1;
            match nm.get(name) {
                Some((nv, _)) if nv == bv => {}
                other => diffs.push(format!(
                    "seed {seed} {name}: {bv} -> {}",
                    other.map_or("missing".to_string(), |(v, _)| v.to_string())
                )),
            }
        }
    }
    (checked, diffs)
}

/// Prints one row per workload and returns whether nothing regressed.
pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let base = load(base_path)?;
    let new = load(new_path)?;
    let mut ok = true;
    for workload in WORKLOADS {
        let mut cells = Vec::new();
        for m in &END_TO_END {
            let (b, n) = (series(&base, workload, m.name), series(&new, workload, m.name));
            if b.is_empty() || n.is_empty() {
                cells.push(format!("{} n/a", m.name));
                continue;
            }
            let verdict = judge(&b, &n, m.better, m.bound);
            ok &= verdict != Verdict::Regressed;
            cells.push(format!(
                "{} {:.4}->{:.4} ({:+.1}%, base iqr {:.1}%, bound {:.0}%) {}",
                m.name,
                median(&b),
                median(&n),
                -100.0 * worsening(median(&b), median(&n), m.better),
                100.0 * relative_iqr(&b).unwrap_or(0.0),
                100.0 * m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
        let (checked, diffs) = counter_mismatches(&base, &new, workload);
        ok &= diffs.is_empty();
        cells.push(format!("counters {}/{checked} equal", checked - diffs.len()));
        println!("{workload}: {}", cells.join(" | "));
        for d in diffs {
            println!("  counter differs: {d}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(e2e: &[f64], counter: f64) -> String {
        let mut runs = Vec::new();
        for (seed, v) in e2e.iter().enumerate() {
            runs.push(format!(
                "{{\"workload\":\"drive-paper\",\"seed\":{seed},\"trace\":0,\"result\":{{\
                 \"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\
                 \"op_p50_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}}}"
            ));
            runs.push(format!(
                "{{\"workload\":\"drive-paper\",\"seed\":{seed},\"trace\":1,\"result\":{{\
                 \"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\
                 \"world.calls\":{{\"value\":{counter},\"unit\":\"count\"}},\
                 \"world.scan_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}}}"
            ));
        }
        format!("{{\"cores\":2,\"seconds\":10.0,\"runs\":[{}]}}", runs.join(","))
    }

    fn write(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(".avbench-work")
            .join(format!("ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write ledger");
        path
    }

    #[test]
    fn compare_flags_regressions_and_counter_drift_only() {
        let base = write("base.json", &ledger(&[100.0, 101.0, 99.0, 100.0, 100.5], 42.0));
        let same = write("same.json", &ledger(&[102.0, 101.0, 100.0, 103.0, 101.5], 42.0));
        let slow = write("slow.json", &ledger(&[130.0, 131.0, 129.0, 130.0, 130.5], 42.0));
        let drift = write("drift.json", &ledger(&[100.0, 101.0, 99.0, 100.0, 100.5], 43.0));
        assert!(compare(&base, &same).unwrap(), "within bound, counters equal");
        assert!(!compare(&base, &slow).unwrap(), "30 % slower must regress");
        assert!(!compare(&base, &drift).unwrap(), "a moved counter must fail");
        let runs = load(&base).unwrap();
        assert_eq!(series(&runs, "drive-paper", "op_p50_ms").len(), 5);
        let (checked, diffs) = counter_mismatches(&runs, &load(&drift).unwrap(), "drive-paper");
        assert_eq!((checked, diffs.len()), (5, 5), "timings are not counters");
        let _ = std::fs::remove_dir_all(base.parent().expect("ledger dir"));
    }
}
