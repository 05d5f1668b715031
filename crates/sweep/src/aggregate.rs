//! Order-independent aggregation of sweep results.
//!
//! The aggregator turns a batch of [`PointResult`]s into text artifacts:
//! a cross-point summary table (+CSV), per-point report files carrying
//! the paper tables (Fig 6 path latencies, Table III drops, Table VI
//! power, localization error), a knob-effect report flagging which axes
//! move tail latency and drop rate, and a golden-hash manifest. Results
//! are sorted by expansion ordinal before anything is rendered, so the
//! artifacts are a pure function of the result *set* — the schedule that
//! produced them (jobs count, completion order) cannot leak in.

use crate::runner::PointResult;
use crate::spec::SweepSpec;
use av_core::determinism::Fnv64;
use av_core::experiments::power_cells;
use av_core::metrics::run_metrics;
use av_profiling::Table;
use std::fmt::Write as _;

/// Everything the aggregator renders, as `(file name, contents)`-style
/// strings ready to be written under `results/sweep/`.
#[derive(Debug, Clone)]
pub struct SweepArtifacts {
    /// Cross-point summary table, text.
    pub summary_txt: String,
    /// The same summary as CSV.
    pub summary_csv: String,
    /// Knob-effect report: which axes move tail latency / drop rate.
    pub effects_txt: String,
    /// Per-point reports: `(point id, contents)`, in ordinal order.
    pub per_point: Vec<(String, String)>,
    /// Golden-hash manifest (JSON).
    pub hashes_json: String,
    /// Golden hash over every point's `(id, label, run_hash)`.
    pub sweep_hash: u64,
}

/// The per-point facts the summary and effect analysis work from.
struct PointFacts {
    id: String,
    label: String,
    /// Effective value of every axis at this point (override or base).
    axes: Vec<(&'static str, String)>,
    worst_path: String,
    e2e_mean_ms: f64,
    e2e_p99_ms: f64,
    drop_pct: f64,
    cpu_w: f64,
    gpu_w: f64,
    loc_err_m: f64,
    time_degraded_s: f64,
    recovery_latency_ms: f64,
    run_hash: u64,
}

fn facts(spec: &SweepSpec, result: &PointResult) -> PointFacts {
    let base = spec.base_config();
    let config = result.point.apply(&base);
    let m = run_metrics(&result.report);
    PointFacts {
        id: result.point.id(),
        label: result.point.label(),
        axes: vec![
            ("detector", config.detector.name().to_string()),
            ("traffic_density", format!("{}", config.scenario.traffic_density)),
            ("camera_rate_hz", format!("{}", config.camera.rate_hz)),
            ("lidar_rate_hz", format!("{}", config.lidar.rate_hz)),
            ("queue_capacity", format!("{}", config.queue_capacity)),
            ("seed", format!("{}", config.seed)),
            (
                "blackouts",
                result.point.blackouts.as_ref().map_or_else(
                    || {
                        if config.blackouts.is_empty() {
                            "none".to_string()
                        } else {
                            "base".to_string()
                        }
                    },
                    |b| b.label.clone(),
                ),
            ),
            (
                "faults",
                result.point.faults.as_ref().map_or_else(
                    || {
                        if config.faults.is_empty() {
                            "none".to_string()
                        } else {
                            "base".to_string()
                        }
                    },
                    |f| f.label.clone(),
                ),
            ),
            ("restart_backoff_s", format!("{}", config.supervision.restart_initial_backoff_s)),
        ],
        e2e_mean_ms: m.e2e_mean_ms,
        e2e_p99_ms: m.e2e_p99_ms,
        worst_path: m.worst_path,
        drop_pct: m.drop_pct,
        cpu_w: m.cpu_w,
        gpu_w: m.gpu_w,
        loc_err_m: m.loc_err_m,
        time_degraded_s: m.time_degraded_s,
        recovery_latency_ms: m.recovery_latency_ms,
        run_hash: result.run_hash,
    }
}

fn summary_table(all: &[PointFacts]) -> Table {
    let mut table = Table::with_headers(&[
        "Point",
        "Detector",
        "Density",
        "Cam Hz",
        "LiDAR Hz",
        "Qcap",
        "Seed",
        "Blackouts",
        "Faults",
        "Backoff s",
        "Worst path",
        "E2E mean ms",
        "E2E p99 ms",
        "Drop %",
        "CPU W",
        "GPU W",
        "Loc err m",
        "Degraded s",
        "Rec ms",
        "Run hash",
    ]);
    for f in all {
        let axis = |name: &str| {
            f.axes.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone()).unwrap_or_default()
        };
        table.add_row(vec![
            f.id.clone(),
            axis("detector"),
            axis("traffic_density"),
            axis("camera_rate_hz"),
            axis("lidar_rate_hz"),
            axis("queue_capacity"),
            axis("seed"),
            axis("blackouts"),
            axis("faults"),
            axis("restart_backoff_s"),
            f.worst_path.clone(),
            format!("{:.2}", f.e2e_mean_ms),
            format!("{:.2}", f.e2e_p99_ms),
            format!("{:.2}", f.drop_pct),
            format!("{:.2}", f.cpu_w),
            format!("{:.2}", f.gpu_w),
            format!("{:.3}", f.loc_err_m),
            format!("{:.3}", f.time_degraded_s),
            format!("{:.1}", f.recovery_latency_ms),
            format!("{:#018x}", f.run_hash),
        ]);
    }
    table
}

/// Relative spread above which an axis is flagged as moving tail
/// latency (20 % of the smallest group mean).
const TAIL_FLAG_REL: f64 = 0.20;
/// Absolute drop-rate spread (percentage points) above which an axis is
/// flagged as moving the drop rate.
const DROP_FLAG_PP: f64 = 1.0;

fn effects_report(spec_name: &str, all: &[PointFacts]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# knob effects — sweep {spec_name:?}\n");
    let _ = writeln!(
        out,
        "Per-axis means over the {} sweep points (grouping by the axis's\n\
         effective value, all other knobs pooled). An axis is flagged when\n\
         it spreads mean tail latency by more than {:.0} % or the drop rate\n\
         by more than {} percentage point(s).\n",
        all.len(),
        TAIL_FLAG_REL * 100.0,
        DROP_FLAG_PP
    );
    let axis_count = all.first().map_or(0, |f| f.axes.len());
    let mut flagged = Vec::new();
    for axis_idx in 0..axis_count {
        let name = all[0].axes[axis_idx].0;
        // Group by effective value, preserving first-seen (ordinal) order.
        let mut groups: Vec<(&str, Vec<&PointFacts>)> = Vec::new();
        for f in all {
            let value = f.axes[axis_idx].1.as_str();
            match groups.iter_mut().find(|(v, _)| *v == value) {
                Some((_, members)) => members.push(f),
                None => groups.push((value, vec![f])),
            }
        }
        if groups.len() < 2 {
            continue;
        }
        let _ = writeln!(out, "## {name}\n");
        let mut table = Table::with_headers(&["Value", "Points", "Mean e2e p99 ms", "Mean drop %"]);
        let mut p99s = Vec::new();
        let mut drops = Vec::new();
        for (value, members) in &groups {
            let n = members.len() as f64;
            let p99 = members.iter().map(|f| f.e2e_p99_ms).sum::<f64>() / n;
            let drop = members.iter().map(|f| f.drop_pct).sum::<f64>() / n;
            p99s.push(p99);
            drops.push(drop);
            table.add_row(vec![
                value.to_string(),
                members.len().to_string(),
                format!("{p99:.2}"),
                format!("{drop:.2}"),
            ]);
        }
        let _ = writeln!(out, "{table}");
        let (p99_min, p99_max) =
            p99s.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let (drop_min, drop_max) =
            drops.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let tail_moves = p99_min > 0.0 && (p99_max - p99_min) / p99_min > TAIL_FLAG_REL;
        let drop_moves = drop_max - drop_min > DROP_FLAG_PP;
        if tail_moves {
            let line = format!(
                "{name} moves tail latency: mean e2e p99 spans {p99_min:.2}-{p99_max:.2} ms"
            );
            let _ = writeln!(out, "FLAG: {line}");
            flagged.push(line);
        }
        if drop_moves {
            let line =
                format!("{name} moves drop rate: mean drop % spans {drop_min:.2}-{drop_max:.2}");
            let _ = writeln!(out, "FLAG: {line}");
            flagged.push(line);
        }
        if !tail_moves && !drop_moves {
            let _ = writeln!(out, "no significant effect at this sweep's resolution");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "## verdict\n");
    if flagged.is_empty() {
        let _ = writeln!(out, "no knob moved tail latency or drop rate beyond the thresholds");
    } else {
        for line in &flagged {
            let _ = writeln!(out, "- {line}");
        }
    }
    out
}

fn point_report(spec_name: &str, facts: &PointFacts, result: &PointResult) -> String {
    let report = &result.report;
    let mut out = String::new();
    let _ = writeln!(out, "# sweep {spec_name:?} — point {} ({})\n", facts.id, facts.label);
    for (name, value) in &facts.axes {
        let _ = writeln!(out, "{name} = {value}");
    }
    let _ = writeln!(out, "run hash = {:#018x}\n", facts.run_hash);
    let _ = writeln!(out, "## path latencies (Fig 6)\n\n{}", report.path_table());
    let _ = writeln!(out, "## queue drops (Table III)\n\n{}", report.drop_table());
    let [cpu, gpu, total] = power_cells(report);
    let _ = writeln!(out, "## power (Table VI)\n");
    let _ = writeln!(out, "CPU {cpu} W, GPU {gpu} W, total {total} W\n");
    let _ = writeln!(
        out,
        "localization error: {:.3} m mean, {:.3} m final",
        report.localization_error_m, report.localization_error_final_m
    );
    if let Some(fault) = &report.fault {
        let _ = writeln!(out, "\n## fault plane (E-fault)\n");
        let _ = writeln!(
            out,
            "crashes {} | heartbeat misses {} | restarts {} | fallback enters/exits {}/{}",
            fault.crashes,
            fault.heartbeat_misses,
            fault.restarts,
            fault.fallback_enters,
            fault.fallback_exits
        );
        let _ = writeln!(
            out,
            "messages lost {} | duplicated {} | time degraded {:.3} s | recovery latency {:.1} ms",
            fault.messages_lost,
            fault.messages_duplicated,
            fault.time_degraded_s,
            fault.recovery_latency_ms
        );
    }
    out
}

fn hashes_json(spec_name: &str, all: &[PointFacts], sweep_hash: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"sweep\": \"{spec_name}\",");
    let _ = writeln!(out, "  \"sweep_hash\": \"{sweep_hash:#018x}\",");
    out.push_str("  \"points\": [\n");
    for (i, f) in all.iter().enumerate() {
        let comma = if i + 1 < all.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"label\": \"{}\", \"hash\": \"{:#018x}\"}}{comma}",
            f.id, f.label, f.run_hash
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Aggregates a finished sweep into its artifacts. The input order does
/// not matter — results are sorted by point ordinal first.
pub fn aggregate(spec: &SweepSpec, results: &[PointResult]) -> SweepArtifacts {
    let mut ordered: Vec<&PointResult> = results.iter().collect();
    ordered.sort_by_key(|r| r.point.ordinal);
    let all: Vec<PointFacts> = ordered.iter().map(|r| facts(spec, r)).collect();

    let mut hasher = Fnv64::new();
    for f in &all {
        hasher.write_str(&f.id);
        hasher.write_str(&f.label);
        hasher.write_u64(f.run_hash);
    }
    let sweep_hash = hasher.finish();

    let table = summary_table(&all);
    let mut summary_txt = String::new();
    let _ = writeln!(
        summary_txt,
        "# sweep {:?} — {} point(s), golden hash {:#018x}\n",
        spec.name,
        all.len(),
        sweep_hash
    );
    let _ = writeln!(summary_txt, "{table}");

    SweepArtifacts {
        summary_csv: table.to_csv(),
        effects_txt: effects_report(&spec.name, &all),
        per_point: all
            .iter()
            .zip(&ordered)
            .map(|(f, r)| (f.id.clone(), point_report(&spec.name, f, r)))
            .collect(),
        hashes_json: hashes_json(&spec.name, &all, sweep_hash),
        sweep_hash,
        summary_txt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_sweep_instrumented;
    use crate::spec::WorldKind;
    use av_core::stack::RunConfig;
    use av_vision::DetectorKind;

    fn small_sweep() -> (SweepSpec, Vec<PointResult>) {
        let spec = SweepSpec {
            duration_s: Some(4.0),
            detectors: vec![DetectorKind::Ssd512, DetectorKind::YoloV3],
            camera_rate_hz: vec![10.0, 30.0],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let results = run_sweep_instrumented(&spec, &RunConfig::default(), 2).0;
        (spec, results)
    }

    #[test]
    fn aggregation_is_input_order_independent() {
        let (spec, mut results) = small_sweep();
        let forward = aggregate(&spec, &results);
        results.reverse();
        let reversed = aggregate(&spec, &results);
        assert_eq!(forward.summary_txt, reversed.summary_txt);
        assert_eq!(forward.summary_csv, reversed.summary_csv);
        assert_eq!(forward.effects_txt, reversed.effects_txt);
        assert_eq!(forward.hashes_json, reversed.hashes_json);
        assert_eq!(forward.sweep_hash, reversed.sweep_hash);
        assert_eq!(forward.per_point.len(), reversed.per_point.len());
        for (a, b) in forward.per_point.iter().zip(&reversed.per_point) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn artifacts_carry_the_paper_tables_and_axes() {
        let (spec, results) = small_sweep();
        let artifacts = aggregate(&spec, &results);
        assert_eq!(artifacts.per_point.len(), 4);
        assert!(artifacts.summary_txt.contains("E2E p99 ms"));
        assert!(artifacts.summary_txt.contains("SSD512"));
        assert!(artifacts.summary_csv.lines().count() == 5, "header + 4 points");
        // Effects report groups both varied axes; fixed axes are omitted.
        assert!(artifacts.effects_txt.contains("## detector"));
        assert!(artifacts.effects_txt.contains("## camera_rate_hz"));
        assert!(!artifacts.effects_txt.contains("## seed"));
        let p0 = &artifacts.per_point[0].1;
        assert!(p0.contains("path latencies (Fig 6)"));
        assert!(p0.contains("queue drops (Table III)"));
        assert!(p0.contains("power (Table VI)"));
        assert!(artifacts.hashes_json.contains("\"sweep_hash\""));
    }
}
