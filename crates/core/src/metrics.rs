//! Scalar metrics extracted from a finished run.
//!
//! A [`RunReport`] carries full distributions; optimization loops (the
//! scenario-space search in `av-sweep`) and cross-run tables need single
//! numbers. This module is the one place those scalars are defined, so
//! the sweep aggregator and the search objective agree byte-for-byte on
//! what "p99 end-to-end latency" or "drop rate" means.

use crate::stack::{computation_paths, RunReport};
use av_trace::blame::{analyze_blame, Component};
use std::collections::BTreeMap;

/// The perception deadline the paper's Finding 2 is stated against:
/// "the detection results... should be delivered within 100 ms".
pub const DEADLINE_MS: f64 = 100.0;

/// Scalar facts about one run, all derived deterministically from the
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Name of the worst computation path by mean (the paper's
    /// end-to-end definition), `-` when no path completed.
    pub worst_path: String,
    /// Mean end-to-end latency over the worst path, ms.
    pub e2e_mean_ms: f64,
    /// p99 end-to-end latency over the worst path, ms.
    pub e2e_p99_ms: f64,
    /// Peak end-to-end latency over the worst path, ms.
    pub e2e_max_ms: f64,
    /// `e2e_p99_ms / DEADLINE_MS` — how many times over the 100 ms
    /// deadline the tail is. Finding 2's "broken by more than 2×" is
    /// `deadline_factor > 2`.
    pub deadline_factor: f64,
    /// Fraction of end-to-end frames over the 100 ms deadline.
    pub deadline_miss_fraction: f64,
    /// Dropped messages as a percentage of delivered messages, summed
    /// over every subscription.
    pub drop_pct: f64,
    /// Mean CPU power, W.
    pub cpu_w: f64,
    /// Mean GPU power, W.
    pub gpu_w: f64,
    /// Mean localization error, m.
    pub loc_err_m: f64,
    /// Total wall-clock time spent degraded (node down or running on a
    /// fallback), s. Zero for clean runs.
    pub time_degraded_s: f64,
    /// Worst crash-to-first-callback recovery latency, ms. Zero for
    /// clean runs and runs with no crash.
    pub recovery_latency_ms: f64,
    /// Messages dropped by injected edge faults (distinct from
    /// queue-capacity drops counted in `drop_pct`).
    pub fault_lost_msgs: u64,
}

/// Extracts the scalar metrics from a run report.
pub fn run_metrics(report: &RunReport) -> RunMetrics {
    let (worst_path, e2e) = report
        .end_to_end()
        .map(|(name, s)| (name, Some(s)))
        .unwrap_or_else(|| ("-".to_string(), None));
    let deadline_miss_fraction = report
        .recorder
        .path_latencies(&worst_path)
        .map(|d| d.fraction_above(DEADLINE_MS))
        .unwrap_or(0.0);
    let delivered: u64 = report.drops.iter().map(|d| d.delivered).sum();
    let dropped: u64 = report.drops.iter().map(|d| d.dropped).sum();
    let drop_pct = if delivered == 0 { 0.0 } else { 100.0 * dropped as f64 / delivered as f64 };
    let e2e_p99_ms = e2e.as_ref().map_or(0.0, |s| s.p99);
    RunMetrics {
        worst_path,
        e2e_mean_ms: e2e.as_ref().map_or(0.0, |s| s.mean),
        e2e_p99_ms,
        e2e_max_ms: e2e.as_ref().map_or(0.0, |s| s.max),
        deadline_factor: e2e_p99_ms / DEADLINE_MS,
        deadline_miss_fraction,
        drop_pct,
        cpu_w: report.power.cpu_w,
        gpu_w: report.power.gpu_w,
        loc_err_m: report.localization_error_m,
        time_degraded_s: report.fault.as_ref().map_or(0.0, |f| f.time_degraded_s),
        recovery_latency_ms: report.fault.as_ref().map_or(0.0, |f| f.recovery_latency_ms),
        fault_lost_msgs: report.fault.as_ref().map_or(0, |f| f.messages_lost),
    }
}

/// Blame-attribution scalars from a traced run, keyed for sweep columns
/// and search objectives (`blame:<key>`):
///
/// * `critical_path_share_queue` — queue-wait share of the worst path's
///   p99 instance (Finding 1's contention signal),
/// * `critical_path_share_queue_p50` — the same share at the median, so
///   the tail-vs-typical gap is one subtraction away,
/// * `p99_blame_<node>` — each node's share of the worst path's p99
///   instance (COLA-style tail blame),
/// * `energy_per_frame_<node>_mj` — mean attributed energy per worst-path
///   instance, by node.
///
/// Errors when the run was not traced (`RunConfig::with_trace`) or when a
/// blame chain cannot be reconstructed.
pub fn blame_scalars(report: &RunReport) -> Result<BTreeMap<String, f64>, String> {
    let trace =
        report.trace.as_ref().ok_or("blame scalars need a traced run (RunConfig::with_trace)")?;
    let blame = analyze_blame(trace, &computation_paths())?;
    let mut out = BTreeMap::new();
    let Some((worst, _)) = report.end_to_end() else { return Ok(out) };
    let Some(path) = blame.path(&worst) else { return Ok(out) };
    out.insert(
        "critical_path_share_queue".to_string(),
        path.component_share_at(99.0, Component::QueueWait),
    );
    out.insert(
        "critical_path_share_queue_p50".to_string(),
        path.component_share_at(50.0, Component::QueueWait),
    );
    if let Some(inst) = path.instance_at_percentile(99.0) {
        let total = inst.total_ns().max(1);
        for (node, ns) in inst.node_ns() {
            out.insert(format!("p99_blame_{node}"), ns as f64 / total as f64);
        }
    }
    for (node, mj) in path.mean_energy_mj_by_node() {
        out.insert(format!("energy_per_frame_{node}_mj"), mj);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{run_drive, RunConfig, StackConfig};
    use av_vision::DetectorKind;

    #[test]
    fn metrics_agree_with_the_report_distributions() {
        let config = StackConfig::smoke_test(DetectorKind::YoloV3);
        let report = run_drive(&config, &RunConfig::seconds(5.0));
        let m = run_metrics(&report);
        let (name, e2e) = report.end_to_end().expect("paths completed");
        assert_eq!(m.worst_path, name);
        assert_eq!(m.e2e_p99_ms, e2e.p99);
        assert_eq!(m.e2e_mean_ms, e2e.mean);
        assert_eq!(m.deadline_factor, e2e.p99 / DEADLINE_MS);
        assert!(m.deadline_miss_fraction >= 0.0 && m.deadline_miss_fraction <= 1.0);
        assert!(m.drop_pct >= 0.0);
        assert!(m.cpu_w > 0.0 && m.gpu_w > 0.0);
        assert_eq!(m.time_degraded_s, 0.0);
        assert_eq!(m.recovery_latency_ms, 0.0);
        assert_eq!(m.fault_lost_msgs, 0);
    }

    #[test]
    fn blame_scalars_require_a_trace_and_shares_sum_to_one() {
        let config = StackConfig::smoke_test(DetectorKind::YoloV3);
        let untraced = run_drive(&config, &RunConfig::seconds(5.0));
        assert!(blame_scalars(&untraced).is_err(), "untraced runs cannot be attributed");

        let report = run_drive(&config, &RunConfig::seconds(5.0).with_trace());
        let m = blame_scalars(&report).expect("traced run attributes");
        let q99 = m["critical_path_share_queue"];
        let q50 = m["critical_path_share_queue_p50"];
        assert!((0.0..=1.0).contains(&q99), "queue share {q99}");
        assert!((0.0..=1.0).contains(&q50), "queue share {q50}");
        let blame_sum: f64 =
            m.iter().filter(|(k, _)| k.starts_with("p99_blame_")).map(|(_, v)| v).sum();
        assert!((blame_sum - 1.0).abs() < 1e-9, "p99 blame shares sum to 1, got {blame_sum}");
        assert!(m.keys().any(|k| k.starts_with("energy_per_frame_")), "energy scalars present");
    }
}
