//! Golden determinism hashes over run outputs.
//!
//! Every drive is a deterministic discrete-event simulation, so its key
//! outputs — latency samples, drop counts, path sums, device statistics,
//! finding verdicts — must be *bit-identical* regardless of how many
//! worker threads executed the matrix or which kernel implementation
//! (reference or optimized) ran underneath. This module folds those
//! outputs into a single FNV-1a 64-bit hash; the determinism harness
//! asserts the hash is byte-identical across `--jobs 1` / `--jobs 8`
//! and across kernel swaps.
//!
//! Floats are hashed via [`f64::to_bits`], so the check is exact bit
//! equality, not an epsilon comparison. Hash-map contents are folded in
//! sorted key order so the hash never depends on iteration order.

use crate::experiments::{ExperimentMatrix, IsolationResult};
use crate::findings::FindingsReport;
use crate::stack::RunReport;
use av_trace::{TraceData, TraceEvent};

/// Incremental FNV-1a 64-bit hasher (the classic offset basis / prime
/// pair), used instead of `DefaultHasher` because its output is stable
/// across Rust releases — golden values can live in tests and docs.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: Fnv64::OFFSET_BASIS }
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Fnv64::PRIME);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string (bytes plus a length terminator, so `("ab","c")`
    /// and `("a","bc")` hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    /// Folds a slice of floats, preserving order.
    pub fn write_f64_slice(&mut self, vs: &[f64]) {
        self.write_u64(vs.len() as u64);
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of `bytes`: the fingerprint behind checkpoint
/// configuration keys, checkpoint-store checksums and evaluation-cache
/// keys.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Hashes every key output of one drive: per-node latency and queue-wait
/// samples (in arrival order), per-path latency samples, subscription
/// drop statistics, CPU/GPU device statistics, power, and the
/// localization metrics.
pub fn run_hash(report: &RunReport) -> u64 {
    let mut h = Fnv64::new();
    fold_run(&mut h, report);
    h.finish()
}

fn fold_run(h: &mut Fnv64, report: &RunReport) {
    h.write_str(report.detector.name());
    h.write_f64(report.elapsed.as_secs_f64());

    let rec = &report.recorder;
    for node in rec.nodes() {
        h.write_str(&node);
        if let Some(d) = rec.node_latencies(&node) {
            h.write_f64_slice(d.samples());
        }
        if let Some(d) = rec.node_queue_wait(&node) {
            h.write_f64_slice(d.samples());
        }
    }
    for path in rec.paths() {
        h.write_str(&path);
        if let Some(d) = rec.path_latencies(&path) {
            h.write_f64_slice(d.samples());
        }
    }
    let mut observed: Vec<(&(String, String), &u64)> = rec.observed_drops().iter().collect();
    observed.sort();
    for ((topic, node), count) in observed {
        h.write_str(topic);
        h.write_str(node);
        h.write_u64(*count);
    }

    // Subscription-level delivery/drop counters (Table III inputs).
    let mut drops = report.drops.clone();
    drops.sort_by(|a, b| (&a.topic, &a.node).cmp(&(&b.topic, &b.node)));
    for d in &drops {
        h.write_str(&d.topic);
        h.write_str(&d.node);
        h.write_u64(d.delivered);
        h.write_u64(d.dropped);
    }

    // Device statistics (Table V/VI inputs).
    h.write_u64(report.cpu.tasks_completed);
    h.write_f64(report.cpu.total_busy.as_secs_f64());
    h.write_f64(report.cpu.total_wait.as_secs_f64());
    h.write_f64(report.cpu.max_wait.as_secs_f64());
    let mut cpu_clients: Vec<_> = report.cpu.busy_by_client.iter().collect();
    cpu_clients.sort_by(|a, b| a.0.cmp(b.0));
    for (client, busy) in cpu_clients {
        h.write_str(client);
        h.write_f64(busy.as_secs_f64());
    }
    h.write_u64(report.cores as u64);
    h.write_u64(report.gpu.jobs_completed);
    h.write_f64(report.gpu.total_busy.as_secs_f64());
    h.write_f64(report.gpu.total_energy_j);
    h.write_f64(report.gpu.total_wait.as_secs_f64());
    h.write_f64(report.gpu.max_wait.as_secs_f64());
    let mut gpu_clients: Vec<_> = report.gpu.busy_by_client.iter().collect();
    gpu_clients.sort_by(|a, b| a.0.cmp(b.0));
    for (client, busy) in gpu_clients {
        h.write_str(client);
        h.write_f64(busy.as_secs_f64());
    }

    h.write_f64(report.power.cpu_w);
    h.write_f64(report.power.gpu_w);
    h.write_f64(report.localization_error_m);
    h.write_f64(report.localization_error_final_m);

    // The structured trace, when one was recorded. Folding the events and
    // samples makes the golden hash cover the whole observability layer:
    // a traced run must produce a bit-identical timeline at every `--jobs`
    // level. Untraced runs skip this block, so pre-trace golden values
    // stay valid.
    if let Some(trace) = &report.trace {
        fold_trace(h, trace);
    }
    if let Some(fault) = &report.fault {
        h.write_u64(fault.crashes);
        h.write_u64(fault.heartbeat_misses);
        h.write_u64(fault.restarts);
        h.write_u64(fault.fallback_enters);
        h.write_u64(fault.fallback_exits);
        h.write_u64(fault.messages_lost);
        h.write_u64(fault.messages_duplicated);
        h.write_f64(fault.time_degraded_s);
        h.write_f64(fault.recovery_latency_ms);
    }
}

fn fold_trace(h: &mut Fnv64, trace: &TraceData) {
    h.write_u64(trace.sample_interval.as_nanos());
    // The scheduling-policy header is folded only when present, so
    // FIFO runs (which never set it) keep their pre-policy hashes.
    if let Some(policy) = &trace.policy {
        h.write_str("sched_policy");
        h.write_str(policy);
    }
    h.write_u64(trace.nodes.len() as u64);
    for node in &trace.nodes {
        h.write_str(node);
    }
    h.write_u64(trace.subscriptions.len() as u64);
    for (topic, node) in &trace.subscriptions {
        h.write_str(topic);
        h.write_str(node);
    }
    h.write_u64(trace.events.len() as u64);
    for event in &trace.events {
        match event {
            TraceEvent::Callback {
                node,
                topic,
                arrival,
                started,
                completed,
                lineage,
                published,
            } => {
                h.write_u64(0);
                h.write_str(node);
                h.write_str(topic);
                h.write_u64(arrival.as_nanos());
                h.write_u64(started.as_nanos());
                h.write_u64(completed.as_nanos());
                h.write_u64(lineage.len() as u64);
                for (source, stamp) in lineage {
                    h.write_str(source.name());
                    h.write_u64(stamp.as_nanos());
                }
                h.write_u64(published.len() as u64);
                for topic in published {
                    h.write_str(topic);
                }
            }
            TraceEvent::Enqueued { topic, node, depth, time }
            | TraceEvent::Dequeued { topic, node, depth, time }
            | TraceEvent::Dropped { topic, node, depth, time } => {
                h.write_u64(match event {
                    TraceEvent::Enqueued { .. } => 1,
                    TraceEvent::Dequeued { .. } => 2,
                    _ => 3,
                });
                h.write_str(topic);
                h.write_str(node);
                h.write_u64(*depth as u64);
                h.write_u64(time.as_nanos());
            }
            TraceEvent::Fault { kind, node, info, time } => {
                h.write_u64(4);
                h.write_u64(u64::from(kind.code()));
                h.write_str(node);
                h.write_str(info);
                h.write_u64(time.as_nanos());
            }
            TraceEvent::SchedDecision { node, topic, considered, key, time } => {
                h.write_u64(5);
                h.write_str(node);
                h.write_str(topic);
                h.write_u64(*considered);
                h.write_u64(*key as u64);
                h.write_u64(time.as_nanos());
            }
        }
    }
    h.write_u64(trace.samples.len() as u64);
    for s in &trace.samples {
        h.write_u64(s.time.as_nanos());
        h.write_u64(s.queue_depths.len() as u64);
        for &d in &s.queue_depths {
            h.write_u64(d);
        }
        h.write_f64_slice(&s.node_busy_frac);
        h.write_f64(s.cpu_util);
        h.write_f64(s.gpu_util);
        h.write_f64(s.cpu_w);
        h.write_f64(s.gpu_w);
    }
}

/// Hashes Fig 8 isolation rows, preserving row order.
pub fn isolation_hash(rows: &[IsolationResult]) -> u64 {
    let mut h = Fnv64::new();
    fold_isolation(&mut h, rows);
    h.finish()
}

fn fold_isolation(h: &mut Fnv64, rows: &[IsolationResult]) {
    h.write_u64(rows.len() as u64);
    for r in rows {
        h.write_str(r.detector.name());
        h.write_f64(r.isolated_mean);
        h.write_f64(r.isolated_std);
        h.write_f64(r.full_mean);
        h.write_f64(r.full_std);
        h.write_f64(r.gpu_share);
    }
}

/// Hashes the finding verdicts (the booleans the paper's five findings
/// reduce to) plus the quantities behind them.
pub fn findings_hash(findings: &FindingsReport) -> u64 {
    let mut h = Fnv64::new();
    for (node, a, b, change) in &findings.tail_inflation {
        h.write_str(node);
        h.write_f64(*a);
        h.write_f64(*b);
        h.write_f64(*change);
    }
    for (detector, p99, frac) in &findings.e2e_tail {
        h.write_str(detector.name());
        h.write_f64(*p99);
        h.write_f64(*frac);
    }
    for (detector, cpu, gpu) in &findings.utilization {
        h.write_str(detector.name());
        h.write_f64(*cpu);
        h.write_f64(*gpu);
    }
    fold_isolation(&mut h, &findings.isolation);
    for verdict in [
        findings.finding1_contention(0.2),
        findings.finding2_deadline_broken(),
        findings.finding3_not_saturated(0.7, 0.8),
        findings.finding4_isolation_underestimates(),
        findings.finding5_variability(1.5),
    ] {
        h.write_u64(u64::from(verdict));
    }
    h.finish()
}

/// The golden hash of a whole experiment matrix: every full-stack run,
/// the isolation rows, and the finding verdicts, folded in a fixed
/// order. This is the value `repro` prints and the determinism tests
/// compare across `--jobs` settings and kernel implementations.
pub fn matrix_hash(matrix: &ExperimentMatrix) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(matrix.reports.len() as u64);
    for report in &matrix.reports {
        fold_run(&mut h, report);
    }
    fold_isolation(&mut h, &matrix.isolation);
    let findings = FindingsReport::from_runs(&matrix.reports, matrix.isolation.clone());
    h.write_u64(findings_hash(&findings));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{run_drive, RunConfig, StackConfig};
    use av_vision::DetectorKind;

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn string_framing_distinguishes_boundaries() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn same_run_same_hash_different_seed_different_hash() {
        let run = RunConfig::seconds(3.0);
        let config = StackConfig::smoke_test(DetectorKind::Ssd300);
        let h1 = run_hash(&run_drive(&config, &run));
        let h2 = run_hash(&run_drive(&config, &run));
        assert_eq!(h1, h2, "identical configs must hash identically");

        let mut other = StackConfig::smoke_test(DetectorKind::Ssd300);
        other.seed ^= 1;
        let h3 = run_hash(&run_drive(&other, &run));
        assert_ne!(h1, h3, "a different seed must change the golden hash");
    }

    #[test]
    fn tracing_extends_the_hash_without_perturbing_other_outputs() {
        let config = StackConfig::smoke_test(DetectorKind::Ssd300);
        let untraced = run_drive(&config, &RunConfig::seconds(3.0));
        let traced = run_drive(&config, &RunConfig::seconds(3.0).with_trace());
        assert!(traced.trace.is_some());
        assert_ne!(
            run_hash(&untraced),
            run_hash(&traced),
            "the recorded trace must fold into the golden hash"
        );
        // Tracing is read-only: with the trace stripped, a traced run must
        // hash identically to an untraced one.
        let mut stripped = traced.clone();
        stripped.trace = None;
        assert_eq!(
            run_hash(&untraced),
            run_hash(&stripped),
            "enabling the tracer must not perturb any non-trace output"
        );
    }
}
