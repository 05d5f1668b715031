//! The four workloads: inputs generated from the seed, a timed loop of
//! operations, correctness checks on every answer, and the layer
//! counters each workload exposes.
//!
//! The library only ever sees generated configurations and requests;
//! neither the seed nor the workload name reaches it.

use crate::metrics::peak_heap_mb;
use crate::replay::{attribute, Attribution};
use crate::spans::Spans;
use av_core::ckptstore::CkptStore;
use av_core::determinism::run_hash;
use av_core::stack::{run_drive, RunConfig, RunReport, StackConfig};
use av_core::topics;
use av_sweep::{
    run_search_with_store, run_sweep_instrumented, BlackoutSpec, SearchOutcome, SearchSpec,
    SearchStats, SweepSpec, WorldKind,
};
use av_vision::DetectorKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["drive-paper", "sweep-smoke", "serve-mixed", "search-halving"];

/// Set-up is repeated this many times per run; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// Worker threads for sweeps and searches. One: on the two shared vCPUs
/// a two-worker batch waits for whichever vCPU the host slows, which
/// tripled the run-to-run spread; parallel speed-up is not measurable
/// here anyway.
pub const JOBS: usize = 1;

/// Detectors a workload cycles through, in order.
pub const DETECTORS: [DetectorKind; 3] =
    [DetectorKind::Ssd512, DetectorKind::Ssd300, DetectorKind::YoloV3];

/// What one run is asked to do.
pub struct Plan {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget: operations start while the measured time is
    /// below it (always at least one full cycle).
    pub seconds: f64,
    /// Tiny sizes and exactly one cycle (`--check`).
    pub check: bool,
    /// Record spans and run the attribution pass.
    pub trace: bool,
    /// Scratch directory for stores and spools; removed afterwards.
    pub work: PathBuf,
}

impl Plan {
    fn more(&self, measured_s: f64, cycles: usize) -> bool {
        cycles == 0 || (!self.check && measured_s < self.seconds)
    }
}

/// Everything a run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check, errored or were refused.
    pub failed: u64,
    /// What went wrong, one line per problem.
    pub errors: Vec<String>,
    /// Per-operation host latency, seconds.
    pub op_s: Vec<f64>,
    /// Work items answered (drives, points, requests, evaluations).
    pub items: u64,
    /// Virtual seconds answered.
    pub sim_s: f64,
    /// Host seconds the throughputs are measured over.
    pub measured_s: f64,
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Heap of the first cycle, MB: its high-water mark, or for the
    /// service what it retains once both clients finished the cycle.
    pub heap_mb: f64,
    /// Digest of the first cycle's outputs, checked against the pins.
    pub digest: Digest,
    /// Workload-specific layer counters (traced runs report them).
    pub layers: BTreeMap<&'static str, f64>,
    /// Attribution of one representative drive (traced runs only).
    pub attribution: Option<Attribution>,
}

impl Outcome {
    /// Records one finished operation.
    pub fn record(&mut self, latency_s: f64, items: u64, sim_s: f64, problems: Vec<String>) {
        self.attempted += 1;
        self.op_s.push(latency_s);
        self.measured_s += latency_s;
        self.items += items;
        self.sim_s += sim_s;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors.extend(problems);
        }
    }

    /// No operation failed and no check complained.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Adds `value` to layer counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }
}

/// FNV-1a-64, the benchmark's own digest (independent of the library's
/// hashing, so a library refactor cannot move the pins by accident).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a word.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64: the input generator, keyed by seed and stream name.
pub struct Rng(u64);

impl Rng {
    /// The generator for `stream` under `seed`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut d = Digest::default();
        d.bytes(stream.as_bytes());
        Rng(seed ^ d.0)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seed that survives a round trip through JSON numbers.
    pub fn seed53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Runs workload `name`.
pub fn run(name: &str, plan: &Plan, sp: &mut Spans) -> Result<Outcome, String> {
    match name {
        "drive-paper" => Ok(drive_paper(plan, sp)),
        "sweep-smoke" => Ok(sweep_smoke(plan, sp)),
        "serve-mixed" => crate::serve::serve_mixed(plan, sp),
        "search-halving" => search_halving(plan, sp),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}

/// Sanity checks any seed's drive must pass.
pub fn check_drive(report: &RunReport, duration_s: f64) -> Vec<String> {
    let mut problems = Vec::new();
    // The run drains in-flight work past the horizon, never stops short.
    if report.elapsed.as_secs_f64() < duration_s - 1e-6 {
        problems
            .push(format!("drive ran {} s, asked {duration_s} s", report.elapsed.as_secs_f64()));
    }
    for node in topics::nodes::PERCEPTION {
        if report.node_summary(node).count == 0 {
            problems.push(format!("node {node} never completed a callback"));
        }
    }
    // Localization error is sampled only after a 4 s warm-up.
    if duration_s > 5.0 && !report.localization_error_m.is_finite() {
        problems.push("localization error is not finite".to_string());
    }
    problems
}

/// `drive-paper`: cold drives in the paper world, one after another,
/// cycling the detectors, each with its own seed (so its own HD map).
fn drive_paper(p: &Plan, sp: &mut Spans) -> Outcome {
    let mut o = Outcome::default();
    let world = if p.check { WorldKind::Smoke } else { WorldKind::Paper };
    let drive_s = if p.check { 2.0 } else { 20.0 };
    let mut rng = Rng::new(p.seed, "drive-paper");
    let mut fixed = Rng::new(0, "set-up");
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let mut warm = world.base_config();
        warm.seed = fixed.seed53();
        sp.time("engine.warmup", || run_drive(&warm, &RunConfig::seconds(1.0)));
        o.setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut first: Option<StackConfig> = None;
    let mut cycles = 0;
    while p.more(o.measured_s, cycles) {
        for detector in DETECTORS {
            let mut config = world.base_config();
            config.detector = detector;
            config.seed = rng.seed53();
            first.get_or_insert_with(|| config.clone());
            sp.set_op(o.attempted);
            sp.enter("op");
            let started = Instant::now();
            let report =
                sp.time("engine.run_drive", || run_drive(&config, &RunConfig::seconds(drive_s)));
            let latency = started.elapsed().as_secs_f64();
            let hash = sp.time("determinism.run_hash", || run_hash(&report));
            let problems = check_drive(&report, drive_s);
            sp.exit();
            o.record(latency, 1, drive_s, problems);
            if cycles == 0 {
                o.digest.word(hash);
                o.add("mapping.calls", 1.0);
            }
        }
        if cycles == 0 {
            o.heap_mb = peak_heap_mb();
        }
        cycles += 1;
    }
    if p.trace {
        let config = first.expect("at least one cycle ran");
        attribute_into(&mut o, &config, drive_s);
    }
    o
}

pub(crate) fn attribute_into(o: &mut Outcome, config: &StackConfig, duration_s: f64) {
    match attribute(config, duration_s) {
        Ok(a) => o.attribution = Some(a),
        Err(e) => {
            o.failed += 1;
            o.errors.push(format!("attribution: {e}"));
        }
    }
}

fn blackouts(labels: &[&str]) -> Vec<BlackoutSpec> {
    labels.iter().map(|l| BlackoutSpec::parse(l).expect("valid blackout label")).collect()
}

/// `sweep-smoke`: batches of short smoke-world drives. Blackout-only
/// siblings share a checkpointed prefix; each batch has fresh seeds.
fn sweep_smoke(p: &Plan, sp: &mut Spans) -> Outcome {
    let mut o = Outcome::default();
    let mut rng = Rng::new(p.seed, "sweep-smoke");
    let batch = |rng: &mut Rng| {
        let mut spec = SweepSpec::new("avbench", WorldKind::Smoke);
        if p.check {
            spec.duration_s = Some(2.0);
            spec.detectors = vec![DetectorKind::Ssd512, DetectorKind::YoloV3];
            spec.camera_rate_hz = vec![20.0];
            spec.blackouts = blackouts(&["none", "lidar:1.5-1.8"]);
        } else {
            spec.duration_s = Some(8.0);
            spec.detectors = DETECTORS.to_vec();
            spec.camera_rate_hz = vec![10.0, 20.0];
            spec.blackouts = blackouts(&["none", "lidar:4-6"]);
        }
        spec.seeds = vec![rng.seed53()];
        spec
    };
    let mut fixed = Rng::new(0, "set-up");
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let mut warm = SweepSpec::new("avbench-warmup", WorldKind::Smoke);
        warm.duration_s = Some(2.0);
        warm.blackouts = blackouts(&["none", "lidar:1.5-1.8"]);
        warm.seeds = vec![fixed.seed53()];
        sp.time("engine.warmup", || run_sweep_instrumented(&warm, &RunConfig::default(), JOBS));
        o.setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut first: Option<(StackConfig, f64)> = None;
    let mut cycles = 0;
    while p.more(o.measured_s, cycles) {
        let spec = batch(&mut rng);
        let duration_s = spec.duration_s.expect("batches set a duration");
        let points = spec.points();
        sp.set_op(o.attempted);
        sp.enter("op");
        let started = Instant::now();
        let (results, stats) = sp.time("engine.run_sweep", || {
            run_sweep_instrumented(&spec, &RunConfig::default(), JOBS)
        });
        let latency = started.elapsed().as_secs_f64();
        let mut problems = Vec::new();
        if results.len() != points.len() || stats.points != points.len() {
            problems.push(format!("sweep answered {} of {} points", results.len(), points.len()));
        }
        // Sharing must stay invisible: one point per batch, rotating,
        // must equal its own cold drive.
        let probe = cycles % points.len();
        let config = points[probe].apply(&spec.base_config());
        first.get_or_insert_with(|| (points[0].apply(&spec.base_config()), duration_s));
        let cold =
            sp.time("engine.verify_drive", || run_drive(&config, &RunConfig::seconds(duration_s)));
        let cold_hash = sp.time("determinism.run_hash", || run_hash(&cold));
        if results.get(probe).map(|r| r.run_hash) != Some(cold_hash) {
            problems.push(format!("sweep point {probe} differs from its cold drive"));
        }
        sp.exit();
        if cycles == 0 {
            for r in &results {
                o.digest.word(r.run_hash);
            }
            o.add("mapping.calls", stats.unique_points as f64);
            o.add("sweep.unique_points", stats.unique_points as f64);
            o.add("sweep.deduped", stats.deduped as f64);
            o.add("sweep.resumed_points", stats.resumed_points as f64);
            o.add("sweep.shared_prefix_s", stats.shared_prefix_s);
            o.add("sweep.simulated_s", stats.simulated_s);
            o.heap_mb = peak_heap_mb();
        }
        o.record(latency, points.len() as u64, duration_s * points.len() as f64, problems);
        cycles += 1;
    }
    if p.trace {
        let (config, duration_s) = first.expect("at least one cycle ran");
        attribute_into(&mut o, &config, duration_s);
    }
    o
}

fn search_spec(rng: &mut Rng, check: bool) -> SearchSpec {
    let (duration, initial, rungs, cap) = if check { (2.0, 4, 2, 4.0) } else { (2.0, 4, 3, 8.0) };
    let text = format!(
        "{{\"name\":\"avbench\",\"world\":\"smoke\",\"duration_s\":{duration:?},\
         \"objective\":\"e2e_p99_ms\",\"halving\":{{\"knobs\":[\
         {{\"knob\":\"camera_rate_hz\",\"lo\":10.0,\"hi\":40.0}},\
         {{\"knob\":\"queue_capacity\",\"lo\":1.0,\"hi\":4.0}}],\
         \"initial\":{initial},\"eta\":2,\"rungs\":{rungs},\"seed\":{},\
         \"max_duration_s\":{cap:?}}}}}",
        rng.seed53()
    );
    SearchSpec::from_json(&text).expect("generated search spec parses")
}

fn answered_sim_s(outcome: &SearchOutcome) -> f64 {
    outcome.batches.iter().flat_map(|b| &b.evals).map(|e| e.duration_s).sum()
}

fn open_store(dir: &std::path::Path, sp: &mut Spans) -> Result<(CkptStore, usize), String> {
    let (store, recovery) = sp
        .time("ckpt.open", || CkptStore::open(dir))
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    if !recovery.is_clean() {
        return Err(format!("store recovery quarantined entries: {}", recovery.render()));
    }
    Ok((store, recovery.loaded))
}

/// `search-halving`: seeded successive-halving searches, each run twice:
/// into a fresh durable store, then again after reopening it.
fn search_halving(p: &Plan, sp: &mut Spans) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let mut rng = Rng::new(p.seed, "search-halving");
    let fresh = |name: &str| -> PathBuf {
        let dir = p.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // Set-up: reopen (recovery scan) a store an earlier search filled,
    // then a small warm-up search against it.
    let warm_dir = fresh("search-warmup");
    let mut fixed = Rng::new(0, "set-up");
    {
        let (store, _) = open_store(&warm_dir, sp)?;
        run_search_with_store(&search_spec(&mut fixed, true), JOBS, &[], Some(&store));
    }
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let (store, _) = open_store(&warm_dir, sp)?;
        let spec = search_spec(&mut fixed, true);
        sp.time("engine.warmup", || run_search_with_store(&spec, JOBS, &[], Some(&store)));
        o.setup_s.push(started.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&warm_dir);

    let mut cycles = 0;
    while p.more(o.measured_s, cycles) {
        let spec = search_spec(&mut rng, p.check);
        let dir = fresh("search-store");
        sp.set_op(o.attempted);
        sp.enter("op");
        let started = Instant::now();
        let (store, _) = open_store(&dir, sp)?;
        let (first, s1) =
            sp.time("engine.search", || run_search_with_store(&spec, JOBS, &[], Some(&store)));
        let (puts, bytes) = (store.len(), store.total_bytes());
        drop(store);
        let (store, scanned) = open_store(&dir, sp)?;
        let (second, s2) =
            sp.time("engine.search", || run_search_with_store(&spec, JOBS, &[], Some(&store)));
        let latency = started.elapsed().as_secs_f64();
        drop(store);
        let mut problems = Vec::new();
        if second.search_hash != first.search_hash
            || format!("{:?}", second.answer) != format!("{:?}", first.answer)
        {
            problems.push("search pass 2 (from the store) differs from pass 1".to_string());
        }
        if first.evaluations() == 0 {
            problems.push("search ran no evaluations".to_string());
        }
        sp.exit();
        if cycles == 0 {
            o.digest.word(first.search_hash);
            search_counters(&mut o, &[&s1, &s2]);
            o.add("ckpt.puts", puts as f64);
            o.add("ckpt.bytes_written", bytes as f64);
            o.add("ckpt.entries_scanned", scanned as f64);
            o.heap_mb = peak_heap_mb();
        }
        let items = (first.evaluations() + second.evaluations()) as u64;
        let sim_s = answered_sim_s(&first) + answered_sim_s(&second);
        o.record(latency, items, sim_s, problems);
        let _ = std::fs::remove_dir_all(&dir);
        cycles += 1;
    }
    if p.trace {
        attribute_into(&mut o, &WorldKind::Smoke.base_config(), if p.check { 2.0 } else { 4.0 });
    }
    Ok(o)
}

fn search_counters(o: &mut Outcome, passes: &[&SearchStats]) {
    for s in passes {
        o.add("mapping.calls", (s.evaluations + s.store_hits) as f64);
        o.add("search.evaluations", s.evaluations as f64);
        o.add("search.warm_resumes", s.warm_resumes as f64);
        o.add("search.store_resumes", s.store_resumes as f64);
        o.add("search.cache_hits", s.cache_hits as f64);
        o.add("search.store_hits", s.store_hits as f64);
        o.add("search.simulated_s", s.simulated_s);
        o.add("ckpt.resumes", (s.warm_resumes + s.store_hits) as f64);
        o.add("ckpt.resumed_prefix_s", s.resumed_prefix_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (r.next_u64(), r.seed53(), r.below(7))
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
        let mut r = Rng::new(9, "x");
        assert!((0..1000).all(|_| r.seed53() < 1 << 53 && r.below(3) < 3));
    }
}
