//! Scenario-space search: driving the sweep engine from an optimizer.
//!
//! A fixed grid (PR 3's E-sweep) can only *sample* the failure surface
//! of the stack; this module *locates* it. Two batch-iterative
//! strategies share one deterministic driver:
//!
//! * **Bisection / boundary finding** ([`BisectSpec`]) — along one knob
//!   (camera rate, traffic density, queue capacity), find the exact
//!   threshold where an objective first crosses a limit, e.g. where the
//!   100 ms perception deadline first breaks by more than 2×. Each
//!   refinement batch evaluates `sections` interior points of the
//!   current bracket in parallel, narrowing it by `sections + 1`. The
//!   break predicate is checked for monotonicity over *everything*
//!   evaluated so far: a non-monotone objective (latency that recovers
//!   at higher rates because queue drops shed load) is detected and
//!   reported with a witness pair, never silently bisected.
//! * **Successive halving** ([`HalvingSpec`]) — a seeded,
//!   RNG-reproducible search over the multi-knob space for the
//!   worst-case (highest-objective) scenario under a fixed evaluation
//!   budget. Rung 0 samples `initial` configurations from the knob
//!   ranges (in-house PCG32, so the sample is frozen by the seed alone)
//!   and evaluates them at the base drive duration; each following rung
//!   keeps the worst `1/eta` and re-evaluates them `eta`× longer.
//!
//! Every batch decision is a pure function of prior run outputs, so the
//! whole trajectory is replayable: [`run_search_instrumented`] accepts
//! the batches of an earlier (possibly truncated) run and reuses any
//! prefix whose planned evaluations match, byte-identically to
//! re-running them. The rendered artifacts sort by batch index and
//! evaluation ordinal, so they are independent of worker count and
//! completion order — the same guarantee the sweep aggregator makes,
//! extended to the optimizer loop.

use crate::cache::EvalCache;
use crate::objective::Objective;
use crate::spec::{SweepPoint, WorldKind};
use av_core::ckptstore::CkptStore;
use av_core::determinism::{run_hash, Fnv64};
use av_core::parallel::parallel_map;
use av_core::stack::{drive, drive_fingerprint, Checkpoint, DriveRequest, RunConfig};
use av_des::RngStreams;
use av_trace::json::{self, JsonValue};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A knob the search may turn. The subset of sweep axes that are
/// ordered scalars (detector and blackout schedule are categorical —
/// searches hold them fixed in the base point instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Camera frame rate, Hz.
    CameraRateHz,
    /// LiDAR sweep rate, Hz.
    LidarRateHz,
    /// Scenario traffic density (1.0 = the paper's street).
    TrafficDensity,
    /// Subscription queue capacity (integer-valued).
    QueueCapacity,
    /// Supervision restart initial backoff, seconds (the fault plan in
    /// the base point supplies the crash being recovered from).
    RestartBackoffS,
}

impl Knob {
    /// Every knob, in spec-name order.
    pub const ALL: [Knob; 5] = [
        Knob::CameraRateHz,
        Knob::LidarRateHz,
        Knob::TrafficDensity,
        Knob::QueueCapacity,
        Knob::RestartBackoffS,
    ];

    /// The spec spelling of this knob.
    pub fn name(self) -> &'static str {
        match self {
            Knob::CameraRateHz => "camera_rate_hz",
            Knob::LidarRateHz => "lidar_rate_hz",
            Knob::TrafficDensity => "traffic_density",
            Knob::QueueCapacity => "queue_capacity",
            Knob::RestartBackoffS => "restart_backoff_s",
        }
    }

    /// Parses a spec spelling.
    pub fn parse(s: &str) -> Result<Knob, String> {
        Knob::ALL.into_iter().find(|k| k.name() == s).ok_or_else(|| {
            let names: Vec<&str> = Knob::ALL.iter().map(|k| k.name()).collect();
            format!("unknown knob {s:?} (expected one of {})", names.join(", "))
        })
    }

    /// Whether the knob only takes integer values.
    pub fn is_integer(self) -> bool {
        matches!(self, Knob::QueueCapacity)
    }

    /// Snaps a proposed value onto the knob's domain (integer knobs
    /// round, capacity stays ≥ 1).
    pub fn snap(self, v: f64) -> f64 {
        if self.is_integer() {
            v.round().max(1.0)
        } else {
            v
        }
    }

    /// Writes the value into a sweep point's override slot.
    pub fn set(self, point: &mut SweepPoint, v: f64) {
        match self {
            Knob::CameraRateHz => point.camera_rate_hz = Some(v),
            Knob::LidarRateHz => point.lidar_rate_hz = Some(v),
            Knob::TrafficDensity => point.traffic_density = Some(v),
            Knob::QueueCapacity => point.queue_capacity = Some(v as usize),
            Knob::RestartBackoffS => point.restart_backoff_s = Some(v),
        }
    }
}

/// Boundary finding along one knob: locate where `objective >=
/// threshold` first becomes true.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectSpec {
    /// The knob to bisect along.
    pub knob: Knob,
    /// Lower end of the bracket (expected unbroken).
    pub lo: f64,
    /// Upper end of the bracket (expected broken).
    pub hi: f64,
    /// The objective limit defining "broken".
    pub threshold: f64,
    /// Stop once the bracket is no wider than this (knob units).
    pub tolerance: f64,
    /// Interior points evaluated per refinement batch; each batch
    /// narrows the bracket by `sections + 1`.
    pub sections: usize,
}

/// One knob range a halving search samples from.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobRange {
    /// The knob.
    pub knob: Knob,
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (exclusive for continuous knobs).
    pub hi: f64,
}

/// Successive halving over the multi-knob space, maximizing the
/// objective under a fixed evaluation budget.
#[derive(Debug, Clone, PartialEq)]
pub struct HalvingSpec {
    /// The knob ranges sampled at rung 0.
    pub knobs: Vec<KnobRange>,
    /// Number of configurations sampled at rung 0.
    pub initial: usize,
    /// Keep the worst `1/eta` per rung; drive duration also grows `eta`×
    /// per rung.
    pub eta: usize,
    /// Number of rungs (≥ 1; rung 0 is the initial batch).
    pub rungs: usize,
    /// Seed of the PCG32 stream the rung-0 sample is drawn from.
    pub seed: u64,
    /// Cap on the per-rung drive duration, seconds. Once `duration ×
    /// eta` would exceed the cap, later rungs repeat the capped
    /// duration — and a rung whose duration is unchanged carries every
    /// survivor's already-measured objective forward at zero
    /// evaluation cost (it only narrows the candidate set).
    pub max_duration_s: Option<f64>,
}

/// Which optimizer drives the sweep engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Boundary finding along one knob.
    Bisect(BisectSpec),
    /// Worst-case successive halving over several knobs.
    Halving(HalvingSpec),
}

/// A declarative scenario-space search, loadable from JSON (see
/// `specs/search_*.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// Search name; prefixes artifact headers.
    pub name: String,
    /// Base world.
    pub world: WorldKind,
    /// Fixed overrides applied to every evaluation (e.g. the detector a
    /// boundary study pins).
    pub base: SweepPoint,
    /// The scalar each evaluation extracts.
    pub objective: Objective,
    /// Drive duration per evaluation, seconds (halving rung 0; later
    /// rungs multiply it by `eta`).
    pub duration_s: f64,
    /// The optimizer.
    pub strategy: Strategy,
}

/// One evaluation the search has decided to run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedEval {
    /// The configuration overrides (ordinal = evaluation ordinal).
    pub point: SweepPoint,
    /// Drive duration, seconds.
    pub duration_s: f64,
}

/// One completed evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Global evaluation counter, in decision order.
    pub ordinal: usize,
    /// The configuration overrides evaluated.
    pub point: SweepPoint,
    /// Drive duration, seconds.
    pub duration_s: f64,
    /// The objective value the run produced.
    pub objective: f64,
    /// Golden hash of the run ([`av_core::determinism::run_hash`]); 0
    /// for synthetic oracles.
    pub run_hash: u64,
}

/// One batch of evaluations plus the stage label that planned it.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Batch position in the trajectory.
    pub index: usize,
    /// What the optimizer was doing (`bracket`, `refine 2`, `rung 0`).
    pub stage: String,
    /// The evaluations, in planning order.
    pub evals: Vec<EvalRecord>,
}

/// What the search concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchAnswer {
    /// The objective first crosses the threshold inside `(lo, hi]`; the
    /// bracket is no wider than the requested tolerance.
    Boundary {
        /// The bisected knob.
        knob: Knob,
        /// Largest evaluated knob value still under the threshold.
        lo: f64,
        /// Smallest evaluated knob value at or over the threshold.
        hi: f64,
    },
    /// No boundary bracket exists: the objective is under the threshold
    /// at the *top* of the range. Either it never crosses, or it crosses
    /// and recovers somewhere inside — the two endpoint evaluations
    /// cannot tell these apart, so the answer claims only the endpoint.
    NeverCrosses {
        /// The bisected knob.
        knob: Knob,
        /// Objective measured at the top of the range.
        hi_objective: f64,
    },
    /// The objective is already over the threshold at `lo`.
    AlwaysAbove {
        /// The bisected knob.
        knob: Knob,
        /// Objective measured at the bottom of the range.
        lo_objective: f64,
    },
    /// The break predicate is not monotone along the knob: a broken
    /// value sits *below* an unbroken one, so no single boundary exists.
    NonMonotone {
        /// The bisected knob.
        knob: Knob,
        /// A knob value over the threshold...
        broken_at: f64,
        /// ...with its objective...
        broken_objective: f64,
        /// ...and a larger knob value back under the threshold...
        unbroken_at: f64,
        /// ...with its objective.
        unbroken_objective: f64,
    },
    /// The worst-case configuration a halving search converged on.
    Best {
        /// The winning configuration overrides.
        point: SweepPoint,
        /// Its objective at the final (longest-duration) rung.
        objective: f64,
    },
}

/// One-line rendering of an answer. Knob values print in shortest
/// round-trip form; this string is folded into the search hash, so it is
/// part of the determinism contract.
pub fn answer_text(answer: &SearchAnswer) -> String {
    match answer {
        SearchAnswer::Boundary { knob, lo, hi } => format!(
            "boundary: {} crosses in ({lo:?}, {hi:?}], midpoint {:?}",
            knob.name(),
            (lo + hi) / 2.0
        ),
        SearchAnswer::NeverCrosses { knob, hi_objective } => format!(
            "no bracket: objective is under the threshold at the top of the {} range \
             ({hi_objective:?}) — it never crosses, or crosses and recovers inside",
            knob.name()
        ),
        SearchAnswer::AlwaysAbove { knob, lo_objective } => format!(
            "no bracket: objective is already over the threshold at the bottom of the {} \
             range ({lo_objective:?})",
            knob.name()
        ),
        SearchAnswer::NonMonotone {
            knob,
            broken_at,
            broken_objective,
            unbroken_at,
            unbroken_objective,
        } => format!(
            "non-monotone: {}={broken_at:?} is broken ({broken_objective:?}) but larger \
             {}={unbroken_at:?} is not ({unbroken_objective:?}); no single boundary exists",
            knob.name(),
            knob.name()
        ),
        SearchAnswer::Best { point, objective } => {
            format!("worst case: {} with objective {objective:?}", point.label())
        }
    }
}

/// A finished search: the full trajectory plus the conclusion.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Every batch, in decision order.
    pub batches: Vec<BatchRecord>,
    /// The conclusion.
    pub answer: SearchAnswer,
    /// Golden hash over the trajectory and answer ([`search_hash`]).
    pub search_hash: u64,
}

impl SearchOutcome {
    /// Total evaluations across all batches.
    pub fn evaluations(&self) -> usize {
        self.batches.iter().map(|b| b.evals.len()).sum()
    }
}

/// Golden hash over a trajectory and its answer. Batches and
/// evaluations are sorted by index/ordinal first, so the hash is
/// independent of the order records are held in.
pub fn search_hash(batches: &[BatchRecord], answer: &SearchAnswer) -> u64 {
    let mut ordered: Vec<&BatchRecord> = batches.iter().collect();
    ordered.sort_by_key(|b| b.index);
    let mut h = Fnv64::new();
    for batch in ordered {
        h.write_u64(batch.index as u64);
        h.write_str(&batch.stage);
        let mut evals: Vec<&EvalRecord> = batch.evals.iter().collect();
        evals.sort_by_key(|e| e.ordinal);
        for e in evals {
            h.write_u64(e.ordinal as u64);
            h.write_str(&e.point.label());
            h.write_f64(e.duration_s);
            h.write_f64(e.objective);
            h.write_u64(e.run_hash);
        }
    }
    h.write_str(&answer_text(answer));
    h.finish()
}

/// The number of evaluations a bisection performs when the bracket is
/// valid and the predicate is monotone: 2 for the bracket plus
/// `sections` per refinement batch, each narrowing the span by
/// `sections + 1`, until the span is within tolerance. (Integer knobs
/// may use fewer when snapping collapses interior points.)
pub fn bisect_predicted_evals(b: &BisectSpec) -> usize {
    let mut span = b.hi - b.lo;
    let mut evals = 2;
    while span > b.tolerance {
        span /= (b.sections + 1) as f64;
        evals += b.sections;
    }
    evals
}

// ---------------------------------------------------------------------------
// The deterministic batch driver (with resume).

struct Driver<'a, F> {
    prior: &'a [BatchRecord],
    prior_valid: bool,
    evaluate: F,
    batches: Vec<BatchRecord>,
    next_ordinal: usize,
}

impl<F> Driver<'_, F>
where
    F: Fn(&[PlannedEval]) -> Vec<(f64, u64)>,
{
    /// Runs (or reuses from the prior trajectory) one batch. The planned
    /// points get their ordinals stamped here, so strategies never
    /// manage numbering.
    fn batch(&mut self, stage: &str, mut planned: Vec<PlannedEval>) -> Vec<EvalRecord> {
        let index = self.batches.len();
        for (i, pe) in planned.iter_mut().enumerate() {
            pe.point.ordinal = self.next_ordinal + i;
        }
        self.next_ordinal += planned.len();

        let reused = self.prior_valid
            && self.prior.get(index).is_some_and(|p| {
                p.index == index
                    && p.stage == stage
                    && p.evals.len() == planned.len()
                    && p.evals
                        .iter()
                        .zip(&planned)
                        .all(|(e, pe)| e.point == pe.point && e.duration_s == pe.duration_s)
            });
        let results: Vec<(f64, u64)> = if reused {
            self.prior[index].evals.iter().map(|e| (e.objective, e.run_hash)).collect()
        } else {
            self.prior_valid = false;
            (self.evaluate)(&planned)
        };
        assert_eq!(results.len(), planned.len(), "evaluator returned a short batch");

        let evals: Vec<EvalRecord> = planned
            .into_iter()
            .zip(results)
            .map(|(pe, (objective, run_hash))| EvalRecord {
                ordinal: pe.point.ordinal,
                point: pe.point,
                duration_s: pe.duration_s,
                objective,
                run_hash,
            })
            .collect();
        self.batches.push(BatchRecord { index, stage: stage.to_string(), evals: evals.clone() });
        evals
    }
}

fn bisect<F>(driver: &mut Driver<'_, F>, spec: &SearchSpec, b: &BisectSpec) -> SearchAnswer
where
    F: Fn(&[PlannedEval]) -> Vec<(f64, u64)>,
{
    let planned = |v: f64| {
        let mut point = spec.base.clone();
        b.knob.set(&mut point, v);
        PlannedEval { point, duration_s: spec.duration_s }
    };
    let broken = |o: f64| o >= b.threshold;

    let lo = b.knob.snap(b.lo);
    let hi = b.knob.snap(b.hi);
    let bracket = driver.batch("bracket", vec![planned(lo), planned(hi)]);
    let (o_lo, o_hi) = (bracket[0].objective, bracket[1].objective);
    if broken(o_lo) {
        return SearchAnswer::AlwaysAbove { knob: b.knob, lo_objective: o_lo };
    }
    if !broken(o_hi) {
        return SearchAnswer::NeverCrosses { knob: b.knob, hi_objective: o_hi };
    }

    // Everything evaluated so far, as (knob value, objective).
    let mut history: Vec<(f64, f64)> = vec![(lo, o_lo), (hi, o_hi)];
    let (mut lo_v, mut hi_v) = (lo, hi);
    let mut round = 0usize;
    while hi_v - lo_v > b.tolerance {
        round += 1;
        let span = hi_v - lo_v;
        let mut values: Vec<f64> = Vec::new();
        for i in 1..=b.sections {
            let v = b.knob.snap(lo_v + span * i as f64 / (b.sections + 1) as f64);
            let seen = history.iter().any(|(h, _)| *h == v) || values.contains(&v);
            if !seen && v > lo_v && v < hi_v {
                values.push(v);
            }
        }
        if values.is_empty() {
            // Integer knob: the bracket has no interior values left.
            break;
        }
        let recs =
            driver.batch(&format!("refine {round}"), values.iter().map(|&v| planned(v)).collect());
        history.extend(values.iter().zip(&recs).map(|(v, r)| (*v, r.objective)));

        // Monotonicity over the whole history: every unbroken value must
        // sit below every broken one, or no single boundary exists.
        let mut sorted = history.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let &(broken_at, broken_objective) =
            sorted.iter().find(|(_, o)| broken(*o)).expect("hi is broken");
        let &(unbroken_at, unbroken_objective) =
            sorted.iter().rev().find(|(_, o)| !broken(*o)).expect("lo is unbroken");
        if broken_at < unbroken_at {
            return SearchAnswer::NonMonotone {
                knob: b.knob,
                broken_at,
                broken_objective,
                unbroken_at,
                unbroken_objective,
            };
        }
        lo_v = unbroken_at;
        hi_v = broken_at;
    }
    SearchAnswer::Boundary { knob: b.knob, lo: lo_v, hi: hi_v }
}

fn halving<F>(driver: &mut Driver<'_, F>, spec: &SearchSpec, h: &HalvingSpec) -> SearchAnswer
where
    F: Fn(&[PlannedEval]) -> Vec<(f64, u64)>,
{
    // The rung-0 sample is frozen by (seed, knob list) alone.
    let mut rng = RngStreams::new(h.seed).stream("scenario-search");
    let mut candidates: Vec<SweepPoint> = (0..h.initial)
        .map(|_| {
            let mut point = spec.base.clone();
            for kr in &h.knobs {
                kr.knob.set(&mut point, kr.knob.snap(rng.uniform(kr.lo, kr.hi)));
            }
            point
        })
        .collect();

    let cap = h.max_duration_s.unwrap_or(f64::INFINITY);
    let mut duration = spec.duration_s.min(cap);
    let mut best: Option<(SweepPoint, f64)> = None;
    // Survivor objectives carried from the previous rung, with the
    // duration they were measured at.
    let mut carried: Option<(f64, Vec<f64>)> = None;
    for rung in 0..h.rungs {
        let objectives: Vec<f64> = match &carried {
            // Duration unchanged (the cap clipped its growth): every
            // candidate already has an objective at exactly this
            // duration, so the rung is a pure cut — zero evaluations.
            Some((measured_at, objectives)) if *measured_at == duration => objectives.clone(),
            _ => {
                let planned: Vec<PlannedEval> = candidates
                    .iter()
                    .map(|p| PlannedEval { point: p.clone(), duration_s: duration })
                    .collect();
                driver.batch(&format!("rung {rung}"), planned).iter().map(|e| e.objective).collect()
            }
        };

        // Rank worst-first; candidate order breaks objective ties, so the
        // cut is deterministic even with equal objectives.
        let mut order: Vec<usize> = (0..objectives.len()).collect();
        order.sort_by(|&a, &b| objectives[b].total_cmp(&objectives[a]).then(a.cmp(&b)));
        best = Some((candidates[order[0]].clone(), objectives[order[0]]));

        let keep = objectives.len().div_ceil(h.eta).max(1);
        let mut survivors = order[..keep.min(order.len())].to_vec();
        survivors.sort_unstable();
        candidates = survivors.iter().map(|&i| candidates[i].clone()).collect();
        carried = Some((duration, survivors.into_iter().map(|i| objectives[i]).collect()));
        duration = (duration * h.eta as f64).min(cap);
    }
    let (mut point, objective) = best.expect("at least one rung ran");
    point.ordinal = 0;
    SearchAnswer::Best { point, objective }
}

/// Runs a search against an arbitrary evaluator — the test seam the
/// bisection-oracle suite drives with synthetic objectives. `prior` is
/// an earlier trajectory (possibly truncated): batches whose planned
/// evaluations match are reused without re-running, which is what makes
/// a resumed search byte-identical to a fresh one.
pub fn run_search_with<F>(spec: &SearchSpec, prior: &[BatchRecord], evaluate: F) -> SearchOutcome
where
    F: Fn(&[PlannedEval]) -> Vec<(f64, u64)>,
{
    let mut driver =
        Driver { prior, prior_valid: true, evaluate, batches: Vec::new(), next_ordinal: 0 };
    let answer = match &spec.strategy {
        Strategy::Bisect(b) => bisect(&mut driver, spec, b),
        Strategy::Halving(h) => halving(&mut driver, spec, h),
    };
    let hash = search_hash(&driver.batches, &answer);
    SearchOutcome { batches: driver.batches, answer, search_hash: hash }
}

/// How much simulation an instrumented search actually performed.
/// Purely informational — warm starts and caching never change a
/// single output byte, only how those bytes were obtained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Drives actually simulated (prior-trajectory reuse and cache hits
    /// are not counted — they cost nothing).
    pub evaluations: usize,
    /// Virtual seconds of drive horizon actually simulated.
    pub simulated_s: f64,
    /// Evaluations warm-started from an earlier rung's checkpoint.
    pub warm_resumes: usize,
    /// Virtual seconds of prefix those warm starts did *not*
    /// re-simulate.
    pub resumed_prefix_s: f64,
    /// Evaluations served whole from the (spec-hash → result) cache.
    pub cache_hits: usize,
    /// Of the warm resumes, how many restored their prefix from the
    /// durable disk store — a checkpoint some *earlier process* left
    /// behind — rather than from this search's in-memory chain.
    pub store_resumes: usize,
    /// Virtual seconds of prefix those disk restores skipped.
    pub store_prefix_s: f64,
    /// Memory-cache misses served whole by resuming a full-horizon
    /// checkpoint from the disk store (a pure end-of-run drain).
    pub store_hits: usize,
    /// HD maps actually built: one per distinct map the search's drives
    /// need, however many drives (cold, warm or drained) share it.
    pub map_builds: usize,
}

/// Runs the search for real: every evaluation is a simulated drive,
/// fanned out over `jobs` worker threads within each batch, and reports
/// the work done. Results are independent of `jobs` because
/// [`parallel_map`] preserves order and every drive is a pure function
/// of its configuration.
///
/// With `warm`, successive-halving evaluations are warm-started: each
/// rung's drives end in a checkpoint ([`drive`] with `capture_at_s` at
/// the horizon), and the next rung resumes its survivors from those
/// snapshots (`from`) instead of re-simulating the shared prefix —
/// byte-identical to cold runs, strictly fewer simulated virtual
/// seconds. A (spec-hash → result) cache additionally memoizes whole
/// evaluations within the search. `warm: false` disables both (every
/// evaluation simulates its full horizon from virtual time zero) — the
/// cold baseline the E-resume study measures against. Either way every
/// drive of the search takes its HD map from the cache's
/// [`EvalCache::maps`], so each distinct map is built once per search.
pub fn run_search_instrumented(
    spec: &SearchSpec,
    jobs: usize,
    prior: &[BatchRecord],
    warm: bool,
) -> (SearchOutcome, SearchStats) {
    search_engine(spec, jobs, prior, warm, None)
}

/// A warm [`run_search_instrumented`] backed by a durable checkpoint
/// store: rung evaluations first look for a resumable prefix among the
/// checkpoints an *earlier process* persisted (then fall back to this
/// search's own in-memory chain), and every checkpoint captured here is
/// written back through the store's crash-safe path. Byte-identical to
/// the store-less search — the store only changes how many virtual
/// seconds are re-simulated, never a single output byte.
pub fn run_search_with_store(
    spec: &SearchSpec,
    jobs: usize,
    prior: &[BatchRecord],
    store: Option<&CkptStore>,
) -> (SearchOutcome, SearchStats) {
    search_engine(spec, jobs, prior, true, store)
}

fn search_engine(
    spec: &SearchSpec,
    jobs: usize,
    prior: &[BatchRecord],
    warm: bool,
    store: Option<&CkptStore>,
) -> (SearchOutcome, SearchStats) {
    let base = spec.world.base_config();
    let objective = &spec.objective;
    // Checkpoints only pay off when a later evaluation extends the same
    // configuration — which only halving rungs do.
    let capture = warm && matches!(spec.strategy, Strategy::Halving(_));
    let cache = EvalCache::new();
    let checkpoints: Mutex<HashMap<u64, Checkpoint>> = Mutex::new(HashMap::new());
    let stats: Mutex<SearchStats> = Mutex::new(SearchStats::default());
    let outcome = run_search_with(spec, prior, |planned: &[PlannedEval]| {
        parallel_map(planned.to_vec(), jobs, |pe| {
            let config = pe.point.apply(&base);
            // Blame objectives read the event-trace attribution, so their
            // evaluations must record one.
            let run = if objective.needs_trace() {
                RunConfig::seconds(pe.duration_s).with_trace()
            } else {
                RunConfig::seconds(pe.duration_s)
            };
            if warm {
                let key = EvalCache::spec_hash(&config, &run);
                if let Some(hit) = cache.lookup_or_resume(key, &config, &run, store) {
                    return (objective.evaluate(&hit.report), hit.run_hash);
                }
                // Checkpoints are keyed by configuration alone: rungs
                // differ only in duration, and a snapshot from a
                // shorter run seeds any longer one. Memory first, then
                // whatever prefix an earlier process left in the store.
                let ckey = EvalCache::spec_hash(&config, &RunConfig::default());
                let mut from: Option<Checkpoint> = if capture {
                    let mem = checkpoints.lock().unwrap();
                    mem.get(&ckey).filter(|cp| cp.barrier_s() < pe.duration_s).cloned()
                } else {
                    None
                };
                let mut from_store = false;
                if from.is_none() && capture {
                    if let Some(st) = store {
                        let horizon_ns = (pe.duration_s * 1e9).round() as u64;
                        from = st
                            .best_resume(
                                drive_fingerprint(&config),
                                run.trace.is_some(),
                                horizon_ns,
                            )
                            .filter(|cp| cp.barrier_s() < pe.duration_s);
                        from_store = from.is_some();
                    }
                }
                let resumed_from = from.as_ref().map(Checkpoint::barrier_s);
                let request = DriveRequest {
                    from: from.as_ref(),
                    capture_at_s: capture.then_some(pe.duration_s),
                    maps: Some(cache.maps()),
                    ..DriveRequest::default()
                };
                let (report, checkpoint) = drive(&config, &run, request);
                if let Some(c) = checkpoint {
                    if let Some(st) = store {
                        st.put_or_warn(&c);
                    }
                    checkpoints.lock().unwrap().insert(ckey, c);
                }
                let hash = run_hash(&report);
                cache.insert(key, &report, hash);
                let mut s = stats.lock().unwrap();
                s.evaluations += 1;
                let prefix = resumed_from.unwrap_or(0.0);
                s.simulated_s += pe.duration_s - prefix;
                if resumed_from.is_some() {
                    s.warm_resumes += 1;
                    s.resumed_prefix_s += prefix;
                }
                if from_store {
                    s.store_resumes += 1;
                    s.store_prefix_s += prefix;
                }
                drop(s);
                (objective.evaluate(&report), hash)
            } else {
                let request = DriveRequest { maps: Some(cache.maps()), ..DriveRequest::default() };
                let (report, _) = drive(&config, &run, request);
                let mut s = stats.lock().unwrap();
                s.evaluations += 1;
                s.simulated_s += pe.duration_s;
                drop(s);
                (objective.evaluate(&report), run_hash(&report))
            }
        })
    });
    let mut final_stats = stats.into_inner().unwrap();
    final_stats.cache_hits = cache.hits();
    final_stats.store_hits = cache.store_hits();
    final_stats.map_builds = cache.maps().builds();
    (outcome, final_stats)
}

// ---------------------------------------------------------------------------
// Spec parsing, builtins, description.

impl SearchSpec {
    /// Validates ranges, budgets and durations.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("search name must not be empty".to_string());
        }
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return Err(format!("duration_s must be positive and finite, got {}", self.duration_s));
        }
        let range_ok = |knob: Knob, lo: f64, hi: f64| -> Result<(), String> {
            if !lo.is_finite() || !hi.is_finite() || lo >= hi {
                return Err(format!("{}: range must be finite with lo < hi", knob.name()));
            }
            if lo <= 0.0 && knob != Knob::QueueCapacity {
                return Err(format!("{}: range must be positive", knob.name()));
            }
            if knob == Knob::QueueCapacity && lo < 1.0 {
                return Err("queue_capacity: range must start at >= 1".to_string());
            }
            Ok(())
        };
        match &self.strategy {
            Strategy::Bisect(b) => {
                range_ok(b.knob, b.lo, b.hi)?;
                if !b.threshold.is_finite() {
                    return Err("threshold must be finite".to_string());
                }
                if !b.tolerance.is_finite() || b.tolerance <= 0.0 {
                    return Err("tolerance must be positive and finite".to_string());
                }
                if b.sections == 0 {
                    return Err("sections must be >= 1".to_string());
                }
            }
            Strategy::Halving(h) => {
                if h.knobs.is_empty() {
                    return Err("halving needs at least one knob range".to_string());
                }
                for kr in &h.knobs {
                    range_ok(kr.knob, kr.lo, kr.hi)?;
                }
                if h.initial < 2 {
                    return Err("initial must be >= 2".to_string());
                }
                if h.eta < 2 {
                    return Err("eta must be >= 2".to_string());
                }
                if h.rungs == 0 {
                    return Err("rungs must be >= 1".to_string());
                }
                if let Some(cap) = h.max_duration_s {
                    if !cap.is_finite() || cap <= 0.0 {
                        return Err(format!(
                            "max_duration_s must be positive and finite, got {cap}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the search plan (for `search --list`).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "search {:?}: world {}, objective {}, base [{}], {:.0} s per evaluation",
            self.name,
            self.world.name(),
            self.objective.name(),
            self.base.label(),
            self.duration_s
        );
        match &self.strategy {
            Strategy::Bisect(b) => {
                let _ = writeln!(
                    out,
                    "  bisect {} over [{}, {}]: threshold {}, tolerance {}, {} interior \
                     point(s) per batch, <= {} evaluation(s)",
                    b.knob.name(),
                    b.lo,
                    b.hi,
                    b.threshold,
                    b.tolerance,
                    b.sections,
                    bisect_predicted_evals(b)
                );
            }
            Strategy::Halving(h) => {
                let ranges: Vec<String> = h
                    .knobs
                    .iter()
                    .map(|kr| format!("{} in [{}, {})", kr.knob.name(), kr.lo, kr.hi))
                    .collect();
                // A rung whose (capped) duration matches the previous
                // rung's carries the survivor objectives forward and
                // costs nothing — mirror halving()'s skip here.
                let cap = h.max_duration_s.unwrap_or(f64::INFINITY);
                let mut budget = 0usize;
                let mut n = h.initial;
                let mut d = self.duration_s.min(cap);
                let mut prev_d = f64::NAN;
                for _ in 0..h.rungs {
                    if d != prev_d {
                        budget += n;
                    }
                    n = n.div_ceil(h.eta).max(1);
                    prev_d = d;
                    d = (d * h.eta as f64).min(cap);
                }
                let capped = match h.max_duration_s {
                    Some(cap) => format!(", rung duration capped at {cap} s"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  successive halving over {}: {} initial, eta {}, {} rung(s), seed {}, \
                     {} evaluation(s){}",
                    ranges.join(", "),
                    h.initial,
                    h.eta,
                    h.rungs,
                    h.seed,
                    budget,
                    capped
                );
            }
        }
        out
    }

    /// Parses a search spec from JSON text (see `specs/search_*.json`).
    pub fn from_json(text: &str) -> Result<SearchSpec, String> {
        let doc = json::parse(text).map_err(|e| format!("search spec is not valid JSON: {e}"))?;
        let members = match &doc {
            JsonValue::Obj(members) => members,
            _ => return Err("search spec must be a JSON object".to_string()),
        };
        let mut name = None;
        let mut world = WorldKind::Paper;
        let mut base = SweepPoint::default();
        let mut objective = Objective::DeadlineFactor;
        let mut duration_s = None;
        let mut strategy = None;
        for (key, value) in members {
            match key.as_str() {
                "name" => {
                    name = Some(
                        value
                            .as_str()
                            .ok_or_else(|| "name must be a string".to_string())?
                            .to_string(),
                    );
                }
                "world" => {
                    world = WorldKind::parse(
                        value.as_str().ok_or_else(|| "world must be a string".to_string())?,
                    )?;
                }
                "base" => base = SweepPoint::from_json_value(value)?,
                "objective" => {
                    objective = Objective::parse(
                        value.as_str().ok_or_else(|| "objective must be a string".to_string())?,
                    )?;
                }
                "duration_s" => {
                    duration_s = Some(
                        value.as_f64().ok_or_else(|| "duration_s must be a number".to_string())?,
                    );
                }
                "bisect" => {
                    if strategy.is_some() {
                        return Err("spec has more than one strategy".to_string());
                    }
                    strategy = Some(Strategy::Bisect(parse_bisect(value)?));
                }
                "halving" => {
                    if strategy.is_some() {
                        return Err("spec has more than one strategy".to_string());
                    }
                    strategy = Some(Strategy::Halving(parse_halving(value)?));
                }
                other => return Err(format!("unknown search key {other:?}")),
            }
        }
        let spec = SearchSpec {
            name: name.ok_or("search spec must have a name")?,
            world,
            base,
            objective,
            duration_s: duration_s.ok_or("search spec must have duration_s")?,
            strategy: strategy.ok_or("search spec must have a bisect or halving strategy")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The tier-1 gate's search: a tiny-budget camera-rate bisection on
    /// the smoke world, locating where queue drops first exceed 2 % of
    /// delivered messages. (Drop rate is the one smoke-world objective
    /// that is monotone in camera rate — 6-second runs are too short for
    /// a stable latency tail.)
    pub fn builtin_smoke() -> SearchSpec {
        SearchSpec {
            name: "smoke".to_string(),
            world: WorldKind::Smoke,
            base: SweepPoint::default(),
            objective: Objective::DropPct,
            duration_s: 6.0,
            strategy: Strategy::Bisect(BisectSpec {
                knob: Knob::CameraRateHz,
                lo: 8.0,
                hi: 40.0,
                threshold: 2.0,
                tolerance: 2.0,
                sections: 2,
            }),
        }
    }

    /// Named builtin lookup (for `search --builtin`).
    pub fn builtin(name: &str) -> Option<SearchSpec> {
        match name {
            "smoke" => Some(SearchSpec::builtin_smoke()),
            _ => None,
        }
    }
}

fn num_field(value: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{what}.{key} must be a number"))
}

fn usize_field(value: &JsonValue, key: &str, what: &str) -> Result<usize, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("{what}.{key} must be a non-negative integer"))
}

fn knob_field(value: &JsonValue, what: &str) -> Result<Knob, String> {
    Knob::parse(
        value
            .get("knob")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{what}.knob must be a string"))?,
    )
}

fn check_keys(value: &JsonValue, allowed: &[&str], what: &str) -> Result<(), String> {
    if let JsonValue::Obj(members) = value {
        for (key, _) in members {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown {what} key {key:?}"));
            }
        }
        Ok(())
    } else {
        Err(format!("{what} must be a JSON object"))
    }
}

fn parse_bisect(value: &JsonValue) -> Result<BisectSpec, String> {
    check_keys(value, &["knob", "lo", "hi", "threshold", "tolerance", "sections"], "bisect")?;
    Ok(BisectSpec {
        knob: knob_field(value, "bisect")?,
        lo: num_field(value, "lo", "bisect")?,
        hi: num_field(value, "hi", "bisect")?,
        threshold: num_field(value, "threshold", "bisect")?,
        tolerance: num_field(value, "tolerance", "bisect")?,
        sections: match value.get("sections") {
            None => 2,
            Some(_) => usize_field(value, "sections", "bisect")?,
        },
    })
}

fn parse_halving(value: &JsonValue) -> Result<HalvingSpec, String> {
    check_keys(value, &["knobs", "initial", "eta", "rungs", "seed", "max_duration_s"], "halving")?;
    let knobs = value
        .get("knobs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "halving.knobs must be an array".to_string())?
        .iter()
        .map(|kr| {
            check_keys(kr, &["knob", "lo", "hi"], "halving.knobs[..]")?;
            Ok(KnobRange {
                knob: knob_field(kr, "halving.knobs[..]")?,
                lo: num_field(kr, "lo", "halving.knobs[..]")?,
                hi: num_field(kr, "hi", "halving.knobs[..]")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(HalvingSpec {
        knobs,
        initial: usize_field(value, "initial", "halving")?,
        eta: match value.get("eta") {
            None => 2,
            Some(_) => usize_field(value, "eta", "halving")?,
        },
        rungs: usize_field(value, "rungs", "halving")?,
        seed: value
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| "halving.seed must be a non-negative integer".to_string())?,
        max_duration_s: match value.get("max_duration_s") {
            None => None,
            Some(_) => Some(num_field(value, "max_duration_s", "halving")?),
        },
    })
}

// ---------------------------------------------------------------------------
// Artifacts.

/// Everything the search renders, ready to be written under
/// `results/search/`.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArtifacts {
    /// The headline report: spec, budget curve, answer.
    pub summary_txt: String,
    /// Every batch and evaluation, human-readable.
    pub trajectory_txt: String,
    /// The machine-readable, replayable trajectory
    /// ([`trajectory_from_json`] parses it back for `--resume`).
    pub trajectory_json: String,
    /// Golden-hash manifest (search hash + per-evaluation run hashes).
    pub hashes_json: String,
    /// Golden hash over the trajectory and answer.
    pub search_hash: u64,
}

/// Renders a finished search. Batches and evaluations are sorted by
/// index/ordinal before rendering, so the bytes are a pure function of
/// the record *set* — the schedule that produced them cannot leak in.
pub fn search_artifacts(spec: &SearchSpec, outcome: &SearchOutcome) -> SearchArtifacts {
    let mut batches: Vec<BatchRecord> = outcome.batches.clone();
    batches.sort_by_key(|b| b.index);
    for b in &mut batches {
        b.evals.sort_by_key(|e| e.ordinal);
    }
    let hash = search_hash(&batches, &outcome.answer);
    let answer = answer_text(&outcome.answer);
    let evals_total: usize = batches.iter().map(|b| b.evals.len()).sum();

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "# search {:?} — {} evaluation(s), golden hash {hash:#018x}\n",
        spec.name, evals_total
    );
    summary.push_str(&spec.describe());
    let _ = writeln!(summary, "\n## budget curve\n");
    let mut curve = av_profiling::Table::with_headers(&[
        "Batch",
        "Stage",
        "Evals",
        "Cumulative",
        "Batch max objective",
        "Best so far",
    ]);
    let mut cumulative = 0usize;
    let mut best = f64::NEG_INFINITY;
    for b in &batches {
        cumulative += b.evals.len();
        let batch_max = b.evals.iter().map(|e| e.objective).fold(f64::NEG_INFINITY, f64::max);
        best = best.max(batch_max);
        curve.add_row(vec![
            b.index.to_string(),
            b.stage.clone(),
            b.evals.len().to_string(),
            cumulative.to_string(),
            format!("{batch_max:.4}"),
            format!("{best:.4}"),
        ]);
    }
    let _ = writeln!(summary, "{curve}");
    let _ = writeln!(summary, "## answer\n\n{answer}");

    let mut trajectory = String::new();
    let _ = writeln!(trajectory, "# search {:?} — trajectory\n", spec.name);
    for b in &batches {
        let _ = writeln!(trajectory, "batch {} ({}):", b.index, b.stage);
        for e in &b.evals {
            let _ = writeln!(
                trajectory,
                "  e{:03}  {:<40}  {:>6.1} s  objective {:<12}  run {:#018x}",
                e.ordinal,
                e.point.label(),
                e.duration_s,
                format!("{:.4}", e.objective),
                e.run_hash
            );
        }
    }
    let _ = writeln!(trajectory, "\nanswer: {answer}");

    let mut tj = String::new();
    tj.push_str("{\n");
    let _ = writeln!(tj, "  \"search\": \"{}\",", spec.name);
    let _ = writeln!(tj, "  \"search_hash\": \"{hash:#018x}\",");
    tj.push_str("  \"batches\": [\n");
    for (bi, b) in batches.iter().enumerate() {
        let _ =
            writeln!(tj, "    {{\"index\": {}, \"stage\": \"{}\", \"evals\": [", b.index, b.stage);
        for (ei, e) in b.evals.iter().enumerate() {
            let comma = if ei + 1 < b.evals.len() { "," } else { "" };
            let _ = writeln!(
                tj,
                "      {{\"ordinal\": {}, \"duration_s\": {:?}, \"objective\": {:?}, \
                 \"run_hash\": \"{:#018x}\", \"point\": {}}}{comma}",
                e.ordinal,
                e.duration_s,
                e.objective,
                e.run_hash,
                e.point.to_json()
            );
        }
        let comma = if bi + 1 < batches.len() { "," } else { "" };
        let _ = writeln!(tj, "    ]}}{comma}");
    }
    tj.push_str("  ],\n");
    let _ = writeln!(tj, "  \"answer\": \"{}\"", answer.replace('\\', "\\\\").replace('"', "\\\""));
    tj.push_str("}\n");

    let mut hj = String::new();
    hj.push_str("{\n");
    let _ = writeln!(hj, "  \"search\": \"{}\",", spec.name);
    let _ = writeln!(hj, "  \"search_hash\": \"{hash:#018x}\",");
    hj.push_str("  \"evals\": [\n");
    let all: Vec<&EvalRecord> = batches.iter().flat_map(|b| &b.evals).collect();
    for (i, e) in all.iter().enumerate() {
        let comma = if i + 1 < all.len() { "," } else { "" };
        let _ = writeln!(
            hj,
            "    {{\"ordinal\": {}, \"label\": \"{}\", \"hash\": \"{:#018x}\"}}{comma}",
            e.ordinal,
            e.point.label(),
            e.run_hash
        );
    }
    hj.push_str("  ]\n}\n");

    SearchArtifacts {
        summary_txt: summary,
        trajectory_txt: trajectory,
        trajectory_json: tj,
        hashes_json: hj,
        search_hash: hash,
    }
}

/// Parses a trajectory written by [`search_artifacts`] back into batch
/// records, for `search --resume`.
pub fn trajectory_from_json(text: &str) -> Result<Vec<BatchRecord>, String> {
    let doc = json::parse(text).map_err(|e| format!("trajectory is not valid JSON: {e}"))?;
    let hex_u64 = |v: Option<&JsonValue>, what: &str| -> Result<u64, String> {
        let s = v.and_then(JsonValue::as_str).ok_or_else(|| format!("{what} must be a string"))?;
        let digits = s.strip_prefix("0x").ok_or_else(|| format!("{what} must start with 0x"))?;
        u64::from_str_radix(digits, 16).map_err(|_| format!("{what} is not a hex number"))
    };
    let batches_value = doc
        .get("batches")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "trajectory must have a batches array".to_string())?;
    let mut batches = Vec::new();
    for bv in batches_value {
        let index =
            bv.get("index")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| "batch.index must be an integer".to_string())? as usize;
        let stage = bv
            .get("stage")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "batch.stage must be a string".to_string())?
            .to_string();
        let mut evals = Vec::new();
        for ev in bv
            .get("evals")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "batch.evals must be an array".to_string())?
        {
            let ordinal = ev
                .get("ordinal")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| "eval.ordinal must be an integer".to_string())?
                as usize;
            let duration_s = ev
                .get("duration_s")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| "eval.duration_s must be a number".to_string())?;
            let objective = ev
                .get("objective")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| "eval.objective must be a number".to_string())?;
            let run_hash = hex_u64(ev.get("run_hash"), "eval.run_hash")?;
            let mut point = SweepPoint::from_json_value(
                ev.get("point").ok_or_else(|| "eval.point missing".to_string())?,
            )?;
            point.ordinal = ordinal;
            evals.push(EvalRecord { ordinal, point, duration_s, objective, run_hash });
        }
        batches.push(BatchRecord { index, stage, evals });
    }
    Ok(batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(f: impl Fn(&SweepPoint) -> f64) -> impl Fn(&[PlannedEval]) -> Vec<(f64, u64)> {
        move |planned| planned.iter().map(|pe| (f(&pe.point), 0)).collect()
    }

    fn bisect_spec(lo: f64, hi: f64, threshold: f64, tolerance: f64) -> SearchSpec {
        SearchSpec {
            name: "t".to_string(),
            world: WorldKind::Smoke,
            base: SweepPoint::default(),
            objective: Objective::E2eP99Ms,
            duration_s: 1.0,
            strategy: Strategy::Bisect(BisectSpec {
                knob: Knob::CameraRateHz,
                lo,
                hi,
                threshold,
                tolerance,
                sections: 2,
            }),
        }
    }

    #[test]
    fn knob_names_round_trip_and_snap() {
        for k in Knob::ALL {
            assert_eq!(Knob::parse(k.name()), Ok(k));
        }
        assert!(Knob::parse("warp").is_err());
        assert_eq!(Knob::QueueCapacity.snap(2.6), 3.0);
        assert_eq!(Knob::QueueCapacity.snap(0.2), 1.0);
        assert_eq!(Knob::CameraRateHz.snap(2.6), 2.6);
    }

    #[test]
    fn invalid_brackets_are_reported_without_refinement() {
        let spec = bisect_spec(0.0 + 1.0, 100.0, 37.3, 0.5);
        let rate = |p: &SweepPoint| p.camera_rate_hz.unwrap();
        let always = run_search_with(&spec, &[], oracle(move |p| rate(p) + 1000.0));
        assert!(matches!(always.answer, SearchAnswer::AlwaysAbove { .. }));
        assert_eq!(always.evaluations(), 2);
        let never = run_search_with(&spec, &[], oracle(move |p| rate(p) - 1000.0));
        assert!(matches!(never.answer, SearchAnswer::NeverCrosses { .. }));
        assert_eq!(never.evaluations(), 2);
    }

    #[test]
    fn integer_knob_bisection_stops_at_unit_bracket() {
        let spec = SearchSpec {
            strategy: Strategy::Bisect(BisectSpec {
                knob: Knob::QueueCapacity,
                lo: 1.0,
                hi: 16.0,
                threshold: 10.0,
                tolerance: 0.5,
                sections: 2,
            }),
            ..bisect_spec(1.0, 16.0, 10.0, 0.5)
        };
        // Broken while capacity <= 6 is false... objective grows as
        // capacity *falls* — make it monotone in the search direction:
        // objective = capacity, threshold 10.2 → boundary between 10, 11.
        let outcome =
            run_search_with(&spec, &[], oracle(|p| p.queue_capacity.unwrap() as f64 + 0.5));
        match outcome.answer {
            SearchAnswer::Boundary { lo, hi, .. } => {
                assert_eq!((lo, hi), (9.0, 10.0), "unit bracket around the integer threshold");
            }
            other => panic!("expected a boundary, got {}", answer_text(&other)),
        }
    }

    #[test]
    fn spec_json_round_trip_and_rejection() {
        let text = r#"{
            "name": "b",
            "world": "paper",
            "duration_s": 60.0,
            "objective": "deadline_factor",
            "base": {"detector": "SSD300"},
            "bisect": {"knob": "camera_rate_hz", "lo": 10, "hi": 25,
                       "threshold": 2.0, "tolerance": 0.5, "sections": 2}
        }"#;
        let spec = SearchSpec::from_json(text).unwrap();
        assert_eq!(spec.name, "b");
        assert_eq!(spec.objective, Objective::DeadlineFactor);
        assert!(matches!(&spec.strategy, Strategy::Bisect(b) if b.knob == Knob::CameraRateHz));
        assert!(spec.describe().contains("bisect camera_rate_hz"));

        let halving = r#"{
            "name": "w", "world": "smoke", "duration_s": 4.0,
            "objective": "e2e_p99_ms",
            "halving": {"knobs": [{"knob": "camera_rate_hz", "lo": 10, "hi": 40}],
                        "initial": 4, "eta": 2, "rungs": 2, "seed": 7,
                        "max_duration_s": 6.5}
        }"#;
        let spec = SearchSpec::from_json(halving).unwrap();
        assert!(matches!(&spec.strategy, Strategy::Halving(h) if h.initial == 4));
        assert!(
            matches!(&spec.strategy, Strategy::Halving(h) if h.max_duration_s == Some(6.5)),
            "max_duration_s parses"
        );

        assert!(SearchSpec::from_json("{\"name\": \"x\"}").is_err(), "no strategy");
        assert!(
            SearchSpec::from_json(
                "{\"name\": \"x\", \"duration_s\": 1, \
                 \"bisect\": {\"knob\": \"camera_rate_hz\", \"lo\": 9, \"hi\": 5, \
                 \"threshold\": 1, \"tolerance\": 0.5}}"
            )
            .is_err(),
            "inverted range"
        );
        assert!(
            SearchSpec::from_json(
                "{\"name\": \"x\", \"duration_s\": 1, \
                 \"bisect\": {\"knob\": \"camera_rate_hz\", \"lo\": 5, \"hi\": 9, \
                 \"threshold\": 1, \"tolerance\": 1e999}}"
            )
            .is_err(),
            "non-finite tolerance"
        );
        let unknown_world = SearchSpec::from_json("{\"name\": \"x\", \"world\": \"mars\"}");
        assert_eq!(
            unknown_world.unwrap_err(),
            "unknown world \"mars\" (expected \"paper\" or \"smoke\")",
            "the world is read by the same parser sweep specs use"
        );
        assert!(SearchSpec::builtin("smoke").is_some());
        assert!(SearchSpec::builtin("nope").is_none());
    }

    #[test]
    fn halving_budget_and_reproducibility() {
        let spec = SearchSpec {
            name: "w".to_string(),
            world: WorldKind::Smoke,
            base: SweepPoint::default(),
            objective: Objective::E2eP99Ms,
            duration_s: 2.0,
            strategy: Strategy::Halving(HalvingSpec {
                knobs: vec![
                    KnobRange { knob: Knob::CameraRateHz, lo: 10.0, hi: 40.0 },
                    KnobRange { knob: Knob::QueueCapacity, lo: 1.0, hi: 4.0 },
                ],
                initial: 8,
                eta: 2,
                rungs: 3,
                seed: 2020,
                max_duration_s: None,
            }),
        };
        let rate = |p: &SweepPoint| p.camera_rate_hz.unwrap();
        let a = run_search_with(&spec, &[], oracle(rate));
        let b = run_search_with(&spec, &[], oracle(rate));
        assert_eq!(a, b, "same seed, same trajectory");
        assert_eq!(a.evaluations(), 8 + 4 + 2);
        // The winner is the highest-camera-rate sample, re-scored at the
        // longest duration.
        match &a.answer {
            SearchAnswer::Best { point, objective } => {
                assert_eq!(*objective, rate(point));
                assert_eq!(a.batches[2].evals[0].duration_s, 8.0, "rung 2 runs 4x the base");
            }
            other => panic!("expected Best, got {}", answer_text(other)),
        }
        // A different seed samples different points.
        let reseeded = SearchSpec {
            strategy: match &spec.strategy {
                Strategy::Halving(h) => Strategy::Halving(HalvingSpec { seed: 2021, ..h.clone() }),
                _ => unreachable!(),
            },
            ..spec.clone()
        };
        let c = run_search_with(&reseeded, &[], oracle(rate));
        assert_ne!(a.search_hash, c.search_hash);
    }

    #[test]
    fn each_halving_pass_builds_one_map_with_or_without_a_store() {
        let spec = SearchSpec {
            name: "m".to_string(),
            world: WorldKind::Smoke,
            base: SweepPoint::default(),
            objective: Objective::E2eP99Ms,
            duration_s: 1.0,
            strategy: Strategy::Halving(HalvingSpec {
                knobs: vec![KnobRange { knob: Knob::CameraRateHz, lo: 10.0, hi: 40.0 }],
                initial: 4,
                eta: 2,
                rungs: 2,
                seed: 7,
                max_duration_s: None,
            }),
        };
        let (cold, cold_stats) = run_search_instrumented(&spec, 2, &[], false);
        assert_eq!(cold_stats.map_builds, 1);
        let dir = std::env::temp_dir().join(format!("av-search-maps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for pass in ["fresh store", "reopened store"] {
            let (store, _) = CkptStore::open(&dir).expect("open store");
            let (outcome, stats) = run_search_with_store(&spec, 2, &[], Some(&store));
            assert_eq!(outcome.search_hash, cold.search_hash, "{pass}");
            assert_eq!(stats.map_builds, 1, "{pass}");
            if pass == "reopened store" {
                assert!(stats.store_hits > 0, "the second pass drains stored runs");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_halving_carries_survivors_through_noop_rungs() {
        let spec = SearchSpec {
            name: "w".to_string(),
            world: WorldKind::Smoke,
            base: SweepPoint::default(),
            objective: Objective::E2eP99Ms,
            duration_s: 2.0,
            strategy: Strategy::Halving(HalvingSpec {
                knobs: vec![KnobRange { knob: Knob::CameraRateHz, lo: 10.0, hi: 40.0 }],
                initial: 8,
                eta: 2,
                rungs: 3,
                seed: 2020,
                max_duration_s: Some(4.0),
            }),
        };
        spec.validate().unwrap();
        let rate = |p: &SweepPoint| p.camera_rate_hz.unwrap();
        let a = run_search_with(&spec, &[], oracle(rate));
        // Rung durations are 2 s, 4 s, then 4 s again: the last rung
        // reuses the survivors' objectives and evaluates nothing.
        assert_eq!(a.evaluations(), 8 + 4, "no-op rung costs zero evaluations");
        assert_eq!(a.batches.len(), 2, "no batch is recorded for the no-op rung");
        assert_eq!(a.batches[1].evals[0].duration_s, 4.0);
        match &a.answer {
            SearchAnswer::Best { point, objective } => assert_eq!(*objective, rate(point)),
            other => panic!("expected Best, got {}", answer_text(other)),
        }
        // describe() predicts the reduced budget and names the cap.
        assert!(spec.describe().contains("12 evaluation(s)"), "{}", spec.describe());
        assert!(spec.describe().contains("capped at 4 s"), "{}", spec.describe());
        let b = run_search_with(&spec, &[], oracle(rate));
        assert_eq!(a, b, "capped halving is deterministic");
        // A cap below every rung's duration must still be rejected only
        // when invalid; a negative cap is invalid.
        let bad = SearchSpec {
            strategy: match &spec.strategy {
                Strategy::Halving(h) => {
                    Strategy::Halving(HalvingSpec { max_duration_s: Some(-1.0), ..h.clone() })
                }
                _ => unreachable!(),
            },
            ..spec.clone()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn trajectory_json_round_trips_exactly() {
        let spec = bisect_spec(1.0, 82.0, 37.3, 0.5);
        let outcome =
            run_search_with(&spec, &[], oracle(|p| p.camera_rate_hz.unwrap() * 1.000001 + 0.1));
        let artifacts = search_artifacts(&spec, &outcome);
        let parsed = trajectory_from_json(&artifacts.trajectory_json).unwrap();
        assert_eq!(parsed, outcome.batches);
        assert!(trajectory_from_json("{\"batches\": 3}").is_err());
        assert!(trajectory_from_json("nonsense").is_err());
    }
}
