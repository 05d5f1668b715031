//! The deterministic batch runner.
//!
//! Each sweep point is an independent simulation — a pure function of its
//! `StackConfig` — so the cartesian product is embarrassingly parallel.
//! The runner schedules it over [`av_core::parallel::parallel_map`],
//! which preserves input order regardless of worker count, and stamps
//! every finished run with its golden hash
//! ([`av_core::determinism::run_hash`]). Results are therefore
//! byte-identical across `--jobs` levels; the aggregator additionally
//! sorts by ordinal so even a reordered result list cannot change the
//! artifacts.
//!
//! Three structural optimizations keep the result *set* untouched while
//! skipping redundant work:
//!
//! * **Deduplication** — grids whose axes overlap their explicit extra
//!   points can expand to several points with identical effective
//!   configurations. Each distinct `(StackConfig, RunConfig)` pair is
//!   evaluated once and the result fanned out to every point that maps
//!   to it, in expansion order.
//! * **Prefix sharing** — points whose configurations differ *only* in
//!   blackout windows evolve identically until the earliest window
//!   opens. Such a group runs once up to a shared barrier (a 0.5 s
//!   multiple strictly before every member's first window), checkpoints
//!   there, and forks the remaining members from the snapshot (both
//!   through [`av_core::stack::drive`]). The checkpoint seam guarantees
//!   each fork is byte-identical to that member's own cold run, so
//!   sharing is invisible in every artifact.
//! * **Map sharing** — every drive of the sweep takes its HD map from
//!   one [`MapCache`], so each distinct map is built once per sweep
//!   instead of once per drive. A shared map is the map a fresh build
//!   would return, so sharing is invisible in every artifact too.

use crate::cache::EvalCache;
use crate::spec::{SweepPoint, SweepSpec};
use av_core::ckptstore::CkptStore;
use av_core::determinism::run_hash;
use av_core::map::MapCache;
use av_core::parallel::parallel_map_streamed;
use av_core::stack::{
    drive, drive_fingerprint, drive_fingerprint_stripped, Checkpoint, DriveRequest, RunConfig,
    RunReport, StackConfig,
};
use std::collections::HashMap;

/// One completed sweep point.
#[derive(Debug)]
pub struct PointResult {
    /// The point that produced this run.
    pub point: SweepPoint,
    /// The full run report (tables, drops, power, optional trace).
    pub report: RunReport,
    /// Golden hash of the run ([`av_core::determinism::run_hash`]).
    pub run_hash: u64,
}

/// How much work the runner actually did, next to what the expanded
/// grid asked for. Purely informational: the result set is identical
/// whether or not any run was deduplicated or prefix-shared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Points in the expanded grid.
    pub points: usize,
    /// Distinct evaluations after deduplication.
    pub unique_points: usize,
    /// Points served by fanning out another point's result.
    pub deduped: usize,
    /// Groups that shared a checkpointed prefix.
    pub prefix_groups: usize,
    /// Evaluations forked from a shared checkpoint instead of running
    /// from virtual time zero.
    pub resumed_points: usize,
    /// Virtual seconds of prefix that were *not* re-simulated thanks to
    /// sharing (barrier × forks, summed over groups).
    pub shared_prefix_s: f64,
    /// Virtual seconds of drive horizon actually simulated.
    pub simulated_s: f64,
    /// Prefix groups whose shared barrier was restored from the durable
    /// checkpoint store (left behind by an earlier process) instead of
    /// being simulated by this sweep.
    pub store_prefix_hits: usize,
    /// Virtual seconds of group-leader prefix those restores skipped.
    pub store_saved_s: f64,
    /// HD maps actually built: one per distinct map the sweep's drives
    /// need, however many drives share it.
    pub map_builds: usize,
}

/// The run configuration a sweep point effectively executes: the CLI
/// duration wins, then the spec's `duration_s`, then the world default.
pub fn effective_run(spec: &SweepSpec, run: &RunConfig) -> RunConfig {
    RunConfig { duration_s: run.duration_s.or(spec.duration_s), trace: run.trace.clone() }
}

/// The largest checkpoint barrier a group of blackout-only-divergent
/// configs can legally share: a multiple of 0.5 s, at least 1 s in,
/// strictly before every member's earliest outage window and strictly
/// before the end of the drive. `None` when no such barrier exists
/// (too-early windows or a too-short drive), in which case the group
/// falls back to independent cold runs.
fn shared_barrier_s(duration_s: f64, members: &[&StackConfig]) -> Option<f64> {
    let mut limit = duration_s;
    for config in members {
        if let Some(first) = config.blackouts.iter().map(|b| b.from_s).min_by(f64::total_cmp) {
            limit = limit.min(first);
        }
    }
    // Largest multiple of 0.5 strictly below the limit. Strictness
    // matters: periodic sensors fire exactly on these boundaries, and a
    // window opening at the barrier would diverge from the cold run.
    let barrier = (limit / 0.5 - 1e-9).floor() * 0.5;
    (barrier >= 1.0).then_some(barrier)
}

/// A unit of work for the worker pool: indices refer to the deduplicated
/// representative list.
enum Task {
    /// An independent cold run.
    Single(usize),
    /// A prefix-sharing group: the first member runs through a
    /// checkpoint at `barrier_s`; the rest fork from the snapshot. When
    /// a durable store already held the barrier (`prefix`), *every*
    /// member forks from the restored snapshot and nobody simulates
    /// the prefix.
    Shared { barrier_s: f64, members: Vec<usize>, prefix: Option<Checkpoint> },
}

/// Runs every point of the sweep over `jobs` worker threads, in
/// expansion order, also reporting how much simulation the deduplication
/// and prefix-sharing layers avoided.
pub fn run_sweep_instrumented(
    spec: &SweepSpec,
    run: &RunConfig,
    jobs: usize,
) -> (Vec<PointResult>, SweepStats) {
    run_sweep_streamed(spec, run, jobs, None, |_| {})
}

/// [`run_sweep_instrumented`], additionally invoking `on_point` for
/// every finished point *in expansion order* as soon as its result is
/// known — the streaming seam the scenario service uses to ship
/// per-point results while later points are still simulating.
///
/// An ordinal frontier gates emission: point `k` is emitted only after
/// points `0..k`, so the callback sequence is identical at any `jobs`
/// level even though representatives complete out of order (the same
/// reorder discipline as [`parallel_map_streamed`], lifted through the
/// dedup fan-out).
///
/// With a durable checkpoint `store`, each prefix-sharing group first
/// looks for its shared barrier among the checkpoints an earlier
/// process persisted — a hit means *no* member simulates the prefix —
/// and on a miss the group leader's freshly captured barrier is written
/// back through the store's crash-safe path for the next session.
/// Byte-identical to the store-less sweep at every `jobs` level; only
/// [`SweepStats`] can tell the difference.
pub fn run_sweep_streamed(
    spec: &SweepSpec,
    run: &RunConfig,
    jobs: usize,
    store: Option<&CkptStore>,
    mut on_point: impl FnMut(&PointResult),
) -> (Vec<PointResult>, SweepStats) {
    let base = spec.base_config();
    let run = effective_run(spec, run);
    let points = spec.points();
    let duration_s = run.duration_s.unwrap_or(base.scenario.duration_s);

    // Deduplicate: one representative per distinct effective config.
    let mut reps: Vec<StackConfig> = Vec::new();
    let mut owner: Vec<usize> = Vec::with_capacity(points.len());
    let mut by_key: HashMap<u64, usize> = HashMap::new();
    for point in &points {
        let config = point.apply(&base);
        let key = EvalCache::spec_hash(&config, &run);
        let idx = *by_key.entry(key).or_insert_with(|| {
            reps.push(config);
            reps.len() - 1
        });
        owner.push(idx);
    }

    // Group representatives that differ only in blackout windows, in
    // first-appearance order (determinism of the task list).
    let mut group_order: Vec<Vec<usize>> = Vec::new();
    let mut group_index: HashMap<u64, usize> = HashMap::new();
    for (i, config) in reps.iter().enumerate() {
        let mut stripped = config.clone();
        stripped.blackouts.clear();
        let key = EvalCache::spec_hash(&stripped, &run);
        let gi = *group_index.entry(key).or_insert_with(|| {
            group_order.push(Vec::new());
            group_order.len() - 1
        });
        group_order[gi].push(i);
    }

    let mut stats = SweepStats {
        points: points.len(),
        unique_points: reps.len(),
        deduped: points.len() - reps.len(),
        ..SweepStats::default()
    };
    let mut tasks: Vec<Task> = Vec::new();
    for members in group_order {
        let configs: Vec<&StackConfig> = members.iter().map(|&i| &reps[i]).collect();
        match (members.len() >= 2).then(|| shared_barrier_s(duration_s, &configs)).flatten() {
            Some(barrier_s) => {
                // Probe the durable store here, in the sequential
                // task-build loop, so the stats stay a pure function of
                // the store's state at launch — independent of worker
                // count and completion order.
                let prefix = store.and_then(|st| {
                    let leader = &reps[members[0]];
                    st.best_prefix(
                        drive_fingerprint(leader),
                        drive_fingerprint_stripped(leader),
                        run.trace.is_some(),
                        (barrier_s * 1e9).round() as u64,
                    )
                });
                stats.prefix_groups += 1;
                if prefix.is_some() {
                    stats.store_prefix_hits += 1;
                    stats.store_saved_s += barrier_s;
                    stats.resumed_points += members.len();
                    stats.shared_prefix_s += barrier_s * members.len() as f64;
                    stats.simulated_s += (duration_s - barrier_s) * members.len() as f64;
                } else {
                    stats.resumed_points += members.len() - 1;
                    stats.shared_prefix_s += barrier_s * (members.len() - 1) as f64;
                    stats.simulated_s +=
                        duration_s + (duration_s - barrier_s) * (members.len() - 1) as f64;
                }
                tasks.push(Task::Shared { barrier_s, members, prefix });
            }
            None => {
                stats.simulated_s += duration_s * members.len() as f64;
                tasks.extend(members.into_iter().map(Task::Single));
            }
        }
    }

    let reps = &reps;
    let run_ref = &run;
    let maps = MapCache::new();
    let maps = &maps;
    // Results fan out from representatives to points behind an ordinal
    // frontier: a point is emitted (and appended to `results`) the
    // moment its representative's result is known *and* every earlier
    // point has already been emitted, so the on_point sequence — and
    // the result vector it mirrors — is independent of completion
    // order.
    let mut rep_results: Vec<Option<(RunReport, u64)>> = (0..reps.len()).map(|_| None).collect();
    let mut results: Vec<PointResult> = Vec::with_capacity(points.len());
    parallel_map_streamed(
        tasks,
        jobs,
        move |task| {
            let finish = |rep: usize, report: RunReport| {
                let hash = run_hash(&report);
                (rep, report, hash)
            };
            match task {
                Task::Single(rep) => {
                    let request = DriveRequest { maps: Some(maps), ..DriveRequest::default() };
                    vec![finish(rep, drive(&reps[rep], run_ref, request).0)]
                }
                Task::Shared { barrier_s, members, prefix } => {
                    // The leader captures the barrier unless it came out
                    // of the store; every other member forks from it.
                    let capture_at_s = prefix.is_none().then_some(barrier_s);
                    let request = DriveRequest {
                        from: prefix.as_ref(),
                        capture_at_s,
                        maps: Some(maps),
                        ..DriveRequest::default()
                    };
                    let (first, captured) = drive(&reps[members[0]], run_ref, request);
                    if let (Some(st), Some(cp)) = (store, &captured) {
                        st.put_or_warn(cp);
                    }
                    let checkpoint = captured.or(prefix).expect("a shared barrier checkpoint");
                    let mut out = vec![finish(members[0], first)];
                    for &rep in &members[1..] {
                        let request = DriveRequest {
                            from: Some(&checkpoint),
                            maps: Some(maps),
                            ..DriveRequest::default()
                        };
                        out.push(finish(rep, drive(&reps[rep], run_ref, request).0));
                    }
                    out
                }
            }
        },
        |_, completed: &Vec<(usize, RunReport, u64)>| {
            for (rep, report, hash) in completed {
                rep_results[*rep] = Some((report.clone(), *hash));
            }
            while results.len() < points.len() {
                let point = &points[results.len()];
                let Some((report, run_hash)) = rep_results[owner[results.len()]].clone() else {
                    break;
                };
                let result = PointResult { point: point.clone(), report, run_hash };
                on_point(&result);
                results.push(result);
            }
        },
    );
    assert_eq!(results.len(), points.len(), "every representative evaluated");
    stats.map_builds = maps.builds();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BlackoutSpec, WorldKind};
    use av_core::stack::run_drive;
    use av_vision::DetectorKind;

    #[test]
    fn runner_is_jobs_invariant_and_order_preserving() {
        let spec = SweepSpec {
            duration_s: Some(4.0),
            detectors: vec![DetectorKind::Ssd512, DetectorKind::YoloV3],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let serial = run_sweep_instrumented(&spec, &RunConfig::default(), 1).0;
        let threaded = run_sweep_instrumented(&spec, &RunConfig::default(), 4).0;
        assert_eq!(serial.len(), 2);
        for (a, b) in serial.iter().zip(&threaded) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.run_hash, b.run_hash, "point {} diverged across jobs", a.point.id());
        }
        assert_eq!(serial[0].report.detector, DetectorKind::Ssd512);
        assert_eq!(serial[1].report.detector, DetectorKind::YoloV3);
    }

    #[test]
    fn streamed_points_arrive_in_expansion_order_at_any_jobs_level() {
        let spec = SweepSpec {
            duration_s: Some(4.0),
            detectors: vec![DetectorKind::Ssd512, DetectorKind::Ssd300, DetectorKind::YoloV3],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let mut streams: Vec<Vec<(usize, u64)>> = Vec::new();
        for jobs in [1, 4] {
            let mut seen = Vec::new();
            let (results, _) = run_sweep_streamed(&spec, &RunConfig::default(), jobs, None, |r| {
                seen.push((r.point.ordinal, r.run_hash));
            });
            let want: Vec<(usize, u64)> =
                results.iter().map(|r| (r.point.ordinal, r.run_hash)).collect();
            assert_eq!(seen, want, "stream order != result order at jobs={jobs}");
            streams.push(seen);
        }
        assert_eq!(streams[0], streams[1], "streamed sequence diverged across jobs levels");
        assert_eq!(streams[0].iter().map(|&(o, _)| o).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn cli_duration_beats_spec_duration() {
        let spec = SweepSpec { duration_s: Some(4.0), ..SweepSpec::new("t", WorldKind::Smoke) };
        let run = effective_run(&spec, &RunConfig::seconds(2.0));
        assert_eq!(run.duration_s, Some(2.0));
        let run = effective_run(&spec, &RunConfig::default());
        assert_eq!(run.duration_s, Some(4.0));
    }

    #[test]
    fn duplicate_points_evaluate_once_and_fan_out() {
        // The grid's (YOLOv3) point reappears as an explicit extra point.
        let spec = SweepSpec {
            duration_s: Some(4.0),
            detectors: vec![DetectorKind::YoloV3],
            extra_points: vec![SweepPoint {
                detector: Some(DetectorKind::YoloV3),
                ..SweepPoint::default()
            }],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let (results, stats) = run_sweep_instrumented(&spec, &RunConfig::default(), 1);
        assert_eq!(results.len(), 2);
        assert_eq!(stats.points, 2);
        assert_eq!(stats.unique_points, 1);
        assert_eq!(stats.deduped, 1);
        assert_eq!(results[0].run_hash, results[1].run_hash);
        // Ordinals stay the expansion's own.
        assert_eq!(results[0].point.ordinal, 0);
        assert_eq!(results[1].point.ordinal, 1);
    }

    #[test]
    fn blackout_axis_shares_a_prefix_without_changing_results() {
        let spec = SweepSpec {
            duration_s: Some(6.0),
            blackouts: vec![
                BlackoutSpec::parse("none").unwrap(),
                BlackoutSpec::parse("gnss:3-5").unwrap(),
                BlackoutSpec::parse("lidar:4-5").unwrap(),
            ],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let (results, stats) = run_sweep_instrumented(&spec, &RunConfig::default(), 2);
        assert_eq!(stats.prefix_groups, 1);
        assert_eq!(stats.resumed_points, 2);
        // Barrier: largest 0.5 multiple strictly below min(3.0, 6.0).
        assert!((stats.shared_prefix_s - 2.5 * 2.0).abs() < 1e-9);

        // Sharing must be invisible: every point equals its cold run.
        assert_eq!(hashes(&results), cold_hashes(&spec));
    }

    fn hashes(results: &[PointResult]) -> Vec<u64> {
        results.iter().map(|r| r.run_hash).collect()
    }

    /// Each point's golden hash from its own cold [`run_drive`], which
    /// builds a fresh map and shares nothing.
    fn cold_hashes(spec: &SweepSpec) -> Vec<u64> {
        let base = spec.base_config();
        let run = effective_run(spec, &RunConfig::default());
        spec.points().iter().map(|p| run_hash(&run_drive(&p.apply(&base), &run))).collect()
    }

    #[test]
    fn one_map_serves_a_whole_smoke_batch_at_any_jobs_level() {
        // The grid of the benchmark's smoke-sweep batch (there 8 s per
        // point): detectors, camera rates and blackouts leave the map
        // alone, so all twelve drives (prefix leaders and forks) share
        // one build.
        let spec = SweepSpec {
            duration_s: Some(6.0),
            detectors: vec![DetectorKind::Ssd512, DetectorKind::Ssd300, DetectorKind::YoloV3],
            camera_rate_hz: vec![10.0, 20.0],
            blackouts: vec![
                BlackoutSpec::parse("none").unwrap(),
                BlackoutSpec::parse("lidar:4-6").unwrap(),
            ],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let cold = cold_hashes(&spec);
        assert_eq!(cold.len(), 12);
        for jobs in [1, 4] {
            let (results, stats) = run_sweep_instrumented(&spec, &RunConfig::default(), jobs);
            assert_eq!(stats.resumed_points, 6, "jobs={jobs}");
            assert_eq!(stats.map_builds, 1, "jobs={jobs}");
            assert_eq!(hashes(&results), cold, "a shared map changed a point at jobs={jobs}");
        }
    }

    #[test]
    fn every_input_of_the_map_build_keys_its_own_map() {
        // The seed (the mapping rig's LiDAR noise), the LiDAR model and
        // the scenario each reach the map: 2 × 2 × 2 distinct maps.
        let spec = SweepSpec {
            duration_s: Some(2.0),
            seeds: vec![1, 2],
            lidar_rate_hz: vec![10.0, 20.0],
            traffic_density: vec![0.5, 1.0],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let (results, stats) = run_sweep_instrumented(&spec, &RunConfig::default(), 2);
        assert_eq!(stats.unique_points, 8);
        assert_eq!(stats.map_builds, 8, "one build per distinct map");
        assert_eq!(hashes(&results), cold_hashes(&spec), "a point drove on another's map");
    }

    #[test]
    fn straddling_blackouts_fall_back_to_cold_runs() {
        // A window opening at 0.5 s leaves no legal barrier (>= 1.0).
        let spec = SweepSpec {
            duration_s: Some(4.0),
            blackouts: vec![
                BlackoutSpec::parse("none").unwrap(),
                BlackoutSpec::parse("gnss:0.5-2").unwrap(),
            ],
            ..SweepSpec::new("t", WorldKind::Smoke)
        };
        let (results, stats) = run_sweep_instrumented(&spec, &RunConfig::default(), 1);
        assert_eq!(stats.prefix_groups, 0);
        assert_eq!(stats.resumed_points, 0);
        assert_eq!(results.len(), 2);
    }
}
