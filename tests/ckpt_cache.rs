//! Cross-process store reuse is an optimization, not a semantic: the
//! sweep runner, the search engine, and the evaluation cache may pull
//! checkpoints and finished evaluations out of a durable
//! [`av_core::ckptstore::CkptStore`] left behind by an earlier process,
//! and none of it may change an output byte. These tests simulate the
//! "earlier process" by running once against a fresh store and then
//! again against the populated one, pinning byte identity, the
//! instrumentation counters, and jobs-invariance.

use av_core::ckptstore::CkptStore;
use av_core::determinism::run_hash;
use av_core::stack::{checkpoint_drive, run_drive, RunConfig};
use av_sweep::cache::EvalCache;
use av_sweep::{
    run_search_instrumented, run_search_with_store, run_sweep, run_sweep_streamed, BlackoutSpec,
    FaultPlanSpec, HalvingSpec, Knob, KnobRange, Objective, SearchSpec, Strategy, SweepPoint,
    SweepSpec, WorldKind,
};
use std::path::PathBuf;

/// A unique per-test scratch store (tests in one binary run in
/// parallel threads, so the name must carry the test, not just the
/// process).
fn scratch_store(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("av-ckpt-cache-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn eval_cache_falls_back_to_the_disk_store_and_repopulates() {
    let dir = scratch_store("evalcache");
    let (store, recovery) = CkptStore::open(&dir).expect("open store");
    assert!(recovery.is_clean());

    let config = WorldKind::Smoke.base_config();
    let run = RunConfig::seconds(3.0).with_trace();
    let cold = run_drive(&config, &run);
    let cold_hash = run_hash(&cold);

    // The "earlier process": a drive captured exactly at the horizon,
    // persisted durably. Its in-memory EvalCache died with it.
    let (_, checkpoint) = checkpoint_drive(&config, &run, 3.0);
    store.put(&checkpoint).expect("persist horizon checkpoint");

    // A fresh process with an empty memory map: the pure-memory lookup
    // misses, the store fallback reconstructs the evaluation (a pure
    // drain of the stored horizon barrier), and the memory map is
    // repopulated so the next lookup never touches the disk again.
    let cache = EvalCache::new();
    let key = EvalCache::spec_hash(&config, &run);
    assert!(cache.lookup(key).is_none(), "memory map starts empty");
    let served = cache
        .lookup_or_resume(key, &config, &run, Some(&store))
        .expect("disk fallback serves the evaluation");
    assert_eq!(served.run_hash, cold_hash, "store-served evaluation must match the cold run");
    assert_eq!(cache.store_hits(), 1);
    assert!(cache.lookup(key).is_some(), "disk hit repopulates the memory map");
    assert_eq!(cache.store_hits(), 1, "the repopulated entry is a plain memory hit");

    // A shorter horizon has no exact-barrier entry: the fallback must
    // refuse rather than serve a wrong-horizon report.
    let short = RunConfig::seconds(2.0).with_trace();
    let short_key = EvalCache::spec_hash(&config, &short);
    assert!(
        cache.lookup_or_resume(short_key, &config, &short, Some(&store)).is_none(),
        "no stored entry at this horizon: the fallback must miss"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_prefix_sharing_reuses_a_prior_processes_barriers() {
    // The prefix-sharing spec from the checkpoint determinism suite:
    // two groups (one per fault plan), three blackout variants each.
    let spec = SweepSpec {
        duration_s: Some(6.0),
        blackouts: vec![
            BlackoutSpec::parse("none").unwrap(),
            BlackoutSpec::parse("gnss:3-5").unwrap(),
            BlackoutSpec::parse("lidar:4-5").unwrap(),
        ],
        faults: vec![
            FaultPlanSpec::parse("none").unwrap(),
            FaultPlanSpec::parse("crash:ndt_matching@4").unwrap(),
        ],
        ..SweepSpec::new("ckpt-reuse", WorldKind::Smoke)
    };
    let run = RunConfig::default().with_trace();
    let cold = run_sweep(&spec, &run, 2);

    let dir = scratch_store("sweep");
    let (store, recovery) = CkptStore::open(&dir).expect("open store");
    assert!(recovery.is_clean());

    // Session one: a fresh store holds nothing, so both group leaders
    // simulate their prefix and persist the barrier.
    let (first, first_stats) = run_sweep_streamed(&spec, &run, 2, Some(&store), |_| {});
    assert_eq!(first_stats.prefix_groups, 2);
    assert_eq!(first_stats.store_prefix_hits, 0, "an empty store cannot serve a prefix");
    assert_eq!(store.len(), 2, "each group persisted its shared barrier");

    // Session two (a later process): every group's barrier is restored
    // from disk, nobody simulates the shared prefix, and not one output
    // byte moves.
    let (second, second_stats) = run_sweep_streamed(&spec, &run, 2, Some(&store), |_| {});
    assert_eq!(second_stats.store_prefix_hits, 2, "both groups restore from the store");
    assert!(second_stats.store_saved_s > 0.0);
    assert_eq!(
        second_stats.resumed_points, 6,
        "with a stored prefix every member (leader included) forks from the snapshot"
    );
    assert!(
        second_stats.simulated_s < first_stats.simulated_s,
        "restored prefixes must shrink the simulated horizon ({} vs {})",
        second_stats.simulated_s,
        first_stats.simulated_s
    );
    for ((c, f), s) in cold.iter().zip(&first).zip(&second) {
        assert_eq!(c.run_hash, f.run_hash, "store-writing sweep diverged at {}", c.point.id());
        assert_eq!(c.run_hash, s.run_hash, "store-reading sweep diverged at {}", c.point.id());
    }

    // The reuse path is jobs-invariant, counters included.
    let (par, par_stats) = run_sweep_streamed(&spec, &run, 8, Some(&store), |_| {});
    assert_eq!(second_stats, par_stats, "store counters must not depend on --jobs");
    for (s, p) in second.iter().zip(&par) {
        assert_eq!(s.run_hash, p.run_hash);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn search_warm_starts_from_a_prior_processes_store() {
    let spec = SearchSpec {
        name: "store-resume".to_string(),
        world: WorldKind::Smoke,
        base: SweepPoint::default(),
        objective: Objective::E2eP99Ms,
        duration_s: 2.0,
        strategy: Strategy::Halving(HalvingSpec {
            knobs: vec![KnobRange { knob: Knob::CameraRateHz, lo: 10.0, hi: 40.0 }],
            initial: 4,
            eta: 2,
            rungs: 2,
            seed: 11,
            max_duration_s: None,
        }),
    };
    spec.validate().unwrap();
    let (cold, cold_stats) = run_search_instrumented(&spec, 2, &[], false);

    let dir = scratch_store("search");
    let (store, recovery) = CkptStore::open(&dir).expect("open store");
    assert!(recovery.is_clean());

    // Session one populates the store while answering identically.
    let (first, first_stats) = run_search_with_store(&spec, 2, &[], Some(&store));
    assert_eq!(cold.search_hash, first.search_hash, "a store must never change the answer");
    assert!(!store.is_empty(), "the search persisted its rung checkpoints");

    // Session two: the same search in a fresh "process" leans on the
    // stored barriers — full-horizon entries satisfy whole evaluations
    // (store_hits), shorter ones warm-start them (store_resumes) — and
    // still reproduces the trajectory bit for bit.
    let (second, second_stats) = run_search_with_store(&spec, 2, &[], Some(&store));
    assert_eq!(cold.search_hash, second.search_hash, "store reuse changed the trajectory");
    assert_eq!(cold.answer, second.answer);
    assert!(
        second_stats.store_hits + second_stats.store_resumes > 0,
        "a populated store must serve something ({second_stats:?})"
    );
    assert!(
        second_stats.simulated_s < cold_stats.simulated_s,
        "store reuse must simulate strictly less than cold ({} vs {})",
        second_stats.simulated_s,
        cold_stats.simulated_s
    );
    assert!(first_stats.simulated_s <= cold_stats.simulated_s);

    // Jobs-invariant, like every other consumer of the seam.
    let (one, _) = run_search_with_store(&spec, 1, &[], Some(&store));
    let (eight, _) = run_search_with_store(&spec, 8, &[], Some(&store));
    assert_eq!(second.search_hash, one.search_hash);
    assert_eq!(second.search_hash, eight.search_hash);

    let _ = std::fs::remove_dir_all(&dir);
}
