//! Metamorphic suite for the aggregation layers: permuting the inputs
//! must leave every rendered artifact byte-identical. The sweep
//! aggregator and the search artifact renderer both claim to be pure
//! functions of the result *set* — here a seeded shuffle harness tries
//! to falsify that claim across many permutations, not just the one
//! reversal the unit tests use.

use av_core::stack::RunConfig;
use av_des::RngStreams;
use av_sweep::{
    aggregate, run_search_instrumented, run_sweep_instrumented, search_artifacts, SearchSpec,
    SweepSpec, WorldKind,
};
use av_vision::DetectorKind;

/// Deterministic Fisher–Yates over the in-house PCG32 stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = RngStreams::new(seed).stream("metamorphic-shuffle");
    for i in (1..items.len()).rev() {
        let j = rng.uniform_usize(i + 1);
        items.swap(i, j);
    }
}

#[test]
fn sweep_aggregation_is_invariant_under_any_permutation() {
    let spec = SweepSpec {
        duration_s: Some(4.0),
        detectors: vec![DetectorKind::Ssd512, DetectorKind::YoloV3],
        camera_rate_hz: vec![10.0, 20.0, 30.0],
        ..SweepSpec::new("metamorphic", WorldKind::Smoke)
    };
    let mut results = run_sweep_instrumented(&spec, &RunConfig::default(), 2).0;
    let reference = aggregate(&spec, &results);
    for seed in 0..10 {
        shuffle(&mut results, seed);
        let shuffled = aggregate(&spec, &results);
        assert_eq!(reference.sweep_hash, shuffled.sweep_hash, "seed {seed}: hash moved");
        assert_eq!(reference.summary_txt, shuffled.summary_txt, "seed {seed}: summary moved");
        assert_eq!(reference.summary_csv, shuffled.summary_csv, "seed {seed}: csv moved");
        assert_eq!(reference.effects_txt, shuffled.effects_txt, "seed {seed}: effects moved");
        assert_eq!(reference.hashes_json, shuffled.hashes_json, "seed {seed}: manifest moved");
        assert_eq!(reference.per_point, shuffled.per_point, "seed {seed}: point reports moved");
    }
}

#[test]
fn search_artifacts_are_invariant_under_batch_and_eval_permutation() {
    let spec = SearchSpec::builtin_smoke();
    let mut outcome = run_search_instrumented(&spec, 2, &[], true).0;
    let reference = search_artifacts(&spec, &outcome);
    for seed in 0..10 {
        shuffle(&mut outcome.batches, seed);
        for (k, batch) in outcome.batches.iter_mut().enumerate() {
            shuffle(&mut batch.evals, seed.wrapping_mul(1000).wrapping_add(k as u64));
        }
        let shuffled = search_artifacts(&spec, &outcome);
        assert_eq!(reference, shuffled, "seed {seed}: search artifacts moved under permutation");
    }
}
