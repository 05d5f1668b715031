//! Schedule-independence of the scenario-space search: the full
//! trajectory — every batch, every evaluation, every rendered artifact
//! byte — must be identical whether evaluation batches run on one worker
//! or eight, and a resumed run must reproduce a fresh one exactly. This
//! is the integration-level guarantee behind the `search --check-jobs
//! 1,8` gate in `scripts/tier1.sh`.

use av_sweep::search::trajectory_from_json;
use av_sweep::{run_search_instrumented, search_artifacts, SearchArtifacts, SearchSpec};

fn artifacts_equal(a: &SearchArtifacts, b: &SearchArtifacts, what: &str) {
    assert_eq!(a.search_hash, b.search_hash, "golden search hash diverged: {what}");
    assert_eq!(a.summary_txt, b.summary_txt, "summary bytes diverged: {what}");
    assert_eq!(a.trajectory_txt, b.trajectory_txt, "trajectory bytes diverged: {what}");
    assert_eq!(a.trajectory_json, b.trajectory_json, "trajectory JSON diverged: {what}");
    assert_eq!(a.hashes_json, b.hashes_json, "hash manifest diverged: {what}");
}

#[test]
fn search_trajectory_identical_at_jobs_1_2_and_8() {
    let spec = SearchSpec::builtin_smoke();
    let serial = run_search_instrumented(&spec, 1, &[], true).0;
    let a = search_artifacts(&spec, &serial);
    for jobs in [2, 8] {
        let threaded = run_search_instrumented(&spec, jobs, &[], true).0;
        assert_eq!(serial.batches, threaded.batches, "batches diverged at jobs {jobs}");
        assert_eq!(serial.answer, threaded.answer, "answer diverged at jobs {jobs}");
        let b = search_artifacts(&spec, &threaded);
        artifacts_equal(&a, &b, &format!("jobs 1 vs jobs {jobs}"));
    }
    // The golden-hash manifest pins the search hash; every evaluation's
    // run hash appears in it.
    let evals: usize = serial.batches.iter().map(|b| b.evals.len()).sum();
    assert!(a.hashes_json.contains(&format!("{:#018x}", a.search_hash)));
    assert_eq!(a.hashes_json.matches("\"ordinal\"").count(), evals);
}

#[test]
fn resumed_search_is_byte_identical_to_a_fresh_one() {
    let spec = SearchSpec::builtin_smoke();
    let fresh = run_search_instrumented(&spec, 2, &[], true).0;
    let a = search_artifacts(&spec, &fresh);

    // Resume from a truncated trajectory (the first two batches): the
    // prefix is reused, the rest re-runs, and the bytes must not differ.
    let partial: Vec<_> = fresh.batches[..2].to_vec();
    let resumed = run_search_instrumented(&spec, 2, &partial, true).0;
    artifacts_equal(&a, &search_artifacts(&spec, &resumed), "fresh vs resumed(prefix)");

    // Resume from the complete trajectory, round-tripped through the
    // JSON artifact exactly as `search --resume` would load it: no
    // evaluation re-runs, same bytes.
    let reloaded = trajectory_from_json(&a.trajectory_json).expect("trajectory parses back");
    assert_eq!(reloaded, fresh.batches, "JSON round trip changed the trajectory");
    let replayed = run_search_instrumented(&spec, 1, &reloaded, true).0;
    artifacts_equal(&a, &search_artifacts(&spec, &replayed), "fresh vs replayed(full)");

    // A prior from a *different* search must be ignored, not trusted: a
    // tampered objective on batch 0 invalidates the whole prefix.
    let mut tampered = fresh.batches.clone();
    tampered[0].evals[0].point.camera_rate_hz = Some(999.0);
    let recovered = run_search_instrumented(&spec, 2, &tampered, true).0;
    artifacts_equal(&a, &search_artifacts(&spec, &recovered), "fresh vs tampered-prior");
}
