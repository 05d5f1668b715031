//! Schedule-independence of the sweep engine: the aggregate artifacts
//! and golden hashes must be byte-identical whether the batch runs on
//! one worker or eight, and regardless of the order results reach the
//! aggregator. This is the integration-level guarantee behind the
//! `sweep --check-jobs 1,8` gate in `scripts/tier1.sh`.

use av_core::stack::RunConfig;
use av_sweep::{aggregate, run_sweep_instrumented, SweepSpec};
use av_trace::export::render_chrome_trace;
use av_vision::DetectorKind;

fn test_spec() -> SweepSpec {
    SweepSpec {
        duration_s: Some(5.0),
        detectors: vec![DetectorKind::Ssd512, DetectorKind::YoloV3],
        camera_rate_hz: vec![10.0, 30.0],
        ..SweepSpec::new("jobs_invariance", av_sweep::WorldKind::Smoke)
    }
}

#[test]
fn sweep_artifacts_identical_at_jobs_1_and_8() {
    let spec = test_spec();
    let run = RunConfig::default().with_trace();
    let serial = run_sweep_instrumented(&spec, &run, 1).0;
    let threaded = run_sweep_instrumented(&spec, &run, 8).0;

    let a = aggregate(&spec, &serial);
    let b = aggregate(&spec, &threaded);
    assert_eq!(a.sweep_hash, b.sweep_hash, "golden sweep hash diverged across jobs");
    assert_eq!(a.summary_txt, b.summary_txt);
    assert_eq!(a.summary_csv, b.summary_csv);
    assert_eq!(a.effects_txt, b.effects_txt);
    assert_eq!(a.hashes_json, b.hashes_json);
    assert_eq!(a.per_point, b.per_point);

    // The exported traces are part of the artifact set too: byte-compare
    // each point's Chrome trace JSON across jobs levels.
    for (s, t) in serial.iter().zip(&threaded) {
        let name = format!("sweep_{}", s.point.id());
        let trace_a = render_chrome_trace(&name, s.report.trace.as_ref().expect("trace recorded"));
        let trace_b = render_chrome_trace(&name, t.report.trace.as_ref().expect("trace recorded"));
        assert_eq!(trace_a, trace_b, "trace bytes diverged for point {}", s.point.id());
    }
}

#[test]
fn aggregation_ignores_result_arrival_order() {
    let spec = test_spec();
    let mut results = run_sweep_instrumented(&spec, &RunConfig::default(), 4).0;
    let forward = aggregate(&spec, &results);
    // Simulate out-of-order completion: reverse, then rotate.
    results.reverse();
    results.rotate_left(1);
    let shuffled = aggregate(&spec, &results);
    assert_eq!(forward.sweep_hash, shuffled.sweep_hash);
    assert_eq!(forward.summary_txt, shuffled.summary_txt);
    assert_eq!(forward.hashes_json, shuffled.hashes_json);
}
