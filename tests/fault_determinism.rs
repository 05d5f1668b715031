//! Determinism of the fault-injection plane and supervision layer.
//!
//! Three guarantees, mirroring the clean-run gates in
//! `sweep_determinism.rs`:
//!
//! 1. Faulted runs (crashes, restarts, edge drops, timer skew — the
//!    full fault plane) produce byte-identical artifacts and golden
//!    hashes across `--jobs 1`, `2` and `8`.
//! 2. An *empty* fault plan is not merely "no faults observed" — it is
//!    byte-identical to a configuration that never mentions faults at
//!    all: same run hash, same trace bytes, no fault report. This is
//!    the invariant that keeps every pre-fault golden hash valid.
//! 3. A supervised crash actually recovers: localization error during
//!    the outage is bounded by the dead-reckoning fallback, and after
//!    the restart the stack re-converges to its clean-run accuracy.

use av_core::determinism::run_hash;
use av_core::fault::FaultPlan;
use av_core::stack::{run_drive, RunConfig, StackConfig};
use av_sweep::{aggregate, run_sweep_instrumented, SweepSpec};
use av_trace::export::render_chrome_trace;
use av_vision::DetectorKind;

fn faulted_spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "name": "fault_jobs_invariance",
            "world": "smoke",
            "duration_s": 10.0,
            "points": [
                {"faults": "crash:ndt_matching@3"},
                {"faults": "drop:/filtered_points>ndt_matching:0.4:2-6+skew:camera:x1.5:2-6"},
                {"faults": "slow:euclidean_cluster:x3:1-8", "restart_backoff_s": 0.25}
            ]
        }"#,
    )
    .expect("spec parses")
}

#[test]
fn faulted_artifacts_identical_across_jobs_1_2_and_8() {
    let spec = faulted_spec();
    let run = RunConfig::default().with_trace();
    let serial = run_sweep_instrumented(&spec, &run, 1).0;
    let two = run_sweep_instrumented(&spec, &run, 2).0;
    let eight = run_sweep_instrumented(&spec, &run, 8).0;

    let a = aggregate(&spec, &serial);
    for results in [&two, &eight] {
        let b = aggregate(&spec, results);
        assert_eq!(a.sweep_hash, b.sweep_hash, "faulted golden hash diverged across jobs");
        assert_eq!(a.summary_txt, b.summary_txt);
        assert_eq!(a.summary_csv, b.summary_csv);
        assert_eq!(a.hashes_json, b.hashes_json);
        assert_eq!(a.per_point, b.per_point);
        for (s, t) in serial.iter().zip(results.iter()) {
            let name = format!("sweep_{}", s.point.id());
            let ta = render_chrome_trace(&name, s.report.trace.as_ref().expect("traced"));
            let tb = render_chrome_trace(&name, t.report.trace.as_ref().expect("traced"));
            assert_eq!(ta, tb, "faulted trace bytes diverged for point {}", s.point.id());
        }
    }
    // The faults actually fired — this is not vacuous determinism.
    let crash = serial[0].report.fault.as_ref().expect("crash point has fault stats");
    assert_eq!(crash.crashes, 1);
    assert!(crash.restarts >= 1);
    let dropped = serial[1].report.fault.as_ref().expect("drop point has fault stats");
    assert!(dropped.messages_lost > 0);
}

#[test]
fn empty_fault_plan_is_byte_identical_to_a_faultless_config() {
    let clean = StackConfig::smoke_test(DetectorKind::YoloV3);
    let mut explicit_none = clean.clone();
    explicit_none.faults = FaultPlan::parse("none").expect("'none' parses");

    let run = RunConfig::seconds(8.0).with_trace();
    let a = run_drive(&clean, &run);
    let b = run_drive(&explicit_none, &run);

    assert_eq!(run_hash(&a), run_hash(&b), "an empty plan must not perturb the golden hash");
    assert!(a.fault.is_none() && b.fault.is_none(), "no fault stats without faults");
    let ta = render_chrome_trace("t", a.trace.as_ref().expect("traced"));
    let tb = render_chrome_trace("t", b.trace.as_ref().expect("traced"));
    assert_eq!(ta, tb, "an empty plan must not perturb the trace bytes");
    assert!(!ta.contains("\"fault"), "clean traces must carry no fault events");
}

#[test]
fn supervised_recovery_restores_localization_accuracy() {
    let clean =
        run_drive(&StackConfig::smoke_test(DetectorKind::YoloV3), &RunConfig::seconds(14.0));
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.faults = FaultPlan::parse("crash:ndt_matching@4").unwrap();
    let faulted = run_drive(&config, &RunConfig::seconds(14.0));

    let fault = faulted.fault.as_ref().expect("fault stats");
    assert_eq!(fault.crashes, 1);
    assert!(fault.restarts >= 1, "the supervisor must restart ndt_matching");
    assert!(
        fault.fallback_enters >= 1 && fault.fallback_exits >= 1,
        "the dead-reckoning fallback must bridge the outage: {fault:?}"
    );
    // Recovery latency: liveness detection (~1-1.25 s) + restart
    // backoff (0.5 s) + the reseed handshake, well inside 3 s.
    assert!(
        fault.recovery_latency_ms > 500.0 && fault.recovery_latency_ms < 3000.0,
        "implausible recovery latency: {} ms",
        fault.recovery_latency_ms
    );
    // The outage hurts while it lasts...
    assert!(
        faulted.localization_error_m > clean.localization_error_m,
        "the crash must cost accuracy: {} vs {} m",
        faulted.localization_error_m,
        clean.localization_error_m
    );
    // ...but the run ends as accurate as a clean one (within 0.5 m).
    assert!(
        faulted.localization_error_final_m < clean.localization_error_final_m + 0.5,
        "post-restart accuracy must return to clean-run levels: {} vs {} m",
        faulted.localization_error_final_m,
        clean.localization_error_final_m
    );
}
