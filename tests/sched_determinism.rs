//! Scheduler policies stay inside the determinism envelope: every policy
//! is a pure function of the spec (rerun-identical and `--jobs`-invariant
//! down to the trace bytes and golden hash), and FIFO — the default — is
//! pinned byte-for-byte to the order the stack produced before policies
//! existed. The pin constants below are the `SWEEP_hashes.json` golden
//! hashes of the builtin smoke sweep captured from the pre-policy tree;
//! if they move, historical reproducibility broke, which is a bug in the
//! scheduling seam no matter how plausible the new numbers look.

use av_core::determinism::run_hash;
use av_core::stack::{run_drive, RunConfig, SchedPolicyKind, StackConfig};
use av_sweep::{run_sweep_instrumented, SweepSpec, WorldKind};
use av_trace::export::render_chrome_trace;
use av_vision::DetectorKind;

/// Golden hashes of `sweep --builtin smoke` from the tree immediately
/// before the scheduler-policy seam landed (detector × camera_hz grid,
/// ids p00..p03). FIFO must reproduce these exactly.
const PRE_POLICY_SMOKE_HASHES: [(&str, u64); 4] = [
    ("p00", 0xf0080dfe35228146),
    ("p01", 0xaed0adf364080204),
    ("p02", 0x2fd1670494be5c1d),
    ("p03", 0x883bb36b44cb3eb7),
];

#[test]
fn fifo_reproduces_the_pre_policy_smoke_sweep_bit_for_bit() {
    let spec = SweepSpec::builtin_smoke();
    let run = RunConfig::default();
    let results = run_sweep_instrumented(&spec, &run, 2).0;
    assert_eq!(results.len(), PRE_POLICY_SMOKE_HASHES.len());
    for (result, (id, pinned)) in results.iter().zip(PRE_POLICY_SMOKE_HASHES) {
        assert_eq!(result.point.id(), id);
        assert_eq!(
            result.run_hash,
            pinned,
            "{id} ({}) no longer matches the pre-policy golden hash",
            result.point.label()
        );
    }
}

#[test]
fn explicit_fifo_is_byte_identical_to_the_implicit_default() {
    // Setting `sched_policy: fifo` on a point must be a no-op down to
    // the trace bytes — same hash as the unset default, no policy
    // header, no decision events.
    let run = RunConfig::seconds(8.0).with_trace();
    let config = StackConfig::smoke_test(DetectorKind::Ssd512);
    let implicit = run_drive(&config, &run);
    let mut explicit_cfg = config.clone();
    explicit_cfg.sched_policy = SchedPolicyKind::Fifo;
    let explicit = run_drive(&explicit_cfg, &run);
    assert_eq!(run_hash(&implicit), run_hash(&explicit));
    let trace = |r: &av_core::stack::RunReport| {
        render_chrome_trace("fifo", r.trace.as_ref().expect("trace recorded"))
    };
    assert_eq!(trace(&implicit), trace(&explicit));
    let data = explicit.trace.as_ref().unwrap();
    assert_eq!(data.policy, None, "FIFO must not stamp a policy header");
    assert_eq!(data.sched_decision_count(), 0, "FIFO must not emit decisions");
}

fn sched_axis_spec() -> SweepSpec {
    SweepSpec {
        duration_s: Some(8.0),
        sched_policy: SchedPolicyKind::ALL.to_vec(),
        ..SweepSpec::new("sched_determinism", WorldKind::Smoke)
    }
}

#[test]
fn every_policy_is_rerun_identical_and_jobs_invariant_to_the_byte() {
    let spec = sched_axis_spec();
    let run = RunConfig::default().with_trace();
    let (serial, stats1) = run_sweep_instrumented(&spec, &run, 1);
    let (again, _) = run_sweep_instrumented(&spec, &run, 1);
    let (two, stats2) = run_sweep_instrumented(&spec, &run, 2);
    let (eight, stats8) = run_sweep_instrumented(&spec, &run, 8);
    assert_eq!(stats1, stats2);
    assert_eq!(stats1, stats8);
    assert_eq!(serial.len(), SchedPolicyKind::ALL.len());

    for (((s, r), t), e) in serial.iter().zip(&again).zip(&two).zip(&eight) {
        let id = s.point.id();
        assert_eq!(s.run_hash, r.run_hash, "rerun diverged at {id}");
        assert_eq!(s.run_hash, t.run_hash, "jobs 1 vs 2 diverged at {id}");
        assert_eq!(s.run_hash, e.run_hash, "jobs 1 vs 8 diverged at {id}");
        let trace = |res: &av_sweep::PointResult| {
            render_chrome_trace(&id, res.report.trace.as_ref().expect("trace recorded"))
        };
        assert_eq!(trace(s), trace(r), "rerun trace bytes diverged at {id}");
        assert_eq!(trace(s), trace(t), "jobs 1 vs 2 trace bytes diverged at {id}");
        assert_eq!(trace(s), trace(e), "jobs 1 vs 8 trace bytes diverged at {id}");
    }

    // Non-vacuity: the axis genuinely varies the schedule. Every policy
    // hash is distinct, and every non-FIFO trace both names its policy
    // and records real decisions.
    let mut hashes: Vec<u64> = serial.iter().map(|s| s.run_hash).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), serial.len(), "policies collapsed to identical runs");
    for (result, policy) in serial.iter().zip(SchedPolicyKind::ALL) {
        let data = result.report.trace.as_ref().unwrap();
        if policy == SchedPolicyKind::Fifo {
            assert_eq!(data.policy, None);
            assert_eq!(data.sched_decision_count(), 0);
        } else {
            assert_eq!(data.policy.as_deref(), Some(policy.name()));
            assert!(
                data.sched_decision_count() > 0,
                "{policy}: smoke grid produced no scheduling decisions"
            );
        }
    }
}
