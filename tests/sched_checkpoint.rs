//! Checkpoint/resume under non-FIFO scheduler policies. The snapshot
//! format carries no policy state on purpose: timer keys and bus
//! scheduling metadata are recomputed from the `StackConfig` at restore,
//! and the re-seeded event heap must land in exactly the order the
//! straight run would have used — including the restored ready-queue
//! order among same-instant events. Each non-FIFO policy is exercised
//! across barriers that land before, during, and after a crash fault so
//! the snapshot contains queued bus continuations, not just idle timers.

use av_core::determinism::run_hash;
use av_core::fault::FaultPlan;
use av_core::stack::{
    checkpoint_drive, drive, run_drive, Checkpoint, DriveRequest, RunConfig, RunReport,
    SchedPolicyKind, StackConfig,
};
use av_trace::export::{render_chrome_trace, render_metrics_csv};
use av_vision::DetectorKind;

/// Resumes `from` and runs the drive to `run`'s horizon.
fn resume(config: &StackConfig, run: &RunConfig, from: &Checkpoint) -> RunReport {
    drive(config, run, DriveRequest { from: Some(from), ..DriveRequest::default() }).0
}

fn sched_config(policy: SchedPolicyKind) -> StackConfig {
    let mut config = StackConfig::smoke_test(DetectorKind::Ssd512);
    config.sched_policy = policy;
    config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
    config
}

#[test]
fn resume_is_byte_identical_under_every_non_fifo_policy() {
    for policy in [SchedPolicyKind::Priority, SchedPolicyKind::Edf, SchedPolicyKind::ChainAware] {
        let config = sched_config(policy);
        let run = RunConfig::seconds(8.0).with_trace();
        let straight = run_drive(&config, &run);
        let straight_trace = straight.trace.as_ref().expect("trace recorded");
        assert_eq!(
            straight_trace.policy.as_deref(),
            Some(policy.name()),
            "traced run must carry its policy header"
        );
        // Barrier 2.0 snapshots before the crash; 4.0 lands mid-recovery
        // with the restart timer pending and sensor queues backed up.
        for barrier_s in [2.0, 4.0] {
            let (_, checkpoint) = checkpoint_drive(&config, &run, barrier_s);
            let resumed = resume(&config, &run, &checkpoint);
            assert_eq!(
                run_hash(&straight),
                run_hash(&resumed),
                "{policy}: golden hash diverged across a barrier at {barrier_s} s"
            );
            let resumed_trace = resumed.trace.as_ref().expect("trace recorded");
            assert_eq!(
                render_chrome_trace("sched", straight_trace),
                render_chrome_trace("sched", resumed_trace),
                "{policy}: Chrome trace bytes diverged across a barrier at {barrier_s} s"
            );
            assert_eq!(
                render_metrics_csv(straight_trace),
                render_metrics_csv(resumed_trace),
                "{policy}: metrics CSV bytes diverged across a barrier at {barrier_s} s"
            );
            assert_eq!(straight.fault, resumed.fault, "{policy}: fault statistics diverged");
        }
    }
}

#[test]
fn resumed_ready_order_differs_across_policies_but_not_across_resume() {
    // Sanity against a vacuous pass: the policies genuinely reorder the
    // same scenario (distinct golden hashes and sched-decision counts),
    // so the byte-identity above is a statement about restored ready
    // order, not about a scheduler that never got exercised.
    let run = RunConfig::seconds(8.0).with_trace();
    let mut hashes = Vec::new();
    for policy in [SchedPolicyKind::Fifo, SchedPolicyKind::Edf, SchedPolicyKind::ChainAware] {
        let config = sched_config(policy);
        let (_, checkpoint) = checkpoint_drive(&config, &run, 4.0);
        let resumed = resume(&config, &run, &checkpoint);
        let trace = resumed.trace.as_ref().expect("trace recorded");
        if policy == SchedPolicyKind::Fifo {
            assert_eq!(trace.sched_decision_count(), 0, "FIFO must stay decision-free");
        } else {
            assert!(
                trace.sched_decision_count() > 0,
                "{policy}: the smoke scenario must actually contend"
            );
        }
        hashes.push(run_hash(&resumed));
    }
    hashes.dedup();
    assert_eq!(hashes.len(), 3, "policies must produce distinct schedules on this scenario");
}
