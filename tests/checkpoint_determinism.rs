//! Checkpoint/resume is an optimization, not a semantic: a drive that
//! is snapshotted at a barrier and resumed must be byte-identical to
//! the straight-through run — same golden hash (which folds the full
//! structured trace and fault statistics) and same rendered trace
//! exports — including when the barrier lands inside an active fault
//! window with the supervisor mid-recovery. The same guarantee holds
//! for every consumer of the seam: prefix-shared sweeps at any `--jobs`
//! level, and warm-started halving searches, whose outputs must match
//! their cold counterparts exactly while simulating strictly fewer
//! virtual seconds.

use av_core::determinism::{fnv64, run_hash};
use av_core::fault::FaultPlan;
use av_core::stack::{
    checkpoint_drive, drive, run_drive, Blackout, DriveRequest, RunConfig, SchedPolicyKind,
    StackConfig,
};
use av_ros::Source;
use av_sweep::{
    run_search_instrumented, run_sweep_instrumented, BlackoutSpec, FaultPlanSpec, HalvingSpec,
    Knob, KnobRange, Objective, SearchSpec, Strategy, SweepPoint, SweepSpec, WorldKind,
};
use av_trace::export::{render_chrome_trace, render_metrics_csv};
use av_vision::DetectorKind;

#[test]
fn resume_is_byte_identical_including_trace_exports() {
    // Crash at 3 s: barrier 2.0 checkpoints before the fault event
    // fires, barrier 4.0 checkpoints mid-degraded-window with the
    // fallback localizer active and the restart timer pending.
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
    let run = RunConfig::seconds(8.0).with_trace();
    let straight = run_drive(&config, &run);
    let straight_trace = straight.trace.as_ref().expect("trace recorded");
    for barrier_s in [2.0, 4.0] {
        let (_, checkpoint) = checkpoint_drive(&config, &run, barrier_s);
        let request = DriveRequest { from: Some(&checkpoint), ..DriveRequest::default() };
        let (resumed, _) = drive(&config, &run, request);
        assert_eq!(
            run_hash(&straight),
            run_hash(&resumed),
            "golden hash diverged across a barrier at {barrier_s} s"
        );
        let resumed_trace = resumed.trace.as_ref().expect("trace recorded");
        assert_eq!(
            render_chrome_trace("ckpt", straight_trace),
            render_chrome_trace("ckpt", resumed_trace),
            "Chrome trace bytes diverged across a barrier at {barrier_s} s"
        );
        assert_eq!(
            render_metrics_csv(straight_trace),
            render_metrics_csv(resumed_trace),
            "metrics CSV bytes diverged across a barrier at {barrier_s} s"
        );
        assert_eq!(straight.fault, resumed.fault, "fault statistics diverged");
    }
}

#[test]
fn prefix_shared_sweeps_match_cold_runs_at_every_jobs_level() {
    // Blackout axis x fault axis: two prefix groups (one per fault
    // plan), each sharing a checkpointed prefix across its three
    // blackout variants, with a crash + supervised restart landing
    // after the barrier in half the points.
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
        ..SweepSpec::new("ckpt", WorldKind::Smoke)
    };
    let run = RunConfig::default().with_trace();
    let (serial, stats1) = run_sweep_instrumented(&spec, &run, 1);
    let (two, stats2) = run_sweep_instrumented(&spec, &run, 2);
    let (eight, stats8) = run_sweep_instrumented(&spec, &run, 8);

    // The instrumentation is part of the deterministic surface too.
    assert_eq!(stats1, stats2);
    assert_eq!(stats1, stats8);
    assert_eq!(stats1.points, 6);
    assert_eq!(stats1.prefix_groups, 2, "one group per fault plan");
    assert_eq!(stats1.resumed_points, 4);

    let base = spec.base_config();
    let cold_run = RunConfig::seconds(6.0).with_trace();
    for ((s, t), e) in serial.iter().zip(&two).zip(&eight) {
        assert_eq!(s.run_hash, t.run_hash, "jobs 1 vs 2 diverged at {}", s.point.id());
        assert_eq!(s.run_hash, e.run_hash, "jobs 1 vs 8 diverged at {}", s.point.id());
        let name = format!("sweep_{}", s.point.id());
        let trace = |r: &av_core::stack::RunReport| {
            render_chrome_trace(&name, r.trace.as_ref().expect("trace recorded"))
        };
        assert_eq!(trace(&s.report), trace(&t.report));
        assert_eq!(trace(&s.report), trace(&e.report));
        // Sharing must be invisible: every point equals its cold run.
        let cold = run_drive(&s.point.apply(&base), &cold_run);
        assert_eq!(
            s.run_hash,
            run_hash(&cold),
            "prefix-shared point {} diverged from its cold run",
            s.point.id()
        );
        assert_eq!(trace(&s.report), trace(&cold));
    }
}

#[test]
fn warm_halving_matches_cold_search_with_fewer_simulated_seconds() {
    let spec = SearchSpec {
        name: "resume".to_string(),
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
    let (warm, warm_stats) = run_search_instrumented(&spec, 2, &[], true);

    // Identical search outcome, bit for bit.
    assert_eq!(cold.search_hash, warm.search_hash, "warm search changed the trajectory");
    assert_eq!(cold.batches, warm.batches);
    assert_eq!(cold.answer, warm.answer);

    // Strictly less simulation: rung 1's two survivors resume from
    // rung 0's checkpoints instead of replaying the first 2 s.
    assert_eq!(cold_stats.evaluations, warm_stats.evaluations);
    assert_eq!(warm_stats.warm_resumes, 2);
    assert!((warm_stats.resumed_prefix_s - 2.0 * 2.0).abs() < 1e-9);
    assert!(
        warm_stats.simulated_s < cold_stats.simulated_s,
        "warm ({} s) must simulate strictly less than cold ({} s)",
        warm_stats.simulated_s,
        cold_stats.simulated_s
    );
    assert!(
        (cold_stats.simulated_s - warm_stats.simulated_s - warm_stats.resumed_prefix_s).abs()
            < 1e-9,
        "every saved second is accounted for by a resumed prefix"
    );

    // The warm path is jobs-invariant like everything else.
    let (warm1, _) = run_search_instrumented(&spec, 1, &[], true);
    let (warm8, _) = run_search_instrumented(&spec, 8, &[], true);
    assert_eq!(warm.search_hash, warm1.search_hash);
    assert_eq!(warm.search_hash, warm8.search_hash);
}

#[test]
fn checkpoint_bytes_are_pinned() {
    // `(case, fnv64 of the checkpoint bytes, checkpoint size)`. These pin
    // the encoding itself, not just resume equivalence: a change to any
    // component's field order or width changes the bytes. The constants
    // were taken once and are never edited; a deliberate format change
    // bumps `CHECKPOINT_VERSION` and adds a new table instead.
    let smoke = StackConfig::smoke_test(DetectorKind::YoloV3);
    let run = RunConfig::seconds(5.0);
    let traced = RunConfig::seconds(5.0).with_trace();
    let mut crash = smoke.clone();
    crash.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
    let mut blackout = smoke.clone();
    blackout.blackouts = vec![Blackout { source: Source::Gnss, from_s: 2.0, to_s: 6.0 }];
    let mut edf = smoke.clone();
    edf.sched_policy = SchedPolicyKind::Edf;
    let chained = {
        let (_, first) = checkpoint_drive(&smoke, &run, 2.0);
        let request =
            DriveRequest { from: Some(&first), capture_at_s: Some(4.0), ..Default::default() };
        drive(&smoke, &run, request).1.expect("chained capture")
    };
    let cases = [
        ("smoke untraced @2", checkpoint_drive(&smoke, &run, 2.0).1, 0x4d18e10e2edf8c90, 48758),
        ("smoke traced @3", checkpoint_drive(&smoke, &traced, 3.0).1, 0x9ff868aed782e9b9, 149850),
        (
            "crash mid-recovery @4",
            checkpoint_drive(&crash, &traced, 4.0).1,
            0x917daaaf0bb8c63a,
            242566,
        ),
        (
            "gnss blackout mid-outage @4",
            checkpoint_drive(&blackout, &run, 4.0).1,
            0x2b554305b77463e9,
            60928,
        ),
        ("edf @3", checkpoint_drive(&edf, &traced, 3.0).1, 0x8536e826c55284fb, 149912),
        ("chained 2 -> 4", chained, 0xb94c53660f39cfab, 61004),
    ];
    for (case, cp, hash, size) in cases {
        assert_eq!(fnv64(cp.as_bytes()), hash, "{case}: checkpoint bytes changed");
        assert_eq!(cp.size_bytes(), size, "{case}: checkpoint size changed");
    }
}
