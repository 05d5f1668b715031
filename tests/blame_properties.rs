//! Property checks on the blame-attribution engine: the decomposition is
//! *exactly* additive (integer nanoseconds, no epsilon) for every path
//! instance of clean and faulted runs, shares sum to one, the attribution
//! is byte-identical regardless of how many worker threads produced the
//! traces, and a crash mid-chain stays attributable because the fallback
//! localizer and the restarted NDT node stamp lineage through.

use av_core::fault::FaultPlan;
use av_core::parallel::parallel_map;
use av_core::stack::{computation_paths, run_drive, Blackout, RunConfig, RunReport, StackConfig};
use av_ros::{FaultKind, Source};
use av_trace::blame::{analyze_blame, render_blame_csv, render_blame_track};
use av_trace::TraceEvent;
use av_vision::DetectorKind;

/// The workload mix the properties quantify over: the heaviest detector
/// (real queue pressure), a light clean run, a crash-faulted run, and a
/// run with a mid-drive camera blackout.
fn workloads() -> Vec<StackConfig> {
    let heavy = StackConfig::smoke_test(DetectorKind::Ssd512);
    let light = StackConfig::smoke_test(DetectorKind::YoloV3);
    let mut crashed = StackConfig::smoke_test(DetectorKind::YoloV3);
    crashed.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
    let mut dark = StackConfig::smoke_test(DetectorKind::Ssd300);
    dark.blackouts = vec![Blackout { source: Source::Camera, from_s: 3.0, to_s: 5.0 }];
    vec![heavy, light, crashed, dark]
}

fn traced(config: &StackConfig) -> RunReport {
    run_drive(config, &RunConfig::seconds(8.0).with_trace())
}

#[test]
fn components_sum_exactly_to_the_recorded_latency() {
    for config in workloads() {
        let report = traced(&config);
        let trace = report.trace.as_ref().expect("traced run");
        let blame = analyze_blame(trace, &computation_paths()).expect("attribution succeeds");
        let mut instances = 0usize;
        for path in &blame.paths {
            for inst in &path.instances {
                assert_eq!(
                    inst.components_sum_ns(),
                    inst.total_ns(),
                    "path {} seq {}: components must telescope exactly",
                    path.name,
                    inst.seq
                );
                assert_eq!(
                    inst.node_ns().values().sum::<u64>(),
                    inst.total_ns(),
                    "path {} seq {}: node blame must cover the instance",
                    path.name,
                    inst.seq
                );
                instances += 1;
            }
            if !path.instances.is_empty() {
                let share_sum: f64 = path.mean_component_share().iter().sum();
                assert!(
                    (share_sum - 1.0).abs() < 1e-9,
                    "path {}: mean shares sum to 1, got {share_sum}",
                    path.name
                );
            }
            // The blame-side latency distribution is the live recorder's,
            // bit for bit.
            let live = report
                .recorder
                .path_latencies(&path.name)
                .map(|d| d.samples().to_vec())
                .unwrap_or_default();
            assert_eq!(
                path.latency_distribution().samples(),
                live.as_slice(),
                "path {}: blame latencies must match the recorder exactly",
                path.name
            );
        }
        assert!(instances > 0, "workload produced no path instances");
    }
}

#[test]
fn attribution_bytes_are_identical_across_worker_counts() {
    let render = |report: &RunReport| {
        let trace = report.trace.as_ref().expect("traced run");
        let blame = analyze_blame(trace, &computation_paths()).expect("attribution succeeds");
        (render_blame_csv(&blame), render_blame_track("jobs", &blame))
    };
    let baseline: Vec<(String, String)> = workloads().iter().map(|c| render(&traced(c))).collect();
    for jobs in [2, 8] {
        let parallel: Vec<(String, String)> =
            parallel_map(workloads(), jobs, |config| render(&traced(&config)));
        assert_eq!(parallel, baseline, "blame CSV/track bytes must not depend on --jobs {jobs}");
    }
}

#[test]
fn crash_mid_chain_stays_attributable_through_reseed_lineage() {
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
    let report = traced(&config);
    let trace = report.trace.as_ref().expect("traced run");

    // Every path still decomposes: no chain is broken by the crash.
    let blame = analyze_blame(trace, &computation_paths()).expect("crash run attributes");
    assert!(blame.paths.iter().any(|p| !p.instances.is_empty()));

    let restart_ns = trace
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Fault { kind: FaultKind::Restart, node, time, .. }
                if node == "ndt_matching" =>
            {
                Some(time.as_nanos())
            }
            _ => None,
        })
        .expect("supervised crash must restart ndt_matching");

    // The fallback localizer's poses carry sensor ancestry: IMU always,
    // GNSS once the reseed handshake has happened.
    let mut fallback_imu = 0usize;
    let mut fallback_gnss = 0usize;
    let mut restarted_gnss = false;
    for event in &trace.events {
        let TraceEvent::Callback { node, completed, lineage, published, .. } = event else {
            continue;
        };
        if !published.iter().any(|t| t == "/ndt_pose") {
            continue;
        }
        let has = |s: Source| lineage.iter().any(|&(src, _)| src == s);
        if node == "fallback_localizer" {
            fallback_imu += usize::from(has(Source::Imu));
            fallback_gnss += usize::from(has(Source::Gnss));
        }
        if node == "ndt_matching" && completed.as_nanos() >= restart_ns && has(Source::Gnss) {
            restarted_gnss = true;
        }
    }
    assert!(fallback_imu > 0, "fallback poses must carry IMU lineage");
    assert!(fallback_gnss > 0, "reseeded fallback poses must carry GNSS lineage");
    assert!(restarted_gnss, "post-restart NDT poses must carry the GNSS seed lineage");
}
