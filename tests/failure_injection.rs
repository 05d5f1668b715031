//! Failure injection: sensor blackouts and the extension sensors.
//!
//! The paper stresses "stimulating the AV system on a varied number of
//! situations to capture such flaws" (§IV-A); these tests inject sensor
//! outages and verify the stack degrades gracefully and recovers.

use av_core::stack::{run_drive, Blackout, RunConfig, StackConfig};
use av_core::topics::{self, nodes};
use av_ros::Source;
use av_sweep::{run_sweep_instrumented, SweepSpec};
use av_vision::DetectorKind;

fn run(config: &StackConfig, seconds: f64) -> av_core::stack::RunReport {
    run_drive(config, &RunConfig::seconds(seconds))
}

fn delivered(report: &av_core::stack::RunReport, topic: &str, node: &str) -> u64 {
    report.drops.iter().filter(|d| d.topic == topic && d.node == node).map(|d| d.delivered).sum()
}

#[test]
fn lidar_blackout_suspends_the_lidar_pipeline_then_recovers() {
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.blackouts = vec![Blackout { source: Source::Lidar, from_s: 4.0, to_s: 7.0 }];
    let report = run(&config, 20.0);
    let baseline = run(&StackConfig::smoke_test(DetectorKind::YoloV3), 20.0);

    // ~30 sweeps lost out of ~120.
    let got = report.node_summary(nodes::VOXEL_GRID_FILTER).count;
    let want = baseline.node_summary(nodes::VOXEL_GRID_FILTER).count;
    assert!(
        got + 25 <= want && got + 40 >= want,
        "blackout should cost ~30 sweeps: {got} vs {want}"
    );

    // Localization degrades during the outage (dead reckoning + GNSS
    // reseed keep it bounded) and RECOVERS once sweeps return.
    assert!(
        report.localization_error_m < 8.0,
        "localization lost entirely during a 3 s LiDAR outage: {} m",
        report.localization_error_m
    );
    assert!(
        report.localization_error_final_m < 1.0,
        "localization must re-converge after the outage: {} m",
        report.localization_error_final_m
    );
    assert!(
        report.localization_error_m > baseline.localization_error_m,
        "the outage must actually hurt"
    );
}

#[test]
fn camera_blackout_starves_only_the_vision_chain() {
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.blackouts = vec![Blackout { source: Source::Camera, from_s: 3.0, to_s: 8.0 }];
    let report = run(&config, 12.0);
    let baseline = run(&StackConfig::smoke_test(DetectorKind::YoloV3), 12.0);

    // Vision (and everything fusion-triggered) loses ~5 s of frames...
    let vision_lost = baseline.node_summary(nodes::VISION_DETECTION).count
        - report.node_summary(nodes::VISION_DETECTION).count;
    assert!(vision_lost >= 60, "camera outage must starve the detector: lost {vision_lost}");
    // ...while the LiDAR pipeline is untouched.
    assert_eq!(
        report.node_summary(nodes::RAY_GROUND_FILTER).count,
        baseline.node_summary(nodes::RAY_GROUND_FILTER).count,
    );
    // The costmap-from-points path still produces output throughout.
    let costmap = report.path_summary("costmap_points");
    assert!(costmap.count >= 110, "points costmap must keep running: {}", costmap.count);
}

#[test]
fn radar_extension_feeds_the_tracker() {
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.with_radar = true;
    let report = run(&config, 10.0);
    // The radar node runs at 20 Hz.
    let radar = report.node_summary(nodes::RADAR_DETECTION);
    assert!((150..=210).contains(&radar.count), "radar frames: {}", radar.count);
    // The tracker now processes both streams: fusion (15 Hz) + radar (20 Hz).
    let tracker = report.node_summary(nodes::IMM_UKF_PDA_TRACKER);
    let baseline = run(&StackConfig::smoke_test(DetectorKind::YoloV3), 10.0);
    let tracker_base = baseline.node_summary(nodes::IMM_UKF_PDA_TRACKER);
    assert!(
        tracker.count > tracker_base.count + 100,
        "tracker must consume the radar stream: {} vs {}",
        tracker.count,
        tracker_base.count
    );
}

#[test]
fn traffic_light_extension_recognizes_lights() {
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.with_traffic_lights = true;
    // Drive long enough to pass a signal.
    let report = run(&config, 15.0);
    let tlr = report.node_summary(nodes::TRAFFIC_LIGHT_RECOGNITION);
    assert!(tlr.count > 100, "recognition runs per camera frame: {}", tlr.count);
}

#[test]
fn gnss_and_combined_blackouts_as_sweep_points() {
    // The blackout schedules are sweep points through the av-sweep
    // engine: one base point, one GNSS outage, one combined
    // LiDAR+camera outage — a single 3-point batch.
    let spec = SweepSpec::from_json(
        r#"{
            "name": "blackout_injection",
            "world": "smoke",
            "duration_s": 20.0,
            "points": [
                {},
                {"blackouts": "gnss:2-18"},
                {"blackouts": "lidar:4-8+camera:4-8"}
            ]
        }"#,
    )
    .expect("spec parses");
    let results = run_sweep_instrumented(&spec, &RunConfig::default(), 3).0;
    assert_eq!(results.len(), 3);
    let (base, gnss, combined) = (&results[0].report, &results[1].report, &results[2].report);

    // GNSS outage: the fix stream goes quiet for 16 of 20 s, but NDT
    // only uses GNSS to (re)seed its pose — once converged, scan
    // matching carries on and localization stays tight.
    let base_fixes = delivered(base, topics::GNSS_POSE, nodes::NDT_MATCHING);
    let gnss_fixes = delivered(gnss, topics::GNSS_POSE, nodes::NDT_MATCHING);
    assert!(
        gnss_fixes * 3 < base_fixes,
        "GNSS blackout must silence most fixes: {gnss_fixes} vs {base_fixes}"
    );
    assert_eq!(
        gnss.node_summary(nodes::VOXEL_GRID_FILTER).count,
        base.node_summary(nodes::VOXEL_GRID_FILTER).count,
        "a GNSS outage must not disturb the LiDAR pipeline"
    );
    assert!(
        gnss.localization_error_m < 1.0,
        "converged NDT must ride out a GNSS outage: {} m",
        gnss.localization_error_m
    );

    // Combined LiDAR+camera outage: both perception chains starve...
    let voxel_lost = base.node_summary(nodes::VOXEL_GRID_FILTER).count
        - combined.node_summary(nodes::VOXEL_GRID_FILTER).count;
    let vision_lost = base.node_summary(nodes::VISION_DETECTION).count
        - combined.node_summary(nodes::VISION_DETECTION).count;
    assert!(voxel_lost >= 30, "4 s LiDAR outage at 10 Hz: lost {voxel_lost}");
    assert!(vision_lost >= 40, "4 s camera outage at 15 Hz: lost {vision_lost}");
    // ...and localization still recovers once both streams return.
    assert!(
        combined.localization_error_final_m < 1.0,
        "localization must re-converge after the combined outage: {} m",
        combined.localization_error_final_m
    );
    assert!(
        combined.localization_error_m > base.localization_error_m,
        "the combined outage must actually hurt"
    );

    // Every point carries its golden hash; the outage points diverge
    // from the base run.
    assert_ne!(results[0].run_hash, results[1].run_hash);
    assert_ne!(results[0].run_hash, results[2].run_hash);
}

#[test]
fn radar_blackout_only_silences_radar() {
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.with_radar = true;
    config.blackouts = vec![Blackout { source: Source::Radar, from_s: 0.0, to_s: 100.0 }];
    let report = run(&config, 8.0);
    assert_eq!(report.node_summary(nodes::RADAR_DETECTION).count, 0);
    assert!(report.node_summary(nodes::VISION_DETECTION).count > 80);
}

#[test]
fn windowed_radar_blackout_recovers_the_radar_stream() {
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.with_radar = true;
    config.blackouts = vec![Blackout { source: Source::Radar, from_s: 3.0, to_s: 6.0 }];
    let report = run(&config, 10.0);
    let mut baseline = StackConfig::smoke_test(DetectorKind::YoloV3);
    baseline.with_radar = true;
    let baseline = run(&baseline, 10.0);
    // ~60 scans lost out of ~200 (20 Hz radar, 3 s window) — and scans
    // resume after the window, so the node is far from silent.
    let got = report.node_summary(nodes::RADAR_DETECTION).count;
    let want = baseline.node_summary(nodes::RADAR_DETECTION).count;
    assert!(
        got + 50 <= want && got + 75 >= want,
        "3 s radar outage at 20 Hz should cost ~60 scans: {got} vs {want}"
    );
    assert!(got > 100, "radar must resume after the window: {got}");
}

#[test]
fn imu_blackout_starves_motion_prediction_only() {
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    config.blackouts = vec![Blackout { source: Source::Imu, from_s: 3.0, to_s: 6.0 }];
    let report = run(&config, 12.0);
    let baseline = run(&StackConfig::smoke_test(DetectorKind::YoloV3), 12.0);
    // ~300 samples (100 Hz × 3 s) never reach NDT's motion predictor...
    let got = delivered(&report, topics::IMU_RAW, nodes::NDT_MATCHING);
    let want = delivered(&baseline, topics::IMU_RAW, nodes::NDT_MATCHING);
    assert!(
        got + 280 <= want && got + 330 >= want,
        "3 s IMU outage at 100 Hz should cost ~300 samples: {got} vs {want}"
    );
    // ...but the LiDAR pipeline itself is untouched, and with the last
    // known motion carried through the window, scan matching re-anchors
    // every sweep: localization coasts through and re-converges.
    assert_eq!(
        report.node_summary(nodes::VOXEL_GRID_FILTER).count,
        baseline.node_summary(nodes::VOXEL_GRID_FILTER).count,
    );
    assert!(
        report.localization_error_m < 3.0,
        "a windowed IMU loss must degrade, not destroy, localization: {} m",
        report.localization_error_m
    );
    assert!(
        report.localization_error_final_m < 1.0,
        "localization must re-converge once IMU returns: {} m",
        report.localization_error_final_m
    );
}

#[test]
fn blackout_windows_are_half_open_at_both_ends() {
    let window = Blackout { source: Source::Lidar, from_s: 4.0, to_s: 7.0 };
    assert!(!window.covers(3.999_999));
    assert!(window.covers(4.0), "the start instant is inside");
    assert!(window.covers(6.999_999));
    assert!(!window.covers(7.0), "the end instant is outside");
    // Back-to-back windows compose without double-covering the seam.
    let next = Blackout { source: Source::Lidar, from_s: 7.0, to_s: 9.0 };
    assert!(next.covers(7.0));

    assert!(window.validate().is_ok());
    for bad in [
        Blackout { source: Source::Lidar, from_s: 7.0, to_s: 4.0 },
        Blackout { source: Source::Lidar, from_s: 4.0, to_s: 4.0 },
        Blackout { source: Source::Lidar, from_s: -1.0, to_s: 4.0 },
        Blackout { source: Source::Lidar, from_s: f64::NAN, to_s: 4.0 },
        Blackout { source: Source::Lidar, from_s: 0.0, to_s: f64::INFINITY },
    ] {
        assert!(bad.validate().is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn combined_blackout_and_fault_compound_the_outage() {
    // A GNSS blackout alone is benign (NDT only reseeds from it); an
    // ndt_matching crash alone recovers in ~2 s (supervised restart +
    // GNSS reseed). Together they compound: the restarted node waits
    // for the first post-blackout fix before it can relocalize.
    let spec = SweepSpec::from_json(
        r#"{
            "name": "blackout_plus_fault",
            "world": "smoke",
            "duration_s": 18.0,
            "points": [
                {"faults": "crash:ndt_matching@5"},
                {"faults": "crash:ndt_matching@5", "blackouts": "gnss:5-10"}
            ]
        }"#,
    )
    .expect("spec parses");
    let results = run_sweep_instrumented(&spec, &RunConfig::default(), 2).0;
    let (crash_only, compounded) = (&results[0].report, &results[1].report);
    let fault_a = crash_only.fault.as_ref().expect("fault stats");
    let fault_b = compounded.fault.as_ref().expect("fault stats");
    assert_eq!(fault_a.crashes, 1);
    assert_eq!(fault_b.crashes, 1);
    assert!(fault_a.restarts >= 1 && fault_b.restarts >= 1);
    // Both eventually re-converge...
    assert!(
        crash_only.localization_error_final_m < 1.5,
        "crash-only must re-converge: {} m",
        crash_only.localization_error_final_m
    );
    assert!(
        compounded.localization_error_final_m < 1.5,
        "compounded outage must still re-converge: {} m",
        compounded.localization_error_final_m
    );
    // ...but the compounded run pays more: the blackout delays the
    // post-restart reseed, so localization suffers longer.
    assert!(
        compounded.localization_error_m > crash_only.localization_error_m,
        "blackout on top of the crash must hurt more: {} vs {} m",
        compounded.localization_error_m,
        crash_only.localization_error_m
    );
    assert_ne!(results[0].run_hash, results[1].run_hash);
}
