//! Run-hash pins of the LiDAR chain's irregular paths: a skewed LiDAR
//! clock, an outage that starts between two sweeps, duplicated and
//! dropped deliveries on the chain's edges, a crashed filter, a drive
//! resumed from a barrier between two sweeps, and the chain's nodes run
//! standalone.
//!
//! The constants were captured from the tree in which every sweep and
//! every LiDAR product was computed inline, on the thread that runs the
//! discrete-event engine. The LiDAR front end may compute a sweep and
//! its products ahead of time, elsewhere, or twice; none of that may
//! move a single bit of any drive below.

use av_core::determinism::run_hash;
use av_core::fault::FaultPlan;
use av_core::stack::{
    checkpoint_drive, drive, run_drive, Blackout, DriveRequest, NodeSelection, RunConfig,
    StackConfig,
};
use av_core::topics::nodes;
use av_ros::Source;
use av_vision::DetectorKind;

const RUN: RunConfig = RunConfig::seconds(4.0);

fn smoke() -> StackConfig {
    StackConfig::smoke_test(DetectorKind::YoloV3)
}

fn faulted(plan: &str) -> StackConfig {
    StackConfig { faults: FaultPlan::parse(plan).unwrap(), ..smoke() }
}

fn isolated(node: &str) -> StackConfig {
    StackConfig { selection: NodeSelection::Isolated(node.to_string()), ..smoke() }
}

/// The pinned cases: a name, the configuration, and its golden hash.
fn cases() -> Vec<(&'static str, StackConfig, u64)> {
    // LiDAR sweeps land about every 100 ms, so a window opening at
    // 1.05 s starts between two of them.
    let blackout = Blackout { source: Source::Lidar, from_s: 1.05, to_s: 2.05 };
    vec![
        ("clean", smoke(), 0x92f2ae95fdfb9439),
        ("skew", faulted("skew:lidar:x1.3:1-3"), 0x6e8cc47c81908501),
        ("blackout", StackConfig { blackouts: vec![blackout], ..smoke() }, 0xfdd9a755b327fe13),
        ("dup raw", faulted("dup:/points_raw>ray_ground_filter:1:1-2"), 0xff6894dbfe8ee07b),
        (
            "drop no-ground",
            faulted("drop:/points_no_ground>euclidean_cluster:0.5:1-3"),
            0x81c442cf1eaf1a4a,
        ),
        ("crash voxel", faulted("crash:voxel_grid_filter@2"), 0xfce777a8a70f0841),
        ("isolated ground", isolated(nodes::RAY_GROUND_FILTER), 0xfac5045568a14599),
        ("isolated cluster", isolated(nodes::EUCLIDEAN_CLUSTER), 0x0b75dadfabe21faf),
    ]
}

#[test]
fn lidar_chain_fault_paths_are_pinned() {
    let mut wrong = Vec::new();
    for (name, config, pinned) in cases() {
        let hash = run_hash(&run_drive(&config, &RUN));
        if hash != pinned {
            wrong.push(format!("{name}: 0x{hash:016x} (pinned 0x{pinned:016x})"));
        }
    }
    assert!(wrong.is_empty(), "LiDAR-chain pins moved:\n{}", wrong.join("\n"));
}

/// A drive resumed from a barrier between two sweeps equals the cold
/// drive, and both equal the pin.
#[test]
fn resume_between_two_sweeps_is_pinned() {
    let config = smoke();
    let cold = run_hash(&run_drive(&config, &RUN));
    let (_, checkpoint) = checkpoint_drive(&config, &RUN, 1.05);
    let request = DriveRequest { from: Some(&checkpoint), ..DriveRequest::default() };
    let resumed = run_hash(&drive(&config, &RUN, request).0);
    assert_eq!(resumed, cold, "resume at 1.05 s diverged from the cold drive");
    assert_eq!(cold, cases()[0].2, "clean pin");
}
