//! The determinism harness: the golden FNV hash over every key output of
//! the experiment matrix must be byte-identical no matter how many
//! worker threads executed the runs. Together with the kernel pinning
//! property tests (voxel-hash clustering vs k-d tree reference,
//! open-addressing voxel filter vs `HashMap` reference, NDT cached
//! DIRECT7 score plus deferred derivatives vs the one-pass uncached
//! reference, the default-sensor urban LiDAR scan digest, inline
//! `MatN`/`VecN` storage under the tracker's pinned filter tests), this
//! guarantees the wall-clock optimizations change no virtual-time result.

use av_core::determinism::{isolation_hash, matrix_hash, run_hash};
use av_core::experiments::{fig8, run_matrix};
use av_core::stack::{run_drive, RunConfig, StackConfig};
use av_vision::DetectorKind;

const SMOKE: RunConfig = RunConfig::seconds(6.0);

/// The tentpole guarantee: `--jobs 1`, `--jobs 2`, and `--jobs 8`
/// produce the same golden hash — run-level parallelism reorders
/// nothing observable.
#[test]
fn matrix_hash_identical_across_jobs() {
    let hashes: Vec<u64> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| matrix_hash(&run_matrix(StackConfig::smoke_test, &SMOKE, jobs)))
        .collect();
    assert_eq!(hashes[0], hashes[1], "jobs=1 vs jobs=2");
    assert_eq!(hashes[0], hashes[2], "jobs=1 vs jobs=8");
}

/// The standalone Fig 8 batch is equally jobs-invariant.
#[test]
fn fig8_hash_identical_across_jobs() {
    let sequential = isolation_hash(&fig8(StackConfig::smoke_test, &SMOKE, 1));
    let parallel = isolation_hash(&fig8(StackConfig::smoke_test, &SMOKE, 8));
    assert_eq!(sequential, parallel);
}

/// A single drive re-run in-process hashes identically (the DES holds no
/// hidden wall-clock or iteration-order dependence), while a different
/// seed moves the hash — the golden hash is sensitive, not vacuous.
#[test]
fn run_hash_is_stable_and_sensitive() {
    let config = StackConfig::smoke_test(DetectorKind::YoloV3);
    let a = run_hash(&run_drive(&config, &SMOKE));
    let b = run_hash(&run_drive(&config, &SMOKE));
    assert_eq!(a, b);

    let mut reseeded = StackConfig::smoke_test(DetectorKind::YoloV3);
    reseeded.seed ^= 0xdead_beef;
    assert_ne!(a, run_hash(&run_drive(&reseeded, &SMOKE)));
}

/// Full-stack reports keep their detector order under parallel
/// execution (order preservation, not just content preservation).
#[test]
fn parallel_matrix_preserves_detector_order() {
    let matrix = run_matrix(StackConfig::smoke_test, &SMOKE, 8);
    let detectors: Vec<DetectorKind> = matrix.reports.iter().map(|r| r.detector).collect();
    assert_eq!(detectors, DetectorKind::ALL.to_vec());
}
