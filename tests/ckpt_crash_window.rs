//! Crash-window recovery: kill the writer at every byte offset of a
//! small entry (and at a seeded sample of offsets of a real checkpoint
//! entry, which is far too large to sweep exhaustively) and prove that
//! `CkptStore::open` always yields either the previous entry or a clean
//! quarantine — never a half-read, never a lost previous entry, never a
//! silent deletion.

use av_core::ckptstore::{CkptStore, StoreFault, StoreFaultPlan};
use av_core::determinism::run_hash;
use av_core::stack::{
    checkpoint_drive, drive, drive_fingerprint, run_drive, Checkpoint, DriveRequest, RunConfig,
    StackConfig, CHECKPOINT_VERSION,
};
use av_vision::DetectorKind;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("av_ckpt_crash_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A minimal payload that parses as a checkpoint header — the "small
/// checkpoint" whose entry every byte offset can be swept over.
fn tiny_checkpoint(fingerprint: u64, barrier_ns: u64) -> Checkpoint {
    let mut b = Vec::new();
    b.extend_from_slice(&13u32.to_le_bytes());
    b.extend_from_slice(b"av-checkpoint");
    b.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    b.extend_from_slice(&barrier_ns.to_le_bytes());
    b.extend_from_slice(&fingerprint.to_le_bytes());
    b.extend_from_slice(&fingerprint.to_le_bytes()); // stripped == full
    b.push(0); // no blackouts
    b.push(0); // untraced
    Checkpoint::from_bytes(b).unwrap()
}

/// The invariant under test, checked after a simulated crash: the
/// previous entry is intact and loadable, the new entry either
/// published in full or was quarantined with a reason — and nothing
/// was deleted.
fn assert_recovers(dir: &Path, fingerprint: u64, prev_barrier_ns: u64, context: &str) {
    let (store, report) = CkptStore::open(dir).unwrap();
    assert!(
        report.loaded >= 1,
        "{context}: previous entry must survive (loaded {}, quarantined {:?})",
        report.loaded,
        report.quarantined
    );
    let total = report.loaded + report.quarantined.len();
    assert_eq!(total, 2, "{context}: every byte on disk is accounted for");
    for q in &report.quarantined {
        assert!(!q.reason.is_empty(), "{context}: quarantine must state a reason");
        assert!(store.quarantine_dir().join(&q.file).exists(), "{context}: quarantined bytes kept");
    }
    let restored = store
        .best_resume(fingerprint, false, u64::MAX)
        .unwrap_or_else(|| panic!("{context}: previous entry must be resumable"));
    assert!(
        restored.barrier_ns() >= prev_barrier_ns,
        "{context}: resume landed before the previous barrier"
    );
}

#[test]
fn torn_write_at_every_byte_offset_recovers_small_entry() {
    let fp = 0x0123_4567_89ab_cdefu64;
    let prev = tiny_checkpoint(fp, 1_000_000_000);
    let next = tiny_checkpoint(fp, 2_000_000_000);
    let entry_len = next.size_bytes() + 44; // frame header + footer
    for keep in 0..entry_len {
        let dir = tmpdir("torn");
        {
            let (store, _) = CkptStore::open(&dir).unwrap();
            store.put(&prev).unwrap();
            store.put_with_fault(&next, StoreFault::TornWrite { keep_bytes: keep }).unwrap();
        }
        assert_recovers(&dir, fp, 1_000_000_000, &format!("torn write keeping {keep} bytes"));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn bit_flip_at_every_byte_offset_recovers_small_entry() {
    let fp = 0xfedc_ba98_7654_3210u64;
    let prev = tiny_checkpoint(fp, 1_000_000_000);
    let next = tiny_checkpoint(fp, 2_000_000_000);
    let entry_len = next.size_bytes() + 44;
    for at in 0..entry_len {
        let dir = tmpdir("flip");
        {
            let (store, _) = CkptStore::open(&dir).unwrap();
            store.put(&prev).unwrap();
            store.put_with_fault(&next, StoreFault::BitFlip { at_byte: at }).unwrap();
        }
        assert_recovers(&dir, fp, 1_000_000_000, &format!("bit flip at byte {at}"));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn seeded_crash_sample_over_a_real_checkpoint_recovers_and_resumes_identical() {
    let config = StackConfig::smoke_test(DetectorKind::Ssd300);
    let run = RunConfig::seconds(4.0);
    let fp = drive_fingerprint(&config);
    let straight = run_drive(&config, &run);
    let (_, prev) = checkpoint_drive(&config, &run, 2.0);
    let (_, next) = checkpoint_drive(&config, &run, 3.0);
    let entry_len = next.size_bytes() + 44;
    assert!(entry_len > 4096, "a real checkpoint is above the exhaustive-sweep threshold");

    // Seeded sampling above the size threshold: 32 faults spanning all
    // four modes, deterministically derived so a failure reproduces.
    let plan = StoreFaultPlan::new(0xc0ffee);
    for i in 0..32u64 {
        let fault = plan.fault(i, entry_len);
        let dir = tmpdir("real");
        {
            let (store, _) = CkptStore::open(&dir).unwrap();
            store.put(&prev).unwrap();
            store.put_with_fault(&next, fault).unwrap();
        }
        let (store, report) = CkptStore::open(&dir).unwrap();
        assert!(report.loaded >= 1, "fault {i} ({fault:?}): previous entry lost");
        let restored = store
            .best_resume(fp, false, u64::MAX)
            .unwrap_or_else(|| panic!("fault {i} ({fault:?}): nothing resumable"));
        // Whatever barrier survived, resuming from it reproduces the
        // straight-through run exactly.
        let request = DriveRequest { from: Some(&restored), ..DriveRequest::default() };
        let (resumed, _) = drive(&config, &run, request);
        assert_eq!(
            run_hash(&straight),
            run_hash(&resumed),
            "fault {i} ({fault:?}): resume after recovery diverged"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
