//! The durable checkpoint store's contract: a disk round trip resumes
//! byte-identically in a fresh store handle (standing in for a fresh
//! process — the real cross-process variant lives in
//! `ckpt_cross_process.rs`), every injected corruption mode is detected
//! and quarantined (never silently deleted), resume falls back to an
//! older barrier when the newest is corrupt, and GC is a deterministic
//! pure function of the entry set and budget.

use av_core::ckptstore::{CkptStore, StoreFault};
use av_core::determinism::run_hash;
use av_core::fault::FaultPlan;
use av_core::stack::{
    checkpoint_drive, drive, drive_fingerprint, run_drive, Checkpoint, DriveRequest, RunConfig,
    RunReport, StackConfig, CHECKPOINT_VERSION,
};
use av_trace::export::{render_chrome_trace, render_metrics_csv};
use av_vision::DetectorKind;
use std::fs;
use std::path::PathBuf;

/// Resumes `from` and runs the drive to `run`'s horizon.
fn resume(config: &StackConfig, run: &RunConfig, from: &Checkpoint) -> RunReport {
    drive(config, run, DriveRequest { from: Some(from), ..DriveRequest::default() }).0
}

/// Resumes `from` and captures the next checkpoint at `at_s`.
fn chain(config: &StackConfig, run: &RunConfig, from: &Checkpoint, at_s: f64) -> Checkpoint {
    let request =
        DriveRequest { from: Some(from), capture_at_s: Some(at_s), ..DriveRequest::default() };
    drive(config, run, request).1.expect("drive captures when a capture time is supplied")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("av_ckpt_store_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn smoke() -> (StackConfig, RunConfig) {
    (StackConfig::smoke_test(DetectorKind::YoloV3), RunConfig::seconds(4.0).with_trace())
}

#[test]
fn disk_round_trip_resumes_byte_identical_in_a_fresh_handle() {
    let dir = tmpdir("roundtrip");
    let (config, run) = smoke();
    let straight = run_drive(&config, &run);

    let (store, report) = CkptStore::open(&dir).unwrap();
    assert!(report.is_clean());
    let (_, checkpoint) = checkpoint_drive(&config, &run, 2.0);
    let entry = store.put(&checkpoint).unwrap();
    assert_eq!(entry.fingerprint, drive_fingerprint(&config));
    assert_eq!(entry.barrier_ns, 2_000_000_000);
    assert!(entry.traced);
    drop(store);

    // A fresh handle over the same directory: the recovery scan loads
    // the entry clean, and the resumed run is byte-identical.
    let (store, report) = CkptStore::open(&dir).unwrap();
    assert_eq!(report.loaded, 1);
    assert!(report.is_clean());
    let restored = store
        .best_resume(drive_fingerprint(&config), true, u64::MAX)
        .expect("stored barrier found");
    assert_eq!(restored.barrier_ns(), checkpoint.barrier_ns());
    assert_eq!(restored.as_bytes(), checkpoint.as_bytes(), "payload survives the disk verbatim");
    let resumed = resume(&config, &run, &restored);
    assert_eq!(run_hash(&straight), run_hash(&resumed));
    let (s, r) = (straight.trace.as_ref().unwrap(), resumed.trace.as_ref().unwrap());
    assert_eq!(render_chrome_trace("ckpt", s), render_chrome_trace("ckpt", r));
    assert_eq!(render_metrics_csv(s), render_metrics_csv(r));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_fault_mode_is_detected_and_quarantined_on_open() {
    let (config, run) = smoke();
    let (_, checkpoint) = checkpoint_drive(&config, &run, 1.0);
    let entry_len = checkpoint.size_bytes() + 44; // frame header + footer
    let cases: Vec<(&str, StoreFault, &str)> = vec![
        ("torn", StoreFault::TornWrite { keep_bytes: entry_len / 2 }, "length mismatch"),
        ("flip", StoreFault::BitFlip { at_byte: entry_len / 3 }, "checksum mismatch"),
        ("trunc", StoreFault::Truncate { keep_bytes: entry_len / 4 }, "length mismatch"),
        ("rename", StoreFault::RenameCrash, "interrupted write"),
    ];
    for (name, fault, want_reason) in cases {
        let dir = tmpdir(&format!("fault_{name}"));
        {
            let (store, _) = CkptStore::open(&dir).unwrap();
            store.put_with_fault(&checkpoint, fault).unwrap();
        }
        let (store, report) = CkptStore::open(&dir).unwrap();
        assert_eq!(report.loaded, 0, "{name}: corrupt entry must not load");
        assert_eq!(report.quarantined.len(), 1, "{name}: exactly one quarantine");
        let q = &report.quarantined[0];
        assert!(
            q.reason.contains(want_reason),
            "{name}: reason {:?} should mention {want_reason:?}",
            q.reason
        );
        // Quarantine keeps the bytes and writes a reason sidecar —
        // nothing is silently deleted.
        let quarantined = store.quarantine_dir().join(&q.file);
        assert!(quarantined.exists(), "{name}: quarantined bytes kept");
        let sidecar = store.quarantine_dir().join(format!("{}.reason", q.file));
        assert_eq!(fs::read_to_string(sidecar).unwrap().trim(), q.reason);
        assert!(store.is_empty());
        assert_eq!(store.quarantined().unwrap(), vec![q.file.clone()]);
        // The store is fully usable afterwards: a clean put round-trips.
        store.put(&checkpoint).unwrap();
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_falls_back_to_an_older_barrier_when_the_newest_is_corrupt() {
    let dir = tmpdir("fallback");
    let mut config = StackConfig::smoke_test(DetectorKind::YoloV3);
    // A supervised crash at 3 s puts the newest barrier mid-recovery —
    // the hardest state to reconstruct.
    config.faults = FaultPlan::parse("crash:ndt_matching@3").unwrap();
    let run = RunConfig::seconds(6.0).with_trace();
    let straight = run_drive(&config, &run);
    let fp = drive_fingerprint(&config);

    let (store, _) = CkptStore::open(&dir).unwrap();
    let (_, cp2) = checkpoint_drive(&config, &run, 2.0);
    let cp4 = chain(&config, &run, &cp2, 4.0);
    store.put(&cp2).unwrap();
    let newest = store.put(&cp4).unwrap();
    assert_eq!(store.len(), 2);

    // The newest barrier rots on disk (one flipped bit) *after* the
    // open scan: the read path itself must catch it.
    let path = store.dir().join(newest.file_name());
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&path, bytes).unwrap();

    let restored = store.best_resume(fp, true, u64::MAX).expect("falls back to barrier 2");
    assert_eq!(restored.barrier_ns(), 2_000_000_000);
    assert_eq!(store.len(), 1, "corrupt entry dropped from the index");
    assert_eq!(store.quarantined().unwrap().len(), 1, "and quarantined, not deleted");

    let resumed = resume(&config, &run, &restored);
    assert_eq!(run_hash(&straight), run_hash(&resumed), "fallback resume diverged");
    assert_eq!(
        render_chrome_trace("fb", straight.trace.as_ref().unwrap()),
        render_chrome_trace("fb", resumed.trace.as_ref().unwrap()),
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_keeps_newest_barrier_per_fingerprint_and_is_deterministic() {
    let dir_a = tmpdir("gc_a");
    let dir_b = tmpdir("gc_b");
    let run = RunConfig::seconds(3.0);
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    for detector in [DetectorKind::YoloV3, DetectorKind::Ssd300] {
        let config = StackConfig::smoke_test(detector);
        let (_, cp1) = checkpoint_drive(&config, &run, 1.0);
        let cp2 = chain(&config, &run, &cp1, 2.0);
        let cp3 = chain(&config, &run, &cp2, 3.0);
        checkpoints.extend([cp1, cp2, cp3]);
    }

    let open = |dir: &PathBuf| CkptStore::open(dir).unwrap().0;
    let (store_a, store_b) = (open(&dir_a), open(&dir_b));
    for cp in &checkpoints {
        store_a.put(cp).unwrap();
        store_b.put(cp).unwrap();
    }
    assert_eq!(store_a.len(), 6);
    let per_entry = store_a.total_bytes() / 6;

    // Budget for ~3 entries: the four non-newest barriers are victims
    // in (barrier, fingerprint) order; both fingerprints keep their
    // newest barrier.
    let budget = per_entry * 3;
    let report = store_a.gc(budget).unwrap();
    assert!(store_a.total_bytes() <= budget);
    assert_eq!(report.bytes_after, store_a.total_bytes());
    assert_eq!(report.kept, store_a.len());
    let survivors: Vec<(u64, u64)> =
        store_a.entries().iter().map(|e| (e.fingerprint, e.barrier_ns)).collect();
    for (fp, barrier) in &survivors {
        assert_eq!(*barrier, 3_000_000_000, "newest barrier survives for {fp:#x}");
    }
    assert_eq!(survivors.len(), 2);
    // Victims fall oldest-first.
    let evicted: Vec<u64> = report.evicted.iter().map(|e| e.barrier_ns).collect();
    let mut sorted = evicted.clone();
    sorted.sort();
    assert_eq!(evicted, sorted, "eviction proceeds in barrier order");

    // Same inputs → same survivor set, on an independent store copy.
    store_b.gc(budget).unwrap();
    let survivors_b: Vec<(u64, u64)> =
        store_b.entries().iter().map(|e| (e.fingerprint, e.barrier_ns)).collect();
    assert_eq!(survivors, survivors_b, "gc must be deterministic");

    // gc(0) is a hard bound: it empties the store, newest barriers
    // included.
    let wipe = store_a.gc(0).unwrap();
    assert!(store_a.is_empty());
    assert_eq!(wipe.bytes_after, 0);
    assert_eq!(store_a.quarantined().unwrap().len(), 0, "gc never quarantines");
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Frames `payload` exactly like the store does (magic, version, key,
/// length, payload, FNV footer), so tests can plant entries whose frame
/// is pristine but whose payload the store must still reject.
fn frame_entry(fingerprint: u64, barrier_ns: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"AVCKPTS1");
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&barrier_ns.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let checksum = fnv64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// A minimal payload that parses as a checkpoint header — enough for
/// the store, not resumable.
fn tiny_payload(version: u32, fingerprint: u64, barrier_ns: u64) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&13u32.to_le_bytes());
    b.extend_from_slice(b"av-checkpoint");
    b.extend_from_slice(&version.to_le_bytes());
    b.extend_from_slice(&barrier_ns.to_le_bytes());
    b.extend_from_slice(&fingerprint.to_le_bytes());
    b.extend_from_slice(&fingerprint.to_le_bytes()); // stripped == full
    b.push(0); // no blackouts
    b.push(1); // traced
    b
}

#[test]
fn version_mismatched_entries_are_quarantined_with_their_bytes_kept() {
    let dir = tmpdir("version");
    fs::create_dir_all(&dir).unwrap();
    let fp = 0xabcd_ef01_2345_6789u64;

    // Checkpoint-version skew: pristine frame, payload written by a
    // (hypothetical) newer build.
    let future = tiny_payload(CHECKPOINT_VERSION + 1, fp, 1_000_000_000);
    let name1 = format!("{fp:016x}-{:016x}.ckpt", 1_000_000_000u64);
    fs::write(dir.join(&name1), frame_entry(fp, 1_000_000_000, &future)).unwrap();

    // Store-version skew: frame version bumped, checksum made valid
    // again so only the version check can reject it.
    let mut bumped =
        frame_entry(fp, 2_000_000_000, &tiny_payload(CHECKPOINT_VERSION, fp, 2_000_000_000));
    bumped[8] = 2;
    let body_len = bumped.len() - 8;
    let sum = fnv64(&bumped[..body_len]);
    bumped[body_len..].copy_from_slice(&sum.to_le_bytes());
    let name2 = format!("{fp:016x}-{:016x}.ckpt", 2_000_000_000u64);
    fs::write(dir.join(&name2), bumped).unwrap();

    // A valid tiny entry, to prove the scan separates good from bad.
    let good = Checkpoint::from_bytes(tiny_payload(CHECKPOINT_VERSION, fp, 3_000_000_000)).unwrap();

    let (store, report) = CkptStore::open(&dir).unwrap();
    store.put(&good).unwrap();
    assert_eq!(report.loaded, 0);
    assert_eq!(report.quarantined.len(), 2);
    let reasons: Vec<&str> = report.quarantined.iter().map(|q| q.reason.as_str()).collect();
    assert!(reasons.iter().any(|r| r.contains("unsupported checkpoint version")), "{reasons:?}");
    assert!(reasons.iter().any(|r| r.contains("unsupported store version")), "{reasons:?}");
    for q in &report.quarantined {
        assert!(store.quarantine_dir().join(&q.file).exists(), "bytes kept for {}", q.file);
    }
    assert_eq!(store.len(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn misnamed_and_mismatched_entries_are_quarantined() {
    let dir = tmpdir("naming");
    fs::create_dir_all(&dir).unwrap();
    let fp = 0x1111_2222_3333_4444u64;
    let entry =
        frame_entry(fp, 5_000_000_000, &tiny_payload(CHECKPOINT_VERSION, fp, 5_000_000_000));
    // Right bytes, wrong file name (points at a different barrier).
    fs::write(dir.join(format!("{fp:016x}-{:016x}.ckpt", 6_000_000_000u64)), &entry).unwrap();
    // Unparseable name.
    fs::write(dir.join("not-a-key.ckpt"), &entry).unwrap();
    // Frame key disagrees with the payload header key; checksum valid.
    let lied = frame_entry(fp, 7_000_000_000, &tiny_payload(CHECKPOINT_VERSION, fp, 5_000_000_000));
    fs::write(dir.join(format!("{fp:016x}-{:016x}.ckpt", 7_000_000_000u64)), lied).unwrap();

    let (store, report) = CkptStore::open(&dir).unwrap();
    assert_eq!(report.loaded, 0);
    assert_eq!(report.quarantined.len(), 3);
    assert!(report.quarantined.iter().any(|q| q.reason.contains("entry name does not match")));
    assert!(report
        .quarantined
        .iter()
        .any(|q| q.reason.contains("key mismatch between store header and checkpoint payload")));
    assert!(store.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn best_resume_respects_tracing_mode_and_barrier_cap_and_remove_deletes() {
    let dir = tmpdir("lookup");
    let fp = 0x5555_6666_7777_8888u64;
    let tiny = |barrier_ns: u64, traced: bool| {
        let mut p = tiny_payload(CHECKPOINT_VERSION, fp, barrier_ns);
        let last = p.len() - 1;
        p[last] = traced as u8;
        Checkpoint::from_bytes(p).unwrap()
    };
    let (store, _) = CkptStore::open(&dir).unwrap();
    for (barrier, traced) in [(1_000_000_000, true), (2_000_000_000, false), (3_000_000_000, true)]
    {
        store.put(&tiny(barrier, traced)).unwrap();
    }
    // Newest traced barrier under the cap.
    let got = store.best_resume(fp, true, 2_500_000_000).unwrap();
    assert_eq!(got.barrier_ns(), 1_000_000_000, "2 s entry is untraced, 3 s exceeds the cap");
    let got = store.best_resume(fp, false, u64::MAX).unwrap();
    assert_eq!(got.barrier_ns(), 2_000_000_000);
    assert!(store.best_resume(fp + 1, true, u64::MAX).is_none(), "foreign fingerprint");

    let removed = store.remove(fp, Some(2_000_000_000)).unwrap();
    assert_eq!(removed.len(), 1);
    assert_eq!(store.len(), 2);
    let removed = store.remove(fp, None).unwrap();
    assert_eq!(removed.len(), 2);
    assert!(store.is_empty());
    assert_eq!(store.quarantined().unwrap().len(), 0, "remove deletes, it does not quarantine");
    let _ = fs::remove_dir_all(&dir);
}
