//! Crash-safe durable checkpoint store: the persistence layer under the
//! checkpoint/resume seam.
//!
//! Checkpoints are stored one per file, keyed by
//! `(config_fingerprint, barrier_virtual_time)` — the same identity
//! [`Checkpoint`] carries in its own header — so hour-scale drives can
//! be built up incrementally *across processes*: one process captures a
//! barrier, a later one resumes from it byte-identically.
//!
//! # On-disk layout (store version 1)
//!
//! ```text
//! <dir>/<fingerprint:016x>-<barrier_ns:016x>.ckpt     published entries
//! <dir>/pending/                                      outbox (writes in flight)
//! <dir>/quarantine/                                   entries set aside, never deleted
//! <dir>/quarantine/<name>.reason                      one-line reason sidecar
//! ```
//!
//! Each entry file is:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `AVCKPTS1` |
//! | 8      | 4    | store version (u32 LE, currently 1) |
//! | 12     | 8    | config fingerprint (u64 LE) |
//! | 20     | 8    | barrier virtual time, ns (u64 LE) |
//! | 28     | 8    | payload length (u64 LE) |
//! | 36     | n    | checkpoint payload ([`Checkpoint::as_bytes`]) |
//! | 36+n   | 8    | FNV-64 checksum over bytes `[0, 36+n)` (u64 LE) |
//!
//! # Crash safety and recovery
//!
//! Writes use the outbox pattern of [`crate::durable`] (shared with the
//! av-serve result spool): the entry is written to `pending/`, fsynced,
//! then atomically renamed into the store, followed by a best-effort
//! directory fsync. A crash
//! can therefore leave only a `pending/` leftover (never a half-visible
//! entry) — unless the medium itself mangles published bytes, which the
//! checksum catches. [`CkptStore::open`] runs a recovery scan: every
//! entry is verified end to end (length, magic, version, checksum,
//! filename↔header agreement, checkpoint-payload header), and anything
//! that fails is **quarantined** — renamed into `quarantine/` with a
//! reason sidecar, never silently deleted — and reported loudly in the
//! returned [`RecoveryReport`].
//!
//! # Eviction
//!
//! [`CkptStore::gc`] is the only thing that ever deletes entries, and it
//! is deterministic: given the same entry set and byte budget it always
//! picks the same survivor set (newest barrier per fingerprint is kept
//! preferentially; victims fall in `(barrier, fingerprint)` order).
//!
//! # Fault injection
//!
//! [`StoreFaultPlan`] and [`CkptStore::put_with_fault`] simulate a
//! writer dying mid-put in four distinct ways (torn write, bit flip,
//! truncation, crash inside the rename window) so tests can prove every
//! corruption mode is detected, quarantined and recovered from.

use crate::checkpoint::{drive_fingerprint, Checkpoint, CheckpointHeader};
use crate::determinism::fnv64;
use crate::durable::{pending_path, publish, quarantine_file, RecoveryReport};
use crate::stack::{RunConfig, SimTimeExt, StackConfig};
use av_des::{splitmix64, SimTime};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes every store entry opens with.
pub const STORE_MAGIC: [u8; 8] = *b"AVCKPTS1";
/// On-disk layout version this build reads and writes.
pub const STORE_VERSION: u32 = 1;

/// Fixed bytes before the payload: magic + version + fingerprint +
/// barrier + payload length.
const ENTRY_HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 8;
/// Trailing checksum.
const ENTRY_FOOTER_BYTES: usize = 8;

/// Everything the store knows about one published entry without
/// re-reading its payload: the checkpoint's own header (whose
/// fingerprint and barrier key the entry) and the entry's size.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryInfo {
    /// The header of the stored checkpoint.
    pub header: CheckpointHeader,
    /// Total size of the entry file, bytes.
    pub file_bytes: u64,
}

impl EntryInfo {
    /// Barrier virtual time, seconds.
    pub fn barrier_s(&self) -> f64 {
        self.header.barrier_s()
    }

    /// The entry's file name inside the store directory.
    pub fn file_name(&self) -> String {
        entry_file_name(self.header.fingerprint, self.header.barrier_ns)
    }

    /// The entry a store holding `checkpoint` indexes.
    fn of(checkpoint: &Checkpoint) -> EntryInfo {
        let file_bytes = ENTRY_HEADER_BYTES + checkpoint.size_bytes() + ENTRY_FOOTER_BYTES;
        EntryInfo { header: *checkpoint.header(), file_bytes: file_bytes as u64 }
    }

    /// The index key: `(fingerprint, barrier_ns)`.
    fn key(&self) -> (u64, u64) {
        (self.header.fingerprint, self.header.barrier_ns)
    }
}

/// What one [`CkptStore::gc`] pass did.
#[derive(Debug)]
pub struct GcReport {
    /// Store size before the pass, bytes.
    pub bytes_before: u64,
    /// Store size after the pass, bytes.
    pub bytes_after: u64,
    /// Entries deleted, in eviction order.
    pub evicted: Vec<EntryInfo>,
    /// Entries surviving the pass.
    pub kept: usize,
}

/// One way a writer can die mid-`put`. See
/// [`CkptStore::put_with_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Only the first `keep_bytes` of the entry reach the disk, yet the
    /// rename still happens (a torn write that got published).
    TornWrite {
        /// Bytes that survive, from the front.
        keep_bytes: usize,
    },
    /// One bit of the published entry flips (`at_byte` is clamped into
    /// the entry by modulo).
    BitFlip {
        /// Byte offset whose low bit flips.
        at_byte: usize,
    },
    /// The published entry is truncated to `keep_bytes` after the
    /// rename (post-publish media damage).
    Truncate {
        /// Bytes that survive, from the front.
        keep_bytes: usize,
    },
    /// The writer dies inside the rename window: the entry is complete
    /// in `pending/` but never published.
    RenameCrash,
}

/// A seeded generator of [`StoreFault`]s: deterministic per
/// `(seed, index)`, cycling through all four modes with
/// pseudorandomly placed offsets, so a crash-window sweep can sample
/// byte offsets reproducibly.
#[derive(Debug, Clone, Copy)]
pub struct StoreFaultPlan {
    seed: u64,
}

impl StoreFaultPlan {
    /// A plan deriving every fault from `seed`.
    pub fn new(seed: u64) -> StoreFaultPlan {
        StoreFaultPlan { seed }
    }

    /// The `index`-th fault for an entry of `entry_len` total bytes.
    /// Cycles through the four modes; offsets land uniformly inside the
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics when `entry_len` is zero.
    pub fn fault(&self, index: u64, entry_len: usize) -> StoreFault {
        assert!(entry_len > 0, "entry_len must be positive");
        let r = splitmix64(self.seed ^ splitmix64(index));
        let offset = (r >> 2) as usize % entry_len;
        match index % 4 {
            0 => StoreFault::TornWrite { keep_bytes: offset },
            1 => StoreFault::BitFlip { at_byte: offset },
            2 => StoreFault::Truncate { keep_bytes: offset },
            _ => StoreFault::RenameCrash,
        }
    }
}

fn entry_file_name(fingerprint: u64, barrier_ns: u64) -> String {
    format!("{fingerprint:016x}-{barrier_ns:016x}.ckpt")
}

fn parse_entry_file_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_suffix(".ckpt")?;
    if stem.len() != 33 {
        return None;
    }
    let fp = stem.get(0..16)?;
    let barrier = stem.get(16..)?.strip_prefix('-')?;
    Some((u64::from_str_radix(fp, 16).ok()?, u64::from_str_radix(barrier, 16).ok()?))
}

/// Serializes one entry: header, payload, checksum footer.
fn encode_entry(fingerprint: u64, barrier_ns: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ENTRY_HEADER_BYTES + payload.len() + ENTRY_FOOTER_BYTES);
    buf.extend_from_slice(&STORE_MAGIC);
    buf.extend_from_slice(&STORE_VERSION.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&barrier_ns.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let checksum = fnv64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Verifies one entry end to end and returns the checkpoint it holds.
/// Every failure mode gets a distinct, quotable reason.
fn verify_entry_bytes(name: &str, data: &[u8]) -> Result<Checkpoint, String> {
    let min = ENTRY_HEADER_BYTES + ENTRY_FOOTER_BYTES;
    if data.len() < min {
        return Err(format!("truncated: {} bytes, a valid entry needs at least {min}", data.len()));
    }
    if data[0..8] != STORE_MAGIC {
        return Err("bad magic: not a checkpoint-store entry".to_string());
    }
    let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
    if version != STORE_VERSION {
        return Err(format!(
            "unsupported store version {version} (this build reads {STORE_VERSION})"
        ));
    }
    let fingerprint = u64::from_le_bytes(data[12..20].try_into().unwrap());
    let barrier_ns = u64::from_le_bytes(data[20..28].try_into().unwrap());
    let payload_len = u64::from_le_bytes(data[28..36].try_into().unwrap());
    let expected = (ENTRY_HEADER_BYTES as u64)
        .saturating_add(payload_len)
        .saturating_add(ENTRY_FOOTER_BYTES as u64);
    if data.len() as u64 != expected {
        return Err(format!(
            "length mismatch: header promises {expected} bytes, file has {}",
            data.len()
        ));
    }
    let body = &data[..data.len() - ENTRY_FOOTER_BYTES];
    let stored = u64::from_le_bytes(data[data.len() - ENTRY_FOOTER_BYTES..].try_into().unwrap());
    let computed = fnv64(body);
    if stored != computed {
        return Err(format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"));
    }
    let payload = &data[ENTRY_HEADER_BYTES..data.len() - ENTRY_FOOTER_BYTES];
    let checkpoint = Checkpoint::from_bytes(payload.to_vec())
        .map_err(|e| format!("checkpoint payload rejected: {e}"))?;
    let key = (fingerprint, barrier_ns);
    if (checkpoint.header().fingerprint, checkpoint.barrier_ns()) != key {
        return Err("key mismatch between store header and checkpoint payload".to_string());
    }
    match parse_entry_file_name(name) {
        Some(named) if named == key => Ok(checkpoint),
        Some(_) => Err("entry name does not match its header key".to_string()),
        None => Err("malformed entry name".to_string()),
    }
}

/// Reads and verifies the entry file at `path`.
fn read_entry(path: &Path) -> Result<Checkpoint, String> {
    let data = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    verify_entry_bytes(&path.file_name().unwrap_or_default().to_string_lossy(), &data)
}

/// The durable checkpoint store. See the module docs for layout,
/// recovery and eviction semantics.
///
/// Thread-safe within a process (`&self` everywhere). Across processes,
/// concurrent writers are safe (atomic renames; identical keys carry
/// identical bytes by construction), and a reader racing another
/// process's `gc` simply misses the evicted entry.
pub struct CkptStore {
    root: PathBuf,
    quarantine: PathBuf,
    index: Mutex<BTreeMap<(u64, u64), EntryInfo>>,
}

impl std::fmt::Debug for CkptStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptStore")
            .field("root", &self.root)
            .field("entries", &self.index.lock().unwrap().len())
            .finish()
    }
}

impl CkptStore {
    /// Opens (or creates) a store at `dir`, running the recovery scan:
    /// `pending/` leftovers are quarantined as interrupted writes, and
    /// every published entry is verified end to end — failures are
    /// renamed into `quarantine/` with a reason sidecar and reported.
    pub fn open(dir: &Path) -> io::Result<(CkptStore, RecoveryReport)> {
        let root = dir.to_path_buf();
        let quarantine = root.join("quarantine");
        fs::create_dir_all(root.join("pending"))?;
        fs::create_dir_all(&quarantine)?;

        let mut report = RecoveryReport::default();
        report.quarantine_pending(&root)?;

        let mut index = BTreeMap::new();
        let mut entries: Vec<PathBuf> = fs::read_dir(&root)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        entries.sort();
        for path in entries {
            match read_entry(&path) {
                Ok(checkpoint) => {
                    let entry = EntryInfo::of(&checkpoint);
                    index.insert(entry.key(), entry);
                    report.loaded += 1;
                }
                Err(reason) => report.quarantine(&root, &path, reason)?,
            }
        }

        Ok((CkptStore { root, quarantine, index: Mutex::new(index) }, report))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.root
    }

    /// The quarantine directory (entries set aside plus `.reason`
    /// sidecars).
    pub fn quarantine_dir(&self) -> &Path {
        &self.quarantine
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap().len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes across all indexed entries.
    pub fn total_bytes(&self) -> u64 {
        self.index.lock().unwrap().values().map(|e| e.file_bytes).sum()
    }

    /// Every indexed entry, sorted by `(fingerprint, barrier)`.
    pub fn entries(&self) -> Vec<EntryInfo> {
        self.index.lock().unwrap().values().cloned().collect()
    }

    /// File names currently in quarantine (reason sidecars excluded),
    /// sorted.
    pub fn quarantined(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = fs::read_dir(&self.quarantine)?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| !n.ends_with(".reason"))
            .collect();
        names.sort();
        Ok(names)
    }

    /// Persists a checkpoint through the outbox
    /// ([`crate::durable::publish`]). The key is read
    /// from the checkpoint's own header. Re-putting an existing key
    /// atomically replaces the entry with identical bytes (checkpoints
    /// are content-addressed: same key ⇒ same bytes).
    pub fn put(&self, checkpoint: &Checkpoint) -> io::Result<EntryInfo> {
        let entry = EntryInfo::of(checkpoint);
        let (fingerprint, barrier_ns) = entry.key();
        let buf = encode_entry(fingerprint, barrier_ns, checkpoint.as_bytes());
        publish(&self.root, &entry.file_name(), &buf)?;
        self.index.lock().unwrap().insert(entry.key(), entry.clone());
        Ok(entry)
    }

    /// [`put`](CkptStore::put), warning on stderr instead of failing: a
    /// lost snapshot only costs future warm starts, never the caller's
    /// outputs.
    pub fn put_or_warn(&self, checkpoint: &Checkpoint) {
        if let Err(e) = self.put(checkpoint) {
            eprintln!("warning: could not persist checkpoint: {e}");
        }
    }

    /// Simulates a writer dying mid-[`put`](CkptStore::put) according
    /// to `fault`. The entry is **not** registered in this process's
    /// index — the writer is dead; whatever landed on disk is what the
    /// next [`CkptStore::open`] finds.
    pub fn put_with_fault(&self, checkpoint: &Checkpoint, fault: StoreFault) -> io::Result<()> {
        let header = checkpoint.header();
        let mut buf = encode_entry(header.fingerprint, header.barrier_ns, checkpoint.as_bytes());
        let name = entry_file_name(header.fingerprint, header.barrier_ns);
        let tmp = pending_path(&self.root, &name);
        let written: &[u8] = match fault {
            StoreFault::TornWrite { keep_bytes } => &buf[..keep_bytes.min(buf.len())],
            StoreFault::BitFlip { at_byte } => {
                let at = at_byte % buf.len();
                buf[at] ^= 1;
                &buf
            }
            _ => &buf,
        };
        {
            let mut f = File::create(&tmp)?;
            f.write_all(written)?;
            f.sync_all()?;
        }
        if matches!(fault, StoreFault::RenameCrash) {
            // Died inside the rename window: complete in pending/,
            // never published.
            return Ok(());
        }
        fs::rename(&tmp, self.root.join(&name))?;
        if let StoreFault::Truncate { keep_bytes } = fault {
            let f = fs::OpenOptions::new().write(true).open(self.root.join(&name))?;
            f.set_len(keep_bytes.min(buf.len()) as u64)?;
            f.sync_all()?;
        }
        Ok(())
    }

    /// Reads and re-verifies one entry. A verification failure — the
    /// entry rotted since the open scan — quarantines it, drops it from
    /// the index and returns `None`; it never hands back bytes the
    /// checksum does not vouch for.
    pub fn load(&self, fingerprint: u64, barrier_ns: u64) -> Option<Checkpoint> {
        let key = (fingerprint, barrier_ns);
        if !self.index.lock().unwrap().contains_key(&key) {
            return None;
        }
        let path = self.root.join(entry_file_name(fingerprint, barrier_ns));
        match read_entry(&path) {
            Ok(checkpoint) => Some(checkpoint),
            Err(reason) => {
                self.index.lock().unwrap().remove(&key);
                if path.exists() {
                    let _ = quarantine_file(&self.quarantine, &path, &reason);
                }
                None
            }
        }
    }

    /// The newest verifiable checkpoint a run of `config` under `run`
    /// can resume from: the same configuration fingerprint and tracing
    /// mode, with barrier at or before the run's horizon. Falls back to
    /// the next-newest barrier when a candidate turns out corrupt
    /// (which quarantines it), so resume always lands on the best entry
    /// the checksums vouch for.
    pub fn best_resume(&self, config: &StackConfig, run: &RunConfig) -> Option<Checkpoint> {
        let fingerprint = drive_fingerprint(config);
        let traced = run.trace.is_some();
        let horizon_ns = run.horizon(config).as_nanos();
        let candidates: Vec<u64> = {
            let index = self.index.lock().unwrap();
            index
                .range((fingerprint, 0)..=(fingerprint, horizon_ns))
                .filter(|(_, e)| e.header.traced == traced)
                .map(|(&(_, barrier), _)| barrier)
                .rev()
                .collect()
        };
        candidates.into_iter().find_map(|barrier| self.load(fingerprint, barrier))
    }

    /// A checkpoint at exactly `barrier_s` that a run of `leader` under
    /// `run` may resume from ([`CheckpointHeader::admits`]) — the
    /// prefix-sharing lookup sweeps use to reuse a prior session's
    /// shared barriers. Prefers an exact full-fingerprint match, then
    /// the smallest qualifying fingerprint (deterministic).
    pub fn best_prefix(
        &self,
        leader: &StackConfig,
        run: &RunConfig,
        barrier_s: f64,
    ) -> Option<Checkpoint> {
        let barrier = SimTime::from_secs_f64_round(barrier_s);
        let want = CheckpointHeader::of(leader, barrier, run.trace.is_some());
        let candidates: Vec<u64> = {
            let index = self.index.lock().unwrap();
            // Index order: ascending fingerprint at one barrier.
            let mut fps: Vec<u64> = index
                .values()
                .filter(|e| {
                    e.header.barrier_ns == want.barrier_ns && e.header.admits(&want).is_ok()
                })
                .map(|e| e.header.fingerprint)
                .collect();
            if let Some(pos) = fps.iter().position(|&fp| fp == want.fingerprint) {
                fps.swap(0, pos);
            }
            fps
        };
        candidates.into_iter().find_map(|fp| self.load(fp, want.barrier_ns))
    }

    /// Deterministic eviction down to `max_bytes`: the newest barrier
    /// of every fingerprint is kept preferentially; victims are evicted
    /// in `(barrier, fingerprint)` order until the budget holds. When
    /// the keepers alone still exceed the budget they are evicted in
    /// the same order (so `gc(0)` empties the store). This is the only
    /// code path that deletes entries, and the report names every one.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut index = self.index.lock().unwrap();
        let bytes_before: u64 = index.values().map(|e| e.file_bytes).sum();
        let mut newest: BTreeMap<u64, u64> = BTreeMap::new();
        for &(fp, barrier) in index.keys() {
            let slot = newest.entry(fp).or_insert(barrier);
            *slot = (*slot).max(barrier);
        }
        let mut victims: Vec<(u64, u64)> = index
            .keys()
            .filter(|&&(fp, barrier)| newest[&fp] != barrier)
            .map(|&(fp, barrier)| (barrier, fp))
            .collect();
        victims.sort();
        let mut keepers: Vec<(u64, u64)> = newest.iter().map(|(&fp, &b)| (b, fp)).collect();
        keepers.sort();
        victims.extend(keepers);

        let mut bytes_after = bytes_before;
        let mut evicted = Vec::new();
        for (barrier, fp) in victims {
            if bytes_after <= max_bytes {
                break;
            }
            let entry = index.remove(&(fp, barrier)).expect("victim is indexed");
            fs::remove_file(self.root.join(entry.file_name()))?;
            bytes_after -= entry.file_bytes;
            evicted.push(entry);
        }
        Ok(GcReport { bytes_before, bytes_after, evicted, kept: index.len() })
    }

    /// Deletes entries for `fingerprint` — one barrier, or every
    /// barrier when `barrier_ns` is `None`. Returns how many were
    /// removed. Explicit operator surface (`ckpt rm`); like `gc`, it
    /// reports rather than hides what it deletes.
    pub fn remove(&self, fingerprint: u64, barrier_ns: Option<u64>) -> io::Result<Vec<EntryInfo>> {
        let mut index = self.index.lock().unwrap();
        let keys: Vec<(u64, u64)> = index
            .range((fingerprint, 0)..=(fingerprint, u64::MAX))
            .filter(|(&(_, b), _)| barrier_ns.is_none_or(|want| want == b))
            .map(|(&k, _)| k)
            .collect();
        let mut removed = Vec::new();
        for key in keys {
            let entry = index.remove(&key).expect("key is indexed");
            fs::remove_file(self.root.join(entry.file_name()))?;
            removed.push(entry);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_file_names_round_trip() {
        let name = entry_file_name(0xdead_beef_1234_5678, 42_000_000_000);
        assert_eq!(parse_entry_file_name(&name), Some((0xdead_beef_1234_5678, 42_000_000_000)));
        assert_eq!(parse_entry_file_name("nope.ckpt"), None);
        assert_eq!(parse_entry_file_name("0123456789abcdef-zzzz.ckpt"), None);
        assert_eq!(parse_entry_file_name("0123456789abcdef-0000000000000001.json"), None);
    }

    #[test]
    fn fault_plan_is_deterministic_and_cycles_modes() {
        let plan = StoreFaultPlan::new(7);
        let a: Vec<StoreFault> = (0..8).map(|i| plan.fault(i, 1000)).collect();
        let b: Vec<StoreFault> = (0..8).map(|i| plan.fault(i, 1000)).collect();
        assert_eq!(a, b);
        assert!(matches!(a[0], StoreFault::TornWrite { .. }));
        assert!(matches!(a[1], StoreFault::BitFlip { .. }));
        assert!(matches!(a[2], StoreFault::Truncate { .. }));
        assert!(matches!(a[3], StoreFault::RenameCrash));
        assert_ne!(
            StoreFaultPlan::new(8).fault(0, 1000),
            a[0],
            "different seeds place offsets differently"
        );
    }

    #[test]
    fn verify_rejects_every_frame_malformation() {
        let payload = b"not-a-checkpoint".to_vec();
        let buf = encode_entry(1, 2, &payload);
        let name = entry_file_name(1, 2);
        // The frame itself is fine; the payload is not a checkpoint.
        let err = verify_entry_bytes(&name, &buf).unwrap_err();
        assert!(err.contains("checkpoint payload rejected"), "{err}");

        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(verify_entry_bytes(&name, &bad).unwrap_err().contains("bad magic"));

        let mut bad = buf.clone();
        bad[9] ^= 0x01;
        assert!(verify_entry_bytes(&name, &bad).unwrap_err().contains("unsupported store version"));

        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(verify_entry_bytes(&name, &bad).unwrap_err().contains("checksum mismatch"));

        let bad = &buf[..buf.len() - 3];
        assert!(verify_entry_bytes(&name, bad).unwrap_err().contains("length mismatch"));

        assert!(verify_entry_bytes(&name, &buf[..10]).unwrap_err().contains("truncated"));
    }
}
