//! The content-addressed result store with a crash-safe outbox spool.
//!
//! Finished sessions are stored under their request fingerprint: the
//! exact response body bytes plus every streamed event payload, in
//! sequence order. A repeated request is answered from the store
//! byte-for-byte — no re-simulation — which is safe precisely because
//! bodies and event payloads are pure functions of the request.
//!
//! Persistence uses the outbox pattern of [`av_core::durable`]. An
//! entry is first written to a unique file under `<spool>/pending/`,
//! fsynced, then atomically renamed into `<spool>/<fingerprint>.entry`:
//! a crash can leave at most a `pending/` leftover, so the visible
//! spool only ever contains complete entries (exactly-once delivery
//! into the store). Entries are reloaded verbatim on start, so the
//! byte-identity guarantee holds across restarts. A `pending/`
//! leftover or an entry that does not parse is quarantined on start —
//! moved to `<spool>/quarantine/` with a `.reason` sidecar and reported
//! — never deleted or silently skipped.

use crate::protocol::hex64;
use av_core::durable::{publish, RecoveryReport};
use av_trace::json;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One finished session, addressed by its request fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEntry {
    /// The request fingerprint ([`crate::WorkRequest::fingerprint`]).
    pub fingerprint: u64,
    /// The response body, verbatim.
    pub body: String,
    /// Every streamed event payload, in sequence order, verbatim.
    pub events: Vec<String>,
}

/// Fingerprint-keyed store of finished sessions, optionally backed by a
/// spool directory.
pub struct ResultStore {
    entries: Mutex<HashMap<u64, Arc<ResultEntry>>>,
    spool: Option<PathBuf>,
}

impl ResultStore {
    /// A purely in-memory store (no persistence).
    pub fn in_memory() -> ResultStore {
        ResultStore { entries: Mutex::new(HashMap::new()), spool: None }
    }

    /// Opens (or creates) a spooled store at `dir`, reloading every
    /// completed entry verbatim. `pending/` leftovers and entries that
    /// do not parse are quarantined and listed in the returned report
    /// (the requests they answered just run cold again).
    pub fn with_spool(dir: &Path) -> io::Result<(ResultStore, RecoveryReport)> {
        fs::create_dir_all(dir.join("pending"))?;
        fs::create_dir_all(dir.join("quarantine"))?;
        let mut report = RecoveryReport::default();
        report.quarantine_pending(dir)?;
        let mut entries = HashMap::new();
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "entry"))
            .collect();
        paths.sort();
        for path in paths {
            match load_entry(&path) {
                Ok(entry) => {
                    entries.insert(entry.fingerprint, Arc::new(entry));
                    report.loaded += 1;
                }
                Err(reason) => report.quarantine(dir, &path, reason)?,
            }
        }
        Ok((ResultStore { entries: Mutex::new(entries), spool: Some(dir.to_path_buf()) }, report))
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a finished session by fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<ResultEntry>> {
        self.entries.lock().unwrap().get(&fingerprint).cloned()
    }

    /// Inserts a finished session, persisting it through the outbox
    /// when spooled. First writer wins: if the fingerprint is already
    /// present the existing bytes are kept (they are identical by
    /// construction, and keeping them preserves the byte-identity
    /// guarantee even if that invariant were ever violated).
    pub fn put(&self, entry: ResultEntry) -> io::Result<Arc<ResultEntry>> {
        {
            let map = self.entries.lock().unwrap();
            if let Some(existing) = map.get(&entry.fingerprint) {
                return Ok(Arc::clone(existing));
            }
        }
        if let Some(dir) = &self.spool {
            publish(dir, &entry_name(entry.fingerprint), encode_entry(&entry).as_bytes())?;
        }
        let arc = Arc::new(entry);
        let mut map = self.entries.lock().unwrap();
        Ok(Arc::clone(map.entry(arc.fingerprint).or_insert(arc)))
    }
}

fn entry_name(fingerprint: u64) -> String {
    format!("{}.entry", hex64(fingerprint))
}

/// One spooled entry's bytes: a header line, one line per event
/// payload, then the body line.
fn encode_entry(entry: &ResultEntry) -> String {
    let mut out = format!(
        "{{\"fingerprint\":\"{}\",\"events\":{}}}\n",
        hex64(entry.fingerprint),
        entry.events.len()
    );
    for line in entry.events.iter().chain([&entry.body]) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Reads one spooled entry; `Err` names why the file is not one.
fn load_entry(path: &Path) -> Result<ResultEntry, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    parse_entry(&text).ok_or_else(|| "malformed: not a header, event lines and a body".into())
}

/// Parses [`encode_entry`]'s bytes, taking every payload and the body
/// verbatim.
fn parse_entry(text: &str) -> Option<ResultEntry> {
    let mut lines = text.lines();
    let header = json::parse(lines.next()?).ok()?;
    let fingerprint = parse_hex64(header.get("fingerprint")?.as_str()?)?;
    let count = header.get("events")?.as_u64()? as usize;
    // Every event line takes at least one byte, which bounds the
    // allocation a corrupt header can ask for.
    let mut events = Vec::with_capacity(count.min(text.len()));
    for _ in 0..count {
        events.push(lines.next()?.to_string());
    }
    let body = lines.next()?.to_string();
    if lines.next().is_some() {
        return None;
    }
    Some(ResultEntry { fingerprint, body, events })
}

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("av_serve_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry() -> ResultEntry {
        ResultEntry {
            fingerprint: 0xfeed_beef_dead_cafe,
            body: "{\"kind\":\"drive\",\"run_hash\":\"0x0000000000000001\"}".to_string(),
            events: vec!["{\"phase\":\"started\"}".to_string(), "{\"phase\":\"done\"}".to_string()],
        }
    }

    #[test]
    fn put_then_get_round_trips_in_memory() {
        let store = ResultStore::in_memory();
        assert!(store.get(1).is_none());
        let put = store.put(entry()).unwrap();
        let got = store.get(entry().fingerprint).expect("present");
        assert_eq!(*got, *put);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn spooled_entries_survive_restart_byte_for_byte() {
        let dir = tmpdir("restart");
        let (store, _) = ResultStore::with_spool(&dir).unwrap();
        store.put(entry()).unwrap();
        drop(store);

        let (reopened, report) = ResultStore::with_spool(&dir).unwrap();
        assert!(report.is_clean());
        assert_eq!(reopened.len(), 1);
        let got = reopened.get(entry().fingerprint).expect("reloaded");
        assert_eq!(got.body, entry().body);
        assert_eq!(got.events, entry().events);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_leftovers_and_corrupt_entries_are_quarantined() {
        let dir = tmpdir("quarantine");
        fs::create_dir_all(dir.join("pending")).unwrap();
        fs::write(dir.join("pending").join("0xdead.entry"), "half-written").unwrap();
        fs::write(dir.join("0x0bad.entry"), "not a header\n").unwrap();
        let (store, report) = ResultStore::with_spool(&dir).unwrap();
        assert_eq!(store.len(), 0, "neither leftover nor corrupt entry loads");
        let files: Vec<&str> = report.quarantined.iter().map(|q| q.file.as_str()).collect();
        assert_eq!(files, ["0xdead.entry", "0x0bad.entry"]);
        assert!(report.render().contains("QUARANTINED 0x0bad.entry: malformed"));
        assert!(!dir.join("pending").join("0xdead.entry").exists(), "leftover moved");
        assert!(!dir.join("0x0bad.entry").exists(), "corrupt entry moved");
        let quarantine = dir.join("quarantine");
        assert_eq!(fs::read_to_string(quarantine.join("0xdead.entry")).unwrap(), "half-written");
        assert_eq!(fs::read_to_string(quarantine.join("0x0bad.entry")).unwrap(), "not a header\n");
        assert!(quarantine.join("0xdead.entry.reason").exists());
        assert!(quarantine.join("0x0bad.entry.reason").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_of_one_fingerprint_all_succeed() {
        const THREADS: usize = 8;
        for round in 0..20 {
            let dir = tmpdir(&format!("concurrent{round}"));
            let (store, _) = ResultStore::with_spool(&dir).unwrap();
            // Released together, the threads pass the "absent" check
            // and write the same entry through the outbox concurrently.
            let barrier = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        barrier.wait();
                        store.put(entry()).expect("concurrent put");
                    });
                }
            });
            let (reopened, report) = ResultStore::with_spool(&dir).unwrap();
            assert!(report.is_clean(), "round {round}: {}", report.render());
            assert_eq!(reopened.len(), 1);
            assert_eq!(*reopened.get(entry().fingerprint).unwrap(), entry());
            let published = fs::read_to_string(dir.join(entry_name(entry().fingerprint))).unwrap();
            assert_eq!(published, encode_entry(&entry()));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn first_writer_wins_on_duplicate_fingerprints() {
        let store = ResultStore::in_memory();
        store.put(entry()).unwrap();
        let mut other = entry();
        other.body = "{\"different\":true}".to_string();
        let kept = store.put(other).unwrap();
        assert_eq!(kept.body, entry().body);
    }
}
