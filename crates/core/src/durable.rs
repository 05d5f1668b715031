//! Crash-safe publication and quarantine: the file-level discipline the
//! durable stores share — the checkpoint store ([`crate::ckptstore`])
//! and the scenario service's result spool.
//!
//! A store directory holds published entries plus two subdirectories:
//!
//! ```text
//! <dir>/pending/                 outbox (writes in flight)
//! <dir>/quarantine/              entries set aside, never deleted
//! <dir>/quarantine/<name>.reason one-line reason sidecar
//! ```
//!
//! [`publish`] writes an entry to `pending/`, fsyncs it, atomically
//! renames it into `<dir>/`, then fsyncs the directory (best-effort), so
//! a crash leaves at most a `pending/` leftover, never a half-visible
//! entry. On open, a store hands every leftover and every entry that
//! fails verification to [`RecoveryReport::quarantine`]: the bytes are
//! kept under `quarantine/` with a reason, and reported loudly.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One entry set aside during a recovery scan or a failed read.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedEntry {
    /// File name the entry now has inside `quarantine/`.
    pub file: String,
    /// Human-readable reason (also written to the `.reason` sidecar).
    pub reason: String,
}

/// What a store's recovery scan found: how many entries verified clean
/// and which were quarantined, with reasons.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Entries that verified end to end and are now indexed.
    pub loaded: usize,
    /// Entries renamed into `quarantine/`, with reasons.
    pub quarantined: Vec<QuarantinedEntry>,
}

impl RecoveryReport {
    /// `true` when nothing had to be quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The loud one-entry-per-line report the binaries print after a
    /// recovery scan (empty when the scan was clean).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for q in &self.quarantined {
            out.push_str(&format!("QUARANTINED {}: {}\n", q.file, q.reason));
        }
        if !self.quarantined.is_empty() {
            out.push_str(&format!(
                "recovery: {} entr{} loaded, {} quarantined (bytes kept under quarantine/)\n",
                self.loaded,
                if self.loaded == 1 { "y" } else { "ies" },
                self.quarantined.len()
            ));
        }
        out
    }

    /// Moves `path` into `<dir>/quarantine/` with `reason` and records it.
    pub fn quarantine(&mut self, dir: &Path, path: &Path, reason: String) -> io::Result<()> {
        let file = quarantine_file(&dir.join("quarantine"), path, &reason)?;
        self.quarantined.push(QuarantinedEntry { file, reason });
        Ok(())
    }

    /// Quarantines every file left in `<dir>/pending/`: a writer died
    /// before publishing it. Leftovers are handled in name order.
    pub fn quarantine_pending(&mut self, dir: &Path) -> io::Result<()> {
        let mut leftovers: Vec<PathBuf> = fs::read_dir(dir.join("pending"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        leftovers.sort();
        for path in leftovers {
            let reason = "interrupted write: found in pending/ (writer crashed before publish)";
            self.quarantine(dir, &path, reason.to_string())?;
        }
        Ok(())
    }
}

/// Renames `path` into `quarantine_dir` (appending `.2`, `.3`, … on
/// name collisions) and writes a `.reason` sidecar. Never deletes.
/// Returns the name the file now has inside `quarantine_dir`.
pub fn quarantine_file(quarantine_dir: &Path, path: &Path, reason: &str) -> io::Result<String> {
    let base = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "entry".to_string());
    let mut name = base.clone();
    let mut n = 1u32;
    while quarantine_dir.join(&name).exists() {
        n += 1;
        name = format!("{base}.{n}");
    }
    let target = quarantine_dir.join(&name);
    fs::rename(path, &target)?;
    fs::write(quarantine_dir.join(format!("{name}.reason")), format!("{reason}\n"))?;
    Ok(name)
}

/// A fresh outbox path for an entry that will be published as
/// `<dir>/<name>`. The process id and a per-process sequence number
/// make it unique, so concurrent writers of one name — threads or
/// processes — never share a pending file.
pub fn pending_path(dir: &Path, name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join("pending").join(format!("{name}.{}.{seq}", std::process::id()))
}

/// Publishes `bytes` as `<dir>/<name>` through the outbox: a fresh
/// [`pending_path`] file written in one `write_all` and fsynced, an
/// atomic rename into `dir`, then a best-effort directory fsync (not
/// all platforms allow fsyncing a directory handle). Publishing an
/// existing name atomically replaces it.
pub fn publish(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let pending = pending_path(dir, name);
    {
        let mut f = File::create(&pending)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&pending, dir.join(name))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}
