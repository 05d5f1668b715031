//! A content-addressed evaluation cache.
//!
//! Every drive is a pure function of its `(StackConfig, RunConfig)`
//! pair, so a finished run can be memoized under a hash of that pair
//! and replayed for free whenever the same evaluation is requested
//! again — duplicate grid points, search batches that revisit a
//! configuration, `--resume` replays that the trajectory prefix does
//! not cover. The key is an FNV-1a-64 over the canonical debug
//! rendering of both configs (the same stable rendering the checkpoint
//! fingerprint uses), so the cache needs no serialization format of its
//! own and cannot confuse two configurations that differ in any field.

use av_core::ckptstore::CkptStore;
use av_core::determinism::{fnv64, run_hash};
use av_core::map::MapCache;
use av_core::stack::{drive, DriveRequest, RunConfig, RunReport, StackConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One memoized drive: the full report plus its golden hash.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The run's full report.
    pub report: RunReport,
    /// Golden hash of the run ([`av_core::determinism::run_hash`]).
    pub run_hash: u64,
}

/// A thread-safe (spec-hash → result) evaluation cache. Shareable
/// across worker threads by reference; lookups and inserts lock a
/// single map briefly, which is negligible next to a simulated drive.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<HashMap<u64, CachedRun>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    store_hits: AtomicUsize,
    maps: MapCache,
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// The content address of one evaluation: FNV-1a-64 over the
    /// canonical rendering of the full stack configuration and the run
    /// options (duration, tracing). Every knob that can change a single
    /// output byte is part of the key.
    pub fn spec_hash(config: &StackConfig, run: &RunConfig) -> u64 {
        fnv64(format!("{config:?}|{run:?}").as_bytes())
    }

    /// Looks up a memoized run, counting the hit or miss.
    pub fn lookup(&self, key: u64) -> Option<CachedRun> {
        let found = self.map.lock().unwrap().get(&key).cloned();
        match found {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a finished run under its key.
    pub fn insert(&self, key: u64, report: &RunReport, run_hash: u64) {
        self.map.lock().unwrap().insert(key, CachedRun { report: report.clone(), run_hash });
    }

    /// [`EvalCache::lookup`] with a disk-store fallback: a memory miss
    /// consults the durable checkpoint store for a *full-horizon*
    /// checkpoint of exactly this `(config, run)` pair — a finished run
    /// whose report is reconstructed by resuming at the horizon (a pure
    /// end-of-run drain, no prefix re-simulated) — and repopulates the
    /// in-memory map from it.
    ///
    /// This is what keeps the cache and the store *agreeing after GC*:
    /// the memory map is not a second source of truth that can outlive
    /// an evicted entry — an entry the store no longer holds (or holds
    /// under a different tracing mode or barrier) is simply a clean
    /// miss, and the evaluation runs cold and may repopulate both.
    pub fn lookup_or_resume(
        &self,
        key: u64,
        config: &StackConfig,
        run: &RunConfig,
        store: Option<&CkptStore>,
    ) -> Option<CachedRun> {
        if let Some(hit) = self.lookup(key) {
            return Some(hit);
        }
        let store = store?;
        let checkpoint = store.best_resume(config, run)?;
        // Only a checkpoint captured exactly at the horizon is a
        // finished run; an earlier barrier would have to simulate the
        // remainder, which is the warm-start seam's job, not the
        // cache's.
        if checkpoint.barrier_ns() != run.horizon(config).as_nanos() {
            return None;
        }
        let request = DriveRequest {
            from: Some(&checkpoint),
            maps: Some(&self.maps),
            ..DriveRequest::default()
        };
        let (report, _) = drive(config, run, request);
        let hash = run_hash(&report);
        self.insert(key, &report, hash);
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        Some(CachedRun { report, run_hash: hash })
    }

    /// The HD maps of the cache's evaluations: the drain behind a
    /// store hit takes its map from here, and so should every drive the
    /// caller runs alongside the cache.
    pub fn maps(&self) -> &MapCache {
        &self.maps
    }

    /// Number of lookups that found a memoized run.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of memory misses served by resuming a full-horizon
    /// checkpoint from the disk store.
    pub fn store_hits(&self) -> usize {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of memoized runs.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_core::stack::{run_drive, StackConfig};
    use av_vision::DetectorKind;

    #[test]
    fn keys_separate_configs_and_run_options() {
        let a = StackConfig::smoke_test(DetectorKind::YoloV3);
        let mut b = a.clone();
        b.seed = 7;
        let run2 = RunConfig::seconds(2.0);
        let run4 = RunConfig::seconds(4.0);
        assert_eq!(EvalCache::spec_hash(&a, &run2), EvalCache::spec_hash(&a, &run2));
        assert_ne!(EvalCache::spec_hash(&a, &run2), EvalCache::spec_hash(&b, &run2));
        assert_ne!(EvalCache::spec_hash(&a, &run2), EvalCache::spec_hash(&a, &run4));
        assert_ne!(
            EvalCache::spec_hash(&a, &run2),
            EvalCache::spec_hash(&a, &RunConfig::seconds(2.0).with_trace())
        );
    }

    #[test]
    fn lookup_returns_the_memoized_report() {
        let config = StackConfig::smoke_test(DetectorKind::YoloV3);
        let run = RunConfig::seconds(2.0);
        let cache = EvalCache::new();
        let key = EvalCache::spec_hash(&config, &run);
        assert!(cache.lookup(key).is_none());
        let report = run_drive(&config, &run);
        let hash = av_core::determinism::run_hash(&report);
        cache.insert(key, &report, hash);
        let hit = cache.lookup(key).expect("memoized");
        assert_eq!(hit.run_hash, hash);
        assert_eq!(av_core::determinism::run_hash(&hit.report), hash);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert!(!cache.is_empty());
    }
}
