//! The daemon's cache of loaded inputs: one generic [`Cache`] over a
//! [`tit_core::Lru`], used twice.
//!
//! A thousand what-if requests against one trace bundle must load it
//! once. Text traces are interned as `Arc<CompactTrace>` (immutable,
//! struct-of-arrays) and `TIB2` stores kept as open
//! `Arc<Tib2Store>` handles, each in a [`Cache`] keyed by the FNV-1a-64
//! trace reference key ([`crate::proto::ReplayRequest::trace_key`]). A
//! hit is a refcount bump; an evicted value stays alive for requests
//! already replaying it.
//!
//! A hit may be checked for freshness before it is served. Stores are:
//! opening one verifies head, trailer and footer, and the handle then
//! serves any number of requests with segment reads verified lazily,
//! so every hit is revalidated against the file's *content*
//! fingerprint ([`Tib2Store::read_fingerprint`], a 24-byte trailer
//! read). A store atomically replaced on disk is noticed and reopened,
//! never served stale — the cache behaves as if keyed on the footer
//! hash, without having to open the file to compute the key.
//!
//! Loads go through the extract pipeline's bounded
//! [`retry policy`](tit_extract::error::RetryPolicy): transient I/O
//! failures (EINTR, timeouts, reset mounts) are retried with
//! deterministic exponential backoff, permanent ones (missing rank
//! file, parse error, a store that fails verification) fail the
//! request immediately.
//!
//! Two racing requests for the same uncached key may both load it
//! (last insert wins); that wastes one load but never blocks loads of
//! *other* keys behind a long parse, and both results are identical by
//! construction.

use std::path::Path;
use std::sync::{Arc, Mutex};
use tit_core::{load_compact_exact, CompactTrace, Lru, Tib2Store};
use tit_extract::error::{with_retry, PipelineError, RetryPolicy};

/// An LRU of loaded values that loads under a retry policy.
pub struct Cache<T> {
    lru: Mutex<Lru<u64, Arc<T>>>,
    retry: RetryPolicy,
}

impl<T> Cache<T> {
    /// A cache holding at most `cap` values, loading under `retry`.
    #[must_use]
    pub fn new(cap: usize, retry: RetryPolicy) -> Self {
        Cache { lru: Mutex::new(Lru::new(cap)), retry }
    }

    /// Cached values.
    #[must_use]
    pub fn len(&self) -> usize {
        // panics: mutex poisoned only if another thread already panicked
        self.lru.lock().unwrap().len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the value cached under `key` if `fresh` accepts it (the
    /// boolean is `true`: a hit), else loads it with `load` under the
    /// retry policy (`what` names it in a retries-exhausted error) and
    /// caches it. `fresh` runs outside the lock.
    fn get_or_load_with(
        &self,
        key: u64,
        fresh: impl FnOnce(&T) -> bool,
        what: impl FnOnce() -> String,
        mut load: impl FnMut() -> Result<T, PipelineError>,
    ) -> Result<(Arc<T>, bool), PipelineError> {
        // panics: mutex poisoned only if another thread already panicked
        let cached = self.lru.lock().unwrap().get(&key);
        if let Some(v) = cached.filter(|v| fresh(v)) {
            return Ok((v, true));
        }
        let v = Arc::new(with_retry(&self.retry, &what(), |_attempt| load())?);
        // panics: mutex poisoned only if another thread already panicked
        self.lru.lock().unwrap().insert(key, Arc::clone(&v));
        Ok((v, false))
    }
}

impl Cache<CompactTrace> {
    /// Returns the trace for `key`, loading the `np` per-rank text
    /// traces in `dir` and interning them on a miss. The boolean is
    /// `true` on a cache hit.
    pub fn get_or_load(
        &self,
        key: u64,
        dir: &Path,
        np: usize,
    ) -> Result<(Arc<CompactTrace>, bool), PipelineError> {
        self.get_or_load_with(
            key,
            |_| true,
            || format!("load trace {} (np={np})", dir.display()),
            || load_compact_exact(dir, np, 1).map_err(|e| PipelineError::io(&e.path, e.source)),
        )
    }
}

impl Cache<Tib2Store> {
    /// Returns the open store for `key`, opening it on a miss or when
    /// the file's content fingerprint no longer matches the cached
    /// handle's. The boolean is `true` on a revalidated cache hit.
    pub fn get_or_open(
        &self,
        key: u64,
        path: &Path,
    ) -> Result<(Arc<Tib2Store>, bool), PipelineError> {
        self.get_or_load_with(
            key,
            |s| Tib2Store::read_fingerprint(path).is_ok_and(|fp| fp == s.fingerprint()),
            || format!("open store {}", path.display()),
            || {
                Tib2Store::open(path).map_err(|e| match e {
                    tit_core::StoreError::Io { path, source } => PipelineError::io(&path, source),
                    // Verification failures are permanent, not transient
                    // I/O: surface them as InvalidData, never retried.
                    other => PipelineError::io(
                        path,
                        std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
                    ),
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tit_core::{Action, ProcessTraceWriter};

    fn write_ring(dir: &Path, n: usize, iters: usize) {
        std::fs::create_dir_all(dir).unwrap();
        for r in 0..n {
            let mut w = ProcessTraceWriter::create(dir, r).unwrap();
            for _ in 0..iters {
                w.write(&Action::Compute { flops: 1e6 }).unwrap();
                w.write(&Action::Send { dst: (r + 1) % n, bytes: 1e6 }).unwrap();
                w.write(&Action::Recv { src: (r + n - 1) % n, bytes: None }).unwrap();
            }
            w.finish().unwrap();
        }
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tit-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn second_lookup_hits_and_shares_the_same_trace() {
        let d = tmp("hit");
        write_ring(&d, 3, 2);
        let cache: Cache<CompactTrace> = Cache::new(4, RetryPolicy::default());
        let (t1, hit1) = cache.get_or_load(42, &d, 3).unwrap();
        let (t2, hit2) = cache.get_or_load(42, &d, 3).unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&t1, &t2), "a hit is a refcount bump, not a reload");
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_trace_is_a_permanent_error() {
        let cache: Cache<CompactTrace> = Cache::new(4, RetryPolicy::default());
        let err = cache
            .get_or_load(7, Path::new("/nonexistent/trace/dir"), 2)
            .unwrap_err();
        assert!(!err.is_transient());
        assert!(cache.is_empty(), "failures are not cached");
    }

    fn write_store(path: &Path, np: usize, iters: usize) -> u64 {
        let mut t = tit_core::TiTrace::new(np);
        for r in 0..np {
            t.push(r, Action::CommSize { nproc: np });
            for _ in 0..iters {
                t.push(r, Action::Compute { flops: 1e6 });
                t.push(r, Action::Send { dst: (r + 1) % np, bytes: 1e6 });
                t.push(r, Action::Recv { src: (r + np - 1) % np, bytes: None });
            }
        }
        let ct = tit_core::CompactTrace::from_trace(&t).unwrap();
        tit_core::tib2::write_compact_atomic(path, &ct, 8).unwrap().fingerprint
    }

    #[test]
    fn store_hit_is_a_refcount_bump() {
        let d = tmp("store-hit");
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("a.tib2");
        write_store(&p, 3, 4);
        let cache: Cache<Tib2Store> = Cache::new(4, RetryPolicy::default());
        let (s1, hit1) = cache.get_or_open(9, &p).unwrap();
        let (s2, hit2) = cache.get_or_open(9, &p).unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn replaced_store_is_reopened_not_served_stale() {
        let d = tmp("store-swap");
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("a.tib2");
        let fp1 = write_store(&p, 3, 4);
        let cache: Cache<Tib2Store> = Cache::new(4, RetryPolicy::default());
        let (s1, _) = cache.get_or_open(9, &p).unwrap();
        assert_eq!(s1.fingerprint(), fp1);
        // Same path, new content (atomic replace, like a re-extract).
        let fp2 = write_store(&p, 3, 5);
        assert_ne!(fp1, fp2);
        let (s2, hit) = cache.get_or_open(9, &p).unwrap();
        assert!(!hit, "content change must be a miss");
        assert_eq!(s2.fingerprint(), fp2);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn damaged_store_is_a_permanent_error() {
        let d = tmp("store-bad");
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("a.tib2");
        write_store(&p, 2, 3);
        // Cut the trailer: open must fail closed, and not be retried
        // into success.
        let len = std::fs::metadata(&p).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&p).unwrap().set_len(len - 4).unwrap();
        let cache: Cache<Tib2Store> = Cache::new(4, RetryPolicy::default());
        let err = cache.get_or_open(1, &p).unwrap_err();
        assert!(!err.is_transient());
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn eviction_keeps_the_cache_bounded() {
        let d = tmp("evict");
        write_ring(&d, 2, 1);
        let cache: Cache<CompactTrace> = Cache::new(2, RetryPolicy::default());
        for key in 0..5u64 {
            cache.get_or_load(key, &d, 2).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // The two most recent keys survive.
        assert!(cache.get_or_load(4, &d, 2).unwrap().1);
        assert!(cache.get_or_load(3, &d, 2).unwrap().1);
        assert!(!cache.get_or_load(0, &d, 2).unwrap().1);
        let _ = std::fs::remove_dir_all(&d);
    }
}
