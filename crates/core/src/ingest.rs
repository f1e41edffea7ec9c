//! Parallel ingestion of per-rank trace files.
//!
//! Replaying the paper's Section 6.5 trace means reading 1024 per-rank
//! files before the first simulated second; parsing, not simulation, is
//! the wall-clock bottleneck. The loaders here read rank files
//! concurrently with scoped worker threads (one rank per task,
//! work-stealing over an atomic counter — the same shape as the
//! extraction stage's `tau2ti`), then merge the per-rank results in
//! deterministic rank order.
//!
//! The contract: every loader gives the same result at any worker
//! count — same trace, same error for the lowest failing rank — and
//! `jobs <= 1` is a plain serial rank-order loop, which stays the
//! differential-test oracle.
//!
//! ```
//! use tit_core::{ingest, Action, TiTrace};
//!
//! let dir = std::env::temp_dir().join(format!("tit-ingest-doc-{}", std::process::id()));
//! let mut t = TiTrace::new(4);
//! for r in 0..4 {
//!     t.push(r, Action::Compute { flops: 1e6 });
//!     t.push(r, Action::Send { dst: (r + 1) % 4, bytes: 1e6 });
//! }
//! t.save_per_process(&dir).unwrap();
//!
//! let parallel = ingest::load_exact(&dir, 4, 4).unwrap();
//! let serial = ingest::load_exact(&dir, 4, 1).unwrap(); // the oracle
//! assert_eq!(parallel, serial);
//! assert_eq!(parallel, t);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::action::Action;
use crate::compact::{CompactError, CompactTrace};
use crate::tib2::SegmentColumns;
use crate::trace::{process_trace_filename, ByteLines, TiTrace};
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs` value: `0` means one worker per available CPU,
/// anything else is taken literally.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
    } else {
        jobs
    }
}

/// Counts the consecutive `SG_process<N>.trace` files present in `dir`
/// starting at rank 0 (how `tit-diff` finds a set's width).
pub fn rank_file_count(dir: &Path) -> usize {
    let mut n = 0;
    while dir.join(process_trace_filename(n)).exists() {
        n += 1;
    }
    n
}

/// Runs `f(rank)` for every rank in `0..n` on up to `jobs` scoped
/// worker threads and returns the results in rank order.
///
/// On failure the error of the **lowest** failing rank is returned —
/// exactly the error a serial rank-order loop would have stopped at.
/// This is the scheduling core shared by every parallel loader (the
/// lint crate reuses it for its total, finding-producing loads).
pub fn for_each_rank<T, E, F>(n: usize, jobs: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = effective_jobs(jobs).clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<T, E>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let rank = next.fetch_add(1, Ordering::Relaxed);
                if rank >= n {
                    return;
                }
                let res = f(rank);
                // panics: mutex poisoned only if another thread already panicked
                slots.lock().unwrap()[rank] = Some(res);
            });
        }
    });
    // panics: mutex poisoned only if another thread already panicked
    let slots = slots.into_inner().unwrap();
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot {
            // panics: every rank below `n` was claimed by exactly one worker
            None => unreachable!("rank left unprocessed"),
            Some(Ok(t)) => out.push(t),
            Some(Err(e)) => return Err(e),
        }
    }
    Ok(out)
}

/// A failure of an exact-width load, naming the rank it happened on.
#[derive(Debug)]
pub struct IngestError {
    /// The rank whose trace file failed to load.
    pub rank: usize,
    /// The per-rank trace file involved.
    pub path: std::path::PathBuf,
    /// What went wrong (`NotFound` for a missing rank file,
    /// `InvalidData` for parse failures and foreign-pid lines).
    pub source: io::Error,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {}: cannot load {}: {}", self.rank, self.path.display(), self.source)
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Bytes of trace text per action assumed when sizing a rank's
/// columns from its file: about the shortest real lines (`p12 wait`),
/// so the columns rarely regrow while a worker fills them.
const BYTES_PER_ACTION_HINT: u64 = 10;

/// The most actions a rank is sized for up front; past it the columns
/// grow as they fill, so a huge or damaged file cannot make the loader
/// reserve memory it never uses.
const MAX_ACTIONS_HINT: u64 = 1 << 20;

/// Reads one clean rank file line by line into a container made by
/// `with_capacity` (sized from the file length), handing each action to
/// `keep` as it is parsed: every line must carry the file's own pid (the
/// same rule the replayer's streamed text cursor enforces). The first
/// defective line — unparseable, foreign or not internable — is the one
/// reported.
fn read_rank_exact<T>(
    dir: &Path,
    rank: usize,
    with_capacity: impl FnOnce(usize) -> T,
    mut keep: impl FnMut(&mut T, &Action) -> Result<(), CompactError>,
) -> Result<T, IngestError> {
    fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
    let path = dir.join(process_trace_filename(rank));
    let fail = |source: io::Error| IngestError { rank, path: path.clone(), source };
    let file = File::open(&path).map_err(fail)?;
    let hint = file.metadata().map_or(0, |m| m.len() / BYTES_PER_ACTION_HINT);
    let mut out = with_capacity(usize::try_from(hint.min(MAX_ACTIONS_HINT)).unwrap_or(0));
    let mut lines = ByteLines::new(BufReader::with_capacity(1 << 16, file));
    while let Some((pid, a)) = lines.next_action().map_err(|e| fail(invalid(e)))? {
        if pid != rank {
            let line = lines.line();
            let misfiled = format!("line {line}: trace line for p{pid} in p{rank}'s file");
            return Err(fail(invalid(misfiled)));
        }
        keep(&mut out, &a).map_err(|e| fail(invalid(format!("line {}: {e}", lines.line()))))?;
    }
    Ok(out)
}

/// Loads exactly ranks `0..nproc` (the replay tool's `--np` contract)
/// with up to `jobs` workers; every rank file must exist and contain
/// only its own pid's lines. The result always has `nproc` processes
/// (ranks whose file is empty get an empty action list).
pub fn load_exact(dir: &Path, nproc: usize, jobs: usize) -> Result<TiTrace, IngestError> {
    let per_rank = for_each_rank(nproc, jobs, |rank| {
        read_rank_exact(dir, rank, Vec::with_capacity, |actions, a| {
            actions.push(*a);
            Ok(())
        })
    })?;
    Ok(TiTrace { actions: per_rank })
}

/// Like [`load_exact`], straight into the replay simulator's
/// [`CompactTrace`] form: each worker interns its rank into the rank's
/// own columns as it parses and shrinks them to their length, and the
/// trace takes every rank's columns as they are — nothing is copied.
pub fn load_compact_exact(
    dir: &Path,
    nproc: usize,
    jobs: usize,
) -> Result<CompactTrace, IngestError> {
    let per_rank = for_each_rank(nproc, jobs, |rank| {
        let mut cols =
            read_rank_exact(dir, rank, SegmentColumns::with_capacity, SegmentColumns::push)?;
        cols.shrink_to_fit();
        Ok(cols)
    })?;
    Ok(CompactTrace::from_ranks(per_rank))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("titr-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn ring(n: usize, iters: usize) -> TiTrace {
        let mut t = TiTrace::new(n);
        for _ in 0..iters {
            for r in 0..n {
                t.push(r, Action::Compute { flops: 1e6 });
                t.push(r, Action::Send { dst: (r + 1) % n, bytes: 1e6 });
                t.push(r, Action::Recv { src: (r + n - 1) % n, bytes: None });
            }
        }
        t
    }

    #[test]
    fn parallel_load_equals_serial_oracle() {
        let dir = tmp("eq");
        let t = ring(8, 50);
        t.save_per_process(&dir).unwrap();
        let serial = load_exact(&dir, 8, 1).unwrap();
        assert_eq!(serial, t);
        for jobs in [0, 2, 3, 8, 64] {
            let parallel = load_exact(&dir, 8, jobs).unwrap();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lowest_rank_error_matches_serial() {
        let dir = tmp("err");
        ring(6, 4).save_per_process(&dir).unwrap();
        // Corrupt two ranks; the serial loader stops at the lower one.
        std::fs::write(dir.join(process_trace_filename(2)), "p2 frobnicate 1\n").unwrap();
        std::fs::write(dir.join(process_trace_filename(5)), "p5 bogus\n").unwrap();
        let serial = load_exact(&dir, 6, 1).unwrap_err();
        let parallel = load_exact(&dir, 6, 4).unwrap_err();
        assert_eq!((serial.rank, parallel.rank), (2, 2));
        assert_eq!(serial.to_string(), parallel.to_string());
        assert!(serial.to_string().contains("frobnicate"), "{serial}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rank_file_count_stops_at_the_first_gap() {
        let dir = tmp("gap");
        ring(6, 2).save_per_process(&dir).unwrap();
        std::fs::remove_file(dir.join(process_trace_filename(3))).unwrap();
        assert_eq!(rank_file_count(&dir), 3);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(rank_file_count(&dir), 0);
    }

    #[test]
    fn load_exact_requires_every_rank_and_pads() {
        let dir = tmp("exact");
        ring(4, 2).save_per_process(&dir).unwrap();
        std::fs::write(dir.join(process_trace_filename(4)), "").unwrap();
        let t = load_exact(&dir, 5, 2).unwrap();
        assert_eq!(t.num_processes(), 5, "empty file still owns a rank slot");
        assert!(t.actions[4].is_empty());
        let err = load_exact(&dir, 7, 2).unwrap_err();
        assert_eq!(err.rank, 5);
        assert_eq!(err.source.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("SG_process5.trace"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_exact_rejects_foreign_pids() {
        let dir = tmp("foreign");
        ring(2, 1).save_per_process(&dir).unwrap();
        std::fs::write(dir.join(process_trace_filename(1)), "p0 wait\n").unwrap();
        let err = load_exact(&dir, 2, 2).unwrap_err();
        assert_eq!(err.rank, 1);
        assert_eq!(err.source.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("p0"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_load_matches_boxed_load() {
        let dir = tmp("compact");
        let t = ring(5, 10);
        t.save_per_process(&dir).unwrap();
        let c = load_compact_exact(&dir, 5, 3).unwrap();
        assert_eq!(c.to_trace(), load_exact(&dir, 5, 1).unwrap());
        assert_eq!(c.to_trace(), t);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }
}
