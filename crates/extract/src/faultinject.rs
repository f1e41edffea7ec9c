//! Deterministic fault injection for the acquisition pipeline.
//!
//! The paper's pipeline moves trace files across many machines
//! (instrumented nodes → extraction → K-nomial gathering), and every
//! hop can corrupt, truncate or lose data. This module injects those
//! failures *on purpose*, deterministically from a seed, so the
//! robustness tests can assert that each corruption surfaces as a typed
//! error naming the failing rank/file — and that two runs with the same
//! seed damage the bytes identically.
//!
//! Four fault families, matching what the gathering step can actually
//! do to a trace:
//!
//! * **truncation** — a file loses its tail (interrupted copy);
//! * **bit flips** — a single bit is damaged in flight;
//! * **missing rank** — one `SG_process<N>.trace` never arrives;
//! * **short transfer** — the bundle itself is cut mid-entry, as if a
//!   gather transfer was dropped partway.
//!
//! For `TIB2` segmented stores (docs/FORMATS.md) three more families
//! damage the store at the granularity its checksums defend:
//!
//! * **segment flip** — one bit of a random segment's header+payload
//!   region flips (must surface as a typed `SegmentDamaged` naming
//!   that rank/segment/offset, or trim exactly that segment in
//!   degraded mode);
//! * **torn segment** — a segment's tail is zeroed from a random point,
//!   as if a write tore mid-segment (same detection obligation);
//! * **truncated footer** — the file loses part of its footer index or
//!   trailer (the store must refuse to open, fail-closed).
//!
//! [`Flaky`] additionally models *transient* failures (the first `n`
//! attempts of an operation fail with `Interrupted`) to exercise the
//! bounded retry of [`crate::error::with_retry`].

use crate::error::PipelineError;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// SplitMix64: tiny, seedable, reproducible. The whole injector's
/// determinism rests on this sequence, so it is implemented here rather
/// than borrowed from a library that might change under us.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// What faults to inject, and how often. Probabilities are per file.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Seed of the deterministic damage stream.
    pub seed: u64,
    /// Probability a file loses a random-length tail.
    pub truncate: f64,
    /// Probability a file gets one bit flipped.
    pub bit_flip: f64,
    /// Probability a rank's file is deleted outright.
    pub drop_rank: f64,
}

impl FaultSpec {
    /// No faults; the identity spec.
    pub fn none(seed: u64) -> Self {
        FaultSpec { seed, truncate: 0.0, bit_flip: 0.0, drop_rank: 0.0 }
    }
}

/// One injected fault, for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The file lost its tail: size went `from` → `to`.
    Truncated {
        /// The damaged file.
        path: PathBuf,
        /// Size before, bytes.
        from: u64,
        /// Size after, bytes.
        to: u64,
    },
    /// One bit was flipped in place.
    BitFlip {
        /// The damaged file.
        path: PathBuf,
        /// Byte offset of the flip.
        offset: u64,
        /// Bit index within that byte.
        bit: u8,
    },
    /// A rank's file was deleted outright.
    DroppedRank {
        /// The rank that lost its file.
        rank: usize,
        /// The deleted path.
        path: PathBuf,
    },
    /// A copy stopped early: size went `from` → `to`.
    ShortTransfer {
        /// The damaged file.
        path: PathBuf,
        /// Intended size, bytes.
        from: u64,
        /// Actually transferred size, bytes.
        to: u64,
    },
    /// One bit of a `TIB2` segment flipped in place.
    SegmentFlip {
        /// The damaged store.
        path: PathBuf,
        /// Rank owning the damaged segment.
        rank: usize,
        /// Segment index within the rank.
        segment: usize,
        /// Absolute byte offset of the flip.
        offset: u64,
        /// Bit index within that byte.
        bit: u8,
    },
    /// A `TIB2` segment's tail was zeroed — a torn write.
    TornSegment {
        /// The damaged store.
        path: PathBuf,
        /// Rank owning the damaged segment.
        rank: usize,
        /// Segment index within the rank.
        segment: usize,
        /// Absolute byte offset where the tear starts.
        offset: u64,
        /// Bytes zeroed from there to the segment's end.
        zeroed: u64,
    },
    /// A `TIB2` store lost part of its footer index or trailer.
    TruncatedFooter {
        /// The damaged store.
        path: PathBuf,
        /// Size before, bytes.
        from: u64,
        /// Size after, bytes.
        to: u64,
    },
}

/// Flips bit `bit` of the byte at `offset` of `path`, in place.
fn flip_bit_at(path: &Path, offset: u64, bit: u8) -> Result<(), PipelineError> {
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| PipelineError::io(path, e))?;
    f.seek(SeekFrom::Start(offset)).map_err(|e| PipelineError::io(path, e))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b).map_err(|e| PipelineError::io(path, e))?;
    b[0] ^= 1 << bit;
    f.seek(SeekFrom::Start(offset)).map_err(|e| PipelineError::io(path, e))?;
    f.write_all(&b).map_err(|e| PipelineError::io(path, e))?;
    Ok(())
}

/// Seeded injector. Every method consumes randomness from the same
/// SplitMix64 stream, so a fixed seed and a fixed call sequence damage
/// the same bytes every time.
#[derive(Debug)]
pub struct Injector {
    rng: SplitMix64,
}

impl Injector {
    /// An injector with its own damage stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Injector { rng: SplitMix64::new(seed) }
    }

    /// Cuts `path` to a random proper prefix (at least one byte
    /// shorter, possibly empty).
    pub fn truncate_file(&mut self, path: &Path) -> Result<Fault, PipelineError> {
        let len = std::fs::metadata(path).map_err(|e| PipelineError::io(path, e))?.len();
        let keep = if len == 0 { 0 } else { self.rng.below(len) };
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| PipelineError::io(path, e))?;
        f.set_len(keep).map_err(|e| PipelineError::io(path, e))?;
        Ok(Fault::Truncated { path: path.to_path_buf(), from: len, to: keep })
    }

    /// Flips one random bit of `path` in place.
    pub fn flip_bit(&mut self, path: &Path) -> Result<Fault, PipelineError> {
        let len = std::fs::metadata(path).map_err(|e| PipelineError::io(path, e))?.len();
        if len == 0 {
            return Err(PipelineError::io(
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "cannot flip a bit in an empty file"),
            ));
        }
        let offset = self.rng.below(len);
        let bit = (self.rng.below(8)) as u8;
        flip_bit_at(path, offset, bit)?;
        Ok(Fault::BitFlip { path: path.to_path_buf(), offset, bit })
    }

    /// Deletes rank `rank`'s per-process trace under `dir`, as if it
    /// never reached the gathering node.
    pub fn drop_rank(&mut self, dir: &Path, rank: usize) -> Result<Fault, PipelineError> {
        let path = dir.join(tit_core::trace::process_trace_filename(rank));
        std::fs::remove_file(&path).map_err(|e| PipelineError::MissingRank {
            rank,
            path: path.clone(),
            source: e,
        })?;
        Ok(Fault::DroppedRank { rank, path })
    }

    /// Cuts a gathered bundle mid-stream — a dropped/short gather
    /// transfer. Keeps at least one byte less than the full length and
    /// never leaves less than half, so the manifest head still parses
    /// and the damage shows up as a truncated entry, not an empty file.
    pub fn short_transfer(&mut self, bundle: &Path) -> Result<Fault, PipelineError> {
        let len = std::fs::metadata(bundle).map_err(|e| PipelineError::io(bundle, e))?.len();
        if len < 2 {
            return Err(PipelineError::io(
                bundle,
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "bundle too small to cut"),
            ));
        }
        let min_keep = len / 2;
        let span = len - min_keep - 1; // cut at least one byte
        let keep = if span == 0 { min_keep } else { min_keep + self.rng.below(span + 1) };
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(bundle)
            .map_err(|e| PipelineError::io(bundle, e))?;
        f.set_len(keep).map_err(|e| PipelineError::io(bundle, e))?;
        Ok(Fault::ShortTransfer { path: bundle.to_path_buf(), from: len, to: keep })
    }

    /// Picks a uniformly random segment of an opened `TIB2` store.
    /// Consumes exactly one draw, keeping the damage stream's
    /// determinism independent of store geometry.
    fn pick_segment(
        &mut self,
        store: &tit_core::Tib2Store,
    ) -> Result<(usize, usize, tit_core::tib2::SegMeta), PipelineError> {
        let mut flat = Vec::new();
        for rank in 0..store.num_ranks() {
            for seg in 0..store.num_segments(rank) {
                flat.push((rank, seg));
            }
        }
        if flat.is_empty() {
            return Err(PipelineError::io(
                store.path(),
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "store has no segments"),
            ));
        }
        let (rank, seg) = flat[self.rng.below(flat.len() as u64) as usize];
        // panics: (rank, seg) was enumerated from this store's index
        let meta = *store.segment_meta(rank, seg).unwrap();
        Ok((rank, seg, meta))
    }

    /// Flips one random bit inside a random segment's checksummed
    /// region (16-byte header + payload) of the `TIB2` store at
    /// `store`. Detection obligation: a strict replay must fail closed
    /// with `SegmentDamaged` naming this rank/segment, a degraded one
    /// must trim at most from this segment on.
    pub fn flip_segment_bit(&mut self, store: &Path) -> Result<Fault, PipelineError> {
        let s = tit_core::Tib2Store::open(store)
            .map_err(|e| PipelineError::io(store, std::io::Error::other(e.to_string())))?;
        let (rank, segment, meta) = self.pick_segment(&s)?;
        drop(s);
        let span = 16 + u64::from(meta.payload_len);
        let offset = meta.offset + self.rng.below(span);
        let bit = self.rng.below(8) as u8;
        flip_bit_at(store, offset, bit)?;
        Ok(Fault::SegmentFlip { path: store.to_path_buf(), rank, segment, offset, bit })
    }

    /// Zeroes a random segment's tail from a random interior point — a
    /// write that tore mid-segment. At least one byte is zeroed; the
    /// segment header may survive intact, the checksum cannot.
    pub fn tear_segment(&mut self, store: &Path) -> Result<Fault, PipelineError> {
        let s = tit_core::Tib2Store::open(store)
            .map_err(|e| PipelineError::io(store, std::io::Error::other(e.to_string())))?;
        let (rank, segment, meta) = self.pick_segment(&s)?;
        drop(s);
        let span = 16 + u64::from(meta.payload_len);
        let start = meta.offset + self.rng.below(span);
        let zeroed = meta.offset + span - start;
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(store)
            .map_err(|e| PipelineError::io(store, e))?;
        f.seek(SeekFrom::Start(start)).map_err(|e| PipelineError::io(store, e))?;
        // Write in one shot: segments are small (seg_actions-bounded).
        f.write_all(&vec![0u8; zeroed as usize]).map_err(|e| PipelineError::io(store, e))?;
        Ok(Fault::TornSegment { path: store.to_path_buf(), rank, segment, offset: start, zeroed })
    }

    /// Cuts the store inside its footer index or trailer: the segments
    /// all survive, the index describing them does not. The store must
    /// refuse to open (fail-closed) — without a trusted index there is
    /// no salvage map, so there is no degraded replay either.
    pub fn truncate_footer(&mut self, store: &Path) -> Result<Fault, PipelineError> {
        let s = tit_core::Tib2Store::open(store)
            .map_err(|e| PipelineError::io(store, std::io::Error::other(e.to_string())))?;
        let mut segments_end = 8u64; // head length; empty stores have no segments
        for rank in 0..s.num_ranks() {
            for seg in 0..s.num_segments(rank) {
                // panics: (rank, seg) ranges over this store's index
                let m = s.segment_meta(rank, seg).unwrap();
                segments_end = segments_end.max(m.offset + 16 + u64::from(m.payload_len));
            }
        }
        let from = s.file_len();
        drop(s);
        // Keep all segment bytes, lose a nonempty tail of the footer.
        let span = from - segments_end; // footer + trailer, always > 0
        let keep = segments_end + self.rng.below(span);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(store)
            .map_err(|e| PipelineError::io(store, e))?;
        f.set_len(keep).map_err(|e| PipelineError::io(store, e))?;
        Ok(Fault::TruncatedFooter { path: store.to_path_buf(), from, to: keep })
    }

    /// Sweeps the per-rank traces `0..nproc` under `dir`, applying each
    /// fault family with its `spec` probability. Rank order is fixed,
    /// so the damage is a pure function of `(seed, spec, dir bytes)`.
    /// Returns the faults actually injected.
    pub fn inject_traces(
        &mut self,
        dir: &Path,
        nproc: usize,
        spec: &FaultSpec,
    ) -> Result<Vec<Fault>, PipelineError> {
        let mut faults = Vec::new();
        for rank in 0..nproc {
            let path = dir.join(tit_core::trace::process_trace_filename(rank));
            // Draw all three decisions unconditionally so the stream
            // stays aligned across ranks whatever was injected before.
            let do_drop = self.rng.chance(spec.drop_rank);
            let do_trunc = self.rng.chance(spec.truncate);
            let do_flip = self.rng.chance(spec.bit_flip);
            if do_drop {
                faults.push(self.drop_rank(dir, rank)?);
                continue;
            }
            if do_trunc {
                faults.push(self.truncate_file(&path)?);
            }
            if do_flip && std::fs::metadata(&path).map(|m| m.len() > 0).unwrap_or(false) {
                faults.push(self.flip_bit(&path)?);
            }
        }
        Ok(faults)
    }
}

/// Injects faults into the traces under `dir` from `spec`: the one-call
/// entry point the tests use. Deterministic: same seed, same inputs ⇒
/// same faults, same resulting bytes.
pub fn inject(dir: &Path, nproc: usize, spec: &FaultSpec) -> Result<Vec<Fault>, PipelineError> {
    Injector::new(spec.seed).inject_traces(dir, nproc, spec)
}

/// A transient-failure gate: the first `failures` calls to [`trip`]
/// return an `Interrupted` I/O error (which
/// [`PipelineError::is_transient`] classifies as retryable), then it
/// stays open. Compose it with a real operation to test retry logic:
///
/// ```
/// use tit_extract::error::{with_retry, RetryPolicy};
/// use tit_extract::faultinject::Flaky;
/// let flaky = Flaky::new(2);
/// let out = with_retry(&RetryPolicy::default(), "op", |_| {
///     flaky.trip("copy")?;
///     Ok(7)
/// });
/// assert_eq!(out.unwrap(), 7);
/// ```
///
/// [`trip`]: Flaky::trip
#[derive(Debug)]
pub struct Flaky {
    remaining: std::cell::Cell<u32>,
}

impl Flaky {
    /// Fails the next `failures` trips, then succeeds forever.
    pub fn new(failures: u32) -> Self {
        Flaky { remaining: std::cell::Cell::new(failures) }
    }

    /// Fails (transiently) while the failure budget lasts.
    pub fn trip(&self, what: &str) -> Result<(), PipelineError> {
        let left = self.remaining.get();
        if left > 0 {
            self.remaining.set(left - 1);
            return Err(PipelineError::io(
                what,
                std::io::Error::new(std::io::ErrorKind::Interrupted, "injected transient fault"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("titr-fi-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_ranks(dir: &Path, nproc: usize) {
        for r in 0..nproc {
            let p = dir.join(tit_core::trace::process_trace_filename(r));
            std::fs::write(&p, format!("p{r} init\np{r} compute 1e6\np{r} finalize\n")).unwrap();
        }
    }

    #[test]
    fn splitmix_is_reproducible_and_spreads() {
        let a: Vec<u64> = (0..8).map({ let mut r = SplitMix64::new(42); move |_| r.next_u64() }).collect();
        let b: Vec<u64> = (0..8).map({ let mut r = SplitMix64::new(42); move |_| r.next_u64() }).collect();
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn truncation_shortens_the_file() {
        let dir = tmp("trunc");
        write_ranks(&dir, 1);
        let p = dir.join(tit_core::trace::process_trace_filename(0));
        let before = std::fs::metadata(&p).unwrap().len();
        let f = Injector::new(7).truncate_file(&p).unwrap();
        let after = std::fs::metadata(&p).unwrap().len();
        assert!(after < before);
        assert_eq!(f, Fault::Truncated { path: p, from: before, to: after });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let dir = tmp("flip");
        write_ranks(&dir, 1);
        let p = dir.join(tit_core::trace::process_trace_filename(0));
        let before = std::fs::read(&p).unwrap();
        Injector::new(9).flip_bit(&p).unwrap();
        let after = std::fs::read(&p).unwrap();
        assert_eq!(before.len(), after.len());
        let flipped: u32 = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_a_missing_rank_is_a_typed_error() {
        let dir = tmp("dropmiss");
        let err = Injector::new(1).drop_rank(&dir, 5).unwrap_err();
        match err {
            PipelineError::MissingRank { rank, path, .. } => {
                assert_eq!(rank, 5);
                assert!(path.to_string_lossy().contains("SG_process5"));
            }
            e => panic!("expected MissingRank, got {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let spec =
            FaultSpec { seed: 0xDEADBEEF, truncate: 0.4, bit_flip: 0.4, drop_rank: 0.2 };
        let mut reports = Vec::new();
        let mut bytes = Vec::new();
        for run in 0..2 {
            let dir = tmp(&format!("repro{run}"));
            write_ranks(&dir, 8);
            let mut faults = inject(&dir, 8, &spec).unwrap();
            // Strip the run-specific tmp prefix so reports compare.
            for f in &mut faults {
                let strip = |p: &PathBuf| PathBuf::from(p.file_name().unwrap());
                match f {
                    Fault::Truncated { path, .. }
                    | Fault::BitFlip { path, .. }
                    | Fault::DroppedRank { path, .. }
                    | Fault::ShortTransfer { path, .. }
                    | Fault::SegmentFlip { path, .. }
                    | Fault::TornSegment { path, .. }
                    | Fault::TruncatedFooter { path, .. } => *path = strip(path),
                }
            }
            reports.push(faults);
            let mut all = Vec::new();
            for r in 0..8 {
                let p = dir.join(tit_core::trace::process_trace_filename(r));
                all.push(std::fs::read(&p).ok());
            }
            bytes.push(all);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(reports[0], reports[1], "fault report must be seed-deterministic");
        assert_eq!(bytes[0], bytes[1], "damaged bytes must match bit-for-bit");
        assert!(!reports[0].is_empty(), "spec with these rates must inject something");
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mk = |seed| {
            let dir = tmp(&format!("seed{seed}"));
            write_ranks(&dir, 8);
            let spec = FaultSpec { seed, truncate: 0.5, bit_flip: 0.5, drop_rank: 0.1 };
            let n = inject(&dir, 8, &spec).unwrap().len();
            std::fs::remove_dir_all(&dir).unwrap();
            n
        };
        // Not a strong statistical claim; just that the seed matters.
        let counts: Vec<usize> = (0..6).map(|s| mk(s * 101 + 3)).collect();
        let distinct: std::collections::HashSet<_> = counts.iter().collect();
        assert!(distinct.len() > 1, "all seeds injected identically: {counts:?}");
    }

    #[test]
    fn flaky_gate_recovers_under_retry() {
        use crate::error::{with_retry, RetryPolicy};
        let flaky = Flaky::new(2);
        let mut calls = 0;
        let out = with_retry(&RetryPolicy::default(), "gate", |_| {
            calls += 1;
            flaky.trip("gate")?;
            Ok("through")
        });
        assert_eq!(out.unwrap(), "through");
        assert_eq!(calls, 3);
    }

    /// A small multi-segment store to damage.
    fn write_store(dir: &Path, tag: &str) -> PathBuf {
        use tit_core::{Action, CompactTrace, TiTrace};
        let np = 3;
        let mut t = TiTrace::new(np);
        for r in 0..np {
            t.push(r, Action::CommSize { nproc: np });
            for i in 0..200 {
                t.push(r, Action::Compute { flops: 1e5 + i as f64 });
                t.push(r, Action::Send { dst: (r + 1) % np, bytes: 64.0 });
                t.push(r, Action::Recv { src: (r + np - 1) % np, bytes: None });
            }
        }
        let ct = CompactTrace::from_trace(&t).unwrap();
        let dest = dir.join(format!("{tag}.tib2"));
        tit_core::tib2::write_compact_atomic(&dest, &ct, 64).unwrap();
        dest
    }

    #[test]
    fn segment_flip_is_deterministic_and_detected() {
        let dir = tmp("segflip");
        let a = write_store(&dir, "a");
        let b = write_store(&dir, "b");
        let fa = Injector::new(11).flip_segment_bit(&a).unwrap();
        let fb = Injector::new(11).flip_segment_bit(&b).unwrap();
        // Same seed, same store bytes → identical damage.
        let Fault::SegmentFlip { rank, segment, offset, bit, .. } = fa else {
            panic!("wrong fault kind: {fa:?}");
        };
        assert!(
            matches!(fb, Fault::SegmentFlip { rank: r, segment: s, offset: o, bit: bt, .. }
                if r == rank && s == segment && o == offset && bt == bit),
            "{fb:?}"
        );
        // The named segment — and only it — fails verification.
        let s = tit_core::Tib2Store::open(&a).unwrap();
        let segs = (0..s.num_ranks()).flat_map(|r| (0..s.num_segments(r)).map(move |g| (r, g)));
        let errs: Vec<_> = segs.filter_map(|(r, g)| s.verify_segment(r, g).err()).collect();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            matches!(&errs[0], tit_core::StoreError::SegmentDamaged { rank: r, segment: sg, .. }
                if *r == rank && *sg == segment),
            "{:?}",
            errs[0]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_fails_checksum() {
        let dir = tmp("tear");
        let p = write_store(&dir, "t");
        let f = Injector::new(23).tear_segment(&p).unwrap();
        let Fault::TornSegment { rank, segment, zeroed, .. } = f else {
            panic!("wrong fault kind: {f:?}");
        };
        assert!(zeroed >= 1);
        let s = tit_core::Tib2Store::open(&p).unwrap();
        assert!(
            matches!(s.verify_segment(rank, segment),
                Err(tit_core::StoreError::SegmentDamaged { .. })),
            "torn segment must fail its checksum"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_footer_fails_open() {
        let dir = tmp("footcut");
        let p = write_store(&dir, "f");
        let f = Injector::new(37).truncate_footer(&p).unwrap();
        let Fault::TruncatedFooter { from, to, .. } = f else {
            panic!("wrong fault kind: {f:?}");
        };
        assert!(to < from);
        let err = tit_core::Tib2Store::open(&p).unwrap_err();
        assert!(
            matches!(err, tit_core::StoreError::FooterDamaged { .. }),
            "expected FooterDamaged, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
