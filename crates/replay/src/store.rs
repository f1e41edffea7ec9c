//! Replaying straight out of a `TIB2` segmented store (DESIGN.md §5i).
//!
//! A store cursor reads its rank one segment at a time through a shared
//! [`SegmentCache`], faulting 40-byte footer entries into decoded
//! segments on demand. Peak memory is O(ranks + resident segments)
//! regardless of trace length: each rank pins at most its *current*
//! segment, and everything else is residency in the cache's [`Lru`],
//! which the [`MemBudget`] governor can evict and re-fault at will.
//! Under `--mem-budget` the cap is *hard* — when the pinned working
//! set alone exceeds it, replay stops with a typed
//! [`ReplayError::Memory`], never an OOM kill.
//!
//! Verification is fail-closed per read ([`tit_core::tib2::Tib2Store`]
//! checks the FNV-1a checksum before decoding), so a strict replay
//! that touches a damaged segment stops with a typed
//! [`ReplayError::Store`] naming rank, segment and offset. The cache
//! returns these errors to the cursor, which hands them to the engine
//! as its actor failure; the driver gets them back unchanged. The
//! salvage scan ([`Input::salvage_store`]) runs the full verification
//! sweep first and trims each damaged rank at its last verified segment
//! boundary — the footer index knows exactly how many actions every
//! trimmed segment held, so the completeness ratio is exact, not
//! estimated.
//!
//! Store replay is bit-identical to compact replay on a clean store:
//! the same action stream reaches the same kernel, so `--store`
//! simulated times equal `--trace-dir` simulated times to the last bit
//! (the differential test in `tests/store.rs` holds this line).

use crate::degraded::{DegradationReason, RankDegradation};
use crate::error::ReplayError;
use crate::process::Cursor;
use crate::simulator::{Input, Replay, ReplayConfig, ReplayOutcome};
use simkern::resource::HostId;
use simkern::Platform;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tit_core::membudget::MemBudget;
use tit_core::tib2::{SegmentColumns, StoreError, Tib2Store};
use tit_core::Lru;

/// A resident segment and the bytes it is charged.
#[derive(Clone)]
struct Entry {
    seg: Arc<SegmentColumns>,
    bytes: u64,
}

/// Shared segment residency: one per replay, feeding every rank's store
/// cursor. Decoded segments are interned as `Arc<SegmentColumns>` in an
/// [`Lru`] keyed by `(rank, segment)`; a cursor holding its current
/// segment pins it (Arc refcount > 1), everything else is evictable.
/// Residency is charged against the [`MemBudget`] *before* each read,
/// and eviction takes the least recently used segment nobody pins.
pub struct SegmentCache {
    store: Arc<Tib2Store>,
    budget: Arc<MemBudget>,
    lru: Mutex<Lru<(usize, usize), Entry>>,
    faults: AtomicU64,
    evictions: AtomicU64,
}

impl SegmentCache {
    /// A cache over `store` governed by `budget`.
    pub fn new(store: Arc<Tib2Store>, budget: Arc<MemBudget>) -> Self {
        SegmentCache {
            store,
            budget,
            lru: Mutex::new(Lru::new(usize::MAX)),
            faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<Tib2Store> {
        &self.store
    }

    /// The governing budget.
    pub fn budget(&self) -> &Arc<MemBudget> {
        &self.budget
    }

    /// Segment reads that went to disk (cache misses).
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Segments dropped to stay under budget.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Returns one decoded segment, faulting it in under the budget.
    /// Fail-closed on damage ([`ReplayError::Store`]); a typed
    /// [`ReplayError::Memory`] refusal when the budget cannot be met
    /// even with every unpinned segment evicted.
    pub(crate) fn segment(
        &self,
        rank: usize,
        seg: usize,
    ) -> Result<Arc<SegmentColumns>, ReplayError> {
        let key = (rank, seg);
        // panics: mutex poisoned only if another thread already panicked
        if let Some(hit) = self.lru.lock().unwrap().get(&key) {
            return Ok(hit.seg);
        }
        let out_of_range = || store_error(StoreError::OutOfRange { rank, segment: seg });
        let bytes = self.store.segment_meta(rank, seg).ok_or_else(out_of_range)?.decoded_bytes();
        while let Err(e) = self.budget.try_charge(bytes) {
            // panics: mutex poisoned only if another thread already panicked
            let victim = self.lru.lock().unwrap().pop_lru_where(|r| Arc::strong_count(&r.seg) == 1);
            let Some((_, evicted)) = victim else { return Err(ReplayError::Memory(e)) };
            self.budget.release(evicted.bytes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let cols = match self.store.read_segment(rank, seg) {
            Ok(c) => Arc::new(c),
            Err(e) => {
                self.budget.release(bytes);
                return Err(store_error(e));
            }
        };
        self.faults.fetch_add(1, Ordering::Relaxed);
        // panics: mutex poisoned only if another thread already panicked
        let mut lru = self.lru.lock().unwrap();
        // Two cursors racing on the same uncached segment may both read
        // it (same tradeoff as the serve cache: a wasted read, never a
        // blocked one); the loser's charge is returned.
        if let Some(hit) = lru.get(&key) {
            self.budget.release(bytes);
            return Ok(hit.seg);
        }
        lru.insert(key, Entry { seg: Arc::clone(&cols), bytes });
        Ok(cols)
    }
}

/// A store read failure as the replay reports it: a damaged segment
/// names itself; any other failure means the footer index lied.
fn store_error(e: StoreError) -> ReplayError {
    match e {
        StoreError::SegmentDamaged { .. } => ReplayError::Store(e),
        e => ReplayError::Store(StoreError::FooterDamaged { detail: e.to_string() }),
    }
}

impl Input {
    /// A `TIB2` store read through `cache`: strict, so the first
    /// damaged segment stops the replay with a typed
    /// [`ReplayError::Store`] and an unmeetable budget with
    /// [`ReplayError::Memory`]. Checkpoints bind to the store's footer
    /// hash ([`Tib2Store::fingerprint`]): a checkpoint taken against one
    /// store refuses to resume against a store whose content differs.
    pub fn store(cache: &Arc<SegmentCache>) -> Self {
        let limits = (0..cache.store().num_ranks()).map(|rank| cache.store().num_segments(rank));
        Input::trimmed_store(cache, limits.collect(), Vec::new())
    }

    /// The `--degraded` scan of a `TIB2` store: verifies every segment
    /// first (O(one segment) memory) and trims each damaged rank at its
    /// last verified segment boundary. The footer index gives the exact
    /// action count of every trimmed segment, so the completeness ratio
    /// is exact. The store must have opened (head, trailer, footer
    /// intact) — an index-less store has no salvage boundary and fails
    /// closed upstream.
    pub fn salvage_store(cache: &Arc<SegmentCache>) -> Self {
        let store = cache.store();
        let mut limits = Vec::with_capacity(store.num_ranks());
        let mut ranks = Vec::new();
        for rank in 0..store.num_ranks() {
            let nsegs = store.num_segments(rank);
            let damaged = (0..nsegs)
                .find_map(|seg| store.verify_segment(rank, seg).err().map(|e| (seg, e)));
            let Some((seg, e)) = damaged else {
                limits.push(nsegs);
                continue;
            };
            let kept: u64 = (0..seg)
                .filter_map(|s| store.segment_meta(rank, s))
                .map(|m| u64::from(m.n_actions))
                .sum();
            ranks.push(RankDegradation {
                rank,
                reason: DegradationReason::DamagedSegment,
                actions_kept: kept,
                lines_trimmed: store.rank_actions(rank) - kept,
                detail: e.to_string(),
            });
            limits.push(seg);
        }
        Input::trimmed_store(cache, limits, ranks)
    }

    fn trimmed_store(
        cache: &Arc<SegmentCache>,
        limits: Vec<usize>,
        damage: Vec<RankDegradation>,
    ) -> Self {
        let cursors = limits
            .into_iter()
            .enumerate()
            .map(|(rank, limit)| Cursor::store(Arc::clone(cache), rank, limit))
            .collect();
        let store = cache.store();
        Input { damage, ..Input::new(cursors, store.num_actions(), store.fingerprint()) }
    }
}

/// The store input over a shared cache ([`Input::store`]).
#[must_use]
pub fn store_sources(cache: &Arc<SegmentCache>) -> Input {
    Input::store(cache)
}

/// Replays a `TIB2` store under a memory budget: [`Replay`] over
/// [`Input::store`]. On a clean store the simulated time is
/// bit-identical to the fully-resident [`crate::replay_compact`] path.
pub fn replay_store(
    store: &Arc<Tib2Store>,
    budget: Arc<MemBudget>,
    platform: Platform,
    hosts: &[HostId],
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    let cache = Arc::new(SegmentCache::new(Arc::clone(store), budget));
    Replay::new(Input::store(&cache), platform, hosts, cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{Status, Stop};
    use crate::testkit::{busy_trace, mycluster, plain_cfg, tmp_dir};
    use crate::ReplayCheckpoint;
    use tit_core::tib2::write_compact_atomic;
    use tit_core::CompactTrace;

    fn tmp_store(tag: &str, iters: usize, seg: usize) -> (std::path::PathBuf, Arc<Tib2Store>) {
        let d = tmp_dir(tag);
        let trace = CompactTrace::from_trace(&busy_trace(iters)).unwrap();
        write_compact_atomic(&d.join("trace.tib2"), &trace, seg).unwrap();
        let store = Arc::new(Tib2Store::open(&d.join("trace.tib2")).unwrap());
        (d, store)
    }

    fn cache(store: &Arc<Tib2Store>, budget: MemBudget) -> Arc<SegmentCache> {
        Arc::new(SegmentCache::new(Arc::clone(store), Arc::new(budget)))
    }

    /// Flips one bit inside segment `seg` of `rank`, `at` bytes in.
    fn damage(
        d: &std::path::Path,
        rank: usize,
        seg: usize,
        at: usize,
        bit: u8,
    ) -> (Arc<Tib2Store>, u64) {
        let path = d.join("trace.tib2");
        let offset = Tib2Store::open(&path).unwrap().segment_meta(rank, seg).unwrap().offset;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset as usize + at] ^= bit;
        std::fs::write(&path, &bytes).unwrap();
        (Arc::new(Tib2Store::open(&path).unwrap()), offset)
    }

    #[test]
    fn tight_budget_still_replays_exactly() {
        let (d, store) = tmp_store("tight", 60, 32);
        let biggest = (0..4)
            .flat_map(|r| (0..store.num_segments(r)).map(move |s| (r, s)))
            .map(|(r, s)| store.segment_meta(r, s).unwrap().decoded_bytes())
            .max()
            .unwrap();
        // Room for ~6 decoded segments: forces heavy evict/re-fault.
        let cache = cache(&store, MemBudget::new(6 * biggest));
        let (p, h) = mycluster(4);
        let out = Replay::new(Input::store(&cache), p, &h, &plain_cfg()).run().unwrap();
        assert!(matches!(out.status, Status::Finished { .. }));
        assert!(cache.eviction_count() > 0, "budget never forced an eviction");
        let total_segments: u64 =
            (0..store.num_ranks()).map(|r| store.num_segments(r) as u64).sum();
        // A replay is one pass per rank: every segment faults exactly
        // once even as the budget churns the cache behind the cursor.
        assert_eq!(cache.fault_count(), total_segments);
        assert!(cache.budget().peak() <= cache.budget().cap());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn evicted_segments_refault_and_reverify() {
        let (d, store) = tmp_store("refault", 200, 32);
        assert!(store.num_segments(0) >= 4);
        let one_seg = store.segment_meta(0, 0).unwrap().decoded_bytes();
        // Room for about two decoded segments.
        let budget = Arc::new(MemBudget::new(2 * one_seg + one_seg / 2));
        let cache = SegmentCache::new(Arc::clone(&store), budget);
        drop(cache.segment(0, 0).unwrap());
        drop(cache.segment(0, 1).unwrap());
        drop(cache.segment(0, 2).unwrap()); // evicts segment 0
        assert!(cache.eviction_count() > 0);
        drop(cache.segment(0, 0).unwrap()); // dropped: must re-fault
        assert_eq!(cache.fault_count(), 4, "3 distinct segments + 1 re-fault");
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// The eviction rule as a scan of every resident segment: the
    /// oldest touch among those nobody pins goes first.
    #[derive(Default)]
    struct ScanOracle {
        cap: u64,
        used: u64,
        clock: u64,
        /// Resident segments: key, decoded bytes, last touch.
        resident: Vec<((usize, usize), u64, u64)>,
        faults: u64,
        evicted: Vec<(usize, usize)>,
    }

    impl ScanOracle {
        /// Requests `key`; false when everything evictable is gone and
        /// it still does not fit.
        fn request(&mut self, key: (usize, usize), bytes: u64, pinned: &[(usize, usize)]) -> bool {
            self.clock += 1;
            if let Some(e) = self.resident.iter_mut().find(|e| e.0 == key) {
                e.2 = self.clock;
                return true;
            }
            while self.used + bytes > self.cap {
                let victim = (0..self.resident.len())
                    .filter(|&i| !pinned.contains(&self.resident[i].0))
                    .min_by_key(|&i| self.resident[i].2);
                let Some(i) = victim else { return false };
                let (k, b, _) = self.resident.swap_remove(i);
                self.used -= b;
                self.evicted.push(k);
            }
            self.used += bytes;
            self.clock += 1;
            self.resident.push((key, bytes, self.clock));
            self.faults += 1;
            true
        }
    }

    proptest::proptest! {
        /// Under a budget of about three segments, random requests with
        /// pins held and dropped evict the segments a full scan picks,
        /// in its order, and leave the same residents in the same touch
        /// order, with the same fault and eviction counts.
        #[test]
        fn eviction_index_picks_the_full_scans_victims(
            ops in proptest::collection::vec((0usize..4, 0usize..64, 0u8..4), 1..120),
        ) {
            let (d, store) = tmp_store("victims", 40, 32);
            let one = store.segment_meta(0, 0).unwrap().decoded_bytes();
            let cache = cache(&store, MemBudget::new(3 * one));
            let mut oracle = ScanOracle { cap: 3 * one, ..ScanOracle::default() };
            let mut pins: Vec<((usize, usize), Arc<SegmentColumns>)> = Vec::new();
            for (rank, seg, pin) in ops {
                let key = (rank, seg % store.num_segments(rank));
                let bytes = store.segment_meta(key.0, key.1).unwrap().decoded_bytes();
                let pinned: Vec<(usize, usize)> = pins.iter().map(|p| p.0).collect();
                let before: Vec<(usize, usize)> =
                    cache.lru.lock().unwrap().keys().copied().collect();
                let evicted = oracle.evicted.len();
                let fits = oracle.request(key, bytes, &pinned);
                let got = cache.segment(key.0, key.1);
                proptest::prop_assert_eq!(got.is_ok(), fits);
                match (got, pin) {
                    (Ok(seg), 0) => pins.push((key, seg)),
                    (Err(e), _) => {
                        proptest::prop_assert!(matches!(e, ReplayError::Memory(_)), "{e}");
                    }
                    _ => {}
                }
                if pin == 3 && !pins.is_empty() {
                    pins.remove(0);
                }
                let lru = cache.lru.lock().unwrap();
                let mut want = oracle.resident.clone();
                want.sort_by_key(|e| e.2);
                let order: Vec<(usize, usize)> = lru.keys().copied().collect();
                let want: Vec<(usize, usize)> = want.iter().map(|e| e.0).collect();
                let gone: Vec<(usize, usize)> =
                    before.into_iter().filter(|k| !order.contains(k)).collect();
                proptest::prop_assert_eq!(&gone[..], &oracle.evicted[evicted..]);
                proptest::prop_assert_eq!(lru.len(), order.len());
                proptest::prop_assert_eq!(order, want);
                proptest::prop_assert_eq!(cache.fault_count(), oracle.faults);
                proptest::prop_assert_eq!(cache.eviction_count(), oracle.evicted.len() as u64);
            }
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn impossible_budget_is_typed_refusal() {
        let (d, store) = tmp_store("oom", 20, 32);
        let (p, h) = mycluster(4);
        // Fewer bytes than one segment: nothing can ever be resident.
        let err = replay_store(&store, Arc::new(MemBudget::new(64)), p, &h, &plain_cfg())
            .unwrap_err();
        match err {
            ReplayError::Memory(m) => assert_eq!(m.budget, 64),
            other => panic!("expected Memory, got {other}"),
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// Damage tolerance does not make a budget refusal damage: over the
    /// strict store input an impossible budget is still a typed
    /// `Memory` error, while a damaged segment stops the run as damage
    /// naming the segment.
    #[test]
    fn tolerant_store_replay_refuses_budgets_and_reports_damage() {
        let (d, store) = tmp_store("tolerant", 40, 64);
        let run = |store: &Arc<Tib2Store>, budget| {
            let (p, h) = mycluster(4);
            let input = Input::store(&cache(store, budget));
            Replay::new(input, p, &h, &plain_cfg()).tolerate_damage(true).run()
        };
        match run(&store, MemBudget::new(64)) {
            Err(ReplayError::Memory(m)) => assert_eq!(m.budget, 64),
            other => panic!("expected Memory, got {other:?}"),
        }
        let (store, offset) = damage(&d, 2, 1, 20, 0x40);
        let out = run(&store, MemBudget::unlimited()).unwrap();
        assert_eq!(out.status, Status::Stopped(Stop::Damaged));
        let detail = out.failure.unwrap();
        let want = format!("TIB2 segment damaged: rank 2 segment 1 at offset {offset}: ");
        assert!(detail.contains(&want), "{detail}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn damaged_segment_is_typed_and_fail_closed() {
        let (d, _) = tmp_store("damaged", 40, 64);
        let (store, offset) = damage(&d, 2, 1, 20, 0x40);
        let (p, h) = mycluster(4);
        let err = replay_store(&store, Arc::new(MemBudget::unlimited()), p, &h, &plain_cfg())
            .unwrap_err();
        match err {
            ReplayError::Store(StoreError::SegmentDamaged { rank, segment, offset: at, .. }) => {
                assert_eq!((rank, segment, at), (2, 1, offset));
            }
            other => panic!("expected SegmentDamaged, got {other}"),
        }
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn salvage_trims_at_segment_granularity_with_exact_ratio() {
        let (d, clean) = tmp_store("salvage", 60, 64);
        let kept_exact: u64 =
            (0..3).map(|s| u64::from(clean.segment_meta(2, s).unwrap().n_actions)).sum();
        drop(clean);
        let (store, _) = damage(&d, 2, 3, 24, 0x01);
        let (p, h) = mycluster(4);
        let input = Input::salvage_store(&cache(&store, MemBudget::unlimited()));
        let out = Replay::new(input, p, &h, &plain_cfg()).tolerate_damage(true).run().unwrap();
        assert!(out.is_partial());
        assert!(out.completeness() < 1.0);
        assert_eq!(out.ranks.len(), 1);
        let r = &out.ranks[0];
        assert_eq!(r.rank, 2);
        assert_eq!(r.reason, DegradationReason::DamagedSegment);
        assert_eq!(r.actions_kept, kept_exact);
        assert_eq!(r.actions_kept + r.lines_trimmed, store.rank_actions(2));
        assert_eq!(out.actions_expected, store.num_actions());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn store_checkpoint_binds_to_footer_hash() {
        let (da, store_a) = tmp_store("ck-a", 20, 16);
        // Same platform/config, different trace content.
        let (db, store_b) = tmp_store("ck-b", 21, 16);
        assert_ne!(store_a.fingerprint(), store_b.fingerprint());
        let ckpath = da.join("state.tick");
        let (p, h) = mycluster(4);
        let input = Input::store(&cache(&store_a, MemBudget::unlimited()));
        let first = Replay::new(input, p, &h, &plain_cfg())
            .checkpoint(Some(ckpath.clone()))
            .pause_every(50)
            .stop_after(Some(1))
            .run()
            .unwrap();
        assert_eq!(first.status, Status::Stopped(Stop::StopAfter));
        let resume = |store: &Arc<Tib2Store>| {
            let (p, h) = mycluster(4);
            let ck = ReplayCheckpoint::load(&ckpath).unwrap();
            Replay::new(Input::store(&cache(store, MemBudget::unlimited())), p, &h, &plain_cfg())
                .resume(Some(ck))
                .run()
        };
        // Resuming against the other store fails closed.
        let err = resume(&store_b).unwrap_err();
        assert!(matches!(err, ReplayError::Checkpoint { .. }), "{err}");
        // Resuming against the original store finishes bit-identically
        // to the uninterrupted store replay.
        let (p, h) = mycluster(4);
        let reference =
            replay_store(&store_a, Arc::new(MemBudget::unlimited()), p, &h, &plain_cfg()).unwrap();
        let resumed = resume(&store_a).unwrap();
        assert_eq!(
            resumed.status,
            Status::Finished { simulated_time: reference.simulated_time }
        );
        std::fs::remove_dir_all(&da).unwrap();
        std::fs::remove_dir_all(&db).unwrap();
    }
}
