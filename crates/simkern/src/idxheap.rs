//! Indexed binary min-heap: `usize` keys with `f64` priorities,
//! O(log n) decrease/increase-key, and *stale* entries for lazy
//! re-keying (docs/KERNEL.md §3).
//!
//! The engine keeps one predicted completion time per running activity;
//! when the solver changes an activity's rate, its prediction is
//! *updated in place* instead of pushing a stale duplicate — keeping the
//! event queue at O(active activities) regardless of how often rates
//! change.
//!
//! # Ordering
//!
//! Entries are ordered by `(priority, key)` lexicographically — a
//! *total* order, so the pop sequence is a pure function of the entry
//! set, independent of insertion history or internal array layout.
//! That totality is what lets the lazy path below provably reproduce
//! the eager pop order: with layout-dependent tie-breaking, deferring
//! an update could permute equal-priority pops.
//!
//! # Stale entries (lazy re-keying)
//!
//! Re-keying every activity after every rate change is the dominant
//! heap cost at scale, and most of it is wasted: a rate *decrease*
//! pushes the completion further away, and the activity's rate usually
//! changes again before that date arrives. [`mark_stale`] records that
//! an entry's priority is outdated **but still a lower bound** on the
//! true value (the caller guarantees the true priority only moved up).
//! The entry keeps its position; consumers that pop must *refresh*
//! stale entries when they surface at the heap top ([`is_stale`] →
//! recompute → [`set`]). Since a stale priority is a lower bound, no
//! smaller fresh entry can be hidden below it — refreshing only at the
//! top is sound, and the observed pop sequence is identical to eager
//! re-keying.
//!
//! [`mark_stale`]: IndexedHeap::mark_stale
//! [`is_stale`]: IndexedHeap::is_stale
//! [`set`]: IndexedHeap::set

/// Min-heap over (key → priority) with in-place updates and lazy
/// (stale) entries.
#[derive(Debug, Default)]
pub struct IndexedHeap {
    /// Heap array of (priority, key), ordered by (priority, key).
    heap: Vec<(f64, usize)>,
    /// `pos[key]` = index in `heap`, or `usize::MAX` when absent.
    pos: Vec<usize>,
    /// `stale[key]`: the stored priority is a lower bound, not the
    /// truth. Always false for absent keys.
    stale: Vec<bool>,
}

const ABSENT: usize = usize::MAX;

/// Lexicographic (priority, key) comparison. NaN priorities are
/// rejected at insertion, so `<` on the floats is a total order here.
#[inline]
fn lt(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl IndexedHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True when `key` is currently queued.
    pub fn contains(&self, key: usize) -> bool {
        self.pos.get(key).is_some_and(|&p| p != ABSENT)
    }

    /// Smallest (priority, key) entry, if any. May be stale — check
    /// [`is_stale`](Self::is_stale) before trusting the priority.
    pub fn peek(&self) -> Option<(f64, usize)> {
        self.heap.first().copied()
    }

    /// The stored priority of `key`, if present.
    pub fn priority(&self, key: usize) -> Option<f64> {
        let &p = self.pos.get(key)?;
        (p != ABSENT).then(|| self.heap[p].0)
    }

    /// Inserts or updates `key` with `priority`, clearing any stale
    /// mark: after `set`, the stored priority is the truth.
    pub fn set(&mut self, key: usize, priority: f64) {
        debug_assert!(!priority.is_nan());
        if key >= self.pos.len() {
            self.pos.resize(key + 1, ABSENT);
            self.stale.resize(key + 1, false);
        }
        self.stale[key] = false;
        let item = (priority, key);
        let p = self.pos[key];
        if p == ABSENT {
            self.heap.push(item);
            self.sift_up(self.heap.len() - 1, item);
        } else if lt(item, self.heap[p]) {
            self.sift_up(p, item);
        } else {
            self.sift_down(p, item);
        }
    }

    /// Marks a present `key` as stale: its stored priority is no longer
    /// exact but remains a **lower bound** on the true priority (the
    /// caller must guarantee the true value only moved up, e.g. a rate
    /// decrease pushing a completion later). Returns `true` when the
    /// key was present and not already stale.
    pub fn mark_stale(&mut self, key: usize) -> bool {
        if !self.contains(key) || self.stale[key] {
            return false;
        }
        self.stale[key] = true;
        true
    }

    /// True when `key` is present and marked stale.
    pub fn is_stale(&self, key: usize) -> bool {
        self.stale.get(key) == Some(&true)
    }

    /// Removes `key` if present.
    pub fn remove(&mut self, key: usize) {
        let Some(&p) = self.pos.get(key) else { return };
        if p == ABSENT {
            return;
        }
        self.unlist(key);
        // The last entry fills the hole at `p`: it moves up if it is
        // smaller than the hole's parent, else down.
        let Some(last) = self.heap.pop() else { return };
        if p == self.heap.len() {
            return;
        }
        if p > 0 && lt(last, self.heap[(p - 1) / 2]) {
            self.sift_up(p, last);
        } else {
            self.sift_down(p, last);
        }
    }

    /// Pops the minimum (priority, key). Callers running the lazy
    /// discipline must refresh stale tops first; popping a stale entry
    /// would deliver a lower bound as if it were the true priority.
    ///
    /// The hole at the root moves down the smaller-child path to a leaf,
    /// one comparison per level, and the last entry sifts up from there.
    pub fn pop(&mut self) -> Option<(f64, usize)> {
        let top = *self.heap.first()?;
        debug_assert!(!self.stale[top.1], "popping a stale heap entry");
        self.unlist(top.1);
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(top);
        }
        let mut i = 0;
        while let Some(c) = self.min_child(i) {
            self.place(i, self.heap[c]);
            i = c;
        }
        self.sift_up(i, last);
        Some(top)
    }

    /// Marks a present `key` absent and clears its stale mark.
    fn unlist(&mut self, key: usize) {
        self.stale[key] = false;
        self.pos[key] = ABSENT;
    }

    /// Writes `item` at index `i` and records its position.
    #[inline]
    fn place(&mut self, i: usize, item: (f64, usize)) {
        self.heap[i] = item;
        self.pos[item.1] = i;
    }

    /// Fills the hole at `i` with `item`, moving the hole up past every
    /// larger parent first. Each moved entry is written once.
    fn sift_up(&mut self, mut i: usize, item: (f64, usize)) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !lt(item, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    /// Fills the hole at `i` with `item`, moving the hole down past
    /// every smaller child first (the smaller of two children moves).
    fn sift_down(&mut self, mut i: usize, item: (f64, usize)) {
        while let Some(c) = self.min_child(i) {
            if !lt(self.heap[c], item) {
                break;
            }
            self.place(i, self.heap[c]);
            i = c;
        }
        self.place(i, item);
    }

    /// The smaller child of `i`, if `i` has children.
    #[inline]
    fn min_child(&self, i: usize) -> Option<usize> {
        let (l, len) = (2 * i + 1, self.heap.len());
        (l < len).then(|| if l + 1 < len && lt(self.heap[l + 1], self.heap[l]) { l + 1 } else { l })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut h = IndexedHeap::new();
        for (k, p) in [(3, 5.0), (1, 2.0), (7, 9.0), (2, 1.0)] {
            h.set(k, p);
        }
        assert_eq!(h.pop(), Some((1.0, 2)));
        assert_eq!(h.pop(), Some((2.0, 1)));
        assert_eq!(h.pop(), Some((5.0, 3)));
        assert_eq!(h.pop(), Some((9.0, 7)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn ties_pop_in_key_order() {
        // Total (priority, key) order: layout-independent tie-breaking.
        let mut h = IndexedHeap::new();
        for k in [9usize, 3, 12, 1, 7] {
            h.set(k, 4.0);
        }
        let mut seen = Vec::new();
        while let Some((_, k)) = h.pop() {
            seen.push(k);
        }
        assert_eq!(seen, vec![1, 3, 7, 9, 12]);
    }

    #[test]
    fn update_moves_both_directions() {
        let mut h = IndexedHeap::new();
        h.set(0, 10.0);
        h.set(1, 20.0);
        h.set(2, 30.0);
        h.set(2, 5.0); // decrease
        assert_eq!(h.peek(), Some((5.0, 2)));
        h.set(2, 25.0); // increase
        assert_eq!(h.pop(), Some((10.0, 0)));
        assert_eq!(h.pop(), Some((20.0, 1)));
        assert_eq!(h.pop(), Some((25.0, 2)));
    }

    #[test]
    fn remove_arbitrary_key() {
        let mut h = IndexedHeap::new();
        for k in 0..10usize {
            h.set(k, k as f64);
        }
        h.remove(0);
        h.remove(5);
        h.remove(9);
        assert!(!h.contains(5));
        assert!(h.contains(4));
        let mut seen = Vec::new();
        while let Some((_, k)) = h.pop() {
            seen.push(k);
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 6, 7, 8]);
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut h = IndexedHeap::new();
        h.set(1, 1.0);
        h.remove(99);
        h.remove(1);
        h.remove(1);
        assert!(h.is_empty());
    }

    #[test]
    fn stale_marks_and_refresh() {
        let mut h = IndexedHeap::new();
        h.set(0, 1.0);
        h.set(1, 2.0);
        assert!(h.mark_stale(0));
        assert!(!h.mark_stale(0), "already stale");
        assert!(!h.mark_stale(42), "absent");
        assert!(h.is_stale(0) && !h.is_stale(1));
        assert_eq!(h.peek(), Some((1.0, 0)), "stale entry keeps its lower bound");
        // Refresh: the true priority moved up past key 1.
        h.set(0, 3.0);
        assert!(!h.is_stale(0));
        assert_eq!(h.pop(), Some((2.0, 1)));
        assert_eq!(h.pop(), Some((3.0, 0)));
    }

    #[test]
    fn stale_cleared_on_remove_and_set() {
        let mut h = IndexedHeap::new();
        for k in 0..4usize {
            h.set(k, k as f64);
        }
        h.mark_stale(1);
        h.mark_stale(3);
        h.remove(1);
        assert!(!h.is_stale(1));
        h.set(1, 1.0);
        assert!(!h.is_stale(1), "a re-inserted key starts fresh");
        assert!(h.is_stale(3));
        h.set(3, 10.0);
        assert!(!h.is_stale(3));
    }

    #[test]
    fn lazy_pop_order_matches_eager() {
        // Simulate lazy-vs-eager: true priorities are known; the lazy
        // heap defers increases via mark_stale and refreshes at top.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut eager = IndexedHeap::new();
        let mut lazy = IndexedHeap::new();
        let mut truth = vec![0.0f64; 64];
        for (k, t) in truth.iter_mut().enumerate() {
            *t = rng.random_range(0.0..100.0);
            eager.set(k, *t);
            lazy.set(k, *t);
        }
        // Raise some priorities: eager re-keys, lazy only marks.
        for _ in 0..40 {
            let k = rng.random_range(0..truth.len());
            let bump: f64 = rng.random_range(0.0..50.0);
            truth[k] += bump;
            eager.set(k, truth[k]);
            lazy.mark_stale(k);
        }
        loop {
            // Refresh the lazy top until it is fresh.
            while let Some((_, k)) = lazy.peek() {
                if lazy.is_stale(k) {
                    lazy.set(k, truth[k]);
                } else {
                    break;
                }
            }
            let a = eager.pop();
            let b = lazy.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    proptest::proptest! {
        /// Random `set`, `remove`, `pop` and `mark_stale` sequences
        /// against a sorted list of the same entries: every pop is the
        /// list's head, and every key's `pos` names its array slot.
        /// Priorities come from a small set, so many entries tie and
        /// order by key; stale tops are refreshed before a pop, as the
        /// engine does.
        #[test]
        fn tie_heavy_ops_match_a_sorted_reference(
            ops in proptest::collection::vec((0u8..8, 0usize..48, 0u8..12), 1..400),
        ) {
            let mut h = IndexedHeap::new();
            let mut sorted: Vec<(f64, usize)> = Vec::new();
            let put = |sorted: &mut Vec<(f64, usize)>, key: usize, prio: Option<f64>| {
                sorted.retain(|&(_, k)| k != key);
                if let Some(p) = prio {
                    let at = sorted.partition_point(|&e| lt(e, (p, key)));
                    sorted.insert(at, (p, key));
                }
            };
            for (op, key, prio) in ops {
                let prio = f64::from(prio) * 0.5;
                match op {
                    0..=3 => {
                        h.set(key, prio);
                        put(&mut sorted, key, Some(prio));
                    }
                    4 => {
                        h.remove(key);
                        put(&mut sorted, key, None);
                    }
                    5 => {
                        h.mark_stale(key);
                    }
                    _ => {
                        while let Some((p, k)) = h.peek().filter(|&(_, k)| h.is_stale(k)) {
                            h.set(k, p + prio);
                            put(&mut sorted, k, Some(p + prio));
                        }
                        let want = (!sorted.is_empty()).then(|| sorted.remove(0));
                        proptest::prop_assert_eq!(h.pop(), want);
                    }
                }
                proptest::prop_assert_eq!(h.len(), sorted.len());
                for (k, &p) in h.pos.iter().enumerate() {
                    let listed = sorted.iter().any(|&(_, s)| s == k);
                    proptest::prop_assert!((p != ABSENT) == listed, "key {} at {}", k, p);
                    if p != ABSENT {
                        proptest::prop_assert_eq!(h.heap[p].1, k);
                    }
                }
            }
        }
    }

    #[test]
    fn randomized_against_reference() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut h = IndexedHeap::new();
        let mut reference: std::collections::HashMap<usize, f64> =
            std::collections::HashMap::new();
        for _ in 0..2000 {
            let key = rng.random_range(0..50usize);
            match rng.random_range(0..3u8) {
                0 | 1 => {
                    let p: f64 = rng.random_range(0.0..100.0);
                    h.set(key, p);
                    reference.insert(key, p);
                }
                _ => {
                    h.remove(key);
                    reference.remove(&key);
                }
            }
            // Heap min equals reference min (priority, key).
            let want = reference
                .iter()
                .map(|(&k, &p)| (p, k))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(h.peek(), want);
            assert_eq!(h.len(), reference.len());
        }
    }
}
