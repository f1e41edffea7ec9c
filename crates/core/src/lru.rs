//! The workspace's one least-recently-used cache.
//!
//! Two users: the serving layer keeps parsed traces and open stores in
//! memory, keyed by a content fingerprint (the `TICK1` FNV-1a-64 of
//! [`crate::checkpoint::fnv1a`]), so that a thousand what-if requests
//! against one bundle parse it once; and the replay's segment cache
//! keeps decoded `TIB2` segments under a byte budget, evicting the
//! least recently used one nobody holds
//! ([`pop_lru_where`](Lru::pop_lru_where)).
//!
//! A `HashMap` holds the entries, each with a monotonic recency stamp,
//! and a deque holds one `(stamp, key)` record per entry in ascending
//! stamp: the eviction order. A touch moves its record from its place,
//! found by binary search on the sorted stamps, to the back; the victim
//! comes off the front. Stamps are unique, so the order is
//! deterministic whatever the map's iteration order.
//!
//! Values are returned by clone; callers store `Arc`s so a hit is a
//! refcount bump and an evicted entry stays alive for whoever holds it.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Least-recently-used cache with a fixed capacity.
#[derive(Debug)]
pub struct Lru<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
    /// One `(stamp, key)` record per entry, in ascending stamp.
    order: VecDeque<(u64, K)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An empty cache holding at most `cap` entries (`cap == 0` caches
    /// nothing: every insert is immediately evicted).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Lru { cap, tick: 0, map: HashMap::new(), order: VecDeque::new() }
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The cached keys, least recently used first.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.order.iter().map(|(_, k)| k)
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let (stamp, v) = self.map.get_mut(key)?;
        unlink(&mut self.order, *stamp);
        *stamp = self.tick;
        self.order.push_back((self.tick, key.clone()));
        Some(v.clone())
    }

    /// True when `key` is cached; does **not** touch recency.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key → value` as most-recently-used, evicting the least
    /// recently used entry when over capacity. Returns the evicted
    /// pair, if any (the new entry itself when `cap == 0`).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        if let Some((stamp, _)) = self.map.insert(key.clone(), (self.tick, value)) {
            unlink(&mut self.order, stamp);
        }
        self.order.push_back((self.tick, key));
        if self.map.len() > self.cap {
            self.pop_lru_where(|_| true)
        } else {
            None
        }
    }

    /// Removes and returns the least recently used entry whose value
    /// satisfies `pred`, or `None` when no entry does. Recency is not
    /// touched.
    pub fn pop_lru_where(&mut self, mut pred: impl FnMut(&V) -> bool) -> Option<(K, V)> {
        let map = &self.map;
        let i = self.order.iter().position(|(_, k)| map.get(k).is_some_and(|(_, v)| pred(v)))?;
        let (_, k) = self.order.remove(i)?;
        let (_, v) = self.map.remove(&k)?;
        Some((k, v))
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// Removes the record stamped `stamp` from the stamp-sorted `order`.
fn unlink<K>(order: &mut VecDeque<(u64, K)>, stamp: u64) {
    if let Ok(i) = order.binary_search_by_key(&stamp, |&(t, _)| t) {
        order.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_len() {
        let mut c: Lru<u64, &str> = Lru::new(2);
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        assert_eq!(c.insert(1, "one"), None);
        assert_eq!(c.insert(2, "two"), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some("one"));
        assert!(c.contains(&2));
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: Lru<u64, u64> = Lru::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 is the LRU entry.
        assert_eq!(c.get(&1), Some(10));
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(c.contains(&1) && c.contains(&3) && !c.contains(&2));
    }

    #[test]
    fn reinsert_refreshes_recency_and_value() {
        let mut c: Lru<u64, u64> = Lru::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh: 2 becomes LRU
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c: Lru<u64, u64> = Lru::new(0);
        assert_eq!(c.insert(1, 10), Some((1, 10)));
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn contains_does_not_refresh() {
        let mut c: Lru<u64, u64> = Lru::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.contains(&1)); // no recency bump
        assert_eq!(c.insert(3, 30), Some((1, 10)), "1 stayed LRU");
    }

    #[test]
    fn clear_empties() {
        let mut c: Lru<u64, u64> = Lru::new(4);
        c.insert(1, 1);
        c.insert(2, 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        assert_eq!(c.keys().count(), 0);
    }

    #[test]
    fn eviction_order_is_deterministic_over_many_entries() {
        // Insert 100, capacity 10: survivors must be exactly the last 10.
        let mut c: Lru<u64, u64> = Lru::new(10);
        for i in 0..100u64 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 10);
        for i in 90..100 {
            assert!(c.contains(&i), "entry {i} must survive");
        }
        for i in 0..90 {
            assert!(!c.contains(&i), "entry {i} must be evicted");
        }
    }

    #[test]
    fn pop_lru_where_skips_what_the_predicate_refuses() {
        let mut c: Lru<u64, u64> = Lru::new(8);
        for i in 0..4u64 {
            c.insert(i, i * 10);
        }
        c.get(&0); // order now 1, 2, 3, 0
        assert_eq!(c.pop_lru_where(|&v| v != 10), Some((2, 20)));
        assert_eq!(c.pop_lru_where(|&v| v > 100), None);
        assert_eq!(c.keys().copied().collect::<Vec<_>>(), [1, 3, 0]);
        assert_eq!(c.pop_lru_where(|_| true), Some((1, 10)));
        assert_eq!(c.len(), 2);
    }

    proptest::proptest! {
        /// Random gets, inserts and predicate pops agree with a model
        /// that keeps the keys in a list, least recently used first.
        #[test]
        fn matches_a_list_model(
            cap in 0usize..6,
            ops in proptest::collection::vec((0u8..3, 0u64..8), 1..200),
        ) {
            let mut c: Lru<u64, u64> = Lru::new(cap);
            let mut model: Vec<(u64, u64)> = Vec::new();
            for (i, (op, k)) in ops.into_iter().enumerate() {
                match op {
                    0 => {
                        let want = model.iter().position(|e| e.0 == k).map(|p| {
                            let e = model.remove(p);
                            model.push(e);
                            e.1
                        });
                        proptest::prop_assert_eq!(c.get(&k), want);
                    }
                    1 => {
                        model.retain(|e| e.0 != k);
                        model.push((k, i as u64));
                        let want = (model.len() > cap).then(|| model.remove(0));
                        proptest::prop_assert_eq!(c.insert(k, i as u64), want);
                    }
                    _ => {
                        let hit = model.iter().position(|e| e.1 % 3 == k % 3);
                        let want = hit.map(|p| model.remove(p));
                        proptest::prop_assert_eq!(c.pop_lru_where(|v| v % 3 == k % 3), want);
                    }
                }
                let keys: Vec<u64> = c.keys().copied().collect();
                let want: Vec<u64> = model.iter().map(|e| e.0).collect();
                proptest::prop_assert_eq!(keys, want);
                proptest::prop_assert_eq!(c.len(), model.len());
                let stamps: Vec<u64> = c.order.iter().map(|r| r.0).collect();
                proptest::prop_assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{:?}", stamps);
                for &(t, k) in &c.order {
                    proptest::prop_assert_eq!(c.map[&k].0, t);
                }
            }
        }
    }
}
