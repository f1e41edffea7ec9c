//! A minimal slab allocator: stable `usize` keys, O(1) insert/remove.
//!
//! Used by the engine and the LMM solver to keep activity and variable
//! identifiers stable while entries come and go. Implemented in-tree to
//! keep the kernel dependency-free.

/// Slot-map with free-list reuse of vacated indices.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<usize>,
    len: usize,
}

#[derive(Debug, Clone)]
enum Entry<T> {
    Occupied(T),
    Vacant,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab { entries: Vec::new(), free: Vec::new(), len: 0 }
    }

    /// Creates an empty slab with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Slab { entries: Vec::with_capacity(cap), free: Vec::new(), len: 0 }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots, occupied or vacant: every key is below it.
    pub fn slot_count(&self) -> usize {
        self.entries.len()
    }

    /// Inserts a value, returning its key.
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            self.entries[idx] = Entry::Occupied(value);
            idx
        } else {
            self.entries.push(Entry::Occupied(value));
            self.entries.len() - 1
        }
    }

    /// Removes and returns the value at `key`, or `None` when the slot
    /// is vacant or out of bounds. Never panics: callers holding a key
    /// whose occupancy is an invariant spell that out with `expect`.
    pub fn try_remove(&mut self, key: usize) -> Option<T> {
        match self.entries.get_mut(key) {
            Some(e @ Entry::Occupied(_)) => match std::mem::replace(e, Entry::Vacant) {
                Entry::Occupied(v) => {
                    self.free.push(key);
                    self.len -= 1;
                    Some(v)
                }
                Entry::Vacant => unreachable!(),
            },
            _ => None,
        }
    }

    /// Returns a reference to the value at `key`, if occupied.
    pub fn get(&self, key: usize) -> Option<&T> {
        match self.entries.get(key) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Returns a mutable reference to the value at `key`, if occupied.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        match self.entries.get_mut(key) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// True when `key` refers to an occupied slot.
    pub fn contains(&self, key: usize) -> bool {
        matches!(self.entries.get(key), Some(Entry::Occupied(_)))
    }

    /// Iterates over `(key, &value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied(v) => Some((i, v)),
            Entry::Vacant => None,
        })
    }

    /// Iterates over `(key, &mut value)` pairs in key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        self.entries.iter_mut().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied(v) => Some((i, v)),
            Entry::Vacant => None,
        })
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free.clear();
        self.len = 0;
    }

    /// Iterates over every slot in index order, vacant ones as `None`.
    ///
    /// Checkpoint support: together with [`free_list`](Self::free_list)
    /// this exposes the *exact* internal layout, so a snapshot restored
    /// with [`from_raw`](Self::from_raw) reuses freed indices in the
    /// same order as the original — a requirement for bit-identical
    /// resumed simulations.
    pub fn slots(&self) -> impl Iterator<Item = Option<&T>> {
        self.entries.iter().map(|e| match e {
            Entry::Occupied(v) => Some(v),
            Entry::Vacant => None,
        })
    }

    /// The free-list in its internal (pop-from-back) order.
    pub fn free_list(&self) -> &[usize] {
        &self.free
    }

    /// Rebuilds a slab from a raw slot layout and free-list, as captured
    /// by [`slots`](Self::slots)/[`free_list`](Self::free_list). The
    /// vacant positions of `slots` must equal the set of indices in
    /// `free` (checked), so that insertion order after restore matches
    /// the original exactly.
    pub fn from_raw(slots: Vec<Option<T>>, free: Vec<usize>) -> Result<Self, String> {
        let mut vacant = 0usize;
        for (i, s) in slots.iter().enumerate() {
            if s.is_none() {
                vacant += 1;
                if !free.contains(&i) {
                    return Err(format!("slab restore: vacant slot {i} missing from free-list"));
                }
            }
        }
        if vacant != free.len() {
            return Err(format!(
                "slab restore: {} free-list entries for {vacant} vacant slots",
                free.len()
            ));
        }
        for &f in &free {
            if f >= slots.len() || slots[f].is_some() {
                return Err(format!("slab restore: free-list entry {f} is not a vacant slot"));
            }
        }
        let len = slots.len() - vacant;
        let entries = slots
            .into_iter()
            .map(|s| match s {
                Some(v) => Entry::Occupied(v),
                None => Entry::Vacant,
            })
            .collect();
        Ok(Slab { entries, free, len })
    }
}

impl<T> std::ops::Index<usize> for Slab<T> {
    type Output = T;
    fn index(&self, key: usize) -> &T {
        // panics: kernel invariant; violation means simulator state corruption
        self.get(key).expect("slab: index of vacant slot")
    }
}

impl<T> std::ops::IndexMut<usize> for Slab<T> {
    fn index_mut(&mut self, key: usize) -> &mut T {
        // panics: kernel invariant; violation means simulator state corruption
        self.get_mut(key).expect("slab: index of vacant slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s[a], "a");
        assert_eq!(s[b], "b");
        assert_eq!(s.try_remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(a));
        assert!(s.contains(b));
    }

    #[test]
    fn reuses_freed_slots() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.try_remove(a);
        let b = s.insert(2);
        assert_eq!(a, b, "freed slot should be reused");
        assert_eq!(s[b], 2);
    }

    #[test]
    fn remove_vacant_returns_none() {
        let mut s = Slab::new();
        let a = s.insert(1);
        assert_eq!(s.try_remove(a), Some(1));
        assert_eq!(s.try_remove(a), None, "double remove is checked, not a panic");
        assert_eq!(s.try_remove(a + 100), None, "out of bounds is checked too");
        assert!(s.is_empty());
    }

    #[test]
    fn iter_skips_vacant() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let _b = s.insert(20);
        let c = s.insert(30);
        s.try_remove(a);
        let items: Vec<_> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(items, vec![20, 30]);
        s.try_remove(c);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn raw_round_trip_preserves_free_order() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        let c = s.insert("c");
        s.try_remove(a);
        s.try_remove(c);
        // Capture and restore the raw layout.
        let slots: Vec<Option<&str>> = s.slots().map(Option::<&&str>::copied).collect();
        let free = s.free_list().to_vec();
        let mut r = Slab::from_raw(slots, free).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[b], "b");
        // Index reuse order must match the original slab's.
        let k1 = s.insert("x");
        let k2 = s.insert("y");
        assert_eq!((r.insert("x"), r.insert("y")), (k1, k2));
    }

    #[test]
    fn raw_restore_rejects_inconsistent_free_list() {
        assert!(Slab::from_raw(vec![Some(1), None], vec![]).is_err());
        assert!(Slab::from_raw(vec![Some(1), None], vec![0]).is_err());
        assert!(Slab::<i32>::from_raw(vec![None], vec![0, 0]).is_err());
    }

    #[test]
    fn clear_empties() {
        let mut s = Slab::new();
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
