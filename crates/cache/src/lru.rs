//! A bounded, deterministically evicted least-recently-used map.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded LRU map with fully deterministic eviction.
///
/// Recency is a monotonic operation tick (not wall-clock), so for a fixed
/// sequence of [`BoundedLru::get`] / [`BoundedLru::insert`] calls the
/// eviction order is a pure function of that sequence — the property that
/// lets cache behavior pin into golden tests.
#[derive(Debug, Clone)]
pub struct BoundedLru<K, V> {
    capacity: usize,
    tick: u64,
    /// Slot storage: `(key, value, last-touched tick)`. Slots are stable;
    /// eviction replaces the argmin-tick slot in place.
    slots: Vec<(K, V, u64)>,
    /// Key → slot index.
    index: HashMap<K, usize>,
}

impl<K: Eq + Hash + Clone, V> BoundedLru<K, V> {
    /// An empty map holding at most `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            tick: 0,
            slots: Vec::with_capacity(capacity.min(1024)),
            index: HashMap::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks `key` up and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.index.get(key)?;
        self.tick += 1;
        self.slots[slot].2 = self.tick;
        Some(&self.slots[slot].1)
    }

    /// Inserts (or replaces) `key`, marking it most recently used. When
    /// the map is full and `key` is new, the least-recently-used entry is
    /// evicted and returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].1 = value;
            self.slots[slot].2 = self.tick;
            return None;
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key.clone(), self.slots.len());
            self.slots.push((key, value, self.tick));
            return None;
        }
        // Evict the argmin tick. Ticks are unique (each operation bumps
        // the counter), so the victim is unambiguous and the eviction
        // order is a pure function of the operation sequence.
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, _, t))| *t)
            .map(|(i, _)| i)
            .expect("capacity >= 1");
        let old = std::mem::replace(&mut self.slots[victim], (key.clone(), value, self.tick));
        self.index.remove(&old.0);
        self.index.insert(key, victim);
        Some((old.0, old.1))
    }

    /// Drops every entry (capacity unchanged).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_clamps_to_one() {
        let mut lru = BoundedLru::new(0);
        assert_eq!(lru.capacity(), 1);
        assert!(lru.insert(1, "a").is_none());
        assert_eq!(lru.insert(2, "b"), Some((1, "a")));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut lru = BoundedLru::new(3);
        for k in 0..3 {
            lru.insert(k, k * 10);
        }
        // Touch 0 and 2; 1 becomes the victim.
        lru.get(&0);
        lru.get(&2);
        assert_eq!(lru.insert(3, 30), Some((1, 10)));
        let held = |k| lru.index.contains_key(&k);
        assert!(held(0) && held(2) && held(3));
    }

    #[test]
    fn reinsert_replaces_and_touches() {
        let mut lru = BoundedLru::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert!(lru.insert(1, "uno").is_none(), "replacement, no eviction");
        // The replacement alone touched 1, so 2 is now least recent.
        assert_eq!(lru.insert(3, "three"), Some((2, "two")));
        assert_eq!(lru.get(&1), Some(&"uno"));
    }

    #[test]
    fn eviction_sequence_is_deterministic() {
        // Same operation sequence ⇒ same eviction sequence, every run.
        let run = || {
            let mut lru = BoundedLru::new(2);
            let mut evicted = Vec::new();
            for k in 0..6u32 {
                if let Some((old, _)) = lru.insert(k, k) {
                    evicted.push(old);
                }
                lru.get(&k.saturating_sub(1));
            }
            evicted
        };
        assert_eq!(run(), run());
        // The trailing get() keeps each previous key alive past the next
        // insert, so victims alternate: 1, 0, 3, 2.
        assert_eq!(run(), vec![1, 0, 3, 2]);
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut lru = BoundedLru::new(2);
        lru.insert(1, 1);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.capacity(), 2);
        assert!(lru.insert(1, 1).is_none());
        assert_eq!(lru.len(), 1);
    }
}
