//! The memo itself: canonical region fingerprints, cached planned regions,
//! and the shared thread-safe cache handle.

use std::sync::{Arc, Mutex, MutexGuard};

use astdme_engine::{Instance, RoutedNode, RoutedTree};
use astdme_geom::Point;

use crate::hash::{Fingerprint, SipHasher128};
use crate::lru::BoundedLru;

/// Key pair of the primary (lookup) fingerprint.
const PRIMARY_KEYS: (u64, u64) = (0x4153_545f_444d_4531, 0x6361_6368_655f_6b31);
/// Key pair of the independent verification fingerprint.
const VERIFY_KEYS: (u64, u64) = (0x4153_545f_444d_4532, 0x6361_6368_655f_6b32);

/// Computes the canonical `(primary, verify)` fingerprints of a merge
/// region: a **translation-normalized** instance (anchor already
/// subtracted — see the [crate docs](crate) for the canonicalization
/// rules) plus the routing-relevant plan configuration encoded as
/// `plan_words` by the caller.
///
/// Both fingerprints cover the same words under independent key pairs;
/// the cache stores the second and re-checks it on every lookup, so a
/// primary collision cannot splice the wrong subtree silently.
pub fn region_fingerprint(normalized: &Instance, plan_words: &[u64]) -> (Fingerprint, Fingerprint) {
    let hash = |keys: (u64, u64)| {
        let mut h = SipHasher128::new(keys.0, keys.1);
        h.write_usize(normalized.sink_count());
        for s in normalized.sinks() {
            h.write_f64(s.pos.x);
            h.write_f64(s.pos.y);
            h.write_f64(s.cap);
        }
        let groups = normalized.groups();
        h.write_usize(groups.group_count());
        for i in 0..normalized.sink_count() {
            h.write_usize(groups.group_of(i).index());
        }
        for &b in groups.bounds() {
            h.write_f64(b);
        }
        h.write_f64(normalized.source().x);
        h.write_f64(normalized.source().y);
        h.write_f64(normalized.rc().r_per_um());
        h.write_f64(normalized.rc().c_per_um());
        h.write_usize(plan_words.len());
        for &w in plan_words {
            h.write_u64(w);
        }
        h.finish128()
    };
    (hash(PRIMARY_KEYS), hash(VERIFY_KEYS))
}

/// A planned and embedded merge region in its normalized frame: the node
/// vector of the post-repair routed tree (anchor at the origin) plus the
/// trace counters a cache hit must restore so hit outcomes are
/// bit-identical to recomputed ones, counters included.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRegion {
    /// The verification fingerprint (independent key pair) checked on
    /// every lookup.
    pub verify: Fingerprint,
    /// Sink count of the region (cheap structural sanity check).
    pub sink_count: usize,
    /// Post-repair routed nodes, positions in the normalized frame.
    pub nodes: Vec<RoutedNode>,
    /// Merge-stage planning rounds.
    pub rounds: usize,
    /// Merge-stage merges performed.
    pub merges: usize,
    /// Repair-stage iterations (zero when repair was a no-op).
    pub repair_iterations: usize,
}

impl CachedRegion {
    /// Splices the region into a fresh [`RoutedTree`] translated by
    /// `anchor`, rooted at the caller's `source`. Both the hit path and
    /// the miss path of the pipeline build their final tree through this
    /// one function — identical arithmetic is what makes hit ≡ recompute
    /// bit-exact.
    pub fn splice(&self, anchor: Point, source: Point) -> RoutedTree {
        let nodes = self
            .nodes
            .iter()
            .map(|node| RoutedNode {
                pos: Point::new(node.pos.x + anchor.x, node.pos.y + anchor.y),
                ..*node
            })
            .collect();
        RoutedTree::new(source, nodes)
    }
}

/// Hit/miss/insert/eviction counters of a [`SubtreeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a verified entry.
    pub hits: u64,
    /// Lookups that found nothing (or failed verification).
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total lookups, `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheInner {
    lru: BoundedLru<Fingerprint, Arc<CachedRegion>>,
    stats: CacheStats,
}

/// The shared, thread-safe content-addressed subtree cache handle.
///
/// Cloning the handle shares the underlying store (it is an `Arc`), which
/// is how one cache serves a whole batch, repeated batches, and repeated
/// robustness sweeps. Entries are `Arc`-shared, so a hit costs a lock, a
/// map probe, and a pointer clone — never a node-vector copy.
///
/// Capacity is a hard bound enforced by a deterministic LRU map:
/// for a fixed lookup/insert sequence the eviction order is a pure
/// function of that sequence. Under concurrent batches the *interleaving*
/// (and hence hit counts) may vary run to run — what never varies is any
/// routed bit, because a hit replays exactly what a miss recomputes.
#[derive(Debug, Clone)]
pub struct SubtreeCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl SubtreeCache {
    /// A cache bounded to `capacity` regions (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(CacheInner {
                lru: BoundedLru::new(capacity),
                stats: CacheStats::default(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        // The lock is only ever held for map probes; a panic while holding
        // it is impossible in this module, but the fleet layer catches
        // arbitrary router panics, so don't let poisoning cascade.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Maximum number of cached regions.
    pub fn capacity(&self) -> usize {
        self.lock().lru.capacity()
    }

    /// Current number of cached regions.
    pub fn len(&self) -> usize {
        self.lock().lru.len()
    }

    /// Whether the cache holds no regions.
    pub fn is_empty(&self) -> bool {
        self.lock().lru.is_empty()
    }

    /// Looks up `key`, returning the entry only if its verification
    /// fingerprint and sink count also match (a mismatch counts as a
    /// miss). A hit touches LRU recency.
    pub fn lookup(
        &self,
        key: Fingerprint,
        verify: Fingerprint,
        sink_count: usize,
    ) -> Option<Arc<CachedRegion>> {
        let mut inner = self.lock();
        match inner.lru.get(&key) {
            Some(entry) if entry.verify == verify && entry.sink_count == sink_count => {
                let entry = Arc::clone(entry);
                inner.stats.hits += 1;
                Some(entry)
            }
            _ => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) the region under `key`, evicting the
    /// least-recently-used entry when full.
    pub fn insert(&self, key: Fingerprint, region: CachedRegion) {
        let mut inner = self.lock();
        inner.stats.inserts += 1;
        if inner.lru.insert(key, Arc::new(region)).is_some() {
            inner.stats.evictions += 1;
        }
    }

    /// A snapshot of the hit/miss/insert/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Drops every cached region and zeroes the counters (capacity kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.lru.clear();
        inner.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astdme_delay::RcParams;
    use astdme_engine::{Groups, Sink};

    fn inst(offset: f64) -> Instance {
        let sinks = vec![
            Sink::new(Point::new(offset, offset + 1.0), 1e-14),
            Sink::new(Point::new(offset + 10.0, offset), 2e-14),
        ];
        Instance::new(
            sinks,
            Groups::from_assignments(vec![0, 1], 2).unwrap(),
            RcParams::default(),
            Point::new(offset + 5.0, offset + 8.0),
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic_and_plan_sensitive() {
        let a = region_fingerprint(&inst(0.0), &[1, 2]);
        assert_eq!(a, region_fingerprint(&inst(0.0), &[1, 2]));
        assert_ne!(a, region_fingerprint(&inst(0.0), &[1, 3]));
        assert_ne!(a, region_fingerprint(&inst(1.0), &[1, 2]));
        assert_ne!(a.0, a.1, "primary and verify keys must be independent");
    }

    fn toy_region(verify: Fingerprint) -> CachedRegion {
        CachedRegion {
            verify,
            sink_count: 1,
            nodes: vec![RoutedNode {
                pos: Point::new(1.0, 2.0),
                parent: None,
                wire: 3.0,
                sink: Some(0),
            }],
            rounds: 1,
            merges: 0,
            repair_iterations: 0,
        }
    }

    #[test]
    fn lookup_counts_hits_and_verifies() {
        let cache = SubtreeCache::new(4);
        let key = Fingerprint { hi: 1, lo: 2 };
        let verify = Fingerprint { hi: 3, lo: 4 };
        assert!(cache.lookup(key, verify, 1).is_none());
        cache.insert(key, toy_region(verify));
        assert!(cache.lookup(key, verify, 1).is_some());
        // Wrong verification fingerprint or sink count: a miss, not a hit.
        assert!(cache.lookup(key, Fingerprint::default(), 1).is_none());
        assert!(cache.lookup(key, verify, 2).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 3, 1));
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bounded_eviction_counts() {
        let cache = SubtreeCache::new(1);
        let v = Fingerprint::default();
        cache.insert(Fingerprint { hi: 1, lo: 0 }, toy_region(v));
        cache.insert(Fingerprint { hi: 2, lo: 0 }, toy_region(v));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(Fingerprint { hi: 1, lo: 0 }, v, 1).is_none());
        assert!(cache.lookup(Fingerprint { hi: 2, lo: 0 }, v, 1).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.capacity(), 1);
    }

    #[test]
    fn splice_translates_back() {
        let region = toy_region(Fingerprint::default());
        let tree = region.splice(Point::new(100.0, 200.0), Point::new(0.0, 0.0));
        assert_eq!(tree.nodes().len(), 1);
        assert_eq!(tree.nodes()[0].pos, Point::new(101.0, 202.0));
        assert_eq!(tree.nodes()[0].wire, 3.0);
        assert_eq!(tree.source(), Point::new(0.0, 0.0));
    }

    #[test]
    fn clones_share_the_store() {
        let cache = SubtreeCache::new(4);
        let clone = cache.clone();
        let key = Fingerprint { hi: 9, lo: 9 };
        let v = Fingerprint::default();
        clone.insert(key, toy_region(v));
        assert!(cache.lookup(key, v, 1).is_some());
        assert_eq!(cache.stats().inserts, 1);
    }
}
