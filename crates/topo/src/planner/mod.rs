//! The incremental merge planner: near-linear bottom-up merge ordering.
//!
//! [`plan_round`](crate::plan_round) is a from-scratch planner: every call
//! rebuilds the grid index, re-queries every nearest neighbor, and re-ranks
//! every pair, making the driving loop O(n²)–O(n³) over a whole routing
//! run. [`MergePlanner`] keeps that work alive across rounds:
//!
//! * the [`GridIndex`] answers every neighbor query. Multi-merge rounds
//!   rebuild it from the survivors (one flat counting-sort build, so the
//!   cell size tracks the live set every round); greedy rounds maintain it
//!   by removal and insertion, with amortized rebuilds when the active set
//!   halves or region extents outgrow the cell size, keeping queries
//!   local;
//! * each active subtree caches its nearest neighbor; a merge invalidates
//!   only the entries whose neighbor was consumed (re-queried against the
//!   grid) plus a bounded grid range query deciding whether the newly
//!   created subtree became anyone's nearest neighbor (bounded by the
//!   largest cached neighbor distance, tracked in a lazy max-heap);
//! * candidate pairs live in a lazy min-heap keyed by (score, keys), so a
//!   greedy round peeks the best live pair in O(1)-ish time — no sorting,
//!   no ordered-set rebalancing, stale entries dropped on contact;
//! * the active set itself is a dense vector with a position map —
//!   removal is `swap_remove`, never an O(n) `retain`.
//!
//! # Batched maintenance and the dense-key invariant
//!
//! Merges are reported back per **round** via
//! [`MergePlanner::apply_round`] (with [`MergePlanner::apply_merge`] as
//! the single-merge convenience): the whole round's removals and
//! insertions are applied first, then *one* maintenance sweep runs —
//! a single `current_max_rd` bound computation, one bounded takeover
//! range-query per new subtree against the final grid, and one amortized
//! rebuild check — instead of per-merge churn. When a round replaces a
//! large fraction of the active set (Edahiro-style multi-merging pairs
//! off ~a quarter of the subtrees per round), incremental patching is
//! slower than starting over, so past [`ROUND_REFRESH_DIVISOR`] the sweep
//! switches to a **refresh**: the round's merges touch only the active
//! set, then one grid build over the survivors and a sweep re-deriving
//! every neighbor cache in the grid's cell order, reusing the cached pair
//! score whenever a subtree's neighbor did not change (which skips the
//! exact-distance refinement for that pair). The sweep also re-lays the
//! region arena out in the same cell order as it goes.
//!
//! # Scoring from the planner's own state
//!
//! A pair is ranked by its exact merging cost
//! ([`min_region_distance`](crate::min_region_distance) over the two
//! subtrees' candidate regions) minus the delay bias. The merge space is
//! read once per subtree, when it enters the active set: the entry keeps
//! the hull and the delay, and the region arena (`arena`) keeps the
//! candidate regions, contiguous and in the grid's cell order. Exact
//! distances and scores then read only planner state, never the space,
//! so a sweep's reads stay within a few cells of each other in memory
//! instead of chasing two scattered candidate lists per evaluation. Every
//! path (bulk derivation, refresh, point updates, the brute-force tail)
//! and the from-scratch [`plan_round`](crate::plan_round) share the one
//! kernel, so their scores are bit-identical;
//! [`MergePlanner::exact_distances`] counts the evaluations.
//!
//! All per-key state lives in flat vectors indexed by key (`NO_POS`
//! sentinel for inactive): the planner assumes **dense keys** — merged
//! subtrees get fresh keys that grow by roughly one per merge, as forest
//! node indices do — so a `Vec` position map replaces the old `HashMap`s
//! (`pos`, `pair_info`, `rev`) without a memory blow-up, and steady-state
//! maintenance performs no hashing and (thanks to recycled back-reference
//! buffers) no allocation. Pair scores are stored on the neighbor cache
//! itself: a pair is in the ranking set iff at least one endpoint caches
//! the other, and both endpoints derive bit-identical score keys, so the
//! old refcounted `pair_info` map is redundant.
//!
//! The planner produces the **same pair sequence** as the from-scratch
//! reference on every instance, exact distance ties included: below
//! `BRUTE_FORCE_CUTOFF` active subtrees it delegates to `plan_round`
//! outright, and above it the cached neighbors are exactly the neighbors a
//! fresh grid query would return. Every path breaks ties by the one rule
//! of [`Nearest`] (the smallest key wins), so neither the active order,
//! the grid's cells nor a query's incumbent can change a neighbor, and
//! each cache records whether its neighbor won a tie
//! ([`NnSnapshotRow::nn`]). The equivalence — and the equivalence of
//! batched `apply_round` to a sequence of `apply_merge` calls — is pinned
//! down by the property tests in `tests/planner_equiv.rs`, off and on
//! lattices.
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`mod@self`] | [`MergePlanner`]: construction, accessors, [`MergePlanner::plan_round`] / [`MergePlanner::apply_round`] orchestration |
//! | `arena` | the region arena: per-subtree candidate regions, contiguous and re-laid out in cell order |
//! | `entry` | the per-subtree [`Entry`] (its copied hull, delay and arena span, and its flat neighbor cache) and the exact-distance and score helpers that read it |
//! | `keys` | the dense key tables: position map growth, active-set removal/insertion, back-reference invalidation |
//! | `pairs` | the pair ranking: score folding, the lazy min-heap, the flat post-refresh ranking, round selection, [`MergePlanner::nn_snapshot`] |
//! | `points` | the point-update maintenance path: dirty-cache flushes, neighbor takeover scans, the takeover bound |
//! | `refresh` | bulk maintenance: the initial derivation, the multi-merge refresh sweep, grid (re)builds |
//! | `tail` | the brute-force tail below the cutoff, with its memoized distance matrix |

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::plan::{round_limit, select_disjoint, BRUTE_FORCE_CUTOFF};
use crate::{GridIndex, MergeSpace, Nearest, TopoConfig};

mod arena;
mod entry;
mod keys;
mod pairs;
mod points;
mod refresh;
mod tail;

use arena::RegionArena;
use entry::{Entry, Nn};
use tail::BfMemo;

/// Sentinel in the dense `pos` map: the key is not active.
const NO_POS: u32 = u32::MAX;

/// Keys stay below this bound, so they fit `u32` beside the sentinels.
const KEY_BOUND: usize = 1 << 31;

/// When one round's merges replace at least `1/ROUND_REFRESH_DIVISOR` of
/// the surviving active set, [`MergePlanner::apply_round`] refreshes the
/// whole neighbor structure — grid included — instead of patching it: the
/// patching constant (per-merge grid updates, takeover range queries,
/// invalidation re-queries) exceeds the cost of a grid build plus a
/// refresh sweep once most caches are invalidated anyway. Multi-merge
/// rounds (fraction ≥ ~1/8) always refresh; greedy rounds (one merge)
/// never do above the brute-force cutoff.
const ROUND_REFRESH_DIVISOR: usize = 8;

/// One row of [`MergePlanner::nn_snapshot`]: an active subtree plus its
/// cached nearest neighbor, if one is cached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnSnapshotRow {
    /// The active subtree's key.
    pub key: usize,
    /// Cached neighbor as `(neighbor key, region distance, folded score
    /// bits, tied)`: the exact triple the planner ranks the pair by (see
    /// [`score_bits`](crate::score_bits)), and whether another active
    /// subtree lies exactly as near, so that the neighbor won by its
    /// smaller key — a replay in another key space must re-derive it.
    pub nn: Option<(usize, f64, u64, bool)>,
}

/// Stateful, incremental merge planner (see the module docs).
///
/// Drive it with [`MergePlanner::plan_round`] /
/// [`MergePlanner::apply_round`] (or per-merge
/// [`MergePlanner::apply_merge`]):
///
/// ```
/// use astdme_geom::{Point, Trr};
/// use astdme_topo::{MergePlanner, MergeSpace, TopoConfig};
///
/// struct Pts(Vec<Point>);
/// impl MergeSpace for Pts {
///     fn region(&self, id: usize) -> Trr { Trr::from_point(self.0[id]) }
///     fn regions(&self, id: usize, out: &mut Vec<Trr>) { out.push(self.region(id)) }
///     fn delay(&self, _id: usize) -> f64 { 0.0 }
/// }
///
/// let mut space = Pts(vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(10.0, 0.0),
/// ]);
/// let mut planner = MergePlanner::new(&space, &[0, 1, 2], TopoConfig::greedy());
/// while planner.len() > 1 {
///     let mut round = Vec::new();
///     for (a, b) in planner.plan_round(&space) {
///         // "Merge": a new point midway, registered as a fresh key.
///         let m = space.0.len();
///         let (pa, pb) = (space.0[a], space.0[b]);
///         space.0.push(Point::new(0.5 * (pa.x + pb.x), 0.5 * (pa.y + pb.y)));
///         round.push((a, b, m));
///     }
///     planner.apply_round(&space, &round);
/// }
/// assert_eq!(planner.len(), 1);
/// ```
#[derive(Debug)]
pub struct MergePlanner {
    cfg: TopoConfig,
    entries: Vec<Entry>,
    /// key → index into `entries` (`NO_POS` = inactive). Flat and dense:
    /// see the module docs for the dense-key invariant.
    pos: Vec<u32>,
    grid: GridIndex,
    /// Active count and max extent at the last grid (re)build; on the
    /// point-update path, when the set halves or extents quadruple, the
    /// grid is rebuilt so cell size and query bounds track the surviving
    /// subtrees.
    built_len: usize,
    built_extent: f64,
    /// Grid builds so far: construction, every refresh round and amortized
    /// point-path rebuilds.
    grid_builds: usize,
    /// Grid neighbor queries so far (nearest and range queries, in every
    /// maintenance path).
    nn_queries: usize,
    /// Exact pair distances evaluated so far (memo hits in the tail are
    /// not evaluations). A cell, so the `&self` scoring helpers count.
    exact_distances: std::cell::Cell<usize>,
    /// Every active entry's candidate regions (see `arena`).
    arena: RegionArena,
    /// Current nearest-neighbor pairs as a lazy min-heap over
    /// `(score, lo, hi)` — the exact ranking the from-scratch planner
    /// sorts into. Entries are never removed eagerly: a pair is live iff
    /// some endpoint still caches the other at the recorded score
    /// ([`MergePlanner::pair_live`]); stale tops are popped at selection.
    /// Lazy deletion beats an ordered set here because the point-update
    /// path only ever needs the *minimum* live pair (greedy rounds), so
    /// maintenance is an O(1)-ish push instead of tree rebalancing.
    /// Unused (empty) while `sorted_valid`: a refresh stores the ranking
    /// as the flat `sorted_pairs` instead, and the heap is only
    /// materialized when the incremental maintenance path next needs
    /// point updates ([`MergePlanner::ensure_heap`]).
    pairs: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// Sorted, deduplicated pair ranking as of the last refresh; the
    /// active representation while `sorted_valid`. Selection walks this
    /// vector — no tree nodes are built in the refresh regime, where the
    /// whole ranking is replaced every round anyway.
    sorted_pairs: Vec<(u64, u32, u32)>,
    sorted_valid: bool,
    /// key → keys whose cached neighbor is that key (lazily validated),
    /// dense-indexed like `pos`. Inner buffers are recycled through
    /// `rev_pool` when their key is consumed. Sized only while
    /// `point_valid`: the refresh regime never reads it, so a multi-merge
    /// route never allocates it.
    rev: Vec<Vec<u32>>,
    rev_pool: Vec<Vec<u32>>,
    /// Keys whose neighbor cache must be refilled from the grid.
    dirty: Vec<usize>,
    /// Lazy max-heap over `(region_dist bits, key)` of every cached
    /// neighbor ever set; stale tops are popped on demand. Its maximum
    /// bounds how far a new subtree can "take over" an existing cache,
    /// which bounds the insertion range query.
    rd_heap: BinaryHeap<(u64, usize)>,
    /// Reused round buffers (new keys of the round; takeover victims).
    round_new: Vec<usize>,
    takeover_buf: Vec<(usize, Nearest)>,
    /// Memoized exact pair distances for the brute-force tail
    /// (`n <=` [`BRUTE_FORCE_CUTOFF`]). Subtrees are immutable, so entries
    /// never go stale; the matrix stays tiny (pairs among the final few
    /// dozen subtrees).
    bf_cache: BfMemo,
    /// Whether `rev` and `rd_heap` reflect the current caches. Construction
    /// and every refresh leave both unbuilt (the refresh regime never reads
    /// them); the point-update path builds both on demand
    /// ([`MergePlanner::ensure_point_mode`]).
    point_valid: bool,
    /// Set by [`MergePlanner::new`], cleared by the first flush or apply:
    /// while fresh, the initial neighbor derivation can go through the
    /// bulk sweep ([`MergePlanner::sweep`]) instead of per-entry
    /// point updates.
    fresh: bool,
}

impl MergePlanner {
    /// Builds a planner over the subtrees in `active` (keys must be
    /// unique and below 2^31). Costs one grid build plus one neighbor
    /// query per subtree — the same work as a single from-scratch round —
    /// and reads each subtree from `space` once (see the module docs).
    pub fn new<S: MergeSpace>(space: &S, active: &[usize], cfg: TopoConfig) -> Self {
        let max_key = active.iter().copied().max().unwrap_or(0);
        assert!(max_key < KEY_BOUND, "planner keys must be below 2^31");
        let mut arena = RegionArena::default();
        let entries: Vec<Entry> = active
            .iter()
            .map(|&k| Entry::new(space, &mut arena, k))
            .collect();
        let grid = GridIndex::build(entries.iter().map(|e| (e.key(), e.region)));
        let mut pos = vec![NO_POS; max_key + 1];
        for (i, e) in entries.iter().enumerate() {
            // Hard assert (matching merge_until_one_from_scratch): a
            // duplicate key would silently corrupt `pos`/the grid and hang
            // the merge loop in release builds.
            assert!(pos[e.key()] == NO_POS, "duplicate planner key {}", e.key);
            pos[e.key()] = i as u32;
        }
        let built_extent = grid.max_extent();
        let dirty = entries.iter().map(Entry::key).collect();
        Self {
            cfg,
            built_len: entries.len(),
            entries,
            pos,
            grid,
            built_extent,
            grid_builds: 1,
            nn_queries: 0,
            exact_distances: std::cell::Cell::new(0),
            arena,
            pairs: BinaryHeap::new(),
            sorted_pairs: Vec::new(),
            sorted_valid: false,
            rev: Vec::new(),
            rev_pool: Vec::new(),
            dirty,
            rd_heap: BinaryHeap::new(),
            round_new: Vec::new(),
            takeover_buf: Vec::new(),
            bf_cache: BfMemo::default(),
            point_valid: false,
            fresh: true,
        }
    }

    /// Number of active subtrees.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no subtrees remain (only possible before any were added).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The single surviving key.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one subtree remains.
    pub fn sole_key(&self) -> usize {
        assert_eq!(self.entries.len(), 1, "planner holds several subtrees");
        self.entries[0].key()
    }

    /// Grid builds so far: one at construction, one per refresh round and
    /// one per amortized rebuild on the point-update path. Deterministic
    /// for a fixed merge sequence, like [`MergePlanner::nn_queries`].
    pub fn grid_builds(&self) -> usize {
        self.grid_builds
    }

    /// Grid neighbor queries so far: one per neighbor cache derived or
    /// checked, plus one range query per point-update round's new
    /// subtree. The brute-force tail (rounds entering it included) makes
    /// none.
    pub fn nn_queries(&self) -> usize {
        self.nn_queries
    }

    /// Exact pair distances evaluated so far: one per neighbor cache whose
    /// pair score could not be reused, and one per pair the brute-force
    /// tail meets for the first time (its memo answers repeats).
    /// Deterministic for a fixed merge sequence, like
    /// [`MergePlanner::nn_queries`].
    pub fn exact_distances(&self) -> usize {
        self.exact_distances.get()
    }

    /// Whether the planner is above the brute-force cutoff, i.e. the last
    /// [`MergePlanner::plan_round`] at the current size went through the
    /// grid-backed nearest-neighbor caches (whose state
    /// [`MergePlanner::nn_snapshot`] captures) rather than the exact
    /// all-pairs tail.
    pub fn in_grid_regime(&self) -> bool {
        self.entries.len() > BRUTE_FORCE_CUTOFF
    }

    /// Plans one merge round over the current active set: disjoint pairs,
    /// best first, exactly as [`plan_round`](crate::plan_round) would
    /// return them. Does not modify the active set — report merges back
    /// via [`MergePlanner::apply_round`] / [`MergePlanner::apply_merge`].
    ///
    /// Planning reads only the planner's own copy of each subtree (see the
    /// module docs), so `space` is not consulted here; it is taken for
    /// symmetry with [`MergePlanner::apply_round`].
    pub fn plan_round<S: MergeSpace>(&mut self, space: &S) -> Vec<(usize, usize)> {
        let _ = space;
        let n = self.entries.len();
        if n < 2 {
            return Vec::new();
        }
        if n <= BRUTE_FORCE_CUTOFF {
            return self.plan_tail();
        }
        self.flush_dirty();
        let limit = round_limit(self.cfg.order, n);
        if self.sorted_valid {
            let ranked = self.sorted_pairs.iter();
            select_disjoint(ranked.map(|&(_, a, b)| (a as usize, b as usize)), limit)
        } else {
            self.select_from_heap(limit)
        }
    }

    /// Records that subtrees `a` and `b` were merged into the new subtree
    /// `merged`. Equivalent to `apply_round(space, &[(a, b, merged)])` —
    /// batch a whole round through [`MergePlanner::apply_round`] when it
    /// has more than one merge.
    pub fn apply_merge<S: MergeSpace>(&mut self, space: &S, a: usize, b: usize, merged: usize) {
        self.apply_round(space, &[(a, b, merged)]);
    }

    /// Applies one whole round of merges `(a, b, merged)` and then runs a
    /// single maintenance sweep: one combined invalidation pass, one
    /// takeover bound, one bounded range query per new subtree, and one
    /// amortized grid-upkeep check — or a wholesale refresh, grid build
    /// included, when the round replaced a large fraction of the active
    /// set (see the module docs). A round that leaves at most
    /// [`BRUTE_FORCE_CUTOFF`] subtrees runs no sweep at all.
    ///
    /// Produces the same observable state as applying the merges one at a
    /// time.
    pub fn apply_round<S: MergeSpace>(&mut self, space: &S, merges: &[(usize, usize, usize)]) {
        if merges.is_empty() {
            return;
        }
        self.fresh = false;
        // Each merge nets one fewer active subtree.
        let final_len = self.entries.len() - merges.len();
        let tail = final_len <= BRUTE_FORCE_CUTOFF;
        if tail || merges.len() * ROUND_REFRESH_DIVISOR >= final_len {
            // A round this large (multi-merge) invalidates nearly every
            // cache (merged subtrees are exactly the popular neighbors),
            // so the refresh rebuilds the grid, the ranking and every
            // cache in bulk, and the per-merge bookkeeping it would throw
            // away is skipped: only the active set is updated. A round
            // ending in the tail skips the refresh too: `plan_tail` reads
            // only the active set and the region arena.
            for &(a, b, m) in merges {
                self.drop_key(a);
                self.drop_key(b);
                self.add_key_deferred(space, m);
            }
            if !tail {
                self.refresh();
            }
            return;
        }
        self.ensure_point_mode();
        let mut fresh = std::mem::take(&mut self.round_new);
        fresh.clear();
        for &(a, b, m) in merges {
            self.remove_key(a);
            self.remove_key(b);
            self.register_key(space, m);
            fresh.push(m);
        }
        // Neighbor takeover: a new subtree may now be the nearest
        // neighbor (by region distance, the grid's metric) of existing
        // entries, one grid range query each, bounded by the largest
        // cached distance, finds every victim.
        if let Some(bound) = self.current_max_rd() {
            for &m in &fresh {
                self.takeover_from(m, bound);
            }
        }
        self.maybe_rebuild();
        self.round_new = fresh;
    }
}

#[cfg(test)]
mod tests;
