//! The per-subtree entry and the scoring helpers that read it.
//!
//! An entry is what the planner copied from the merge space when the
//! subtree became active (its hull, its delay and, through the region
//! arena, its candidate regions) plus its nearest-neighbor cache. Exact
//! distances and pair scores are computed from entries alone.

use astdme_geom::Trr;

use super::arena::RegionArena;
use super::MergePlanner;
use crate::plan::{min_region_distance, pair_score, score_bits};
use crate::MergeSpace;

/// Sentinel for [`Entry::nn_key`]: no neighbor cached.
const NO_NN: u32 = u32::MAX;

/// A cached nearest neighbor, as [`Entry::nn`] reads it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Nn {
    /// The neighbor's key.
    pub(super) key: usize,
    /// Representative-region distance to it (the grid's metric, used to
    /// decide whether a new subtree supersedes the cached neighbor).
    pub(super) region_dist: f64,
    /// Whether another active subtree lies at exactly `region_dist`: the
    /// neighbor won a tie by its smaller key. Replay drivers re-derive
    /// such a neighbor, since key order is all that picked it.
    pub(super) tied: bool,
    /// Folded score bits of the `(lo, hi)` pair this cache references.
    /// Both endpoints of a pair derive bit-identical scores (the exact
    /// distance is symmetric), so membership of the pair in the ranking
    /// set is simply "some endpoint caches the other" — no refcount map.
    pub(super) score: u64,
}

/// One active subtree: what the planner copied from the merge space when
/// the subtree became active, plus its neighbor cache. Keys are `u32` and
/// the cache is stored flat (`nn_key` = [`NO_NN`] when empty), so an entry
/// stays as small as a forest node.
#[derive(Debug)]
pub(super) struct Entry {
    pub(super) key: u32,
    /// The cached neighbor's key, or [`NO_NN`].
    nn_key: u32,
    /// The entry's span in the region arena (its buffer bit plus offset),
    /// or [`HULL`](super::arena::HULL) when its one region is `region` itself.
    pub(super) start: u32,
    /// Number of candidate regions.
    pub(super) len: u32,
    /// Representative region (the hull of the candidate regions).
    pub(super) region: Trr,
    /// The cached neighbor's region distance, with the sign bit set when
    /// it is tied (a distance is never negative, so the bit is free), and
    /// its score (see [`Nn`]); meaningless without a cached neighbor.
    nn_dist: f64,
    nn_score: u64,
    /// The subtree's delay, for the delay-target bias.
    pub(super) delay: f64,
}

/// The layout described on [`Entry`]; a route holds one entry per active
/// subtree, and the refresh sweep reads them in grid order.
const _: () = assert!(std::mem::size_of::<Entry>() <= 72);

impl Entry {
    /// The entry of subtree `key`, read from `space`: its hull and delay,
    /// with its candidate regions copied into `arena`.
    pub(super) fn new<S: MergeSpace>(space: &S, arena: &mut RegionArena, key: usize) -> Self {
        let region = space.region(key);
        let (start, len) = arena.store(space, key, &region);
        Self {
            key: key as u32,
            nn_key: NO_NN,
            start,
            len,
            region,
            nn_dist: 0.0,
            nn_score: 0,
            delay: space.delay(key),
        }
    }

    #[inline]
    pub(super) fn key(&self) -> usize {
        self.key as usize
    }

    /// The cached neighbor, if any.
    #[inline]
    pub(super) fn nn(&self) -> Option<Nn> {
        (self.nn_key != NO_NN).then_some(Nn {
            key: self.nn_key as usize,
            region_dist: self.nn_dist.abs(),
            tied: self.nn_dist.is_sign_negative(),
            score: self.nn_score,
        })
    }

    #[inline]
    pub(super) fn set_nn(&mut self, nn: Nn) {
        self.nn_key = nn.key as u32;
        let d = nn.region_dist.abs();
        self.nn_dist = if nn.tied { -d } else { d };
        self.nn_score = nn.score;
    }

    /// Marks the cached neighbor tied: another subtree came exactly as
    /// near without a smaller key.
    #[inline]
    pub(super) fn mark_tied(&mut self) {
        self.nn_dist = -self.nn_dist.abs();
    }

    #[inline]
    pub(super) fn clear_nn(&mut self) {
        self.nn_key = NO_NN;
    }

    /// Takes the cached neighbor out, leaving none.
    #[inline]
    pub(super) fn take_nn(&mut self) -> Option<Nn> {
        let nn = self.nn();
        self.clear_nn();
        nn
    }
}

impl MergePlanner {
    /// The exact merging cost between the entries at positions `i` and `j`
    /// (`i`'s regions in the outer loop), read from the arena.
    #[inline]
    pub(super) fn exact(&self, i: usize, j: usize) -> f64 {
        self.exact_distances.set(self.exact_distances.get() + 1);
        let (a, b) = (&self.entries[i], &self.entries[j]);
        min_region_distance(self.arena.regions(a), self.arena.regions(b))
    }

    /// Folded score bits of the pair of entries `i` and `j` at exact
    /// distance `exact`, from the cached delays (smaller key's first).
    #[inline]
    pub(super) fn score(&self, i: usize, j: usize, exact: f64) -> u64 {
        let (a, b) = (&self.entries[i], &self.entries[j]);
        let (lo, hi) = if a.key < b.key { (a, b) } else { (b, a) };
        score_bits(pair_score(&self.cfg, lo.delay, hi.delay, exact))
    }

    /// [`MergePlanner::exact`] and then [`MergePlanner::score`]: the score
    /// of a pair no cache vouches for.
    #[inline]
    pub(super) fn exact_score(&self, i: usize, j: usize) -> u64 {
        self.score(i, j, self.exact(i, j))
    }
}
