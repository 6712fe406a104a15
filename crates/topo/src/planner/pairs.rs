//! The pair ranking: score folding, the lazy min-heap, the flat
//! post-refresh ranking, round selection, and the rank-ordered snapshot.
//!
//! A pair is in the ranking set iff at least one endpoint caches the other
//! at the recorded score — there is no separate membership structure.
//! Greedy rounds peek the minimum live pair off the lazy heap; the refresh
//! regime replaces the whole ranking with a flat sorted vector instead
//! (building tree/heap nodes just to discard them next round is waste).

use std::cmp::Reverse;

use super::{Entry, MergePlanner, Nn, NnSnapshotRow};
use crate::plan::select_disjoint;

impl MergePlanner {
    /// Snapshot of every active subtree's cached nearest neighbor, in
    /// rank order: by the `(score bits, lo, hi)` key of the subtree's
    /// pair, the order [`MergePlanner::plan_round`] selects pairs in. The
    /// two rows of mutual neighbors share their key and sit side by side,
    /// the smaller key's first; subtrees caching no neighbor come last.
    ///
    /// Meaningful immediately after [`MergePlanner::plan_round`] in the
    /// grid regime (see [`MergePlanner::in_grid_regime`]), when every
    /// cache has just been flushed: the rows are then exactly the pair
    /// ranking the round was selected from. Replay drivers (the ECO flush
    /// path) record this per round to re-derive later rounds without
    /// re-planning. After a multi-merge refresh the rows are read off the
    /// planner's own sorted ranking; otherwise they are sorted here.
    pub fn nn_snapshot(&self) -> Vec<NnSnapshotRow> {
        let row = |e: &Entry| NnSnapshotRow {
            key: e.key(),
            nn: e.nn().map(|nn| (nn.key, nn.region_dist, nn.score, nn.tied)),
        };
        let mut rows = Vec::with_capacity(self.entries.len());
        if self.sorted_valid {
            // Each cached pair is in the ranking once; its rows are the
            // endpoints caching the other at the pair's score.
            let caches = |k: u32, other: u32, score: u64| {
                let e = &self.entries[self.pos_of(k as usize)?];
                let nn = e.nn()?;
                (nn.key == other as usize && nn.score == score).then(|| row(e))
            };
            for &(score, lo, hi) in &self.sorted_pairs {
                rows.extend(caches(lo, hi, score));
                rows.extend(caches(hi, lo, score));
            }
        } else {
            rows.extend(self.entries.iter().filter(|e| e.nn().is_some()).map(row));
            rows.sort_unstable_by_key(|r| {
                let (v, _, score, _) = r.nn.expect("only cached neighbors");
                (score, r.key.min(v), r.key.max(v))
            });
        }
        rows.extend(self.entries.iter().filter(|e| e.nn().is_none()).map(row));
        rows
    }

    /// Whether the ranking entry `(score, lo, hi)` still describes a live
    /// pair: some endpoint caches the other at that score. (A pair's score
    /// is a pure function of the pair, so a re-formed pair reproduces the
    /// recorded score bit-for-bit.)
    fn pair_live(&self, score: u64, lo: u32, hi: u32) -> bool {
        let caches = |a: u32, b: u32| {
            self.pos_of(a as usize)
                .and_then(|i| self.entries[i].nn())
                .is_some_and(|nn| nn.key == b as usize && nn.score == score)
        };
        caches(lo, hi) || caches(hi, lo)
    }

    /// Selects a round from the lazy heap: stale tops are popped and
    /// dropped, duplicates are harmless (endpoint-disjoint selection skips
    /// them). The common greedy case peeks the minimum live pair without
    /// disturbing the heap; larger limits (multi-merge fractions small
    /// enough to stay on the point-update path) drain, select and restore.
    pub(super) fn select_from_heap(&mut self, limit: usize) -> Vec<(usize, usize)> {
        if limit == 1 {
            while let Some(&Reverse((s, lo, hi))) = self.pairs.peek() {
                if self.pair_live(s, lo, hi) {
                    return vec![(lo as usize, hi as usize)];
                }
                self.pairs.pop();
            }
            return Vec::new();
        }
        let mut sorted = Vec::with_capacity(self.pairs.len());
        while let Some(Reverse(t)) = self.pairs.pop() {
            if self.pair_live(t.0, t.1, t.2) {
                sorted.push(t);
            }
        }
        let out = select_disjoint(
            sorted.iter().map(|&(_, a, b)| (a as usize, b as usize)),
            limit,
        );
        self.pairs = sorted.into_iter().map(Reverse).collect();
        out
    }

    /// Converts the flat post-refresh ranking back into the point-editable
    /// lazy heap. Called when the incremental maintenance path follows a
    /// refresh; heapifying the staging vector is O(n).
    pub(super) fn ensure_heap(&mut self) {
        if self.sorted_valid {
            self.pairs = self.sorted_pairs.drain(..).map(Reverse).collect();
            self.sorted_valid = false;
        }
    }

    /// Points entry `i` at the neighbor entry `j`, at region distance
    /// `region_dist` (`tied` as [`Nn::tied`]), scoring the pair from its
    /// exact distance, and maintains the pair set.
    pub(super) fn set_nn(&mut self, i: usize, j: usize, region_dist: f64, tied: bool) {
        let score = self.exact_score(i, j);
        self.set_nn_scored(i, self.entries[j].key(), region_dist, tied, score);
    }

    /// Points entry `i` at neighbor `nn_key` with a pre-derived score
    /// (reused from the partner's cache — scores are symmetric and
    /// bit-stable per pair), maintaining the pair set.
    pub(super) fn set_nn_scored(
        &mut self,
        i: usize,
        nn_key: usize,
        region_dist: f64,
        tied: bool,
        score: u64,
    ) {
        let k = self.entries[i].key();
        let (lo, hi) = if k < nn_key { (k, nn_key) } else { (nn_key, k) };
        self.entries[i].set_nn(Nn {
            key: nn_key,
            region_dist,
            tied,
            score,
        });
        self.rd_heap.push((region_dist.to_bits(), k));
        self.grid.note_cap(&self.entries[i].region, region_dist);
        self.rev_push(nn_key, k);
        self.pairs.push(Reverse((score, lo as u32, hi as u32)));
    }

    /// Records `k` in `nn_key`'s back-reference list, recycling a pooled
    /// buffer so steady-state maintenance does not allocate.
    fn rev_push(&mut self, nn_key: usize, k: usize) {
        let slot = &mut self.rev[nn_key];
        if slot.capacity() == 0 {
            if let Some(recycled) = self.rev_pool.pop() {
                *slot = recycled;
            }
        }
        slot.push(k as u32);
    }
}
