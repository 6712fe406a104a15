//! The brute-force tail: exact all-pairs planning below the cutoff, with
//! a memoized distance matrix.
//!
//! Below [`BRUTE_FORCE_CUTOFF`] active subtrees the planner delegates to
//! the reference semantics outright — the exact all-pairs scan is cheaper
//! than index maintenance and, unlike the grid's region-level query, ranks
//! directly by exact cost. Unlike the from-scratch reference, exact
//! distances are memoized across rounds: subtrees are immutable, so a
//! pair's distance never changes, and the reference recomputing the same
//! all-pairs matrix every round is most of its tail cost. Distances are
//! evaluated from the planner's own entries and region arena, like every
//! other path, so memoized and fresh values are the same bits.

use astdme_geom::Trr;

use super::MergePlanner;
use crate::plan::{nearest_bruteforce, rank_and_select, BRUTE_FORCE_CUTOFF};

/// Dense distance memo for the brute-force tail: keys seen below the
/// cutoff get small slots, pair distances live in a flat matrix (NaN =
/// unset). The tail re-scans all pairs every round, so a lookup must cost
/// an index operation, not a hash. Slot count is bounded by the cutoff
/// plus the merges after it (each adds one key), so the matrix stays tiny;
/// the stride doubles with remapping if a space ever exceeds it.
#[derive(Debug, Default)]
pub(super) struct BfMemo {
    /// key → slot + 1 (0 = unassigned).
    slot: Vec<u32>,
    slots: usize,
    stride: usize,
    matrix: Vec<f64>,
}

impl BfMemo {
    fn slot_of(&mut self, key: usize) -> usize {
        if key >= self.slot.len() {
            self.slot.resize(key + 1, 0);
        }
        if self.slot[key] == 0 {
            if self.slots == self.stride {
                let new_stride = (2 * self.stride).max(2 * BRUTE_FORCE_CUTOFF + 2);
                let mut grown = vec![f64::NAN; new_stride * new_stride];
                for r in 0..self.slots {
                    let (old, new) = (r * self.stride, r * new_stride);
                    grown[new..new + self.slots]
                        .copy_from_slice(&self.matrix[old..old + self.slots]);
                }
                self.matrix = grown;
                self.stride = new_stride;
            }
            self.slots += 1;
            self.slot[key] = self.slots as u32;
        }
        self.slot[key] as usize - 1
    }

    /// The memoized distance of the pair `(a, b)`, computing it with
    /// `eval` on a miss. Distances are cached by normalized pair (both
    /// orientations minimize over the same region sets), so the first
    /// orientation evaluated answers both.
    fn get_or(&mut self, a: usize, b: usize, eval: impl FnOnce() -> f64) -> f64 {
        let (sa, sb) = (self.slot_of(a), self.slot_of(b));
        let idx = sa.min(sb) * self.stride + sa.max(sb);
        let hit = self.matrix[idx];
        if !hit.is_nan() {
            return hit;
        }
        let d = eval();
        self.matrix[idx] = d;
        d
    }
}

impl MergePlanner {
    /// Plans a round at or below the cutoff by delegating to the reference
    /// semantics, with exact distances memoized. At this size the exact
    /// all-pairs scan is cheaper than index maintenance (and ranks by
    /// exact cost, which the reference also switches to).
    pub(super) fn plan_tail(&mut self) -> Vec<(usize, usize)> {
        let active: Vec<usize> = self.entries.iter().map(|e| e.key()).collect();
        let hulls: Vec<Trr> = self.entries.iter().map(|e| e.region).collect();
        let mut memo = std::mem::take(&mut self.bf_cache);
        let nn = nearest_bruteforce(&active, &hulls, |i, j| {
            memo.get_or(active[i], active[j], || self.exact(i, j))
        });
        self.bf_cache = memo;
        let delay = |k: usize| self.entries[self.pos_of(k).expect("ranked keys are active")].delay;
        rank_and_select(&self.cfg, nn, active.len(), delay)
    }
}
