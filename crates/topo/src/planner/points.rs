//! The point-update maintenance path: dirty-cache flushes, neighbor
//! takeover scans, and the takeover bound.
//!
//! Greedy rounds (and multi-merge rounds small enough to dodge the refresh
//! divisor) patch the neighbor structure per merge: only caches whose
//! neighbor was consumed re-query the grid, and one bounded range query
//! per new subtree decides whether it became anyone's nearest neighbor.

use std::collections::BinaryHeap;

use super::keys::active_pos;
use super::MergePlanner;
use crate::Nearest;

impl MergePlanner {
    /// Rebuilds the back-reference lists and the takeover max-heap from
    /// the current caches. Called when the point-update path follows a
    /// refresh (which maintains neither — the refresh regime never reads
    /// them).
    pub(super) fn ensure_point_mode(&mut self) {
        self.ensure_heap();
        if self.point_valid {
            return;
        }
        for slot in &mut self.rev {
            slot.clear();
        }
        self.rev.resize_with(self.pos.len(), Vec::new);
        let mut heap_vec = std::mem::take(&mut self.rd_heap).into_vec();
        heap_vec.clear();
        for i in 0..self.entries.len() {
            let k = self.entries[i].key();
            if let Some(nn) = self.entries[i].nn() {
                self.rev[nn.key].push(k as u32);
                heap_vec.push((nn.region_dist.to_bits(), k));
                // The refresh regime sets caches without noting grid caps
                // (it never runs takeover scans); catch the caps up.
                self.grid.note_cap(&self.entries[i].region, nn.region_dist);
            }
        }
        self.rd_heap = BinaryHeap::from(heap_vec);
        self.point_valid = true;
    }

    /// Re-queries every key whose cached neighbor was invalidated.
    pub(super) fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return; // steady state after a refresh: nothing to patch
        }
        if std::mem::take(&mut self.fresh) {
            self.sweep();
            return;
        }
        self.ensure_point_mode();
        while let Some(k) = self.dirty.pop() {
            let Some(i) = self.pos_of(k) else {
                continue; // consumed after being marked dirty
            };
            if self.entries[i].nn().is_some() {
                continue; // refilled (or re-listed) in the meantime
            }
            let region = self.entries[i].region;
            self.nn_queries += 1;
            let found = self.grid.nearest(k, &region, None);
            let Some((nn_key, rd)) = found.best else {
                continue; // sole survivor
            };
            // Scores are symmetric: when the partner already caches this
            // pair, its score is reused and the exact-distance refinement
            // is skipped.
            let j = self.pos_of(nn_key).expect("grid holds active keys");
            match self.entries[j].nn().filter(|p| p.key == k) {
                Some(p) => self.set_nn_scored(i, nn_key, rd, found.tied, p.score),
                None => self.set_nn(i, j, rd, found.tied),
            }
        }
    }

    /// Re-points every cached neighbor that the new subtree `key` beats,
    /// or ties with a smaller key, via one range query bounded by `bound`
    /// (≥ every live cached distance); a cache it ties without winning is
    /// marked tied.
    pub(super) fn takeover_from(&mut self, key: usize, bound: f64) {
        let i = self.pos_of(key).expect("new key is active");
        let region = self.entries[i].region;
        let mut takeovers = std::mem::take(&mut self.takeover_buf);
        takeovers.clear();
        self.nn_queries += 1;
        {
            let (grid, pos, entries) = (&self.grid, &self.pos, &self.entries);
            grid.neighbors_within_capped(key, &region, bound, |k, rd| {
                let Some(ki) = active_pos(pos, k) else {
                    return;
                };
                let Some(nn) = entries[ki].nn() else {
                    return;
                };
                let mut found = Nearest::seeded(Some((nn.key, nn.region_dist)), nn.tied);
                if found.offer(key, rd) || found.tied != nn.tied {
                    takeovers.push((ki, found));
                }
            });
        }
        for &(ti, found) in &takeovers {
            match found.best {
                Some((k, rd)) if k == key => self.set_nn(ti, i, rd, found.tied),
                _ => self.entries[ti].mark_tied(),
            }
        }
        self.takeover_buf = takeovers;
    }

    /// The largest cached neighbor distance among live entries, popping
    /// stale heap tops (re-pointed or consumed keys) on the way.
    pub(super) fn current_max_rd(&mut self) -> Option<f64> {
        while let Some(&(bits, k)) = self.rd_heap.peek() {
            let live = self.pos_of(k).is_some_and(|i| {
                self.entries[i]
                    .nn()
                    .is_some_and(|nn| nn.region_dist.to_bits() == bits)
            });
            if live {
                return Some(f64::from_bits(bits));
            }
            self.rd_heap.pop();
        }
        None
    }
}
