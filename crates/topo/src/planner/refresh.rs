//! Bulk maintenance: the initial neighbor derivation, the multi-merge
//! refresh sweep, and grid (re)builds.
//!
//! When a round replaces a large fraction of the active set, per-merge
//! patching re-derives almost everything anyway — so the planner starts
//! over in bulk: a fresh grid over the survivors, then every cache
//! re-derived, reusing every cached pair score a survivor can still vouch
//! for (which skips that pair's exact-distance refinement). The sweep runs
//! in the grid's cell order and relocates each entry's arena span as it
//! reaches it, so the arena leaves every refresh in cell order too.

use super::{MergePlanner, Nn};
use crate::GridIndex;

impl MergePlanner {
    /// Derives every neighbor cache and the flat sorted ranking in one
    /// bulk pass over a planner with no prior state (right after
    /// [`MergePlanner::new`]): no tree nodes, back-references or heap
    /// entries are built — a multi-merge refresh would discard them on the
    /// first round, and the point-update path rebuilds them on demand —
    /// and mutual nearest pairs pay the exact-distance refinement once,
    /// not twice (scores are symmetric).
    pub(super) fn bulk_derive(&mut self) {
        self.dirty.clear();
        self.pairs.clear();
        self.point_valid = false;
        let mut staged = std::mem::take(&mut self.sorted_pairs);
        staged.clear();
        // Cell order keeps consecutive queries in neighboring cells.
        for &(k, region) in self.grid.iter() {
            self.nn_queries += 1;
            let Some((nn_key, rd)) = self.grid.nearest(k, &region) else {
                continue; // sole entry
            };
            let i = self.pos_of(k).expect("grid holds active keys");
            let j = self.pos_of(nn_key).expect("grid holds active keys");
            let (lo, hi) = if k < nn_key { (k, nn_key) } else { (nn_key, k) };
            let score = match self.entries[j].nn() {
                Some(p) if p.key == k => p.score,
                _ => self.exact_score(i, j),
            };
            self.entries[i].set_nn(Nn {
                key: nn_key,
                region_dist: rd,
                score,
            });
            staged.push((score, lo as u32, hi as u32));
        }
        staged.sort_unstable();
        staged.dedup();
        self.sorted_pairs = staged;
        self.sorted_valid = true;
    }

    /// Rebuilds the grid over the live entries (in entries order), so the
    /// cell size and query bounds track the current active set. The new
    /// grid's caps start at zero. The caller re-lays the region arena out
    /// in the new cell order (a refresh does so during its sweep).
    pub(super) fn rebuild_grid(&mut self) {
        self.grid = GridIndex::build(self.entries.iter().map(|e| (e.key(), e.region)));
        self.grid_builds += 1;
        self.built_len = self.entries.len();
        self.built_extent = self.grid.max_extent();
    }

    /// Re-lays the region arena out in the grid's cell order (and drops
    /// the spans of consumed entries). A refresh does the same inside its
    /// sweep instead of in a pass of its own.
    pub(super) fn relayout(&mut self) {
        if self.arena.is_empty() {
            return; // every active subtree is a single region
        }
        self.arena.begin_relayout();
        for &(k, _) in self.grid.iter() {
            let i = self.pos_of(k).expect("grid holds active keys");
            self.arena.relocate(&mut self.entries[i]);
        }
        self.arena.end_relayout();
    }

    /// Amortized grid rebuild on the point-update path: when the active set
    /// has halved (stale cell size) or region extents have far outgrown the
    /// build-time extent (stale query bounds), rebuild from the live
    /// entries.
    pub(super) fn maybe_rebuild(&mut self) {
        let shrunk = 2 * self.entries.len() <= self.built_len;
        // Floor the extent baseline at a fraction of the cell size:
        // extents only degrade queries once they rival the cells, so a
        // point-leaf start (extent ~0) must not trigger a rebuild storm
        // the moment the first merged hulls appear.
        let baseline = self
            .built_extent
            .max(0.5 * self.grid.cell_size())
            .max(1e-12);
        let outgrown = self.grid.max_extent() > 4.0 * baseline;
        if !(shrunk || outgrown) || self.entries.len() < 2 {
            return;
        }
        self.rebuild_grid();
        self.relayout();
        // A rebuild resets the grid's per-cell caps; re-note the live
        // caches so the takeover scan keeps its local pruning.
        for i in 0..self.entries.len() {
            if let Some(nn) = self.entries[i].nn() {
                self.grid.note_cap(&self.entries[i].region, nn.region_dist);
            }
        }
    }

    /// Bulk maintenance sweep for a large round: one grid build over the
    /// survivors (the round's merges touched only the active set — see
    /// [`MergePlanner::drop_key`]), then every neighbor cache re-derived,
    /// sweeping the entries in the new grid's cell order. The invariant
    /// "every cache holds the exact nearest active neighbor" makes most of
    /// the work avoidable:
    ///
    /// * a cache whose neighbor **survived** is still the nearest among
    ///   survivors (removals cannot bring anyone closer), so anything
    ///   strictly closer must be one of the round's *new* subtrees — one
    ///   grid query bounded by its own cached distance decides it,
    ///   and usually comes back empty-handed (keep cache, score and all:
    ///   no exact distance refinement);
    /// * a cache whose neighbor was **consumed** re-queries the full grid,
    ///   seeded with the merge result that swallowed the neighbor (it sits
    ///   where the neighbor was, so ring expansion stays local);
    /// * the new subtrees themselves re-query the full grid unseeded.
    ///
    /// The ranking is then rebuilt as a flat sorted vector
    /// (`sorted_valid`) — in this regime it is replaced wholesale every
    /// round, so tree nodes would be built just to be dropped. Likewise
    /// `rev`, `rd_heap` and the grid's caps are left stale
    /// (`point_valid`): only the point-update path reads them.
    ///
    /// Each entry's arena span moves to the new cell order as the sweep
    /// reaches it, before its own exact distances are evaluated.
    pub(super) fn refresh(&mut self, merges: &[(usize, usize, usize)]) {
        self.rebuild_grid();
        self.arena.begin_relayout();
        self.dirty.clear();
        self.pairs.clear();
        self.point_valid = false;
        let mut staged = std::mem::take(&mut self.sorted_pairs);
        staged.clear();
        // Seed table for the new keys' own re-queries: the first sweep
        // entry that picks a new key as its neighbor donates the exact
        // region distance (symmetric), bounding the new key's ring
        // expansion later in the same sweep. Keys are dense (module docs),
        // so the span tracks the round size; the guard keeps a
        // pathological key space from blowing the table up.
        const NO_SEED: (u32, f64) = (u32::MAX, f64::INFINITY);
        let mut seeds = std::mem::take(&mut self.seed_buf);
        seeds.clear();
        let m_min = merges.iter().map(|&(_, _, m)| m).min().expect("non-empty");
        let m_span = merges.iter().map(|&(_, _, m)| m).max().expect("non-empty") - m_min + 1;
        if m_span <= 4 * merges.len() + 16 {
            seeds.resize(m_span, NO_SEED);
        }
        // Cell order keeps consecutive queries in neighboring cells.
        for &(k, region) in self.grid.iter() {
            self.nn_queries += 1;
            let i = self.pos_of(k).expect("grid holds active keys");
            self.arena.relocate(&mut self.entries[i]);
            let old = self.entries[i].take_nn();
            let (nn_key, rd, reused_score) = match old {
                Some(o) if self.pos_of(o.key).is_some() => {
                    // Neighbor survived: the nearest survivor is unchanged,
                    // so anything strictly closer in the fresh grid is
                    // necessarily a new subtree taking over.
                    // The tight per-cache bound keeps the query local.
                    match self.grid.nearest_within(k, &region, o.region_dist) {
                        Some((mk, rd)) => (mk, rd, None),
                        None => (o.key, o.region_dist, Some(o.score)),
                    }
                }
                old => {
                    // Consumed neighbor (seeded by its merge result) or a
                    // new subtree (unseeded): full re-query.
                    let hint = old
                        .and_then(|o| {
                            let mk = self.consumer_of(o.key)?;
                            let mi = self.pos_of(mk)?;
                            Some((mk, region.distance(&self.entries[mi].region)))
                        })
                        .or_else(|| {
                            let &(r, rd) = seeds.get(k.checked_sub(m_min)?)?;
                            (r != u32::MAX).then_some((r as usize, rd))
                        });
                    match self.grid.nearest_with_hint(k, &region, hint) {
                        Some((nk, rd)) => (nk, rd, None),
                        None => continue, // sole survivor
                    }
                }
            };
            if let Some(s) = nn_key.checked_sub(m_min).and_then(|i| seeds.get_mut(i)) {
                if s.0 == u32::MAX {
                    *s = (k as u32, rd);
                }
            }
            let (lo, hi) = if k < nn_key { (k, nn_key) } else { (nn_key, k) };
            // Where the pair is new, the partner may still hold its score
            // (scores are symmetric); only genuinely new pairs pay the
            // exact-distance refinement.
            let score = reused_score.unwrap_or_else(|| {
                let j = self.pos_of(nn_key).expect("grid holds active keys");
                match self.entries[j].nn() {
                    Some(p) if p.key == k => p.score,
                    _ => self.exact_score(i, j),
                }
            });
            self.entries[i].set_nn(Nn {
                key: nn_key,
                region_dist: rd,
                score,
            });
            staged.push((score, lo as u32, hi as u32));
        }
        self.arena.end_relayout();
        staged.sort_unstable();
        staged.dedup();
        self.sorted_pairs = staged;
        self.sorted_valid = true;
        self.seed_buf = seeds;
    }
}
