//! Bulk maintenance: the sweep behind the initial neighbor derivation and
//! the multi-merge refresh, and grid (re)builds.
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

    /// Bulk maintenance for a large round: one grid build over the
    /// survivors (the round's merges touched only the active set — see
    /// [`MergePlanner::drop_key`]), then the [`MergePlanner::sweep`].
    pub(super) fn refresh(&mut self) {
        self.rebuild_grid();
        self.sweep();
    }

    /// Re-derives every neighbor cache and the flat sorted ranking,
    /// sweeping the entries in the grid's cell order: after a refresh's
    /// grid build, and as the initial derivation right after
    /// [`MergePlanner::new`]. The invariant "every cache holds the nearest
    /// active neighbor, smallest key among ties" makes most of the work
    /// avoidable:
    ///
    /// * a cache whose neighbor **survived** is still the nearest among
    ///   survivors (removals cannot bring anyone nearer), so only one of
    ///   the round's *new* subtrees can beat or tie it — one grid query
    ///   with the cache as its incumbent decides it, and usually keeps it
    ///   (cache, score and all: no exact distance refinement);
    /// * any other entry re-queries the full grid, and a pair whose
    ///   partner already caches it reuses the partner's score, so mutual
    ///   neighbors pay the exact-distance refinement once.
    ///
    /// The ranking is then rebuilt as a flat sorted vector
    /// (`sorted_valid`) — in this regime it is replaced wholesale every
    /// round, so tree nodes would be built just to be dropped. Likewise
    /// `rev`, `rd_heap` and the grid's caps are left stale
    /// (`point_valid`): only the point-update path reads them.
    ///
    /// Each entry's arena span moves to the new cell order as the sweep
    /// reaches it, before its own exact distances are evaluated.
    pub(super) fn sweep(&mut self) {
        self.arena.begin_relayout();
        self.dirty.clear();
        self.pairs.clear();
        self.point_valid = false;
        let mut staged = std::mem::take(&mut self.sorted_pairs);
        staged.clear();
        // Cell order keeps consecutive queries in neighboring cells.
        for &(k, region) in self.grid.iter() {
            self.nn_queries += 1;
            let i = self.pos_of(k).expect("grid holds active keys");
            self.arena.relocate(&mut self.entries[i]);
            // A surviving neighbor is still the nearest survivor, so only
            // a new subtree can beat or tie it: it is the query's
            // incumbent.
            let survived = self.entries[i]
                .take_nn()
                .filter(|o| self.pos_of(o.key).is_some());
            let incumbent = survived.map(|o| (o.key, o.region_dist));
            let found = self.grid.nearest(k, &region, incumbent);
            let Some((nn_key, rd)) = found.best else {
                continue; // sole survivor
            };
            // A kept neighbor keeps its score: no exact-distance refinement.
            let reused_score = survived.filter(|o| o.key == nn_key).map(|o| o.score);
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
                tied: found.tied,
                score,
            });
            staged.push((score, lo as u32, hi as u32));
        }
        self.arena.end_relayout();
        staged.sort_unstable();
        staged.dedup();
        self.sorted_pairs = staged;
        self.sorted_valid = true;
    }
}
