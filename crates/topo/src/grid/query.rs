//! Ring-walk queries over the [`GridIndex`]: exact nearest-neighbor (with
//! ring-order or key-ranked ties) and bounded neighborhood visits, all driven by the one ring walk
//! ([`GridIndex::ring_walk`]). Split from the index maintenance in
//! `mod.rs`; the ring visit order is part of the planner's deterministic
//! tie-breaking (see [`for_ring_cells`]).

use astdme_geom::Trr;

use super::{Cell, GridIndex};

impl GridIndex {
    /// The nearest other item to `region` (excluding `key` itself), by
    /// exact region distance, or `None` if the index has no other items.
    pub fn nearest(&self, key: usize, region: &Trr) -> Option<(usize, f64)> {
        self.nearest_with_hint(key, region, None)
    }

    /// [`GridIndex::nearest`] seeded with a known item and its exact
    /// region distance (it must currently be stored in the index): ring
    /// expansion prunes against the hint from the start, so callers that
    /// already hold a good candidate — the incremental planner refreshing
    /// a surviving neighbor cache — pay only the cells that could beat it.
    /// Ties resolve toward the hint (a strictly closer item replaces it).
    pub fn nearest_with_hint(
        &self,
        key: usize,
        region: &Trr,
        hint: Option<(usize, f64)>,
    ) -> Option<(usize, f64)> {
        if self.len <= 1 {
            return None;
        }
        let horizon = hint.map_or(f64::INFINITY, |(_, d)| d);
        self.nearest_below(key, region, hint, horizon)
    }

    /// The nearest other item to `region` at exact region distance
    /// *strictly below* `bound`, or `None` when nothing beats the bound.
    /// Ring expansion prunes against `bound` from the start, so a tight
    /// bound touches only a handful of cells. The incremental planner
    /// checks neighbor caches this way, each query bounded by the cache's
    /// own distance: the refresh sweep queries the main grid for every
    /// cache whose neighbor survived the round, and the point-update
    /// takeover queries a small grid of the round's new subtrees.
    pub fn nearest_within(&self, key: usize, region: &Trr, bound: f64) -> Option<(usize, f64)> {
        if self.len == 0 {
            return None;
        }
        self.nearest_below(key, region, None, bound)
    }

    /// The nearest other item to `region` (excluding `key` itself), with
    /// exact distance ties going to the **smallest key**, whether another
    /// item ties it, and the number of items whose distance the query
    /// measured.
    ///
    /// Unlike [`GridIndex::nearest`], whose ties follow the ring visit
    /// order, the answer here is a function of the item set alone: it is
    /// what a linear scan in key order keeping the first strict minimum
    /// returns. A caller that keys items by their position in its own
    /// list (the ECO replay does) thus gets exactly its brute-force
    /// "first in list order wins" rule. Cells are pruned only when they
    /// lie strictly farther than the best distance found, so an equally
    /// near item with a smaller key is never skipped.
    pub fn nearest_ranked(&self, key: usize, region: &Trr) -> (Option<(usize, f64)>, bool, usize) {
        let mut best: Option<(usize, f64)> = None;
        let mut tied = false;
        let mut visits = 0usize;
        if self.len <= 1 {
            return (None, false, 0);
        }
        self.ring_walk(region, f64::INFINITY, |items, _, _| {
            for (k, t) in items {
                if *k == key {
                    continue;
                }
                visits += 1;
                let d = region.distance(t);
                match best {
                    Some((_, bd)) if d < bd => tied = false,
                    Some((bk, bd)) if d <= bd => {
                        tied = true;
                        if bk < *k {
                            continue;
                        }
                    }
                    Some(_) => continue,
                    None => {}
                }
                best = Some((*k, d));
            }
            // The walk skips cells whose lower bound reaches the horizon;
            // one ulp past the best keeps cells that could tie it.
            best.map_or(f64::INFINITY, |(_, d)| d.next_up())
        });
        (best, tied, visits)
    }

    /// The nearest item other than `key` strictly closer than `horizon`,
    /// or `best` when none is. Each strictly closer item found replaces
    /// `best` and tightens the horizon to its distance.
    fn nearest_below(
        &self,
        key: usize,
        region: &Trr,
        mut best: Option<(usize, f64)>,
        mut horizon: f64,
    ) -> Option<(usize, f64)> {
        self.ring_walk(region, horizon, |items, _, _| {
            for (k, t) in items {
                if *k == key {
                    continue;
                }
                let d = region.distance(t);
                if d < horizon {
                    best = Some((*k, d));
                    horizon = d;
                }
            }
            horizon
        });
        best
    }

    /// Visits every item (other than `key`) whose exact region distance to
    /// `region` is at most `bound`, calling `f(item_key, distance)` —
    /// except in cells whose noted cap ([`GridIndex::note_cap`]) rules
    /// every item out: a cell is visited only if some item in it could lie
    /// *strictly closer* than both the cell's own cap and `bound`. The
    /// planner's neighbor-takeover scan uses this with per-entry cached
    /// distances as caps, so the global `bound` (the largest cached
    /// distance anywhere) only sets the ring-walk horizon while dense
    /// regions prune themselves locally. With caps of at least `bound`
    /// this is a plain range query.
    ///
    /// Returns the number of items whose distance the query measured.
    pub fn neighbors_within_capped<F: FnMut(usize, f64)>(
        &self,
        key: usize,
        region: &Trr,
        bound: f64,
        mut f: F,
    ) -> usize {
        let mut visits = 0usize;
        if self.len == 0 {
            return visits;
        }
        self.ring_walk(region, bound, |items, cell, lb| {
            if lb < cell.cap {
                for (k, t) in items {
                    if *k == key {
                        continue;
                    }
                    visits += 1;
                    let d = region.distance(t);
                    if d <= bound {
                        f(*k, d);
                    }
                }
            }
            bound
        });
        visits
    }

    /// The one ring walk behind every query: visits the populated cells
    /// ring by ring outward from `region`'s cell, stopping once no
    /// unvisited cell can hold an item strictly closer than `horizon`, and
    /// skipping each cell that cannot. `visit(items, cell, lb)` sees the
    /// cell's live items and the cell's distance lower bound `lb`, and
    /// returns the (possibly tightened) horizon.
    fn ring_walk(
        &self,
        region: &Trr,
        mut horizon: f64,
        mut visit: impl FnMut(&[(usize, Trr)], &Cell, f64) -> f64,
    ) {
        let center_cell = self.cell_of(region.center());
        // Every populated cell lies within Chebyshev distance `max_ring` of
        // the query cell, so rings beyond it cannot contain items.
        let max_ring = (center_cell.0 - self.cell_min.0)
            .abs()
            .max((self.cell_max.0 - center_cell.0).abs())
            .max((center_cell.1 - self.cell_min.1).abs())
            .max((self.cell_max.1 - center_cell.1).abs())
            .max(0);
        for ring in 0..=max_ring {
            // Lower bound on distance for items in this ring: their center
            // is at least (ring - 1) cells away (center-to-center L1 is at
            // least the per-axis gap); region distance trims at most half
            // of each diameter off that.
            let base = ((ring - 1).max(0) as f64) * self.cell_size;
            if base - 0.5 * (self.max_extent + region.diameter()) >= horizon {
                break;
            }
            for_ring_cells(center_cell, ring, |cx, cy| {
                let Some((items, cell)) = self.cell(cx, cy) else {
                    return;
                };
                // The same bound with the cell's own extent: a far-away
                // huge region cannot force item scans here.
                let lb = base - 0.5 * (cell.ext + region.diameter());
                if lb >= horizon {
                    return;
                }
                horizon = visit(items, cell, lb);
            });
        }
    }
}

/// Visits the cells at Chebyshev ring `r` around `center` (just the center
/// for `r = 0`), inline — queries run per merge, so the ring walk must not
/// allocate. The visit order (top/bottom rows interleaved by column, then
/// the side columns) is part of the planner's deterministic tie-breaking:
/// keep it stable.
#[inline]
fn for_ring_cells(center: (i64, i64), r: i64, mut f: impl FnMut(i64, i64)) {
    let (cx, cy) = center;
    if r == 0 {
        f(cx, cy);
        return;
    }
    for dx in -r..=r {
        f(cx + dx, cy - r);
        f(cx + dx, cy + r);
    }
    for dy in (-r + 1)..r {
        f(cx - r, cy + dy);
        f(cx + r, cy + dy);
    }
}
