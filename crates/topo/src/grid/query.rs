//! Ring-walk queries over the [`GridIndex`]: the one ranked
//! nearest-neighbor query and the capped neighborhood visit, both driven
//! by the one ring walk ([`GridIndex::ring_walk`]). Split from the index
//! maintenance in `mod.rs`.

use astdme_geom::Trr;

use super::{Cell, GridIndex};

/// A nearest-neighbor search's answer under the one tie rule: the
/// smaller distance wins, and among exactly equal distances the smaller
/// key, whatever order the candidates come in. Every nearest-neighbor
/// search of the planners and the ECO replay keeps its answer here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Nearest {
    /// The winner as `(key, distance)`, or `None` before any candidate.
    pub best: Option<(usize, f64)>,
    /// Whether another candidate lies at exactly the winner's distance.
    pub tied: bool,
    /// The items whose distance the search measured.
    pub visits: usize,
}

impl Nearest {
    /// A search that starts from `incumbent` and its distance, `tied` if
    /// it is known to be.
    pub fn seeded(incumbent: Option<(usize, f64)>, tied: bool) -> Self {
        Self {
            best: incumbent,
            tied: tied && incumbent.is_some(),
            visits: 0,
        }
    }

    /// Offers candidate `key` at distance `d`; returns whether it became
    /// the winner. Offering the winner again changes nothing. Out of
    /// line: scans call it only for candidates within the horizon, and a
    /// small loop body keeps the ring walk's visits inlined.
    #[inline(never)]
    pub fn offer(&mut self, key: usize, d: f64) -> bool {
        match self.best {
            Some((_, bd)) if d > bd => return false,
            Some((bk, bd)) if d >= bd => {
                if key == bk {
                    return false;
                }
                self.tied = true;
                if key > bk {
                    return false;
                }
            }
            _ => self.tied = false,
        }
        self.best = Some((key, d));
        true
    }

    /// Whether a candidate `key` at a distance of at least `floor` could
    /// still win.
    pub fn admits(&self, key: usize, floor: f64) -> bool {
        match self.best {
            Some((bk, bd)) => floor < bd || (floor <= bd && key < bk),
            None => true,
        }
    }

    /// The winner's distance (infinity before any candidate).
    fn horizon(&self) -> f64 {
        self.best.map_or(f64::INFINITY, |(_, d)| d)
    }
}

impl GridIndex {
    /// The nearest item to `region` other than `key` itself, by exact
    /// region distance, under the one tie rule of [`Nearest`]: the answer
    /// depends on the stored items alone, never on their cells.
    ///
    /// `incumbent` is a candidate the caller already holds with its exact
    /// distance, stored in the index or not: it bounds the ring walk from
    /// the start, so a caller refreshing a neighbor cache pays only for
    /// the cells that could beat or tie it. A cell is pruned only when it
    /// lies strictly farther than the best so far, so the `tied` flag is
    /// exact over the items and the incumbent.
    pub fn nearest(&self, key: usize, region: &Trr, incumbent: Option<(usize, f64)>) -> Nearest {
        let mut out = Nearest::seeded(incumbent, false);
        if self.len == 0 {
            return out;
        }
        let mut horizon = out.horizon();
        let mut met_self = false;
        let walked = self.ring_walk(region, horizon, |items, _, _| {
            for (k, t) in items {
                if *k == key {
                    met_self = true;
                    continue;
                }
                // Only an item within the horizon can win or tie.
                let d = region.distance(t);
                if d <= horizon {
                    out.offer(*k, d);
                    horizon = d;
                }
            }
            horizon
        });
        out.visits = walked - usize::from(met_self);
        out
    }

    /// Visits every item (other than `key`) whose exact region distance to
    /// `region` is at most `bound`, calling `f(item_key, distance)` —
    /// except in cells whose noted cap ([`GridIndex::note_cap`]) rules
    /// every item out: a cell is visited only if some item in it could lie
    /// within both the cell's own cap and `bound`. The planner's
    /// neighbor-takeover scan uses this with per-entry cached distances as
    /// caps, so the global `bound` (the largest cached distance anywhere)
    /// only sets the ring-walk horizon while dense regions prune
    /// themselves locally. With caps of at least `bound` this is a plain
    /// range query.
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
    /// unvisited cell can hold an item within `horizon`, and skipping each
    /// cell that cannot (a cell is skipped only when it lies strictly
    /// farther, so items exactly at the horizon are reached).
    /// `visit(items, cell, lb)` sees the cell's live items and the cell's
    /// distance lower bound `lb`, and returns the (possibly tightened)
    /// horizon. Returns the items in the cells visited. The visit order is
    /// not part of any answer.
    fn ring_walk(
        &self,
        region: &Trr,
        mut horizon: f64,
        mut visit: impl FnMut(&[(usize, Trr)], &Cell, f64) -> f64,
    ) -> usize {
        let mut walked = 0;
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
            if base - 0.5 * (self.max_extent + region.diameter()) > horizon {
                break;
            }
            for_ring_cells(center_cell, ring, |cx, cy| {
                let Some((items, cell)) = self.cell(cx, cy) else {
                    return;
                };
                // The same bound with the cell's own extent: a far-away
                // huge region cannot force item scans here.
                let lb = base - 0.5 * (cell.ext + region.diameter());
                if lb > horizon {
                    return;
                }
                walked += items.len();
                horizon = visit(items, cell, lb);
            });
        }
        walked
    }
}

/// Visits the cells at Chebyshev ring `r` around `center` (just the center
/// for `r = 0`), inline — queries run per merge, so the ring walk must not
/// allocate.
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
