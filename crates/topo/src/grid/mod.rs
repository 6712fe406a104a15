//! Bucketed neighbor index over subtree root regions.

use astdme_geom::{Point, Trr};

/// A uniform-grid index over region center points, answering
/// nearest-neighbor queries by exact region distance.
///
/// Regions are bucketed by center into a dense row-major cell array over
/// the build-time bounding box — a cell visit is an array index, never a
/// hash. Queries expand rings of cells outward and stop once no unvisited
/// cell can reach the best exact distance found (accounting for region
/// extents). Items inserted after the build whose center falls outside the
/// original box are clamped into the border cells, which only ever
/// *under*-estimates their ring distance — conservative, so queries stay
/// exact. Used by the merge planners and the ECO replay to avoid
/// all-pairs scans.
///
/// There is one nearest-neighbor query, [`GridIndex::nearest`], and one
/// tie rule: among exactly equal distances the smallest key wins (see
/// [`Nearest`]). A query prunes a cell only when it lies strictly
/// farther than the best so far, so its answer is a function of the
/// stored items alone: the cell layout and visit order below are not part
/// of any answer.
///
/// # Layout
///
/// The items live in **one flat array laid out cell by cell** (CSR style):
/// each cell owns a contiguous run of slots, its live items first, then
/// any free slots. [`GridIndex::build`] fills the array with a stable
/// counting sort and no free slots, so every cell holds its items in
/// input order. After that [`GridIndex::insert`] appends at the cell's
/// live end, and [`GridIndex::remove`] moves the cell's last live item
/// into the vacated slot. When an insert finds its cell full, the whole
/// array is re-laid out with free slots behind every cell.
///
/// ```
/// use astdme_geom::{Point, Trr};
/// use astdme_topo::GridIndex;
///
/// let items = vec![
///     (7, Trr::from_point(Point::new(0.0, 0.0))),
///     (9, Trr::from_point(Point::new(10.0, 0.0))),
///     (4, Trr::from_point(Point::new(100.0, 100.0))),
/// ];
/// let idx = GridIndex::build(items.iter().copied());
/// let found = idx.nearest(7, &items[0].1, None);
/// assert_eq!(found.best, Some((9, 10.0)));
/// assert!(!found.tied);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Every cell's slots, cell by cell in row-major cell order: cell `i`
    /// owns `items[cells[i].start..cells[i].end]`, live items first.
    items: Vec<(usize, Trr)>,
    /// Row-major `(grid_w × grid_h)` cells.
    cells: Vec<Cell>,
    grid_w: i64,
    grid_h: i64,
    cell_size: f64,
    origin: Point,
    max_extent: f64,
    len: usize,
    // Populated cell bounds (conservative: never shrunk on removal).
    cell_min: (i64, i64),
    cell_max: (i64, i64),
}

/// One grid cell: its run of slots in the flat item array and its pruning
/// bounds.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// First slot of the cell.
    start: u32,
    /// Live items, stored in `start..start + len`.
    len: u32,
    /// One past the cell's last slot; slots `start + len..end` are free.
    end: u32,
    /// Largest region diameter in the cell (conservative: never shrunk on
    /// removal). Ring walks prune whole cells against this before touching
    /// their items, so one huge region only taxes queries near *its* cell,
    /// not the `max_extent` bound of every query in the index.
    ext: f64,
    /// Caller-attached cap ([`GridIndex::note_cap`]; zero until noted,
    /// zero again after a build). The incremental planner notes each
    /// entry's cached nearest-neighbor distance here, which lets
    /// [`GridIndex::neighbors_within_capped`] skip cells whose entries all
    /// hold caches tighter than their distance to the query — the
    /// neighbor-takeover scan then pays for the query's *local*
    /// neighborhood instead of the global worst cache.
    cap: f64,
}

mod query;

pub use query::Nearest;

/// Converts a slot offset to the cells' `u32` width.
fn slot(i: usize) -> u32 {
    u32::try_from(i).expect("grid index holds at most u32::MAX slots")
}

impl GridIndex {
    /// Builds an index over `(key, region)` items, each cell holding its
    /// items in input order (see the type docs). The iterator is walked
    /// three times: bounding box, cell counts, placement.
    ///
    /// Keys must be unique: a query excludes its own key.
    pub fn build<I>(items: I) -> Self
    where
        I: IntoIterator<Item = (usize, Trr)>,
        I::IntoIter: Clone,
    {
        let items = items.into_iter();
        let (mut x0, mut y0, mut x1, mut y1) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
        let mut count = 0usize;
        let mut max_extent = 0.0f64;
        for (_, t) in items.clone() {
            let c = t.center();
            x0 = x0.min(c.x);
            y0 = y0.min(c.y);
            x1 = x1.max(c.x);
            y1 = y1.max(c.y);
            max_extent = max_extent.max(t.diameter());
            count += 1;
        }
        let total = slot(count) as usize;
        if count == 0 {
            (x0, y0, x1, y1) = (0.0, 0.0, 1.0, 1.0);
        }
        let n = count.max(1);
        // ~1-2 items per cell on average; for degenerate (e.g. collinear)
        // layouts the area underestimates spacing badly, so also respect
        // the per-axis average spacing, and never go below a sane floor.
        let (w, h) = (x1 - x0, y1 - y0);
        let cell_size = (w * h / n as f64)
            .sqrt()
            .max(w / n as f64)
            .max(h / n as f64)
            .max(1e-9 * (1.0 + w.max(h)))
            .max(1e-9);
        // Truncation differs from `floor` only on negative non-integers,
        // where both sides come out at most 1 and `max(1)` evens them.
        let grid_w = ((w / cell_size) as i64 + 1).max(1);
        let grid_h = ((h / cell_size) as i64 + 1).max(1);
        let mut g = Self {
            items: Vec::new(),
            cells: vec![Cell::default(); (grid_w * grid_h) as usize],
            grid_w,
            grid_h,
            cell_size,
            origin: Point::new(x0, y0),
            max_extent,
            len: count,
            cell_min: (i64::MAX, i64::MAX),
            cell_max: (i64::MIN, i64::MIN),
        };
        // Counting sort: count per cell, prefix-sum into starts, then
        // place in input order (stable within each cell).
        for (_, t) in items.clone() {
            let i = g.note_cell(&t);
            g.cells[i].len += 1;
        }
        let mut offset = 0u32;
        for c in &mut g.cells {
            c.start = offset;
            offset += c.len;
            c.end = offset;
            c.len = 0;
        }
        if let Some(filler) = items.clone().next() {
            g.items = vec![filler; total];
        }
        for (key, t) in items {
            let i = g.index_of(&t);
            let c = &mut g.cells[i];
            g.items[(c.start + c.len) as usize] = (key, t);
            c.len += 1;
        }
        g
    }

    /// The cell coordinates of `p`, clamped into the dense array. Clamping
    /// moves a cell *toward* any query center, so ring lower bounds only
    /// under-estimate — conservative for exactness.
    ///
    /// The `as i64` cast truncates toward zero where `floor` rounds down,
    /// but the two differ only on negative non-integers, which both land
    /// below zero or on zero and clamp to cell 0; NaN casts to 0 and ±∞
    /// saturate, again like the floored value. So the cell is exactly
    /// the floored one, without a libm `floor` call on the baseline
    /// x86-64 target (two per query, four per built item).
    fn cell_of(&self, p: Point) -> (i64, i64) {
        let cx = ((p.x - self.origin.x) / self.cell_size) as i64;
        let cy = ((p.y - self.origin.y) / self.cell_size) as i64;
        (cx.clamp(0, self.grid_w - 1), cy.clamp(0, self.grid_h - 1))
    }

    /// The dense index of the cell holding `region`'s center.
    #[inline]
    fn index_of(&self, region: &Trr) -> usize {
        let (cx, cy) = self.cell_of(region.center());
        (cy * self.grid_w + cx) as usize
    }

    /// [`GridIndex::index_of`], also widening the populated bounds and the
    /// cell's extent bound to cover `region`.
    fn note_cell(&mut self, region: &Trr) -> usize {
        let cell = self.cell_of(region.center());
        self.cell_min = (self.cell_min.0.min(cell.0), self.cell_min.1.min(cell.1));
        self.cell_max = (self.cell_max.0.max(cell.0), self.cell_max.1.max(cell.1));
        let i = (cell.1 * self.grid_w + cell.0) as usize;
        self.cells[i].ext = self.cells[i].ext.max(region.diameter());
        i
    }

    /// The live items of cell `(cx, cy)` together with the cell, or `None`
    /// when the cell is outside the grid or empty.
    #[inline]
    fn cell(&self, cx: i64, cy: i64) -> Option<(&[(usize, Trr)], &Cell)> {
        if cx < 0 || cy < 0 || cx >= self.grid_w || cy >= self.grid_h {
            return None;
        }
        let c = &self.cells[(cy * self.grid_w + cx) as usize];
        if c.len == 0 {
            return None;
        }
        Some((&self.items[c.start as usize..(c.start + c.len) as usize], c))
    }

    /// Inserts an item at the end of its cell (`Vec::push` order).
    pub fn insert(&mut self, key: usize, region: Trr) {
        self.max_extent = self.max_extent.max(region.diameter());
        let i = self.note_cell(&region);
        if self.cells[i].start + self.cells[i].len == self.cells[i].end {
            self.relayout(region);
        }
        let c = &mut self.cells[i];
        self.items[(c.start + c.len) as usize] = (key, region);
        c.len += 1;
        self.len += 1;
    }

    /// Re-lays the flat array out, cell by cell in each cell's current
    /// order, leaving `len / 2 + 2` free slots behind every cell. `filler`
    /// only pads the free slots (they are never read).
    fn relayout(&mut self, filler: Trr) {
        let room = |len: u32| len + len / 2 + 2;
        let total: usize = self.cells.iter().map(|c| room(c.len) as usize).sum();
        let mut items = Vec::with_capacity(slot(total) as usize);
        for c in &mut self.cells {
            let start = items.len();
            items.extend_from_slice(&self.items[c.start as usize..(c.start + c.len) as usize]);
            items.resize(start + room(c.len) as usize, (usize::MAX, filler));
            c.start = start as u32;
            c.end = items.len() as u32;
        }
        self.items = items;
    }

    /// Removes an item by key; returns `true` if it was present. The
    /// cell's last live item moves into the vacated slot
    /// (`Vec::swap_remove` order).
    pub fn remove(&mut self, key: usize, region: &Trr) -> bool {
        let i = self.index_of(region);
        let c = &mut self.cells[i];
        let live = &mut self.items[c.start as usize..(c.start + c.len) as usize];
        let Some(j) = live.iter().position(|(k, _)| *k == key) else {
            return false;
        };
        live[j] = live[live.len() - 1];
        c.len -= 1;
        self.len -= 1;
        true
    }

    /// Every stored item, cell by cell in row-major cell order, each cell
    /// in its item order. Sweeping the items in this order keeps
    /// consecutive queries in neighboring cells.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(usize, Trr)> + '_ {
        self.cells
            .iter()
            .flat_map(|c| &self.items[c.start as usize..(c.start + c.len) as usize])
    }

    /// Number of items currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The largest region diameter ever inserted (conservative: never
    /// shrunk on removal). Query ring bounds derive from it, so callers
    /// maintaining an index long-term (the incremental planner) watch this
    /// to decide when a rebuild pays off.
    pub fn max_extent(&self) -> f64 {
        self.max_extent
    }

    /// The cell edge length: the scale against which region extents are
    /// "large" for this index (ring walks lengthen once extents pass it).
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Returns `true` if the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raises the cap of the cell containing `region`'s center so that
    /// [`GridIndex::neighbors_within_capped`] visits the cell wherever its
    /// distance lower bound is at most `value`; a cell with no cap noted
    /// is visited only where its lower bound is negative. Caps only ever
    /// grow between builds — conservative under removals and re-pointed
    /// caches — and `build` starts them at zero, so long-lived callers
    /// must re-note after a rebuild.
    pub fn note_cap(&mut self, region: &Trr, value: f64) {
        let i = self.index_of(region);
        // Stored one ulp up: the walk's strict `lb < cap` then admits
        // `lb == value`, where an item can tie the cap.
        let cap = value.next_up();
        if cap > self.cells[i].cap {
            self.cells[i].cap = cap;
        }
    }
}

#[cfg(test)]
mod tests;
