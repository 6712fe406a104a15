//! One replayed round's fresh nearest-neighbor scans, and what they cost.
//!
//! A replayed round inherits most of its neighbor table from the recorded
//! snapshot; the rest must be scanned against the round's active hulls
//! (see [`replay_merges`](super::replay::replay_merges)). The scans come
//! in two kinds, and two ways of running them:
//!
//! * a **stale** or **novel** entry finds its own nearest neighbor;
//! * a **novel** entry takes over every inherited entry it sits strictly
//!   nearer to than that entry's neighbor, or exactly as near with a
//!   smaller key.
//!
//! Both follow the planner's one tie rule ([`Nearest`]): among exactly
//! equal hull distances the smallest node key wins, and a row records
//! whether its neighbor won a tie, so that the next replay re-scans it.
//!
//! A linear sweep over the round's hulls answers one scan with `n` visits
//! (hull-distance evaluations). When a round has enough sweeps to run
//! ([`grid_pays`]), one [`GridIndex`] built over the round's hulls (keyed
//! by node, like the planner's) answers them instead: own neighbors
//! through [`GridIndex::nearest`], and takeovers through
//! [`GridIndex::neighbors_within_capped`], each cell capped by the
//! largest recorded neighbor distance among the inherited entries in it.
//! Both ways produce the same table bit for bit; only the work differs.
//! No grid outlives its round: keeping one up to date across a flush
//! costs more than a one-sink flush's few linear sweeps.
//!
//! The scans report the visits they make, which the replay charges
//! against its price (see [`ROUTE_VISITS_PER_SINK`]). A grid's build and
//! the empty or capped cells its ring walks pass over are not charged:
//! what the price guards against, scans that meet most of the round's
//! subtrees (dense piles, edit storms), shows up in the visits either
//! way.

use astdme_geom::Trr;
use astdme_topo::{
    pair_score, score_bits, space_distance, GridIndex, MergeSpace, Nearest, TopoConfig,
};

use crate::drivers::{ForestSpace, RankedRow};

/// The visits a from-scratch route costs per sink: a replay of an
/// `n`-sink route declines once its scans pass `n` times this.
///
/// Calibrated on a shared 2-core x86-64 VM. The replay's linear sweep
/// costs 5.2–6.3 ns per visit over 16 000 hulls. `AstDme::new()` routes
/// the benchmark's intermingled 4-group 10 ps designs in a median of
/// 31 ms at 4 000 sinks, 136 ms at 16 000 and 587 ms at 64 000, which
/// is 1 240–1 450, 1 370–1 610 and 1 480–1 730 visits per sink. The
/// route grows a little faster than `n`; 1 500 sits inside the
/// 16 000-sink band, the size of the ECO benchmark.
pub(super) const ROUTE_VISITS_PER_SINK: u64 = 1_500;

/// A round's grid costs this many visits per hull: a
/// [`GridIndex::build`], the cap notes for takeovers, and what its
/// queries cost beyond the visits they are charged. The figure is set on
/// whole flushes, not on the build alone (which times at about 11 ns, two
/// visits, per hull). Over 200 one-sink flushes of a 16 000-sink design
/// on a shared 2-core x86-64 VM, lowering it from 24 to 8, 4 and 2 sent
/// more rounds to a grid and raised the flush's scans from 2.40 ms to
/// 4.50, 3.59 and 5.11 ms, the grid rounds' share from 0.63 ms to
/// 3.1–4.9 ms. Answering only the own-neighbor scans on a grid, with
/// takeovers linear, raised the scans from 1.88 ms to 2.53 ms.
const GRID_BUILD_VISITS: usize = 24;

/// An own-neighbor [`GridIndex::nearest`] query costs this many visits,
/// ring walk included (325–440 ns per query over 16 000 hulls; about 11
/// of them are the visits it makes).
const GRID_QUERY_VISITS: usize = 80;

/// A takeover query ([`GridIndex::neighbors_within_capped`] bounded by
/// the largest recorded distance) costs this many visits (870–1 090 ns
/// per query: its ring walk reaches two to three cells out).
const GRID_TAKEOVER_VISITS: usize = 200;

/// Whether a round over `n` hulls runs its scans faster over a grid:
/// `refresh` own-neighbor sweeps and `novel` takeover sweeps cost about
/// `n` visits each when linear, against one grid and a query each. At
/// `n` = 16 000 the grid pays from about 25 sweeps on.
fn grid_pays(n: usize, refresh: usize, novel: usize) -> bool {
    let linear = (refresh + novel) * n;
    let grid = GRID_BUILD_VISITS * n + GRID_QUERY_VISITS * refresh + GRID_TAKEOVER_VISITS * novel;
    linear > grid
}

/// Where an active position's neighbor entry comes from.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Source {
    /// Not classified yet.
    #[default]
    Unset,
    /// Inherited from the recorded row, unchanged.
    Recorded,
    /// Inherited, then taken over (or tied) by a novel entry.
    TakenOver,
    /// Scanned for its own neighbor: stale or novel.
    Scanned,
}

/// A replayed round's neighbor table, indexed by active position, and
/// the entries it must re-scan. Reused round to round.
#[derive(Default)]
pub(super) struct RoundScan {
    /// Positions whose own neighbor must be scanned: stale and novel.
    refresh: Vec<usize>,
    /// Positions no recorded row reached: they may take over.
    novel: Vec<usize>,
    /// The inherited rows, translated into new keys, with their active
    /// positions, in recorded rank order.
    inherited: Vec<(RankedRow, u32)>,
    table: Table,
}

/// What the scans read and write, per active position.
#[derive(Default)]
struct Table {
    /// Where the position's entry comes from.
    source: Vec<Source>,
    /// The position's row in new keys: the translated recorded row of an
    /// inherited position, what the scans found for the rest. Read only
    /// where `source` says it was written this round.
    rows: Vec<RankedRow>,
    /// Inherited positions a novel entry took over or tied.
    taken: Vec<usize>,
    region_bufs: [Vec<Trr>; 2],
}

impl RoundScan {
    /// Starts a round over `n` active subtrees, every entry unset.
    pub(super) fn begin(&mut self, n: usize) {
        let t = &mut self.table;
        t.source.clear();
        t.source.resize(n, Source::Unset);
        t.rows.resize(n, RankedRow::new(0, 0, 0.0, 0, false));
        t.taken.clear();
        self.refresh.clear();
        self.novel.clear();
        self.inherited.clear();
        // Exact: the first round is the largest, so the list never grows.
        self.inherited.reserve_exact(n);
    }

    /// Position `ai` inherits `row`, its recorded row translated into new
    /// keys. Rows arrive in recorded rank order.
    pub(super) fn inherit(&mut self, ai: usize, row: RankedRow) {
        self.table.source[ai] = Source::Recorded;
        self.table.rows[ai] = row;
        self.inherited.push((row, ai as u32));
    }

    /// Position `ai` has a standing counterpart whose recorded neighbor is
    /// gone, or won a tie by a key order the new keys need not keep: it
    /// scans for its own neighbor.
    pub(super) fn stale(&mut self, ai: usize) {
        self.refresh.push(ai);
        self.table.source[ai] = Source::Scanned;
    }

    /// Marks every position still unclassified novel, in active order:
    /// the entries no recorded row reached have no standing counterpart
    /// in the round, so they scan for their own neighbor and for
    /// takeovers.
    pub(super) fn novel_rest(&mut self) {
        for (ai, source) in self.table.source.iter_mut().enumerate() {
            if *source == Source::Unset {
                *source = Source::Scanned;
                self.refresh.push(ai);
                self.novel.push(ai);
            }
        }
    }

    /// The inherited rows no scan changed, in recorded rank order.
    pub(super) fn unchanged(&self) -> impl Iterator<Item = RankedRow> + '_ {
        let recorded =
            |&&(_, ai): &&(RankedRow, u32)| self.table.source[ai as usize] == Source::Recorded;
        self.inherited.iter().filter(recorded).map(|&(row, _)| row)
    }

    /// The rows the scans wrote: stale, novel and taken over.
    pub(super) fn changed(&self) -> impl Iterator<Item = RankedRow> + '_ {
        let t = &self.table;
        self.refresh.iter().chain(&t.taken).map(|&ai| t.rows[ai])
    }

    /// Runs the round's scans over `active` (keys), `hulls` (their
    /// representative regions, in step) and `pos` (key → active
    /// position), linearly or over a grid as [`grid_pays`] decides, and
    /// returns the visits they made.
    pub(super) fn scan(
        &mut self,
        space: &ForestSpace<'_>,
        topo: &TopoConfig,
        active: &[usize],
        hulls: &[Trr],
        pos: &[u32],
    ) -> u64 {
        if grid_pays(hulls.len(), self.refresh.len(), self.novel.len()) {
            self.scan_grid(space, topo, active, hulls, pos)
        } else {
            self.scan_linear(space, topo, active, hulls)
        }
    }

    /// The linear sweeps: every other subtree offered for own neighbors,
    /// then each novel entry offered to every inherited one.
    fn scan_linear(
        &mut self,
        space: &ForestSpace<'_>,
        topo: &TopoConfig,
        active: &[usize],
        hulls: &[Trr],
    ) -> u64 {
        let n = hulls.len();
        let t = &mut self.table;
        for &ai in &self.refresh {
            let (rx, mut horizon) = (hulls[ai], f64::INFINITY);
            let mut found = Nearest::default();
            for (yi, hy) in hulls.iter().enumerate() {
                let d = rx.distance(hy);
                if yi != ai && d <= horizon {
                    found.offer(active[yi], d);
                    horizon = d;
                }
            }
            t.rows[ai] = t.scored(space, topo, active[ai], found);
        }
        for &ci in &self.novel {
            let hc = hulls[ci];
            for (ui, hu) in hulls.iter().enumerate() {
                t.offer(space, topo, active, ui, active[ci], hu.distance(&hc));
            }
        }
        (self.refresh.len() * (n - 1) + self.novel.len() * self.inherited.len()) as u64
    }

    /// The same scans answered by one grid over the round's hulls.
    fn scan_grid(
        &mut self,
        space: &ForestSpace<'_>,
        topo: &TopoConfig,
        active: &[usize],
        hulls: &[Trr],
        pos: &[u32],
    ) -> u64 {
        let mut grid = GridIndex::build(active.iter().copied().zip(hulls.iter().copied()));
        let mut visits = 0u64;
        let t = &mut self.table;
        for &ai in &self.refresh {
            let found = grid.nearest(active[ai], &hulls[ai], None);
            visits += found.visits as u64;
            t.rows[ai] = t.scored(space, topo, active[ai], found);
        }
        if self.novel.is_empty() || self.inherited.is_empty() {
            return visits;
        }
        // A takeover or a tie needs a hull distance at most the victim's
        // recorded one, so each cell is capped at its inherited entries'
        // largest, and the walk is bounded by the largest of all.
        let mut bound = 0.0f64;
        for &(row, ui) in &self.inherited {
            grid.note_cap(&hulls[ui as usize], row.dist());
            bound = bound.max(row.dist());
        }
        for &ci in &self.novel {
            let c = active[ci];
            visits += grid.neighbors_within_capped(c, &hulls[ci], bound, |u, nd| {
                t.offer(space, topo, active, pos[u] as usize, c, nd);
            }) as u64;
        }
        visits
    }
}

impl Table {
    /// The row of subtree `x` for the neighbor a scan `found`: the pair's
    /// exact merging cost folded into the planner's score key.
    fn scored(
        &mut self,
        space: &ForestSpace<'_>,
        topo: &TopoConfig,
        x: usize,
        found: Nearest,
    ) -> RankedRow {
        let (v, rd) = found.best.expect("two or more active subtrees");
        let exact = space_distance(space, x, v, &mut self.region_bufs);
        let (lo, hi) = if x < v { (x, v) } else { (v, x) };
        let score = pair_score(topo, space.delay(lo), space.delay(hi), exact);
        RankedRow::new(x as u32, v as u32, rd, score_bits(score), found.tied)
    }

    /// Offers the novel subtree `c`, at hull distance `nd`, to the entry
    /// at position `ui` if it is inherited: `c` takes it over when
    /// strictly nearer than its neighbor or exactly as near with a
    /// smaller key, and marks it tied when exactly as near otherwise.
    fn offer(
        &mut self,
        space: &ForestSpace<'_>,
        topo: &TopoConfig,
        active: &[usize],
        ui: usize,
        c: usize,
        nd: f64,
    ) {
        let (source, row) = (self.source[ui], self.rows[ui]);
        if !matches!(source, Source::Recorded | Source::TakenOver) || nd > row.dist() {
            return;
        }
        let mut found = Nearest::seeded(Some((row.nn as usize, row.dist())), row.tied());
        if !found.offer(c, nd) && found.tied == row.tied() {
            return;
        }
        self.rows[ui] = self.scored(space, topo, active[ui], found);
        if source == Source::Recorded {
            self.source[ui] = Source::TakenOver;
            self.taken.push(ui);
        }
    }
}
