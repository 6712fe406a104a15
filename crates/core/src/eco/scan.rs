//! One replayed round's fresh nearest-neighbor scans, and what they cost.
//!
//! A replayed round inherits most of its neighbor table from the recorded
//! snapshot; the rest must be scanned against the round's active hulls
//! (see [`replay_merges`](super::replay::replay_merges)). The scans come
//! in two kinds, and two ways of running them:
//!
//! * a **stale** or **novel** entry finds its own nearest neighbor, the
//!   first in active order among equal distances;
//! * a **novel** entry takes over every inherited entry it sits strictly
//!   closer to than that entry's recorded neighbor.
//!
//! A linear sweep over the round's hulls answers one scan with `n` visits
//! (hull-distance evaluations). When a round has enough sweeps to run
//! ([`grid_pays`]), one [`GridIndex`] built over the round's hulls (keyed
//! by active position) answers them instead: own neighbors through
//! [`GridIndex::nearest_ranked`], whose smallest-key tie rule is the
//! linear sweep's "first in active order", and takeovers through
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
use astdme_topo::{pair_score, score_bits, space_distance, GridIndex, MergeSpace, TopoConfig};

use crate::drivers::ForestSpace;

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

/// A [`GridIndex::nearest_ranked`] query costs this many visits, ring
/// walk included (325–440 ns per query over 16 000 hulls; about 11 of
/// them are the visits it makes).
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
    /// Inherited, then taken over by a novel entry.
    TakenOver,
    /// Scanned for its own neighbor: stale or novel.
    Scanned,
}

/// A replayed round's neighbor table, indexed by active position, and
/// the entries it must re-scan. Reused round to round. The inherited
/// entries' triples stay with the replay's recorded rows; the table
/// holds what the scans read and write.
#[derive(Default)]
pub(super) struct RoundScan {
    /// Per active position: where its entry comes from.
    source: Vec<Source>,
    /// Per inherited position (recorded or taken over): the hull distance
    /// to its neighbor, which a novel entry must beat to take it over.
    reach: Vec<f64>,
    /// Per scanned or taken-over position: the `(neighbor key, hull
    /// distance, score bits)` triple the scans found, the planner's
    /// snapshot triple.
    found: Vec<(usize, f64, u64)>,
    /// Positions whose own neighbor must be scanned: stale and novel.
    refresh: Vec<usize>,
    /// Positions no recorded row reached: they may take over.
    novel: Vec<usize>,
    /// Inherited positions a novel entry took over.
    taken: Vec<usize>,
    /// Whether a scan met an exact distance tie: an own-neighbor scan
    /// that found its nearest distance more than once, or a novel entry
    /// exactly as near an inherited entry as that entry's neighbor. The
    /// planner breaks such a tie by its own grid's ring order and
    /// re-query hints, which the replay does not reproduce, so the replay
    /// declines.
    pub(super) tied: bool,
    region_bufs: [Vec<Trr>; 2],
}

impl RoundScan {
    /// Starts a round over `n` active subtrees, every entry unset.
    pub(super) fn begin(&mut self, n: usize) {
        self.source.clear();
        self.source.resize(n, Source::Unset);
        // Read only where `source` says they were written this round.
        self.reach.resize(n, 0.0);
        self.found.resize(n, (0, 0.0, 0));
        self.refresh.clear();
        self.novel.clear();
        self.taken.clear();
        self.tied = false;
    }

    /// Position `ai` inherits its recorded neighbor, at hull distance
    /// `dist`.
    pub(super) fn inherit(&mut self, ai: usize, dist: f64) {
        self.source[ai] = Source::Recorded;
        self.reach[ai] = dist;
    }

    /// Position `ai` has a standing counterpart whose recorded neighbor is
    /// gone: it scans for its own neighbor.
    pub(super) fn stale(&mut self, ai: usize) {
        self.refresh.push(ai);
        self.source[ai] = Source::Scanned;
    }

    /// Marks every position still unclassified novel, in active order:
    /// the entries no recorded row reached have no standing counterpart
    /// in the round, so they scan for their own neighbor and for
    /// takeovers.
    pub(super) fn novel_rest(&mut self) {
        for (ai, source) in self.source.iter_mut().enumerate() {
            if *source == Source::Unset {
                *source = Source::Scanned;
                self.refresh.push(ai);
                self.novel.push(ai);
            }
        }
    }

    /// Whether position `ai` still holds its recorded entry unchanged.
    pub(super) fn recorded(&self, ai: usize) -> bool {
        self.source[ai] == Source::Recorded
    }

    /// The entries the scans wrote, stale, novel and taken over: each
    /// position with its new triple.
    pub(super) fn changed(&self) -> impl Iterator<Item = (usize, (usize, f64, u64))> + '_ {
        let found = |&ai: &usize| (ai, self.found[ai]);
        self.refresh.iter().chain(&self.taken).map(found)
    }

    /// Runs the round's scans over `active` (keys) and `hulls` (their
    /// representative regions, in step), linearly or over a grid as
    /// [`grid_pays`] decides, and returns the visits they made.
    pub(super) fn scan(
        &mut self,
        space: &ForestSpace<'_>,
        topo: &TopoConfig,
        active: &[usize],
        hulls: &[Trr],
    ) -> u64 {
        if grid_pays(hulls.len(), self.refresh.len(), self.novel.len()) {
            self.scan_grid(space, topo, active, hulls)
        } else {
            self.scan_linear(space, topo, active, hulls)
        }
    }

    /// The linear sweeps: first strict minimum in active order for own
    /// neighbors, then every inherited entry against each novel one.
    fn scan_linear(
        &mut self,
        space: &ForestSpace<'_>,
        topo: &TopoConfig,
        active: &[usize],
        hulls: &[Trr],
    ) -> u64 {
        let n = hulls.len();
        for &ai in &self.refresh {
            let rx = hulls[ai];
            let mut best: Option<(usize, f64)> = None;
            let mut tied = false;
            for (yi, hy) in hulls.iter().enumerate() {
                if yi == ai {
                    continue;
                }
                let d = rx.distance(hy);
                match best {
                    Some((_, bd)) if d < bd => tied = false,
                    Some((_, bd)) if d <= bd => {
                        tied = true;
                        continue;
                    }
                    Some(_) => continue,
                    None => {}
                }
                best = Some((yi, d));
            }
            self.tied |= tied;
            let (vi, rd) = best.expect("two or more active subtrees");
            let bufs = &mut self.region_bufs;
            self.found[ai] = scored(space, topo, bufs, active[ai], active[vi], rd);
        }
        let inherited = self
            .source
            .iter()
            .filter(|&&s| s == Source::Recorded)
            .count();
        for &ci in &self.novel {
            let (c, hc) = (active[ci], hulls[ci]);
            for ui in 0..n {
                if !matches!(self.source[ui], Source::Recorded | Source::TakenOver) {
                    continue;
                }
                let urd = self.reach[ui];
                let nd = hulls[ui].distance(&hc);
                if nd < urd {
                    let bufs = &mut self.region_bufs;
                    self.found[ui] = scored(space, topo, bufs, active[ui], c, nd);
                    self.reach[ui] = nd;
                    take_over(&mut self.source[ui], &mut self.taken, ui);
                } else if nd <= urd {
                    self.tied = true;
                }
            }
        }
        (self.refresh.len() * (n - 1) + self.novel.len() * inherited) as u64
    }

    /// The same scans answered by one grid over the round's hulls.
    fn scan_grid(
        &mut self,
        space: &ForestSpace<'_>,
        topo: &TopoConfig,
        active: &[usize],
        hulls: &[Trr],
    ) -> u64 {
        let mut grid = GridIndex::build(hulls.iter().copied().enumerate());
        let mut visits = 0u64;
        for &ai in &self.refresh {
            let (best, tied, v) = grid.nearest_ranked(ai, &hulls[ai]);
            self.tied |= tied;
            visits += v as u64;
            let (vi, rd) = best.expect("two or more active subtrees");
            let bufs = &mut self.region_bufs;
            self.found[ai] = scored(space, topo, bufs, active[ai], active[vi], rd);
        }
        if self.novel.is_empty() || !self.source.contains(&Source::Recorded) {
            return visits;
        }
        // A takeover needs a hull distance strictly below the victim's
        // recorded one, and a tie needs an equal one, so each cell is
        // capped one ulp past its inherited entries' largest, and the walk
        // is bounded by the largest of all.
        let mut bound = 0.0f64;
        for (ui, (&source, &urd)) in self.source.iter().zip(&self.reach).enumerate() {
            if source == Source::Recorded {
                grid.note_cap(&hulls[ui], urd.next_up());
                bound = bound.max(urd.next_up());
            }
        }
        let (source, reach, found) = (&mut self.source, &mut self.reach, &mut self.found);
        let (bufs, taken, tied) = (&mut self.region_bufs, &mut self.taken, &mut self.tied);
        for &ci in &self.novel {
            let c = active[ci];
            visits += grid.neighbors_within_capped(ci, &hulls[ci], bound, |ui, nd| {
                if !matches!(source[ui], Source::Recorded | Source::TakenOver) {
                    return;
                }
                let urd = reach[ui];
                if nd < urd {
                    found[ui] = scored(space, topo, bufs, active[ui], c, nd);
                    reach[ui] = nd;
                    take_over(&mut source[ui], taken, ui);
                } else if nd <= urd {
                    *tied = true;
                }
            }) as u64;
        }
        visits
    }
}

/// Marks the inherited position `ui` taken over, listing it in `taken`
/// the first time.
fn take_over(source: &mut Source, taken: &mut Vec<usize>, ui: usize) {
    if *source == Source::Recorded {
        *source = Source::TakenOver;
        taken.push(ui);
    }
}

/// The snapshot triple for `x`'s neighbor `v` at hull distance `rd`: the
/// pair's exact merging cost folded into the planner's score key.
fn scored(
    space: &ForestSpace<'_>,
    topo: &TopoConfig,
    bufs: &mut [Vec<Trr>; 2],
    x: usize,
    v: usize,
    rd: f64,
) -> (usize, f64, u64) {
    let exact = space_distance(space, x, v, bufs);
    let (lo, hi) = if x < v { (x, v) } else { (v, x) };
    let score = pair_score(topo, space.delay(lo), space.delay(hi), exact);
    (v, rd, score_bits(score))
}
