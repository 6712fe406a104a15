//! Merge-round planning: which subtree pairs to merge next.
//!
//! [`plan_round`] is the **from-scratch reference planner**: it recomputes
//! every nearest neighbor on each call. The production path is the
//! incremental [`MergePlanner`](crate::MergePlanner), which maintains the
//! same nearest-neighbor structure across rounds; `plan_round` remains the
//! specification the planner is tested against (and the from-scratch
//! side of the `scaling` bench's planner timing).

use astdme_geom::Trr;

use crate::{GridIndex, Nearest};

/// Below this many active subtrees, planning scans all pairs exactly
/// instead of going through the grid index: the scan is cheaper than
/// maintaining the index and, unlike the grid's region-level query, ranks
/// directly by exact merge cost. Public so replay drivers (the ECO flush
/// path) switch regimes at exactly the same size the planner does.
pub const BRUTE_FORCE_CUTOFF: usize = 32;

/// What the planner needs to know about the current set of subtrees.
///
/// Implemented by the routing driver over its merge forest; keys are the
/// driver's node identifiers. A subtree is read when it enters the active
/// set and never again: subtrees are immutable once created, so the
/// incremental [`MergePlanner`](crate::MergePlanner) keeps its own copy of
/// what it needs (the hull, the candidate regions, the delay) and ranks
/// pairs from that copy alone.
pub trait MergeSpace {
    /// Representative region of subtree `id` (hull of its candidates). A
    /// subtree with a single candidate region reports that region itself,
    /// bit for bit, so the planner can use the hull in its place.
    fn region(&self, id: usize) -> Trr;
    /// Appends the candidate regions of subtree `id` to `out`, in candidate
    /// order. The exact merging cost of two subtrees is
    /// [`min_region_distance`] over their region lists.
    fn regions(&self, id: usize, out: &mut Vec<Trr>);
    /// Number of candidate regions of subtree `id`, as many as
    /// [`MergeSpace::regions`] appends. The default reads the regions; a
    /// space that knows the count without them should say so, since the
    /// planner asks for every subtree it registers and skips reading a
    /// single region (it is the hull).
    fn region_count(&self, id: usize) -> usize {
        let mut out = Vec::new();
        self.regions(id, &mut out);
        out.len()
    }
    /// Largest accumulated root-to-sink delay of the subtree (seconds),
    /// for the delay-target bias.
    fn delay(&self, id: usize) -> f64;
}

/// The exact merging cost of two subtrees: the minimum distance between
/// any candidate region of `a` and any of `b`. `a` is the outer loop, and
/// region distances clamp at zero, so the scan stops at the first touching
/// pair. Every planner (incremental, from scratch, the brute-force tail
/// and replay drivers) evaluates exact costs through this one kernel, so
/// their scores agree bit for bit.
#[inline]
pub fn min_region_distance(a: &[Trr], b: &[Trr]) -> f64 {
    let mut best = f64::INFINITY;
    for ra in a {
        for rb in b {
            best = best.min(ra.distance(rb));
            if best <= 0.0 {
                return best;
            }
        }
    }
    best
}

/// Merge ordering scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeOrder {
    /// One globally minimum-cost pair per round (the base scheme of the
    /// paper's Fig. 6).
    GreedyNearest,
    /// Edahiro-style simultaneous multi-merging: up to `fraction` of the
    /// current subtrees are paired off per round, by ascending cost among
    /// mutually disjoint nearest pairs. `fraction` in `(0, 0.5]`.
    MultiMerge {
        /// Fraction of current subtrees to pair off per round.
        fraction: f64,
    },
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoConfig {
    /// The ordering scheme.
    pub order: MergeOrder,
    /// Delay-target bias (Ch. V.F enhancement 2): pairs are ranked by
    /// `distance - delay_weight * (delay_a + delay_b)`, so subtrees that
    /// are already slow merge earlier, reducing later imbalance and
    /// snaking. Units: µm per second of delay. `0.0` disables the bias.
    pub delay_weight: f64,
}

impl Default for TopoConfig {
    /// Multi-merge at a quarter of the subtrees per round — the paper's
    /// enhanced configuration — with the delay bias off.
    fn default() -> Self {
        Self {
            order: MergeOrder::MultiMerge { fraction: 0.25 },
            delay_weight: 0.0,
        }
    }
}

impl TopoConfig {
    /// The plain greedy scheme of Fig. 6 (one pair per round, no bias).
    pub fn greedy() -> Self {
        Self {
            order: MergeOrder::GreedyNearest,
            delay_weight: 0.0,
        }
    }
}

/// How many disjoint pairs one round may merge over `n` active subtrees.
pub fn round_limit(order: MergeOrder, n: usize) -> usize {
    match order {
        MergeOrder::GreedyNearest => 1,
        MergeOrder::MultiMerge { fraction } => {
            let f = fraction.clamp(1e-6, 0.5);
            ((n as f64 * f).ceil() as usize).max(1)
        }
    }
}

/// The exact merging cost of subtrees `a` and `b` read through `space`
/// ([`min_region_distance`], `a`'s regions in the outer loop), for
/// planners without their own region copies: the from-scratch
/// [`plan_round`] and replay drivers. `bufs` are reused region buffers.
pub fn space_distance<S: MergeSpace>(
    space: &S,
    a: usize,
    b: usize,
    bufs: &mut [Vec<Trr>; 2],
) -> f64 {
    let [ra, rb] = bufs;
    ra.clear();
    rb.clear();
    space.regions(a, ra);
    space.regions(b, rb);
    min_region_distance(ra, rb)
}

/// The pair score used for ranking: exact distance `d` minus the
/// delay-target bias over the two subtrees' delays (the smaller key's
/// first). Lower merges earlier.
#[inline]
pub fn pair_score(cfg: &TopoConfig, delay_lo: f64, delay_hi: f64, d: f64) -> f64 {
    d - cfg.delay_weight * (delay_lo + delay_hi)
}

/// Maps a non-NaN `f64` to bits whose unsigned order matches the float
/// order (sign-magnitude to two's-complement folding). This is the score
/// key the incremental [`MergePlanner`](crate::MergePlanner) ranks pairs
/// by, exposed so replay drivers derive bit-identical ranking keys.
#[inline]
pub fn score_bits(x: f64) -> u64 {
    debug_assert!(!x.is_nan(), "pair scores must not be NaN");
    let b = x.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// Greedily selects up to `limit` endpoint-disjoint pairs from
/// `(a, b)` candidates already ranked best-first.
pub fn select_disjoint(
    mut ranked: impl Iterator<Item = (usize, usize)>,
    limit: usize,
) -> Vec<(usize, usize)> {
    if limit == 1 {
        // Greedy rounds take the best pair outright — no disjointness
        // bookkeeping (or its allocation) needed for a single selection.
        return ranked.next().into_iter().collect();
    }
    // Keys are dense node indices, so the taken set is a bitset indexed
    // by key, grown on demand.
    let mut used: Vec<u64> = Vec::new();
    let is_used = |used: &[u64], k: usize| used.get(k / 64).is_some_and(|w| w >> (k % 64) & 1 == 1);
    let mut out = Vec::with_capacity(limit);
    for (a, b) in ranked {
        if out.len() >= limit {
            break;
        }
        if is_used(&used, a) || is_used(&used, b) {
            continue;
        }
        for k in [a, b] {
            if k / 64 >= used.len() {
                used.resize(k / 64 + 1, 0);
            }
            used[k / 64] |= 1 << (k % 64);
        }
        out.push((a, b));
    }
    out
}

/// Plans one merge round over the `active` subtrees, from scratch.
///
/// Returns disjoint pairs to merge, best first: exactly one for
/// [`MergeOrder::GreedyNearest`], up to `fraction * active.len()` for
/// [`MergeOrder::MultiMerge`]. Returns an empty vector when fewer than two
/// subtrees remain.
///
/// The planner is deterministic: a subtree's nearest neighbor is the
/// smallest key among exactly tied distances (the one tie rule of
/// [`Nearest`]), and pairs of equal score rank by their keys.
pub fn plan_round<S: MergeSpace>(
    space: &S,
    active: &[usize],
    cfg: &TopoConfig,
) -> Vec<(usize, usize)> {
    if active.len() < 2 {
        return Vec::new();
    }
    // Exact all-pairs for small sets; grid-accelerated NN otherwise.
    let nn: Vec<(usize, usize, f64)> = if active.len() <= BRUTE_FORCE_CUTOFF {
        let mut regions = Vec::new();
        let mut spans = Vec::with_capacity(active.len());
        for &k in active {
            let start = regions.len();
            space.regions(k, &mut regions);
            spans.push(start..regions.len());
        }
        let hulls: Vec<Trr> = active.iter().map(|&k| space.region(k)).collect();
        nearest_bruteforce(active, &hulls, |i, j| {
            min_region_distance(&regions[spans[i].clone()], &regions[spans[j].clone()])
        })
    } else {
        nearest_with_grid(space, active)
    };
    rank_and_select(cfg, nn, active.len(), |k| space.delay(k))
}

/// Ranks deduplicated nearest pairs by score and selects the round — the
/// tail both [`plan_round`] and the incremental planner's brute-force
/// delegation share, so their orderings cannot drift apart. `delay` maps a
/// key to its subtree's delay.
pub(crate) fn rank_and_select(
    cfg: &TopoConfig,
    ranked: Vec<(usize, usize, f64)>,
    n_active: usize,
    delay: impl Fn(usize) -> f64,
) -> Vec<(usize, usize)> {
    let mut scored: Vec<(f64, usize, usize)> = ranked
        .into_iter()
        .map(|(a, b, d)| (pair_score(cfg, delay(a), delay(b), d), a, b))
        .collect();
    scored.sort_by(|x, y| {
        x.0.partial_cmp(&y.0)
            .expect("scores are not NaN")
            .then(x.1.cmp(&y.1))
            .then(x.2.cmp(&y.2))
    });
    select_disjoint(
        scored.into_iter().map(|(_, a, b)| (a, b)),
        round_limit(cfg.order, n_active),
    )
}

/// For every active subtree, its nearest neighbor by exact merge cost
/// (deduplicated to unordered key pairs). `dist(i, j)` is the exact cost
/// between the subtrees at active positions `i` and `j`, and `hulls[i]`
/// the representative region of the subtree at position `i`.
///
/// Among exactly equal costs the smallest key wins ([`Nearest`]). A pair
/// whose hull distance already rules it out is skipped without evaluating
/// `dist`: hulls are the exact min/max of their subtree's candidate
/// regions and [`Trr::distance`] is monotone, so the hull distance never
/// exceeds [`min_region_distance`]. A hull distance equal to the best
/// cost still admits a smaller key, which could tie the cost and win.
pub(crate) fn nearest_bruteforce(
    active: &[usize],
    hulls: &[Trr],
    mut dist: impl FnMut(usize, usize) -> f64,
) -> Vec<(usize, usize, f64)> {
    debug_assert_eq!(hulls.len(), active.len(), "one hull per active subtree");
    let mut pairs = Vec::with_capacity(active.len());
    for (i, &a) in active.iter().enumerate() {
        let mut best = Nearest::default();
        for (j, &b) in active.iter().enumerate() {
            if i != j && best.admits(b, hulls[i].distance(&hulls[j])) {
                best.offer(b, dist(i, j));
            }
        }
        if let Some((b, d)) = best.best {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            pairs.push((lo, hi, d));
        }
    }
    dedup_pairs(pairs)
}

fn nearest_with_grid<S: MergeSpace>(space: &S, active: &[usize]) -> Vec<(usize, usize, f64)> {
    let items: Vec<(usize, Trr)> = active.iter().map(|&id| (id, space.region(id))).collect();
    let grid = GridIndex::build(items.iter().copied());
    // Grid distance is between representative regions; refine with the
    // exact candidate-level cost.
    let mut bufs = Default::default();
    let pairs = items.iter().filter_map(|(id, region)| {
        grid.nearest(*id, region, None).best.map(|(nn, _)| {
            let d = space_distance(space, *id, nn, &mut bufs);
            let (lo, hi) = if *id < nn { (*id, nn) } else { (nn, *id) };
            (lo, hi, d)
        })
    });
    dedup_pairs(pairs.collect())
}

fn dedup_pairs(mut pairs: Vec<(usize, usize, f64)>) -> Vec<(usize, usize, f64)> {
    pairs.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
    pairs.dedup_by(|x, y| x.0 == y.0 && x.1 == y.1);
    pairs
}

#[cfg(test)]
pub(crate) mod tests;
