//! Merge-round planning: which subtree pairs to merge next.
//!
//! [`plan_round`] is the **from-scratch reference planner**: it recomputes
//! every nearest neighbor on each call. The production path is the
//! incremental [`MergePlanner`](crate::MergePlanner), which maintains the
//! same nearest-neighbor structure across rounds; `plan_round` remains the
//! specification the planner is tested against (and the from-scratch
//! side of the `scaling` bench's planner timing).

use astdme_geom::Trr;

use crate::GridIndex;

/// Below this many active subtrees, planning scans all pairs exactly
/// instead of going through the grid index: the scan is cheaper than
/// maintaining the index and, unlike the grid's region-level query, ranks
/// directly by exact merge cost. Public so replay drivers (the ECO flush
/// path) switch regimes at exactly the same size the planner does.
pub const BRUTE_FORCE_CUTOFF: usize = 32;

/// What the planner needs to know about the current set of subtrees.
///
/// Implemented by the routing driver over its merge forest; keys are the
/// driver's node identifiers.
pub trait MergeSpace {
    /// Representative region of subtree `id` (hull of its candidates).
    fn region(&self, id: usize) -> Trr;
    /// Exact merging cost between two subtrees (minimum candidate
    /// distance).
    fn distance(&self, a: usize, b: usize) -> f64;
    /// Largest accumulated root-to-sink delay of the subtree (seconds),
    /// for the delay-target bias.
    fn delay(&self, id: usize) -> f64;
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

    /// Stable `u64` encoding of the planner configuration for
    /// content-addressed cache fingerprints: an order tag, the multi-merge
    /// fraction bits (`f64::to_bits`; zero for greedy), and the
    /// delay-weight bits. Two configs plan identically iff their words
    /// agree.
    #[inline]
    pub fn fingerprint_words(&self) -> [u64; 3] {
        let (tag, fraction) = match self.order {
            MergeOrder::GreedyNearest => (0, 0),
            MergeOrder::MultiMerge { fraction } => (1, fraction.to_bits()),
        };
        [tag, fraction, self.delay_weight.to_bits()]
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

/// The pair score used for ranking: exact distance minus the delay-target
/// bias. Lower merges earlier.
pub fn pair_score<S: MergeSpace>(space: &S, cfg: &TopoConfig, a: usize, b: usize, d: f64) -> f64 {
    d - cfg.delay_weight * (space.delay(a) + space.delay(b))
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
/// The planner is deterministic: ties break toward smaller keys.
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
        nearest_bruteforce(space, active)
    } else {
        nearest_with_grid(space, active)
    };
    rank_and_select(space, cfg, nn, active.len())
}

/// Ranks deduplicated nearest pairs by score and selects the round — the
/// tail both [`plan_round`] and the incremental planner's brute-force
/// delegation share, so their orderings cannot drift apart.
pub(crate) fn rank_and_select<S: MergeSpace>(
    space: &S,
    cfg: &TopoConfig,
    mut ranked: Vec<(usize, usize, f64)>,
    n_active: usize,
) -> Vec<(usize, usize)> {
    ranked.sort_by(|x, y| {
        pair_score(space, cfg, x.0, x.1, x.2)
            .partial_cmp(&pair_score(space, cfg, y.0, y.1, y.2))
            .expect("scores are not NaN")
            .then(x.0.cmp(&y.0))
            .then(x.1.cmp(&y.1))
    });
    select_disjoint(
        ranked.into_iter().map(|(a, b, _)| (a, b)),
        round_limit(cfg.order, n_active),
    )
}

/// For every active subtree, its nearest neighbor by exact merge cost
/// (deduplicated to unordered pairs).
pub(crate) fn nearest_bruteforce<S: MergeSpace>(
    space: &S,
    active: &[usize],
) -> Vec<(usize, usize, f64)> {
    let mut pairs = Vec::with_capacity(active.len());
    for (i, &a) in active.iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        for (j, &b) in active.iter().enumerate() {
            if i == j {
                continue;
            }
            let d = space.distance(a, b);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((b, d));
            }
        }
        if let Some((b, d)) = best {
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
    let pairs = items.iter().filter_map(|(id, region)| {
        grid.nearest(*id, region).map(|(nn, _)| {
            let d = space.distance(*id, nn);
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
pub(crate) mod tests {
    use super::*;
    use astdme_geom::Point;

    /// A toy space over explicit points with optional delays.
    pub(crate) struct Pts {
        pub(crate) pts: Vec<Point>,
        pub(crate) delays: Vec<f64>,
    }

    impl Pts {
        pub(crate) fn new(coords: &[(f64, f64)]) -> Self {
            Self {
                pts: coords.iter().map(|&(x, y)| Point::new(x, y)).collect(),
                delays: vec![0.0; coords.len()],
            }
        }
    }

    impl MergeSpace for Pts {
        fn region(&self, id: usize) -> Trr {
            Trr::from_point(self.pts[id])
        }
        fn distance(&self, a: usize, b: usize) -> f64 {
            self.pts[a].dist(self.pts[b])
        }
        fn delay(&self, id: usize) -> f64 {
            self.delays[id]
        }
    }

    #[test]
    fn greedy_picks_the_global_minimum_pair() {
        let s = Pts::new(&[(0.0, 0.0), (5.0, 0.0), (100.0, 0.0), (101.0, 0.0)]);
        let plan = plan_round(&s, &[0, 1, 2, 3], &TopoConfig::greedy());
        assert_eq!(plan, vec![(2, 3)]);
    }

    #[test]
    fn multi_merge_returns_disjoint_pairs() {
        let s = Pts::new(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (10.0, 0.0),
            (11.0, 0.0),
            (20.0, 0.0),
            (21.5, 0.0),
        ]);
        let cfg = TopoConfig {
            order: MergeOrder::MultiMerge { fraction: 0.5 },
            delay_weight: 0.0,
        };
        let plan = plan_round(&s, &[0, 1, 2, 3, 4, 5], &cfg);
        assert_eq!(plan.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &plan {
            assert!(seen.insert(*a));
            assert!(seen.insert(*b));
        }
        // Best pair first.
        assert_eq!(plan[0], (0, 1));
    }

    #[test]
    fn select_disjoint_matches_a_set_based_selection() {
        // Keys straddle several bitset words, repeat, and include the
        // first and last bit of a word.
        let mut s: u64 = 11;
        let ranked: Vec<(usize, usize)> = (0..400)
            .map(|_| {
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let a = ((s >> 20) % 300) as usize;
                (a, (a + 1 + ((s >> 40) % 63) as usize) % 300)
            })
            .chain([(0, 63), (64, 127), (1000, 1001)])
            .collect();
        for limit in [2, 7, 50, 1000] {
            let mut used = std::collections::BTreeSet::new();
            let mut want = Vec::new();
            for &(a, b) in &ranked {
                if want.len() < limit && !used.contains(&a) && !used.contains(&b) {
                    used.insert(a);
                    used.insert(b);
                    want.push((a, b));
                }
            }
            assert_eq!(select_disjoint(ranked.iter().copied(), limit), want);
        }
    }

    #[test]
    fn empty_and_single_return_no_pairs() {
        let s = Pts::new(&[(0.0, 0.0)]);
        assert!(plan_round(&s, &[], &TopoConfig::default()).is_empty());
        assert!(plan_round(&s, &[0], &TopoConfig::default()).is_empty());
    }

    #[test]
    fn delay_bias_promotes_slow_subtrees() {
        let mut s = Pts::new(&[(0.0, 0.0), (10.0, 0.0), (100.0, 0.0), (115.0, 0.0)]);
        // The far pair is slower; with enough bias it merges first even
        // though it is geometrically more expensive.
        s.delays = vec![0.0, 0.0, 1e-12, 1e-12];
        let unbiased = plan_round(&s, &[0, 1, 2, 3], &TopoConfig::greedy());
        assert_eq!(unbiased, vec![(0, 1)]);
        let biased = plan_round(
            &s,
            &[0, 1, 2, 3],
            &TopoConfig {
                order: MergeOrder::GreedyNearest,
                delay_weight: 1e13, // 10 um per 1e-12 s
            },
        );
        assert_eq!(biased, vec![(2, 3)]);
    }

    #[test]
    fn grid_and_bruteforce_agree_on_larger_sets() {
        // 40 points: exercises the grid path (> 32) against brute force.
        let mut coords = Vec::new();
        let mut s: u64 = 7;
        for _ in 0..40 {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            coords.push((((s >> 20) % 1000) as f64, ((s >> 40) % 1000) as f64));
        }
        let space = Pts::new(&coords);
        let active: Vec<usize> = (0..coords.len()).collect();
        let greedy = plan_round(&space, &active, &TopoConfig::greedy());
        let bf = nearest_bruteforce(&space, &active);
        let best_bf = bf
            .iter()
            .min_by(|x, y| x.2.partial_cmp(&y.2).unwrap())
            .unwrap();
        assert_eq!(greedy[0], (best_bf.0, best_bf.1));
    }

    #[test]
    fn fingerprint_words_separate_configs() {
        let default = TopoConfig::default().fingerprint_words();
        assert_eq!(default, TopoConfig::default().fingerprint_words());
        assert_ne!(default, TopoConfig::greedy().fingerprint_words());
        let biased = TopoConfig {
            delay_weight: 1e13,
            ..TopoConfig::default()
        };
        assert_ne!(default, biased.fingerprint_words());
        let half = TopoConfig {
            order: MergeOrder::MultiMerge { fraction: 0.5 },
            delay_weight: 0.0,
        };
        assert_ne!(default, half.fingerprint_words());
    }

    #[test]
    fn multi_merge_fraction_bounds_pair_count() {
        let coords: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 3.0, 0.0)).collect();
        let s = Pts::new(&coords);
        let active: Vec<usize> = (0..100).collect();
        let cfg = TopoConfig {
            order: MergeOrder::MultiMerge { fraction: 0.25 },
            delay_weight: 0.0,
        };
        let plan = plan_round(&s, &active, &cfg);
        assert!(!plan.is_empty());
        assert!(plan.len() <= 25);
    }
}
