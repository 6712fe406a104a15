//! Property tests: the incremental [`MergePlanner`] produces the same pair
//! sequence as the from-scratch [`plan_round`] reference on random
//! instances, across merge orders and delay bias, all the way from the
//! grid regime down through the brute-force tail.

use astdme_geom::{Point, Trr};
use astdme_topo::{
    min_region_distance, plan_round, MergeOrder, MergePlanner, MergeSpace, TopoConfig,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// A mergeable space: points that weld into subtrees with several
/// candidate regions each, with delays that grow by the merge distance (so
/// the delay bias sees evolving values). Leaves have one region; a merged
/// key keeps up to three regions of each child plus a diamond around the
/// midpoint of the children's hull centers, dilated by an eighth of the
/// merge distance. Exact costs (the minimum over region pairs) then differ
/// from hull distances, and the planner's multi-region arena path, its
/// relayouts, the point updates and the tail all see real spans.
struct Welds {
    regions: Vec<Vec<Trr>>,
    hulls: Vec<Trr>,
    delays: Vec<f64>,
}

impl Welds {
    fn new(coords: &[(f64, f64)]) -> Self {
        let hulls: Vec<Trr> = coords
            .iter()
            .map(|&(x, y)| Trr::from_point(Point::new(x, y)))
            .collect();
        Self {
            regions: hulls.iter().map(|&h| vec![h]).collect(),
            hulls,
            delays: vec![0.0; coords.len()],
        }
    }

    /// Registers the merge of `a` and `b`; returns the new key.
    fn merge(&mut self, a: usize, b: usize) -> usize {
        let m = self.regions.len();
        let d = min_region_distance(&self.regions[a], &self.regions[b]);
        let (ca, cb) = (self.hulls[a].center(), self.hulls[b].center());
        let mid = Trr::from_point(Point::new(0.5 * (ca.x + cb.x), 0.5 * (ca.y + cb.y)));
        let regions: Vec<Trr> = [a, b]
            .iter()
            .flat_map(|&c| self.regions[c].iter().take(3))
            .copied()
            .chain([mid.dilate(d / 8.0)])
            .collect();
        let hull = regions[1..].iter().fold(regions[0], |h, r| h.hull(r));
        self.regions.push(regions);
        self.hulls.push(hull);
        // Proportional to added wire: exercises the delay-target bias.
        self.delays
            .push(self.delays[a].max(self.delays[b]) + d * 1e-16);
        m
    }
}

impl MergeSpace for Welds {
    fn region(&self, id: usize) -> Trr {
        self.hulls[id]
    }
    fn regions(&self, id: usize, out: &mut Vec<Trr>) {
        out.extend_from_slice(&self.regions[id]);
    }
    fn delay(&self, id: usize) -> f64 {
        self.delays[id]
    }
}

/// 2..140 points over a 20 000-unit die, on a lattice of spacing
/// `num / den` units: spans brute-force-only runs (< 32) and grid-regime
/// runs, including the regime transition mid-run. The 0.01-unit lattice
/// (`1 / 100`) makes exact distance ties rare; the 1-, 10- and 100-unit
/// lattices, like placements on a database-unit lattice, make them
/// routine, among leaves and merged hulls alike.
fn coords_strategy(num: f64, den: f64) -> impl Strategy<Value = Vec<(f64, f64)>> {
    let steps = (20_000.0 * den / num) as u64;
    (2usize..140, any::<u64>()).prop_map(move |(n, seed)| {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 16) % steps) as f64 * num / den
        };
        (0..n).map(|_| (next(), next())).collect()
    })
}

fn config_strategy() -> impl Strategy<Value = TopoConfig> {
    let order = prop_oneof![
        Just(MergeOrder::GreedyNearest),
        (0.1..0.5f64).prop_map(|fraction| MergeOrder::MultiMerge { fraction }),
    ];
    let weight = prop_oneof![Just(0.0), 1e12..1e14f64];
    (order, weight).prop_map(|(order, delay_weight)| TopoConfig {
        order,
        delay_weight,
    })
}

/// Drives both planners to a single subtree, comparing every round.
fn incremental_vs_from_scratch(coords: &[(f64, f64)], cfg: TopoConfig) -> TestCaseResult {
    let mut space = Welds::new(coords);
    let mut active: Vec<usize> = (0..coords.len()).collect();
    let mut planner = MergePlanner::new(&space, &active, cfg);
    let mut rounds = 0usize;
    while active.len() > 1 {
        let reference = plan_round(&space, &active, &cfg);
        let incremental = planner.plan_round(&space);
        prop_assert_eq!(
            &reference,
            &incremental,
            "round {} diverged (n={})",
            rounds,
            coords.len()
        );
        prop_assert!(!reference.is_empty(), "planner must make progress");
        for (a, b) in reference {
            let m = space.merge(a, b);
            // Same swap-remove discipline as the planner's dense set.
            for x in [a, b] {
                let i = active.iter().position(|&k| k == x).expect("active");
                active.swap_remove(i);
            }
            active.push(m);
            planner.apply_merge(&space, a, b, m);
        }
        rounds += 1;
    }
    prop_assert_eq!(planner.len(), 1);
    prop_assert_eq!(planner.sole_key(), active[0]);
    Ok(())
}

/// Batched rounds ([`MergePlanner::apply_round`]) produce the same merge
/// sequence as reporting every merge individually through
/// [`MergePlanner::apply_merge`] — the refresh sweep and the point-update
/// path must be observably equivalent.
fn batched_vs_sequential(coords: &[(f64, f64)], cfg: TopoConfig) -> TestCaseResult {
    let run = |batched: bool| {
        let mut space = Welds::new(coords);
        let mut planner = MergePlanner::new(&space, &(0..coords.len()).collect::<Vec<_>>(), cfg);
        let mut log = Vec::new();
        while planner.len() > 1 {
            let pairs = planner.plan_round(&space);
            assert!(!pairs.is_empty(), "planner must make progress");
            let mut round = Vec::new();
            for (a, b) in pairs {
                let m = space.merge(a, b);
                log.push((a, b, m));
                if batched {
                    round.push((a, b, m));
                } else {
                    planner.apply_merge(&space, a, b, m);
                }
            }
            if batched {
                planner.apply_round(&space, &round);
            }
        }
        log
    };
    prop_assert_eq!(run(true), run(false));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_matches_from_scratch(
        coords in coords_strategy(1.0, 100.0),
        cfg in config_strategy(),
    ) {
        incremental_vs_from_scratch(&coords, cfg)?;
    }

    #[test]
    fn incremental_matches_from_scratch_on_1_unit_lattice(
        coords in coords_strategy(1.0, 1.0),
        cfg in config_strategy(),
    ) {
        incremental_vs_from_scratch(&coords, cfg)?;
    }

    #[test]
    fn incremental_matches_from_scratch_on_10_unit_lattice(
        coords in coords_strategy(10.0, 1.0),
        cfg in config_strategy(),
    ) {
        incremental_vs_from_scratch(&coords, cfg)?;
    }

    #[test]
    fn incremental_matches_from_scratch_on_100_unit_lattice(
        coords in coords_strategy(100.0, 1.0),
        cfg in config_strategy(),
    ) {
        incremental_vs_from_scratch(&coords, cfg)?;
    }

    #[test]
    fn batched_apply_round_matches_sequential(
        coords in coords_strategy(1.0, 100.0),
        cfg in config_strategy(),
    ) {
        batched_vs_sequential(&coords, cfg)?;
    }

    #[test]
    fn batched_apply_round_matches_sequential_on_1_unit_lattice(
        coords in coords_strategy(1.0, 1.0),
        cfg in config_strategy(),
    ) {
        batched_vs_sequential(&coords, cfg)?;
    }

    #[test]
    fn batched_apply_round_matches_sequential_on_10_unit_lattice(
        coords in coords_strategy(10.0, 1.0),
        cfg in config_strategy(),
    ) {
        batched_vs_sequential(&coords, cfg)?;
    }

    #[test]
    fn batched_apply_round_matches_sequential_on_100_unit_lattice(
        coords in coords_strategy(100.0, 1.0),
        cfg in config_strategy(),
    ) {
        batched_vs_sequential(&coords, cfg)?;
    }

    /// The planner is deterministic: two independent planners over the
    /// same instance produce identical sequences.
    #[test]
    fn planner_is_deterministic(coords in coords_strategy(1.0, 100.0), cfg in config_strategy()) {
        let run = || {
            let mut space = Welds::new(&coords);
            let mut planner =
                MergePlanner::new(&space, &(0..coords.len()).collect::<Vec<_>>(), cfg);
            let mut log = Vec::new();
            while planner.len() > 1 {
                let pairs = planner.plan_round(&space);
                for (a, b) in pairs {
                    let m = space.merge(a, b);
                    planner.apply_merge(&space, a, b, m);
                    log.push((a, b, m));
                }
            }
            log
        };
        prop_assert_eq!(run(), run());
    }
}
