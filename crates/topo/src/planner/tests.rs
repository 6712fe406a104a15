use super::*;
use crate::plan::tests::Pts;
use crate::score_bits;
use crate::{plan_round, MergeOrder};
use astdme_geom::Point;

/// A space whose "merge" welds two points into their midpoint,
/// appended as a new key.
fn midpoint_merge(space: &mut Pts, a: usize, b: usize) -> usize {
    let m = space.pts.len();
    let (pa, pb) = (space.pts[a], space.pts[b]);
    space
        .pts
        .push(Point::new(0.5 * (pa.x + pb.x), 0.5 * (pa.y + pb.y)));
    let d = space.delays[a].max(space.delays[b]);
    space.delays.push(d);
    m
}

fn lcg_coords(n: usize, mut s: u64) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((s >> 16) % 100_000) as f64 / 10.0;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((s >> 16) % 100_000) as f64 / 10.0;
            (x, y)
        })
        .collect()
}

/// Runs both planners to completion, asserting identical rounds.
/// `batched` drives the incremental planner through `apply_round`;
/// otherwise per-merge `apply_merge`.
fn assert_equivalent_driven(n: usize, seed: u64, cfg: TopoConfig, batched: bool) {
    let mut space = Pts::new(&lcg_coords(n, seed));
    let mut active: Vec<usize> = (0..n).collect();
    let mut planner = MergePlanner::new(&space, &active, cfg);
    let mut rounds = 0;
    while active.len() > 1 {
        let reference = plan_round(&space, &active, &cfg);
        let incremental = planner.plan_round(&space);
        assert_eq!(
            reference, incremental,
            "divergence at round {rounds} (n={n}, seed={seed})"
        );
        let mut round = Vec::new();
        for (a, b) in reference {
            let m = midpoint_merge(&mut space, a, b);
            // Reference active-set maintenance: same swap-remove
            // discipline as the planner.
            for x in [a, b] {
                let i = active.iter().position(|&k| k == x).unwrap();
                active.swap_remove(i);
            }
            active.push(m);
            if batched {
                round.push((a, b, m));
            } else {
                planner.apply_merge(&space, a, b, m);
            }
        }
        if batched {
            planner.apply_round(&space, &round);
        }
        rounds += 1;
    }
    assert_eq!(planner.len(), 1);
    assert_eq!(planner.sole_key(), active[0]);
}

fn assert_equivalent(n: usize, seed: u64, cfg: TopoConfig) {
    assert_equivalent_driven(n, seed, cfg, false);
    assert_equivalent_driven(n, seed, cfg, true);
}

#[test]
fn equivalent_to_reference_greedy() {
    assert_equivalent(80, 11, TopoConfig::greedy());
}

#[test]
fn equivalent_to_reference_multimerge() {
    assert_equivalent(
        120,
        5,
        TopoConfig {
            order: MergeOrder::MultiMerge { fraction: 0.25 },
            delay_weight: 0.0,
        },
    );
}

#[test]
fn equivalent_under_small_fractions_that_avoid_refresh() {
    // fraction 0.05 keeps rounds below the refresh divisor, pinning
    // the batched *incremental* sweep (shared bound, one rebuild
    // check) against the reference.
    assert_equivalent(
        130,
        9,
        TopoConfig {
            order: MergeOrder::MultiMerge { fraction: 0.05 },
            delay_weight: 0.0,
        },
    );
}

#[test]
fn equivalent_with_delay_bias() {
    let coords = lcg_coords(64, 3);
    let mut space = Pts::new(&coords);
    for (i, d) in space.delays.iter_mut().enumerate() {
        *d = (i % 7) as f64 * 1e-13;
    }
    let cfg = TopoConfig {
        order: MergeOrder::GreedyNearest,
        delay_weight: 5e12,
    };
    let mut active: Vec<usize> = (0..64).collect();
    let mut planner = MergePlanner::new(&space, &active, cfg);
    while active.len() > 1 {
        let reference = plan_round(&space, &active, &cfg);
        assert_eq!(reference, planner.plan_round(&space));
        for (a, b) in reference {
            let m = midpoint_merge(&mut space, a, b);
            for x in [a, b] {
                let i = active.iter().position(|&k| k == x).unwrap();
                active.swap_remove(i);
            }
            active.push(m);
            planner.apply_merge(&space, a, b, m);
        }
    }
}

/// The snapshot lists every active subtree once, in the `(score, lo, hi)`
/// order `plan_round` selects by, whether the ranking lives in the flat
/// post-refresh vector (multi-merge) or in the lazy heap (greedy rounds
/// on the point-update path), and it selects the planner's own round.
#[test]
fn nn_snapshot_rows_are_in_rank_order() {
    for cfg in [TopoConfig::default(), TopoConfig::greedy()] {
        let mut space = Pts::new(&lcg_coords(300, 17));
        let keys: Vec<usize> = (0..300).collect();
        let mut planner = MergePlanner::new(&space, &keys, cfg);
        for _ in 0..4 {
            let pairs = planner.plan_round(&space);
            let rows = planner.nn_snapshot();
            let mut seen: Vec<usize> = rows.iter().map(|r| r.key).collect();
            seen.sort_unstable();
            let mut live: Vec<usize> = planner.entries.iter().map(|e| e.key()).collect();
            live.sort_unstable();
            assert_eq!(seen, live, "every active subtree once");
            let rank = |r: &NnSnapshotRow| {
                let (v, _, score, _) = r.nn.expect("a cached neighbor");
                (score, r.key.min(v), r.key.max(v))
            };
            assert!(rows.is_sorted_by_key(rank), "rank order");
            let limit = round_limit(cfg.order, planner.len());
            let ranked = rows.iter().map(|r| (rank(r).1, rank(r).2));
            assert_eq!(select_disjoint(ranked, limit), pairs);
            let mut round = Vec::new();
            for (a, b) in pairs {
                round.push((a, b, midpoint_merge(&mut space, a, b)));
            }
            planner.apply_round(&space, &round);
        }
    }
}

#[test]
fn planner_shrinks_to_sole_survivor() {
    let mut space = Pts::new(&[(0.0, 0.0), (4.0, 0.0), (10.0, 0.0)]);
    let mut planner = MergePlanner::new(&space, &[0, 1, 2], TopoConfig::greedy());
    assert_eq!(planner.len(), 3);
    assert!(!planner.is_empty());
    while planner.len() > 1 {
        let pairs = planner.plan_round(&space);
        assert!(!pairs.is_empty());
        for (a, b) in pairs {
            let m = midpoint_merge(&mut space, a, b);
            planner.apply_merge(&space, a, b, m);
        }
    }
    assert_eq!(planner.sole_key(), 4);
}

#[test]
fn score_bits_orders_like_floats() {
    let xs = [-1e9, -1.0, -1e-30, -0.0, 0.0, 1e-30, 2.5, 1e12];
    for w in xs.windows(2) {
        assert!(score_bits(w[0]) <= score_bits(w[1]), "{} vs {}", w[0], w[1]);
    }
}

#[test]
#[should_panic(expected = "inactive key")]
fn apply_merge_rejects_stale_keys() {
    let space = Pts::new(&[(0.0, 0.0), (1.0, 0.0)]);
    let mut planner = MergePlanner::new(&space, &[0, 1], TopoConfig::greedy());
    planner.apply_merge(&space, 0, 7, 9);
}

#[test]
#[should_panic(expected = "duplicate planner key")]
fn reusing_a_live_key_is_rejected() {
    let space = Pts::new(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
    let mut planner = MergePlanner::new(&space, &[0, 1, 2], TopoConfig::greedy());
    // "Merging" 0 and 1 into the still-active key 2 must be caught.
    planner.apply_merge(&space, 0, 1, 2);
}

#[test]
fn empty_round_is_a_no_op() {
    let space = Pts::new(&[(0.0, 0.0), (1.0, 0.0)]);
    let mut planner = MergePlanner::new(&space, &[0, 1], TopoConfig::greedy());
    planner.apply_round(&space, &[]);
    assert_eq!(planner.len(), 2);
}

/// A space whose subtree `k` has `lens[k]` distinct point regions.
struct Spans {
    lens: Vec<usize>,
}

impl MergeSpace for Spans {
    fn region(&self, id: usize) -> astdme_geom::Trr {
        let mut regions = Vec::new();
        self.regions(id, &mut regions);
        regions.iter().skip(1).fold(regions[0], |h, r| h.hull(r))
    }
    fn regions(&self, id: usize, out: &mut Vec<astdme_geom::Trr>) {
        let p = |i: usize| Point::new(id as f64 * 1000.0 + i as f64, i as f64);
        out.extend((0..self.lens[id]).map(|i| astdme_geom::Trr::from_point(p(i))));
    }
    fn delay(&self, _id: usize) -> f64 {
        0.0
    }
}

/// The region arena returns every subtree's regions in order before and
/// after a relayout, whatever mix of short spans (which fill chunks that
/// start small and double), spans longer than the largest chunk, and
/// single-region subtrees (stored as their hull) it holds.
#[test]
fn region_arena_round_trips_spans_of_every_size() {
    let lens = vec![
        1, 3, 600, 20, 5, 1, 513, 7, 200, 511, 2, 1000, 9, 64, 1, 300,
    ];
    let space = Spans { lens: lens.clone() };
    let mut arena = RegionArena::default();
    let mut entries: Vec<Entry> = (0..lens.len())
        .map(|k| Entry::new(&space, &mut arena, k))
        .collect();
    let check = |arena: &RegionArena, entries: &[Entry]| {
        for (k, e) in entries.iter().enumerate() {
            let mut want = Vec::new();
            space.regions(k, &mut want);
            assert_eq!(arena.regions(e), &want[..], "subtree {k}");
        }
    };
    check(&arena, &entries);
    arena.begin_relayout();
    for e in entries.iter_mut().rev() {
        arena.relocate(e);
    }
    arena.end_relayout();
    check(&arena, &entries);
}
