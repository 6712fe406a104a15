//! Unit tests for the merge module tree (formerly `forest.rs` inline
//! tests), exercising each Fig. 6 case at the `MergeForest` API level.

use astdme_delay::{DelayModel, RcParams};
use astdme_geom::Point;

use crate::{CandKind, EngineConfig, GroupId, MergeForest};

mod leaves;
mod record;

fn forest_with(bounds: Vec<f64>) -> MergeForest {
    MergeForest::new(
        DelayModel::elmore(RcParams::default()),
        bounds,
        EngineConfig::default(),
    )
}

fn pt(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

#[test]
fn leaf_candidates_are_points_at_zero_delay() {
    let mut f = forest_with(vec![0.0]);
    let id = f.add_leaf(0, pt(3.0, 4.0), 1e-14, GroupId(0));
    let c = &f.candidates(id)[0];
    assert!(c.region.is_point(1e-12));
    assert_eq!(c.cap, 1e-14);
    assert_eq!(c.wirelen, 0.0);
    assert_eq!(c.delays.range(GroupId(0)).unwrap().hi, 0.0);
}

#[test]
fn same_group_zero_skew_merge_is_classic_dme() {
    let mut f = forest_with(vec![0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(1000.0, 0.0), 1e-14, GroupId(0));
    let m = f.merge(a, b);
    for c in f.candidates(m) {
        // Zero-skew with equal loads: split in half, region is an arc.
        let CandKind { ea, eb, .. } = c.kind;
        assert!((ea - 500.0).abs() < 1e-6);
        assert!((eb - 500.0).abs() < 1e-6);
        assert!(c.region.is_arc(1e-9));
        assert!((c.wirelen - 1000.0).abs() < 1e-9);
        // Both sinks at identical delay.
        let r = c.delays.range(GroupId(0)).unwrap();
        assert!(r.spread() < 1e-18);
    }
}

#[test]
fn different_groups_merge_spans_the_sdr() {
    // Fusion retains only the offset-consistent candidate; the SDR
    // sweep is visible in the general (unfused) mode.
    let mut f = MergeForest::new(
        DelayModel::elmore(RcParams::default()),
        vec![0.0, 0.0],
        EngineConfig {
            fuse_groups: false,
            ..EngineConfig::default()
        },
    );
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(800.0, 600.0), 1e-14, GroupId(1));
    let m = f.merge(a, b);
    let cands = f.candidates(m);
    // Multiple sampled splits, all spending exactly the distance.
    assert!(cands.len() > 1);
    for c in cands {
        assert!((c.wirelen - 1400.0).abs() < 1e-6);
        assert_eq!(c.delays.group_count(), 2);
    }
    // The extreme samples touch the child positions.
    let spans: Vec<f64> = cands.iter().map(|c| c.kind.ea).collect();
    let min = spans.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = spans.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(min < 1e-6);
    assert!((max - 1400.0).abs() < 1e-6);
}

#[test]
fn bounded_skew_merge_allows_off_balance_splits() {
    let mut f = MergeForest::new(
        DelayModel::elmore(RcParams::default()),
        vec![1e-11],
        EngineConfig::default(),
    );
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(2000.0, 0.0), 1e-14, GroupId(0));
    let m = f.merge(a, b);
    let mut spread_seen = 0.0f64;
    for c in f.candidates(m) {
        let r = c.delays.range(GroupId(0)).unwrap();
        assert!(r.spread() <= 1e-11 + 1e-18);
        spread_seen = spread_seen.max(r.spread());
    }
    assert!(spread_seen > 0.0, "bounded merges should use the slack");
}

#[test]
fn unbalanced_zero_skew_merge_snakes() {
    let mut f = forest_with(vec![0.0]);
    // A heavy, far subtree vs a nearby light sink: build the heavy one
    // first out of two distant sinks.
    let a1 = f.add_leaf(0, pt(0.0, 0.0), 5e-14, GroupId(0));
    let a2 = f.add_leaf(1, pt(4000.0, 0.0), 5e-14, GroupId(0));
    let a = f.merge(a1, a2);
    let b = f.add_leaf(2, pt(2050.0, 10.0), 1e-15, GroupId(0));
    let m = f.merge(a, b);
    // b is tiny and close to a's merging arc: zero skew demands more
    // wire to b than the distance.
    let c = &f.candidates(m)[0];
    let CandKind { ea, eb, .. } = c.kind;
    let d = f
        .candidates(a)
        .iter()
        .map(|ca| ca.region.distance(&f.candidates(b)[0].region))
        .fold(f64::INFINITY, f64::min);
    assert!(ea + eb > d + 1.0, "expected a snaking detour");
    let r = c.delays.range(GroupId(0)).unwrap();
    assert!(r.spread() < 1e-18);
}

#[test]
fn embed_realizes_bookkept_wirelength_and_delays() {
    let mut f = forest_with(vec![0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(600.0, 400.0), 2e-14, GroupId(0));
    let m = f.merge(a, b);
    let best_wirelen = f.candidates(m)[0].wirelen;
    let tree = f.embed(m, pt(300.0, 1000.0));
    // Total wire = subtree wire + source connection.
    let subtree_wire: f64 = tree
        .nodes()
        .iter()
        .filter(|n| n.parent.is_some())
        .map(|n| n.wire)
        .sum();
    assert!((subtree_wire - best_wirelen).abs() < 1e-6);
    assert_eq!(tree.sink_nodes().count(), 2);
}

#[test]
fn representative_region_covers_every_candidate() {
    let mut f = forest_with(vec![0.0, 0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(100.0, 0.0), 1e-14, GroupId(1));
    assert_eq!(f.representative_region(a), f.candidates(a)[0].region);
    let m = f.merge(a, b);
    let rep = f.representative_region(m);
    for c in f.candidates(m) {
        assert!(rep.contains_trr(&c.region, 1e-9));
    }
}

#[test]
fn residual_zero_on_clean_instances() {
    let mut f = forest_with(vec![0.0, 0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(500.0, 0.0), 1e-14, GroupId(1));
    let c = f.add_leaf(2, pt(250.0, 400.0), 1e-14, GroupId(0));
    let ab = f.merge(a, b);
    let _ = f.merge(ab, c);
    assert_eq!(f.residual(), 0.0);
}

#[test]
#[should_panic(expected = "cannot merge a node with itself")]
fn merging_self_panics() {
    let mut f = forest_with(vec![0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let _ = f.merge(a, a);
}

// --- Bounded pair ranking vs the exhaustive oracle -----------------------

use super::context::Scratch;
use super::node::Node;
use crate::{Candidate, DelayMap, NodeId};

/// The ranking `merge` used before the bounded pass, kept as the oracle:
/// price every pair, stable-sort by `total_cmp`, drop NaN pairs unless
/// the cheapest is NaN (then keep it alone), truncate to `pair_limit`.
fn exhaustive_ranking(f: &MergeForest, a: NodeId, b: NodeId) -> Vec<(f64, usize, usize)> {
    let ctx = f.ctx();
    let mut scratch = Scratch::default();
    let nb = f.candidates(b).len();
    let mut pairs: Vec<(f64, usize, usize)> = (0..f.candidates(a).len())
        .flat_map(|ia| (0..nb).map(move |ib| (ia, ib)))
        .map(|(ia, ib)| (ctx.pair_cost_estimate(a, b, ia, ib, &mut scratch), ia, ib))
        .collect();
    pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
    if !pairs[0].0.is_nan() {
        pairs.truncate(
            pairs
                .iter()
                .position(|p| p.0.is_nan())
                .unwrap_or(pairs.len()),
        );
    } else {
        pairs.truncate(1);
    }
    pairs.truncate(f.cfg.pair_limit);
    pairs
}

/// Asserts the production ranking of `a × b` equals the oracle bit for
/// bit, in both the mode the forest picks and the price-everything mode.
/// Returns whether the forest picked the bounded mode.
fn check_ranking(f: &MergeForest, a: NodeId, b: NodeId) -> bool {
    let bits = |v: &[(f64, usize, usize)]| -> Vec<(u64, usize, usize)> {
        v.iter().map(|&(c, ia, ib)| (c.to_bits(), ia, ib)).collect()
    };
    let want = bits(&exhaustive_ranking(f, a, b));
    let bounded = f.ranking_is_bounded(a, b);
    let mut scratch = Scratch::default();
    for mode in [bounded, false] {
        f.ctx().rank_pairs(a, b, mode, &mut scratch);
        assert_eq!(
            bits(&scratch.ranked),
            want,
            "{a:?} x {b:?}, bounded = {mode}"
        );
    }
    bounded
}

/// splitmix64: a dependency-free seeded stream for the random forests.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random forest on a small integer grid (so distances tie exactly,
/// co-located sinks give zero distances, `-0.0` coordinates included),
/// clustered or intermingled over three groups, merged in a random order
/// while every merge's ranking is checked against the oracle. Under the
/// path-length model delays are integer lengths too, so snaking and
/// conflict costs tie exactly with other pairs' distances.
fn random_forest_rankings_match(seed: u64, clustered: bool, pair_limit: usize, fuse: bool) {
    let mut rng = Rng(seed);
    let cfg = EngineConfig {
        pair_limit,
        fuse_groups: fuse,
        ..EngineConfig::default()
    };
    let (model, bounds) = if seed.is_multiple_of(2) {
        (
            DelayModel::elmore(RcParams::default()),
            vec![0.0, 1e-11, 4e-12],
        )
    } else {
        (DelayModel::pathlength(), vec![0.0, 300.0, 100.0])
    };
    let mut f = MergeForest::new(model, bounds, cfg);
    let mut active = Vec::new();
    for i in 0..24 {
        let (x, y) = (rng.below(12) as f64 * 100.0, rng.below(12) as f64 * 100.0);
        let x = if rng.below(4) == 0 { -x } else { x };
        let group = if clustered {
            (x.abs() as usize / 400).min(2)
        } else {
            rng.below(3)
        };
        let cap = [1e-14, 2e-14][rng.below(2)];
        active.push(f.add_leaf(i, pt(x, y), cap, GroupId(group as u32)));
    }
    while active.len() > 1 {
        let a = active.swap_remove(rng.below(active.len()));
        let b = active.swap_remove(rng.below(active.len()));
        assert!(
            check_ranking(&f, a, b),
            "finite forests take the bounded path"
        );
        if let Some(&c) = active.first() {
            check_ranking(&f, c, a);
        }
        active.push(f.merge(a, b));
    }
}

#[test]
fn bounded_ranking_matches_exhaustive_sort_on_random_forests() {
    for seed in 0..12 {
        for clustered in [false, true] {
            for pair_limit in [1, 2, 3, 5, 64] {
                for fuse in [true, false] {
                    random_forest_rankings_match(seed, clustered, pair_limit, fuse);
                }
            }
        }
    }
    // A zero limit ranks nothing (merging would then have no pair).
    let mut f = MergeForest::new(
        DelayModel::elmore(RcParams::default()),
        vec![0.0],
        EngineConfig {
            pair_limit: 0,
            ..EngineConfig::default()
        },
    );
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(5.0, 0.0), 1e-14, GroupId(0));
    check_ranking(&f, a, b);
}

#[test]
fn non_finite_inputs_take_the_exhaustive_fallback() {
    // Group 2 has no sink: fusing it at a NaN offset below poisons the
    // class state without touching any node.
    let mut f = forest_with(vec![1e-11, 1e-11, 1e-11]);
    let mut nodes = Vec::new();
    for i in 0..5 {
        nodes.push(f.add_leaf(i, pt(i as f64 * 300.0, 0.0), 1e-14, GroupId(i as u32 % 2)));
    }
    let ab = f.merge(nodes[0], nodes[1]);
    let cd = f.merge(nodes[2], nodes[3]);
    assert!(check_ranking(&f, ab, cd));
    // A NaN load on a leaf, and a NaN delay on a multi-candidate node.
    let nan_cap = f.add_leaf(6, pt(50.0, 50.0), f64::NAN, GroupId(0));
    let mut poisoned: Vec<Candidate> = f.candidates(ab).to_vec();
    poisoned[0].delays = DelayMap::leaf(GroupId(1)).shifted(f64::NAN);
    let nan_delay = NodeId(f.nodes.len());
    f.nodes.push(Node::new(poisoned.into(), None, None));
    for bad in [nan_cap, nan_delay] {
        for other in [ab, cd, nodes[4]] {
            assert!(
                !check_ranking(&f, bad, other),
                "{bad:?} must not be bounded"
            );
            assert!(!check_ranking(&f, other, bad));
        }
    }
    // A region with an infinite coordinate, and a non-finite class offset.
    let inf = f.add_leaf(7, pt(f64::INFINITY, 0.0), 1e-14, GroupId(0));
    assert!(!check_ranking(&f, inf, cd));
    assert!(check_ranking(&f, ab, cd));
    let finite = f.classes.clone();
    f.classes.fuse(0, 2, f64::NAN);
    assert!(
        !check_ranking(&f, ab, cd),
        "a NaN offset disables the bound"
    );
    f.classes = finite;
    assert!(check_ranking(&f, ab, cd));
}

/// Compaction moves the kept candidates out of a list only its node
/// holds and copies them out of a list a cloned forest shares. A forest
/// cloned mid-route and the original, merged on in the same order, must
/// both end as a forest that was never cloned, spilled (ten-group)
/// delay maps included.
#[test]
fn cloned_forests_compact_like_the_original() {
    let mut rng = Rng(7);
    let bounds = vec![1e-11; 10];
    let mut f = forest_with(bounds.clone());
    let mut leaves = Vec::new();
    for i in 0..40 {
        let (x, y) = (rng.below(20) as f64 * 50.0, rng.below(20) as f64 * 50.0);
        leaves.push(f.add_leaf(i, pt(x, y), 1e-14, GroupId(rng.below(10) as u32)));
    }
    let mut order = Vec::new();
    let mut active = leaves;
    while active.len() > 1 {
        let a = active.swap_remove(rng.below(active.len()));
        let b = active.swap_remove(rng.below(active.len()));
        order.push((a, b));
        active.push(NodeId(f.node_count() + order.len() - 1));
    }
    // A copy of the leaves alone shares no live list.
    let mut reference = f.clone();
    for &(a, b) in &order {
        reference.merge(a, b);
    }
    let (first, rest) = order.split_at(order.len() / 2);
    for &(a, b) in first {
        f.merge(a, b);
    }
    let mut twin = f.clone();
    for &(a, b) in rest {
        f.merge(a, b);
        twin.merge(a, b);
    }
    let root = NodeId(reference.node_count() - 1);
    assert!(reference.candidates(root)[0].delays.group_count() > 4);
    for i in 0..reference.node_count() {
        let id = NodeId(i);
        assert_eq!(f.candidates(id), reference.candidates(id), "node {i}");
        assert_eq!(twin.candidates(id), reference.candidates(id), "node {i}");
    }
}
