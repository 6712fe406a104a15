//! `take_leaves`: a forest that takes a recorded forest's leaf store is
//! the forest `for_instance_with_model` builds, bit for bit, and routes
//! the same trees.

use astdme_delay::{DelayModel, RcParams};

use super::{pt, Rng};
use crate::merge::frozen::Run;
use crate::{
    Candidate, EngineConfig, GroupId, Groups, Instance, MergeForest, MergeRecording, NodeId, Sink,
};

/// A random instance of `n` sinks over three groups on a small integer
/// grid, so offset adjustment and exact ties both occur.
fn instance(rng: &mut Rng, n: usize, bounds: &[f64]) -> Instance {
    let sinks = (0..n)
        .map(|_| {
            let (x, y) = (rng.below(12) as f64 * 100.0, rng.below(12) as f64 * 100.0);
            Sink::new(pt(x, y), [1e-14, 2e-14][rng.below(2)])
        })
        .collect();
    let assignment = (0..n).map(|i| i % 3).collect();
    let groups = Groups::from_assignments(assignment, 3)
        .and_then(|g| g.with_bounds(bounds.to_vec()))
        .expect("valid groups");
    Instance::new(sinks, groups, RcParams::default(), pt(0.0, 1500.0)).expect("valid instance")
}

/// `inst` with the sinks at `moved` shifted and those at `retuned`
/// given a new load, and the ascending list of sinks that changed.
fn edited(inst: &Instance, moved: &[usize], retuned: &[usize]) -> (Instance, Vec<usize>) {
    let mut sinks = inst.sinks().to_vec();
    for &i in moved {
        sinks[i].pos = pt(sinks[i].pos.x + 250.0, sinks[i].pos.y - 150.0);
    }
    for &i in retuned {
        sinks[i].cap *= 3.0;
    }
    let mut dirty: Vec<usize> = moved.iter().chain(retuned).copied().collect();
    dirty.sort_unstable();
    dirty.dedup();
    let edited = Instance::new(sinks, inst.groups().clone(), *inst.rc(), inst.source())
        .expect("valid instance");
    (edited, dirty)
}

fn same_cand_bits(a: &Candidate, b: &Candidate) -> bool {
    let region = |c: &Candidate| {
        let (u, v) = (c.region.u(), c.region.v());
        [u.lo(), u.hi(), v.lo(), v.hi()].map(f64::to_bits)
    };
    let delays = |c: &Candidate| -> Vec<(GroupId, u64, u64)> {
        c.delays
            .iter()
            .map(|(g, r)| (g, r.lo.to_bits(), r.hi.to_bits()))
            .collect()
    };
    let kind = |c: &Candidate| {
        let k = c.kind;
        (k.cand_a, k.cand_b, k.ea.to_bits(), k.eb.to_bits())
    };
    region(a) == region(b)
        && delays(a) == delays(b)
        && a.cap.to_bits() == b.cap.to_bits()
        && a.wirelen.to_bits() == b.wirelen.to_bits()
        && kind(a) == kind(b)
}

/// Every leaf node's summary and candidate, and every store candidate,
/// bit for bit.
fn assert_same_leaves(taken: &MergeForest, fresh: &MergeForest, n: usize) {
    assert_eq!(taken.node_count(), n);
    assert_eq!(taken.leaves(), fresh.leaves());
    assert!(
        taken.store.holds_leaves(n),
        "the taken store holds the leaves"
    );
    for i in 0..n {
        let (t, f) = (&taken.nodes[i], &fresh.nodes[i]);
        assert_eq!(t.sink(), Some(i));
        assert_eq!(t.children(), None);
        assert_eq!(t.hull, f.hull, "leaf {i}");
        assert_eq!(t.max_delay.to_bits(), f.max_delay.to_bits(), "leaf {i}");
        assert_eq!(t.finite, f.finite, "leaf {i}");
        let (lt, lf) = (taken.candidates(NodeId(i)), fresh.candidates(NodeId(i)));
        assert_eq!(lt.len(), 1, "leaf {i} is a frozen leaf");
        assert!(same_cand_bits(&lt[0], &lf[0]), "leaf {i}");
        let run = Run::leaf(i);
        let (st, sf) = (&taken.store.get(run)[0], &fresh.store.get(run)[0]);
        assert!(same_cand_bits(st, sf), "store run of leaf {i}");
    }
}

/// Merges `f`'s leaves in the random order `seed` draws, unrecorded, and
/// embeds the root.
fn route(f: &mut MergeForest, seed: u64, source: astdme_geom::Point) -> crate::RoutedTree {
    let mut rng = Rng(seed);
    let mut active = f.leaves();
    while active.len() > 1 {
        let a = active.swap_remove(rng.below(active.len()));
        let b = active.swap_remove(rng.below(active.len()));
        active.push(f.merge(a, b));
    }
    f.embed(active[0], source)
}

/// Records a random merge order over a random instance, edits it, and
/// checks `take_leaves` against a fresh forest of the edited instance.
fn take_matches_fresh(seed: u64, fuse: bool) {
    let mut rng = Rng(seed);
    let cfg = EngineConfig {
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
    let n = 24 + rng.below(40);
    let inst = instance(&mut rng, n, &bounds);
    let mut std = MergeForest::for_instance_with_model(&inst, model, cfg);
    let mut rec = MergeRecording::for_forest(&std);
    let mut active = std.leaves();
    while active.len() > 1 {
        let a = active.swap_remove(rng.below(active.len()));
        let b = active.swap_remove(rng.below(active.len()));
        active.push(std.merge_recorded(a, b, &mut rec));
    }
    // Offset adjustment never appends to a leaf (a leaf has one group),
    // fused or not, so every leaf is still the frozen leaf it was born.
    for i in 0..n {
        assert_eq!(std.candidates(NodeId(i)).len(), 1, "seed {seed}: leaf {i}");
    }
    let moved = [rng.below(n), rng.below(n)];
    let retuned = [rng.below(n)];
    let (inst2, dirty) = if seed % 4 == 3 {
        // No edit at all: every leaf is carried over.
        (inst.clone(), Vec::new())
    } else {
        edited(&inst, &moved, &retuned)
    };
    let merges: Vec<Vec<Candidate>> = (n..std.node_count())
        .map(|i| std.candidates(NodeId(i)).to_vec())
        .collect();

    let mut taken =
        MergeForest::take_leaves(&mut std, &inst2, &dirty).expect("a recorded forest's leaves");
    let mut fresh = MergeForest::for_instance_with_model(&inst2, model, cfg);
    assert_same_leaves(&taken, &fresh, n);
    // The recorded forest keeps its merge nodes whole; its leaves read
    // as empty.
    for (k, list) in merges.iter().enumerate() {
        assert_eq!(
            std.candidates(NodeId(n + k)),
            &list[..],
            "merge node {}",
            n + k
        );
    }
    for i in 0..n {
        assert!(std.candidates(NodeId(i)).is_empty(), "leaf {i}");
    }
    // Both forests route the same tree.
    let route_seed = seed ^ 0xA5A5;
    let (a, b) = (
        route(&mut taken, route_seed, inst2.source()),
        route(&mut fresh, route_seed, inst2.source()),
    );
    assert_eq!(a, b, "seed {seed}: the routed trees differ");
    assert_eq!(taken.residual().to_bits(), fresh.residual().to_bits());
}

#[test]
fn taken_leaves_equal_a_fresh_forest() {
    for fuse in [true, false] {
        for seed in 0..24 {
            take_matches_fresh(seed, fuse);
        }
    }
}

#[test]
fn take_leaves_declines_other_forests() {
    let mut rng = Rng(5);
    let bounds = [0.0, 1e-11, 4e-12];
    let inst = instance(&mut rng, 30, &bounds);
    let smaller = instance(&mut rng, 29, &bounds);
    let model = DelayModel::elmore(RcParams::default());
    let fresh = || MergeForest::for_instance_with_model(&inst, model, EngineConfig::default());
    assert!(MergeForest::take_leaves(&mut fresh(), &smaller, &[]).is_none());
    // Leaves out of sink order.
    let mut swapped = MergeForest::new(model, bounds.to_vec(), EngineConfig::default());
    for i in 0..30 {
        let j = match i {
            20 => 21,
            21 => 20,
            _ => i,
        };
        let s = &inst.sinks()[j];
        swapped.add_leaf(j, s.pos, s.cap, inst.group_of(j));
    }
    assert!(MergeForest::take_leaves(&mut swapped, &inst, &[]).is_none());
    // A leaf an append thawed into a live list.
    let mut thawed = fresh();
    let MergeForest { nodes, store, .. } = &mut thawed;
    let own = store.get(Run::leaf(7)).to_vec();
    nodes[7].extend_candidates(store, own.into_iter());
    assert!(MergeForest::take_leaves(&mut thawed, &inst, &[]).is_none());
    // A forest that froze a merge's children holds more than its leaves.
    let mut plain = fresh();
    let leaves = plain.leaves();
    let m = plain.merge(leaves[0], leaves[1]);
    let _ = plain.merge(m, leaves[2]);
    assert!(MergeForest::take_leaves(&mut plain, &inst, &[]).is_none());
}
