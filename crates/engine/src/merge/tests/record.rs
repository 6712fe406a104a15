//! Recording and adoption: adopted merges take the recorded lists, and
//! an unfused recording never leaves class snapshot 0.

use astdme_delay::{DelayModel, RcParams};

use super::{pt, Rng};
use crate::{EngineConfig, GroupId, MergeForest, MergeRecording, NodeId};

/// Records a random merge order over a random forest (as in
/// `random_forest_rankings_match`), adopts every recorded merge into a
/// second forest built from the same leaves, and checks the adopted forest
/// against a clone of the recorded forest taken before adoption: equal
/// lists and summaries everywhere, the recorded list itself (same
/// allocation) exactly where it is the creation prefix, and a copy
/// wherever later appends grew it. A taken list leaves its recorded node
/// empty; a copied one leaves it whole. Returns how many recorded merges
/// appended to descendants.
fn adoption_takes_recorded_lists(seed: u64, fuse: bool) -> usize {
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
    let mut std = MergeForest::new(model, bounds.clone(), cfg);
    let mut adopted = MergeForest::new(model, bounds, cfg);
    let mut active = Vec::new();
    for i in 0..24 {
        let (x, y) = (rng.below(12) as f64 * 100.0, rng.below(12) as f64 * 100.0);
        let (group, cap) = (GroupId(rng.below(3) as u32), [1e-14, 2e-14][rng.below(2)]);
        active.push(std.add_leaf(i, pt(x, y), cap, group));
        adopted.add_leaf(i, pt(x, y), cap, group);
    }
    let mut rec = MergeRecording::for_forest(&std);
    while active.len() > 1 {
        let a = active.swap_remove(rng.below(active.len()));
        let b = active.swap_remove(rng.below(active.len()));
        active.push(std.merge_recorded(a, b, &mut rec));
    }
    // The clone shares every live list with the recorded forest, so it
    // keeps the taken lists alive at their addresses.
    let before = std.clone();
    // Same leaves and merge order, so node ids translate to themselves.
    let identity: Vec<u32> = (0..std.node_count() as u32).collect();
    let mut took = Vec::new();
    for log in rec.logs() {
        let (x, y) = (NodeId(log.a as usize), NodeId(log.b as usize));
        let (m, taken) = adopted
            .adopt_merge(x, y, &mut std, log, &rec, &identity, None)
            .expect("an identical forest adopts every merge");
        assert_eq!(m.0, log.result as usize);
        took.push(taken);
    }
    assert_eq!(adopted.residual().to_bits(), before.residual().to_bits());
    for i in 0..before.node_count() {
        let id = NodeId(i);
        assert_eq!(adopted.candidates(id), before.candidates(id), "node {i}");
        assert_eq!(adopted.children(id), before.children(id));
        assert_eq!(
            adopted.representative_region(id),
            before.representative_region(id)
        );
        assert_eq!(
            adopted.max_delay(id).to_bits(),
            before.max_delay(id).to_bits()
        );
        assert_eq!(adopted.nodes[i].finite, before.nodes[i].finite);
    }
    for (log, taken) in rec.logs().iter().zip(took) {
        let id = NodeId(log.result as usize);
        let same = adopted.candidates(id).as_ptr() == before.candidates(id).as_ptr();
        let prefix = before.candidates(id).len() == log.creation_len as usize;
        assert_eq!(
            taken, prefix,
            "node {}: taken {taken}, prefix {prefix}",
            id.0
        );
        assert_eq!(same, prefix, "node {}: same {same}, prefix {prefix}", id.0);
        let left = std.candidates(id);
        if taken {
            assert!(left.is_empty(), "node {}: a taken list leaves none", id.0);
        } else {
            assert_eq!(left, before.candidates(id), "node {}", id.0);
        }
    }
    rec.logs().iter().filter(|l| !l.appends.is_empty()).count()
}

#[test]
fn adopted_merges_take_the_recorded_candidate_lists() {
    for fuse in [true, false] {
        let appending: usize = (0..16)
            .map(|seed| adoption_takes_recorded_lists(seed, fuse))
            .sum();
        assert!(
            appending > 0,
            "fuse={fuse}: offset adjustment must exercise the copy-on-write appends"
        );
    }
}

/// With `fuse_groups` off no merge fuses, so a recording logs every merge
/// at class snapshot 0, and an unchanged replay adopts every merge
/// against that snapshot and re-records the same script.
#[test]
fn unfused_recordings_stay_at_snapshot_zero_and_replay_whole() {
    let cfg = EngineConfig {
        fuse_groups: false,
        ..EngineConfig::default()
    };
    let mut appending = 0;
    for seed in 0..16 {
        let mut rng = Rng(seed);
        let (model, bounds) = if seed.is_multiple_of(2) {
            (
                DelayModel::elmore(RcParams::default()),
                vec![0.0, 1e-11, 4e-12],
            )
        } else {
            (DelayModel::pathlength(), vec![0.0, 300.0, 100.0])
        };
        let mut std = MergeForest::new(model, bounds.clone(), cfg);
        let mut adopted = MergeForest::new(model, bounds.clone(), cfg);
        let mut active = Vec::new();
        for i in 0..24 {
            let (x, y) = (rng.below(12) as f64 * 100.0, rng.below(12) as f64 * 100.0);
            let (group, cap) = (GroupId(rng.below(3) as u32), [1e-14, 2e-14][rng.below(2)]);
            active.push(std.add_leaf(i, pt(x, y), cap, group));
            adopted.add_leaf(i, pt(x, y), cap, group);
        }
        let mut rec = MergeRecording::for_forest(&std);
        while active.len() > 1 {
            let a = active.swap_remove(rng.below(active.len()));
            let b = active.swap_remove(rng.below(active.len()));
            active.push(std.merge_recorded(a, b, &mut rec));
        }
        assert_eq!(rec.epoch(), 0, "seed {seed}: an unfused run never fuses");
        for log in rec.logs() {
            assert_eq!((log.epoch_before, log.epoch_after), (0, 0), "{log:?}");
        }
        let identity: Vec<u32> = (0..std.node_count() as u32).collect();
        let mut replayed = MergeRecording::for_forest(&adopted);
        for log in rec.logs() {
            let (x, y) = (NodeId(log.a as usize), NodeId(log.b as usize));
            adopted
                .adopt_merge(x, y, &mut std, log, &rec, &identity, Some(&mut replayed))
                .expect("an unchanged replay adopts every merge");
        }
        assert_eq!(replayed, rec, "seed {seed}");
        appending += rec.logs().iter().filter(|l| !l.appends.is_empty()).count();
    }
    assert!(appending > 0, "offset adjustment must append somewhere");
}
