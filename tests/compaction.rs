//! Compacting consumed nodes never changes a routed bit.
//!
//! An unrecorded merge loop (`run_bottom_up`) freezes every consumed node
//! to the candidates its parent references; a recorded loop keeps every
//! list whole. Both must embed the same tree and audit the same report,
//! bit for bit, under every preset and merge order, and with class fusion
//! off, where offset adjustment appends candidates to consumed (frozen)
//! nodes.

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    audit, run_bottom_up, AuditReport, DelayModel, EngineConfig, Instance, MergeRecording, NodeId,
    RoutedTree, TopoConfig,
};

mod common;
use common::{recorded_bottom_up, retained_candidates};

fn instance(n: usize, seed: u64, bound: f64) -> Instance {
    let p = synthetic_instance(n, seed, &format!("a{n}"));
    let inst = partition::intermingled(&p, 4, seed ^ 0xBEEF).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(bound)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

fn tree_bits(t: &RoutedTree) -> Vec<[u64; 5]> {
    let (s, none) = (t.source(), u64::MAX);
    let mut v = vec![[s.x.to_bits(), s.y.to_bits(), 0, 0, 0]];
    v.extend(t.nodes().iter().map(|n| {
        [
            n.pos.x.to_bits(),
            n.pos.y.to_bits(),
            n.wire.to_bits(),
            n.parent.map_or(none, |p| p as u64),
            n.sink.map_or(none, |s| s as u64),
        ]
    }));
    v
}

fn report_bits(r: &AuditReport) -> Vec<u64> {
    let mut v = vec![
        r.wirelength().to_bits(),
        r.snaking().to_bits(),
        r.global_skew().to_bits(),
    ];
    v.extend(
        r.sink_delays()
            .iter()
            .flat_map(|&(i, d)| [i as u64, d.to_bits()]),
    );
    v.extend(r.group_spreads().iter().map(|s| s.to_bits()));
    v
}

/// Whether some recorded merge appended candidates to a node other than
/// its own children: a node an earlier merge consumed, which the
/// compacting loop has frozen.
fn appends_to_consumed_nodes(rec: &MergeRecording) -> bool {
    rec.logs()
        .iter()
        .any(|l| l.appends.iter().any(|&(n, ..)| n != l.a && n != l.b))
}

/// Every node of a recorded forest keeps the list it was created with
/// plus every recorded append.
fn assert_recorded_lists_whole(forest: &astdme::MergeForest, rec: &MergeRecording) {
    let mut want = vec![1usize; forest.node_count()];
    for log in rec.logs() {
        want[log.result as usize] = log.creation_len as usize;
    }
    for log in rec.logs() {
        for &(n, _, len) in &log.appends {
            want[n as usize] += len as usize;
        }
    }
    for (i, &w) in want.iter().enumerate() {
        assert_eq!(
            forest.candidates(NodeId::from_index(i)).len(),
            w,
            "node {i}"
        );
    }
}

/// Routes `inst` both ways and compares; returns whether the recording
/// appended to consumed nodes.
fn compare(inst: &Instance, engine: EngineConfig, topo: &TopoConfig, what: &str) -> bool {
    let model = DelayModel::elmore(*inst.rc());
    let (compact, root) = run_bottom_up(inst, model, engine, topo);
    let (recorded, rec_root, rec) = recorded_bottom_up(inst, model, engine, topo);
    assert_eq!(root, rec_root, "{what}: roots");
    assert_recorded_lists_whole(&recorded, &rec);
    let (kept, whole) = (
        retained_candidates(&compact),
        retained_candidates(&recorded),
    );
    assert!(kept < whole, "{what}: {kept} kept of {whole}");
    let tree = compact.embed(root, inst.source());
    let rec_tree = recorded.embed(rec_root, inst.source());
    assert_eq!(tree_bits(&tree), tree_bits(&rec_tree), "{what}: trees");
    assert_eq!(
        report_bits(&audit(&tree, inst, &model)),
        report_bits(&audit(&rec_tree, inst, &model)),
        "{what}: audit reports"
    );
    assert_eq!(
        compact.residual().to_bits(),
        recorded.residual().to_bits(),
        "{what}: residuals"
    );
    appends_to_consumed_nodes(&rec)
}

#[test]
fn compacting_and_recorded_routes_embed_identically() {
    let inst = instance(400, 21, 10e-12);
    for (preset, engine) in [
        ("default", EngineConfig::default()),
        ("fast", EngineConfig::fast()),
        ("thorough", EngineConfig::thorough()),
    ] {
        for (order, topo) in [
            ("greedy", TopoConfig::greedy()),
            ("multi_merge", TopoConfig::default()),
        ] {
            compare(&inst, engine, &topo, &format!("{preset} {order}"));
        }
    }
}

#[test]
fn appends_to_frozen_nodes_keep_routes_identical() {
    let engine = EngineConfig {
        fuse_groups: false,
        ..EngineConfig::default()
    };
    let mut appended = false;
    for (seed, bound) in [(5, 0.0), (6, 5e-12), (7, 20e-12)] {
        let inst = instance(300, seed, bound);
        for (order, topo) in [
            ("greedy", TopoConfig::greedy()),
            ("multi_merge", TopoConfig::default()),
        ] {
            let what = format!("unfused seed {seed} bound {bound:e} {order}");
            appended |= compare(&inst, engine, &topo, &what);
        }
    }
    assert!(
        appended,
        "offset adjustment must append to a consumed node somewhere in the sweep"
    );
}

/// The deterministic count of candidates a compacted forest keeps, at the
/// size and preset `tests/alloc_budget.rs` measures: every candidate its
/// parent references (plus the root's list), against every candidate the
/// recorded forest keeps.
#[test]
fn retained_candidate_count_is_pinned() {
    let inst = instance(4000, 2006, 10e-12);
    let model = DelayModel::elmore(*inst.rc());
    let (engine, topo) = (EngineConfig::default(), TopoConfig::default());
    let (compact, _) = run_bottom_up(&inst, model, engine, &topo);
    let (recorded, _, _) = recorded_bottom_up(&inst, model, engine, &topo);
    assert_eq!(retained_candidates(&compact), 10_977);
    assert_eq!(retained_candidates(&recorded), 31_602);
}
