//! End-to-end integration tests: every router on synthetic benchmark
//! instances, constraints verified by the independent audit.

use astdme::instances::{partition, r_benchmark, synthetic_instance, RBench};
use astdme::{audit, AstDme, ClockRouter, DelayModel, ExtBst, GreedyDme, Instance, StitchPerGroup};

const BOUND: f64 = 10e-12;

fn small_intermingled(k: usize) -> Instance {
    // ~60 sinks keeps debug-mode runtime reasonable.
    let p = synthetic_instance(60, 11, "t60");
    let inst = partition::intermingled(&p, k, 3).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(BOUND)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

#[test]
fn ast_dme_satisfies_intra_group_bounds_intermingled() {
    let inst = small_intermingled(4);
    let tree = AstDme::new().route(&inst).expect("routes");
    let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
    assert_eq!(tree.sink_nodes().count(), 60);
    assert!(
        report.max_intra_group_skew() <= BOUND * (1.0 + 1e-9),
        "intra-group skew {} exceeds bound",
        report.max_intra_group_skew()
    );
}

#[test]
fn ast_dme_zero_bound_yields_zero_intra_skew() {
    let p = synthetic_instance(40, 5, "t40");
    let inst = partition::intermingled(&p, 4, 9).expect("valid");
    let tree = AstDme::new().route(&inst).expect("routes");
    let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
    assert!(
        report.max_intra_group_skew() < 1e-16,
        "zero-bound intra skew {}",
        report.max_intra_group_skew()
    );
    // Inter-group offsets are free and typically non-zero.
    assert!(report.global_skew() >= report.max_intra_group_skew());
}

#[test]
fn ext_bst_respects_global_bound_on_r1_sized_instance() {
    let p = synthetic_instance(80, 3, "t80");
    let inst = partition::single(&p).expect("valid");
    let tree = ExtBst::new(BOUND).route(&inst).expect("routes");
    let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
    assert!(report.global_skew() <= BOUND * (1.0 + 1e-9));
}

#[test]
fn greedy_dme_zero_skew_everywhere() {
    let p = synthetic_instance(50, 17, "t50");
    let inst = partition::single(&p).expect("valid");
    let tree = GreedyDme::new().route(&inst).expect("routes");
    let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
    assert!(report.global_skew() < 1e-16, "{}", report.global_skew());
}

#[test]
fn stitching_satisfies_constraints_but_wastes_wire_when_intermingled() {
    let inst = small_intermingled(4);
    let model = DelayModel::elmore(*inst.rc());
    let stitch = StitchPerGroup::new().route(&inst).expect("routes");
    let rs = audit(&stitch, &inst, &model);
    assert!(rs.max_intra_group_skew() <= BOUND * (1.0 + 1e-9));
    let ast = AstDme::new().route(&inst).expect("routes");
    let ra = audit(&ast, &inst, &model);
    assert!(
        ra.wirelength() < rs.wirelength(),
        "AST ({}) should beat stitching ({}) on intermingled groups",
        ra.wirelength(),
        rs.wirelength()
    );
}

#[test]
fn routers_are_deterministic() {
    let inst = small_intermingled(6);
    let a = AstDme::new().route(&inst).expect("routes");
    let b = AstDme::new().route(&inst).expect("routes");
    assert_eq!(a, b);
}

#[test]
fn clustered_partition_pipeline() {
    let p = r_benchmark(RBench::R1, 2006);
    let inst = partition::clustered(&p, 4, 0).expect("valid");
    let inst = inst
        .with_groups(inst.groups().clone().with_uniform_bound(BOUND).expect("ok"))
        .expect("ok");
    let tree = AstDme::new().route(&inst).expect("routes");
    let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
    assert_eq!(tree.sink_nodes().count(), 267);
    assert!(report.max_intra_group_skew() <= BOUND * (1.0 + 1e-9));
}

#[test]
fn audit_wirelength_matches_tree_accounting() {
    let inst = small_intermingled(4);
    let tree = AstDme::new().route(&inst).expect("routes");
    let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
    assert!((report.wirelength() - tree.total_wirelength()).abs() < 1e-9);
    assert!(report.snaking() <= report.wirelength());
}

#[test]
fn json_roundtrip_routes_identically() {
    let inst = small_intermingled(4);
    let json = astdme::instances::to_json(&inst);
    let back = astdme::instances::from_json(&json).expect("parses");
    let a = AstDme::new().route(&inst).expect("routes");
    let b = AstDme::new().route(&back).expect("routes");
    assert_eq!(a, b);
}

/// The merge stage reports its layer split: planning, engine merges and
/// the planner's round upkeep are each measured on a grid-regime route,
/// and together never exceed the stage they split.
#[test]
fn merge_stage_splits_plan_engine_and_apply_time() {
    let p = synthetic_instance(2000, 2006, "split");
    let inst = partition::intermingled(&p, 4, 7).expect("valid partition");
    let out = AstDme::new().route_traced(&inst).expect("routes");
    let m = out.stats.merge;
    for (name, s) in [
        ("plan", m.plan_seconds),
        ("engine", m.engine_seconds),
        ("apply", m.apply_seconds),
    ] {
        assert!(s > 0.0, "{name}_seconds must be measured: {m:?}");
    }
    assert!(
        m.plan_seconds + m.engine_seconds + m.apply_seconds <= m.seconds,
        "the split exceeds the merge stage: {m:?}"
    );
}

/// The merge stage's planner counters are deterministic, so they are
/// pinned exactly on one fixed multi-merge route: one grid build at
/// construction plus one per refresh round (11 of the 21 rounds: the
/// other 10 end in the brute-force tail, which needs no sweep), one grid
/// query per neighbor cache derived or checked, and one exact pair
/// distance per pair score no cache could vouch for, or per pair the
/// tail meets first whose hull distance could still beat its row's best.
/// The exact-distance count is work, not output: the tail's hull-distance
/// pruning lowered it from 2777 to 2269 with every pair selected as
/// before. A change to how often the planner builds its grid, queries it
/// or refines a pair shows up here, where timings cannot.
#[test]
fn merge_stage_counts_grid_builds_and_nn_queries() {
    let p = synthetic_instance(1000, 2006, "counters");
    let inst = partition::intermingled(&p, 4, 7).expect("valid partition");
    let m = AstDme::new()
        .route_traced(&inst)
        .expect("routes")
        .stats
        .merge;
    assert_eq!(
        (m.rounds, m.merges, m.grid_builds, m.nn_queries),
        (21, 999, 12, 3862),
        "{m:?}"
    );
    assert_eq!(m.exact_distances, 2269, "{m:?}");
}
