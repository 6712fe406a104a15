//! The traced pipeline replica: the five-stage route of a flat
//! [`StagePlan`] re-driven from the benchmark's own code through the
//! layers' public entry points, with a timer around every call.
//!
//! `route_traced` runs group → merge (forest build, then
//! `MergePlanner::{new, plan_round}` → `MergeForest::merge` × pairs →
//! `MergePlanner::apply_round` per round) → embed → repair → audit. The
//! replica makes the same calls in the same order, so its tree must equal
//! the library's bit for bit; callers check that before trusting the
//! per-layer split (see [`require_same`]).

use std::time::Instant;

use astdme_core::{
    audit, repair_group_skew, AuditReport, DelayModel, ForestSpace, GroupingStage, Groups,
    Instance, MergeForest, MergePlanner, MergeStage, NodeId, RouteOutcome, RoutedTree, StagePlan,
};

use crate::harness::{percentile, since, Metrics};
use crate::trace::Spans;

/// Iteration budget of the pipeline's skew-repair pass.
const REPAIR_ITERS: usize = 80;

/// Time and work per layer, summed over every replica route recorded into
/// it.
#[derive(Debug, Default)]
pub struct Layers {
    /// `MergeForest::for_instance_with_model`.
    pub forest_build_s: f64,
    /// `MergePlanner::new`.
    pub planner_new_s: f64,
    /// `MergePlanner::plan_round`.
    pub plan_round_s: f64,
    /// `MergeForest::merge`, summed.
    pub merge_s: f64,
    /// Each `MergeForest::merge` call, in seconds.
    pub merge_calls: Vec<f64>,
    /// `MergePlanner::apply_round`.
    pub apply_round_s: f64,
    /// `MergeForest::embed`.
    pub embed_s: f64,
    /// `repair_group_skew` (zero when the residual is within tolerance).
    pub repair_s: f64,
    /// Iterations the repair pass used.
    pub repair_iters: usize,
    /// `audit`.
    pub audit_s: f64,
    /// Planning rounds.
    pub rounds: usize,
    /// Candidates kept per merged node, summed.
    pub candidates: usize,
    /// Merges whose children each span exactly the same single group.
    pub same_group: usize,
    /// Merges whose children share no group (SDR merges).
    pub cross_group: usize,
    /// Merges whose children share some but not all groups.
    pub shared_group: usize,
    /// Largest engine residual skew seen, in seconds.
    pub residual_max: f64,
    /// Routes recorded.
    pub routes: usize,
}

impl Layers {
    /// Merges recorded.
    pub fn merges(&self) -> usize {
        self.merge_calls.len()
    }

    /// The engine and planner metrics per operation, for `ops` operations'
    /// worth of recorded routes (a portfolio pass counts as one operation).
    pub fn report(&self, ops: f64, into: &mut Metrics) {
        let per_op = |x: f64| x / ops;
        let merges = self.merges() as f64;
        into.insert("engine.merge_s", per_op(self.merge_s));
        into.insert(
            "engine.merge_us_p50",
            percentile(&self.merge_calls, 0.5) * 1e6,
        );
        into.insert(
            "engine.merge_us_p99",
            percentile(&self.merge_calls, 0.99) * 1e6,
        );
        into.insert(
            "engine.candidates_per_node",
            self.candidates as f64 / merges.max(1.0),
        );
        into.insert("engine.merges_same_group", per_op(self.same_group as f64));
        into.insert("engine.merges_cross_group", per_op(self.cross_group as f64));
        into.insert(
            "engine.merges_shared_group",
            per_op(self.shared_group as f64),
        );
        into.insert("engine.embed_s", per_op(self.embed_s));
        into.insert("engine.repair_s", per_op(self.repair_s));
        into.insert("engine.repair_iters", per_op(self.repair_iters as f64));
        into.insert("engine.audit_s", per_op(self.audit_s));
        into.insert("engine.residual_ps", self.residual_max * 1e12);
        into.insert("topo.planner_new_s", per_op(self.planner_new_s));
        into.insert("topo.plan_round_s", per_op(self.plan_round_s));
        into.insert("topo.apply_round_s", per_op(self.apply_round_s));
        into.insert("topo.rounds", per_op(self.rounds as f64));
        into.insert(
            "topo.merges_per_round",
            merges / (self.rounds as f64).max(1.0),
        );
        into.insert("pipeline.forest_build_s", per_op(self.forest_build_s));
    }
}

/// The tree and audit a replica route produced.
pub struct Replica {
    /// The routed tree.
    pub tree: RoutedTree,
    /// Its audit against the original instance.
    pub report: AuditReport,
}

/// Exits with status 3 unless the replica reproduced the library's route
/// of instance `index` exactly: the same wirelength bits, node count, tree
/// and audit. A per-layer split of any other route would describe some
/// other program.
pub fn require_same(replica: &Replica, library: &RouteOutcome, index: usize) {
    let same = replica.tree.total_wirelength().to_bits()
        == library.tree.total_wirelength().to_bits()
        && replica.tree.nodes().len() == library.tree.nodes().len()
        && replica.tree == library.tree
        && replica.report == library.report;
    if !same {
        eprintln!("perfbench: the traced replica diverged from route_traced on instance {index}");
        std::process::exit(3);
    }
}

/// Routes `inst` under `plan` through the layers' public calls, adding
/// their times and counts to `layers` and one span per call (merges as one
/// span per round) to `spans` under operation `op`.
///
/// # Panics
///
/// Panics on a non-flat plan (no workload uses one) or an invalid
/// regrouping.
pub fn route(
    inst: &Instance,
    plan: &StagePlan,
    layers: &mut Layers,
    spans: &mut Spans,
    op: usize,
) -> Replica {
    assert_eq!(
        plan.merge,
        MergeStage::Flat,
        "the replica drives flat plans"
    );
    let regrouped = match plan.grouping {
        GroupingStage::Keep => None,
        GroupingStage::Single { bound } => {
            let mut groups = Groups::single(inst.sink_count()).expect("non-empty instance");
            if let Some(b) = bound {
                groups = groups.with_uniform_bound(b).expect("valid bound");
            }
            Some(inst.with_groups(groups).expect("valid regrouping"))
        }
    };
    let routed = regrouped.as_ref().unwrap_or(inst);
    let model = plan.model.unwrap_or(DelayModel::elmore(*inst.rc()));

    let t = Instant::now();
    let mut forest = MergeForest::for_instance_with_model(routed, model, plan.engine);
    layers.forest_build_s += spans.close("forest_build", op, t);

    let keys: Vec<usize> = forest.leaves().iter().map(|n| n.index()).collect();
    let t = Instant::now();
    let mut planner = MergePlanner::new(&ForestSpace::new(&forest), &keys, plan.topo);
    layers.planner_new_s += spans.close("planner_new", op, t);

    let mut round: Vec<(usize, usize, usize)> = Vec::new();
    while planner.len() > 1 {
        let t = Instant::now();
        let pairs = planner.plan_round(&ForestSpace::new(&forest));
        layers.plan_round_s += spans.close("plan_round", op, t);
        assert!(!pairs.is_empty(), "planner must make progress");
        round.clear();
        let t_round = Instant::now();
        for (a, b) in pairs {
            let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
            classify(&forest, a, b, layers);
            let t = Instant::now();
            let m = forest.merge(a, b);
            let dt = since(t);
            layers.merge_s += dt;
            layers.merge_calls.push(dt);
            layers.candidates += forest.candidates(m).len();
            round.push((a.index(), b.index(), m.index()));
        }
        spans.close("merge", op, t_round);
        let t = Instant::now();
        planner.apply_round(&ForestSpace::new(&forest), &round);
        layers.apply_round_s += spans.close("apply_round", op, t);
        layers.rounds += 1;
    }
    let root = NodeId::from_index(planner.sole_key());

    let t = Instant::now();
    let tree = forest.embed(root, routed.source());
    layers.embed_s += spans.close("embed", op, t);

    let residual = forest.residual();
    layers.residual_max = layers.residual_max.max(residual);
    let tree = if residual <= plan.engine.skew_tol {
        tree
    } else {
        let t = Instant::now();
        let repaired = repair_group_skew(&tree, routed, &model, plan.engine.skew_tol, REPAIR_ITERS);
        layers.repair_s += spans.close("repair", op, t);
        layers.repair_iters += repaired.iterations;
        repaired.tree
    };

    let t = Instant::now();
    let report = audit(&tree, inst, &model);
    layers.audit_s += spans.close("audit", op, t);
    layers.routes += 1;
    Replica { tree, report }
}

/// Sorts one planned pair into the Fig. 6 case split by the groups its
/// children's delay maps share.
fn classify(forest: &MergeForest, a: NodeId, b: NodeId, layers: &mut Layers) {
    let da = &forest.candidates(a)[0].delays;
    let db = &forest.candidates(b)[0].delays;
    let shared = da.shared_groups(db).len();
    if shared == 0 {
        layers.cross_group += 1;
    } else if shared == da.group_count() && shared == db.group_count() && shared == 1 {
        layers.same_group += 1;
    } else {
        layers.shared_group += 1;
    }
}
