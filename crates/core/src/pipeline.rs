//! The staged routing pipeline every route runs through.
//!
//! The paper's flow is one fixed sequence of five stages, each timed, each
//! followed by a fault checkpoint:
//!
//! 1. **group** — derive the instance the tree is routed against (keep
//!    the instance's own groups, or collapse to one global group with an
//!    optional bound);
//! 2. **merge** — build the merge forest and run the merge step: plan the
//!    bottom-up merge loop fresh (flat, or per-group-then-stitch), plan
//!    fresh while recording the replay script, or replay a recording on
//!    a forest that takes the recording's leaves (the two ECO steps);
//! 3. **embed** — top-down embedding of the surviving root into a
//!    [`RoutedTree`] (a replayed ECO flush copies the subtrees it shares
//!    with the standing tree);
//! 4. **repair** — the post-embedding skew repair pass, skipped when the
//!    engine reports no residual;
//! 5. **audit** — independent verification against the *original*
//!    instance and the routing model.
//!
//! The sequence is written once. A router is just a [`StagePlan`] — the
//! stage configuration — and [`run`] executes it; the ECO session
//! ([`crate::eco`]) runs the same body with its own merge step. Every
//! route runs once, on the instance's own coordinates; between repair and
//! audit the body validates the tree. [`RouteOutcome`] carries the tree
//! together with the audit report and per-stage [`StageStats`], so
//! harnesses (the bench tables, the fleet layer, `examples/fleet.rs`)
//! stop hand-timing routers from the outside.

use crate::stopwatch::Stopwatch;
use core::fmt;
use std::borrow::Cow;

use astdme_delay::DelayModel;
use astdme_engine::{
    audit, repair_group_skew, AuditReport, EmbedMap, EngineConfig, GroupId, Groups, Instance,
    MergeForest, NodeId, RoutedTree, Standing,
};
use astdme_topo::TopoConfig;

use crate::drivers::{merge_until_one_traced, MergeTrace};
use crate::{allocmeter, fault, RouteError};

/// Iteration budget for the post-embedding skew repair pass.
const REPAIR_ITERS: usize = 80;

/// The five pipeline stages, in execution order. Names the stage a
/// [`fault`] checkpoint fired at — the injection point of a
/// [`fault::Fault`] and the attribution of a
/// [`RouteError::DeadlineExceeded`] overrun.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageId {
    /// Stage 1: deriving the routed-against instance.
    Group,
    /// Stage 2: forest construction plus the bottom-up merge loop.
    Merge,
    /// Stage 3: top-down embedding.
    Embed,
    /// Stage 4: post-embedding skew repair.
    Repair,
    /// Stage 5: the independent audit.
    Audit,
}

impl StageId {
    /// The stage's lowercase name, as used in error messages and bench
    /// JSON: `"group"`, `"merge"`, `"embed"`, `"repair"`, `"audit"`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Group => "group",
            Self::Merge => "merge",
            Self::Embed => "embed",
            Self::Repair => "repair",
            Self::Audit => "audit",
        }
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock and work counters for one pipeline stage. Fields that do
/// not apply to a stage (e.g. `rounds` outside the merge stage) stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageStats {
    /// Wall-clock seconds spent in the stage.
    pub seconds: f64,
    /// Planning rounds executed (merge stage only).
    pub rounds: usize,
    /// Merges performed (merge stage only).
    pub merges: usize,
    /// Seconds of the merge stage spent choosing pairs: planner
    /// construction and per-round planning, or an ECO flush's replayed
    /// planning (merge stage only).
    pub plan_seconds: f64,
    /// Seconds of the merge stage spent in the merge engine: fresh merges,
    /// and an ECO flush's adopted merges (merge stage only).
    pub engine_seconds: f64,
    /// Seconds of the merge stage spent reporting merged rounds back to the
    /// incremental planner (merge stage only; an ECO replay has no such
    /// step). The three splits sum to at most `seconds`: forest
    /// construction and loop bookkeeping are in none of them.
    pub apply_seconds: f64,
    /// Grid neighbor-index builds by the incremental merge planner: one at
    /// construction, one per multi-merge (refresh) round, plus amortized
    /// rebuilds and takeover grids on the point-update path (merge stage
    /// only; zero in an ECO replay's planning). Deterministic for a fixed
    /// instance and plan.
    pub grid_builds: usize,
    /// Grid nearest-neighbor and range queries by the incremental merge
    /// planner (merge stage only; zero in an ECO replay's planning).
    /// Deterministic for a fixed instance and plan.
    pub nn_queries: usize,
    /// Exact pair-distance evaluations by the incremental merge planner:
    /// candidate-region minimum distances it could not reuse from a
    /// cached pair score (merge stage only; zero in an ECO replay's
    /// planning). Deterministic for a fixed instance and plan.
    pub exact_distances: usize,
    /// Iterations of the skew-repair loop (repair stage only; zero when
    /// the stage was a no-op).
    pub repair_iterations: usize,
    /// Heap allocations observed during the stage, via
    /// [`crate::allocmeter`]. Zero unless the hosting binary installs an
    /// instrumented allocator (the alloc-budget tests do).
    pub allocs: u64,
}

/// Per-stage statistics of one routing run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteStats {
    /// Stage 1: deriving the routed-against instance.
    pub group: StageStats,
    /// Stage 2: forest construction plus the bottom-up merge loop.
    pub merge: StageStats,
    /// Stage 3: top-down embedding.
    pub embed: StageStats,
    /// Stage 4: post-embedding skew repair (no-op on cleanly solved
    /// instances).
    pub repair: StageStats,
    /// Stage 5: the independent audit.
    pub audit: StageStats,
}

impl RouteStats {
    /// Wall-clock of the routing stages proper (group through repair) —
    /// what an external timer around [`crate::ClockRouter::route`] used to
    /// measure, excluding the audit stage.
    pub fn route_seconds(&self) -> f64 {
        self.group.seconds + self.merge.seconds + self.embed.seconds + self.repair.seconds
    }

    /// Wall-clock of the whole pipeline including the audit stage.
    pub fn total_seconds(&self) -> f64 {
        self.route_seconds() + self.audit.seconds
    }

    /// Heap allocations across all five stages (see
    /// [`StageStats::allocs`]).
    pub fn total_allocs(&self) -> u64 {
        self.group.allocs
            + self.merge.allocs
            + self.embed.allocs
            + self.repair.allocs
            + self.audit.allocs
    }
}

/// The result of a traced routing run: the tree, the independent audit of
/// it (against the original instance and the routing model), and the
/// per-stage statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// The routed tree — exactly what [`crate::ClockRouter::route`]
    /// returns.
    pub tree: RoutedTree,
    /// Independent audit of `tree` against the original instance.
    pub report: AuditReport,
    /// Per-stage wall-clock and work counters.
    pub stats: RouteStats,
}

/// Stage 1 configuration: which instance the tree is routed against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupingStage {
    /// Route against the instance's own groups (AST-DME).
    Keep,
    /// Collapse every sink into one global group: zero-skew when `bound`
    /// is `None` (greedy-DME, stitching), bounded-skew otherwise
    /// (EXT-BST).
    Single {
        /// The global skew bound, or `None` for zero skew.
        bound: Option<f64>,
    },
}

/// Stage 2 configuration: how the bottom-up merge loop covers the leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeStage {
    /// One loop over all leaves (every router except stitching).
    Flat,
    /// Finish each of the *original* instance's groups before any
    /// cross-group merge (the stitch-per-group strawman).
    PerGroupThenStitch,
}

/// A router expressed as stage configuration: everything [`run`] needs to
/// execute the five-stage pipeline. The four [`crate::ClockRouter`]
/// implementations are thin builders of this struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePlan {
    /// Delay model override; `None` means Elmore over the instance's RC.
    pub model: Option<DelayModel>,
    /// Engine configuration (candidate budgets, skew tolerance).
    pub engine: EngineConfig,
    /// Merge-order configuration.
    pub topo: TopoConfig,
    /// Stage 1: grouping.
    pub grouping: GroupingStage,
    /// Stage 2: merge coverage.
    pub merge: MergeStage,
}

/// Executes the staged pipeline over `inst`, planning the merge order
/// fresh. Stages 2–4 route the instance's own coordinates, regrouped by
/// stage 1; the audit runs against the original instance, after output
/// validation.
///
/// # Errors
///
/// Returns [`RouteError`] if a derived re-grouping is invalid (e.g. a
/// negative global skew bound), or if a fault checkpoint, deadline, or
/// output validation fails the route.
pub fn run(inst: &Instance, plan: &StagePlan) -> Result<RouteOutcome, RouteError> {
    let run = run_with(inst, plan, |routed, model| {
        let mut forest = MergeForest::for_instance_with_model(routed, model, plan.engine);
        let (root, trace) = merge_stage(&mut forest, inst, plan);
        Some(Merged::plain(forest, root, trace))
    })?;
    Ok(run.expect("fresh planning never declines").outcome)
}

/// One run of the pipeline body, with what an ECO session keeps besides
/// the outcome.
pub(crate) struct Run {
    /// The routed outcome.
    pub(crate) outcome: RouteOutcome,
    /// The merged forest.
    pub(crate) forest: MergeForest,
    /// Where the embed put each forest node, when the merge step asked
    /// for it and repair left the embedded tree as it was.
    pub(crate) embedding: Option<EmbedMap>,
    /// Routed nodes the embed copied from a standing tree.
    pub(crate) reused_nodes: usize,
}

/// What a merge step hands the rest of the pipeline.
pub(crate) struct Merged<'s> {
    /// The merged forest.
    pub(crate) forest: MergeForest,
    /// The surviving root.
    pub(crate) root: NodeId,
    /// The merge loop's counters.
    pub(crate) trace: MergeTrace,
    /// Whether the run keeps the embed's [`EmbedMap`] (the ECO session's
    /// routes, whose next flush copies from it).
    pub(crate) record: bool,
    /// A standing embedding the embed copies clean subtrees from (a
    /// replayed ECO flush).
    pub(crate) standing: Option<Standing<'s>>,
}

impl Merged<'_> {
    /// A merge step's result that records nothing and copies nothing.
    pub(crate) fn plain(forest: MergeForest, root: NodeId, trace: MergeTrace) -> Self {
        Self {
            forest,
            root,
            trace,
            record: false,
            standing: None,
        }
    }
}

/// Runs `body` as pipeline stage `id`: times it, charges its allocations
/// to `stats`, then polls the stage's fault checkpoint.
fn stage<T>(
    id: StageId,
    stats: &mut StageStats,
    body: impl FnOnce(&mut StageStats) -> Result<T, RouteError>,
) -> Result<T, RouteError> {
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let out = body(stats);
    stats.seconds = t0.seconds();
    stats.allocs = allocmeter::current().saturating_sub(a0);
    let out = out?;
    fault::checkpoint(id)?;
    Ok(out)
}

/// The one pipeline body. Every route runs through it: [`run`], and the
/// ECO session's recording routes and replayed flushes. Only the merge
/// step varies: `merge` receives the routed instance and the delay model,
/// builds the instance's forest (a fresh one, or, in a replayed flush,
/// one that takes the consumed recording's leaves) and returns it merged,
/// with the surviving root, the loop's counters and what the embed
/// records and copies from — or `None` to decline (only a replay does),
/// which ends the run with `Ok(None)`. Building the forest counts toward
/// the merge stage.
pub(crate) fn run_with<'s>(
    inst: &Instance,
    plan: &StagePlan,
    merge: impl FnOnce(&Instance, DelayModel) -> Option<Merged<'s>>,
) -> Result<Option<Run>, RouteError> {
    let mut stats = RouteStats::default();
    let model = plan.model.unwrap_or(DelayModel::elmore(*inst.rc()));

    // Stage 1: group.
    let routed = stage(StageId::Group, &mut stats.group, |_| {
        Ok(match derive_grouping(inst, plan)? {
            Some(regrouped) => Cow::Owned(regrouped),
            None => Cow::Borrowed(inst),
        })
    })?;

    // Stage 2: merge — the merge step, forest construction included.
    let merged = stage(StageId::Merge, &mut stats.merge, |st| {
        let Some(merged) = merge(&routed, model) else {
            return Ok(None);
        };
        let trace = &merged.trace;
        st.rounds = trace.rounds;
        st.merges = trace.merges;
        st.plan_seconds = trace.plan_seconds;
        st.engine_seconds = trace.engine_seconds;
        st.apply_seconds = trace.apply_seconds;
        st.grid_builds = trace.grid_builds;
        st.nn_queries = trace.nn_queries;
        st.exact_distances = trace.exact_distances;
        Ok(Some(merged))
    })?;
    let Some(merged) = merged else {
        return Ok(None);
    };
    let forest = merged.forest;

    // Stage 3: embed, copying what a standing embedding lets it copy.
    let embedded = stage(StageId::Embed, &mut stats.embed, |_| {
        Ok(forest.embed_with(
            merged.root,
            routed.source(),
            merged.standing.as_ref(),
            merged.record,
        ))
    })?;
    let (tree, mut embedding) = (embedded.tree, embedded.map);

    // Stage 4: repair. The pass snakes leaf edges when a deep offset
    // conflict left residual skew (see [`repair_group_skew`]); on cleanly
    // solved instances it is skipped outright.
    let tree = stage(StageId::Repair, &mut stats.repair, |st| {
        if forest.residual() <= plan.engine.skew_tol {
            return Ok(tree);
        }
        // The repaired wires are not the embed's: nothing may copy them.
        embedding = None;
        let repaired =
            repair_group_skew(&tree, &routed, &model, plan.engine.skew_tol, REPAIR_ITERS);
        st.repair_iterations = repaired.iterations;
        Ok(repaired.tree)
    })?;

    let corrupt = [StageId::Embed, StageId::Repair]
        .into_iter()
        .any(fault::corrupt_requested);
    let tree = if corrupt { corrupt_tree(tree) } else { tree };

    // Output validation: the audit panics on a structurally broken tree
    // (uncovered sinks), and downstream metrics would silently absorb a
    // NaN wire. Reject malformed output as a typed per-instance error
    // before auditing.
    validate_tree(&tree, inst)?;

    // Stage 5: audit — always against the *original* instance, so the
    // report's per-group skews refer to the groups the caller asked
    // about, not a relaxed routing surrogate.
    let report = stage(StageId::Audit, &mut stats.audit, |_| {
        Ok(audit(&tree, inst, &model))
    })?;

    Ok(Some(Run {
        outcome: RouteOutcome {
            tree,
            report,
            stats,
        },
        forest,
        embedding,
        reused_nodes: embedded.reused_nodes,
    }))
}

/// Derives the stage-1 regrouping of `inst` under the plan, or `None`
/// when the instance's own groups are kept.
///
/// # Errors
///
/// Returns [`RouteError::BadParameter`] for a negative or NaN global skew
/// bound — the one place the bound is checked, whichever entry point
/// (router, [`run`], ECO session) the plan arrives through.
fn derive_grouping(inst: &Instance, plan: &StagePlan) -> Result<Option<Instance>, RouteError> {
    match plan.grouping {
        GroupingStage::Keep => Ok(None),
        GroupingStage::Single { bound } => {
            let mut groups = Groups::single(inst.sink_count())?;
            if let Some(b) = bound {
                if b.is_nan() || b < 0.0 {
                    return Err(RouteError::BadParameter(format!(
                        "global skew bound must be non-negative, got {b}"
                    )));
                }
                groups = groups.with_uniform_bound(b)?;
            }
            Ok(Some(inst.with_groups(groups)?))
        }
    }
}

/// The fresh-planning merge step: the bottom-up merge loop over the
/// forest's leaves. `group_source` supplies the *original* group
/// structure the [`MergeStage::PerGroupThenStitch`] script iterates (the
/// regrouped surrogate has collapsed it).
fn merge_stage(
    forest: &mut MergeForest,
    group_source: &Instance,
    plan: &StagePlan,
) -> (NodeId, MergeTrace) {
    let leaves = forest.leaves();
    match plan.merge {
        MergeStage::Flat => merge_until_one_traced(forest, leaves, &plan.topo, None),
        MergeStage::PerGroupThenStitch => {
            let groups = group_source.groups();
            let mut trace = MergeTrace::default();
            let mut group_roots = Vec::with_capacity(groups.group_count());
            for g in 0..groups.group_count() {
                let members: Vec<_> = groups
                    .members(GroupId(g as u32))
                    .iter()
                    .map(|&s| leaves[s])
                    .collect();
                let (root, t) = merge_until_one_traced(forest, members, &plan.topo, None);
                trace.absorb(t);
                group_roots.push(root);
            }
            let (root, t) = merge_until_one_traced(forest, group_roots, &plan.topo, None);
            trace.absorb(t);
            (root, trace)
        }
    }
}

/// The corruption a [`fault::FaultKind::Corrupt`] fault injects: the root
/// wire becomes NaN, which output validation rejects.
fn corrupt_tree(tree: RoutedTree) -> RoutedTree {
    let mut nodes = tree.nodes().to_vec();
    if let Some(node) = nodes.first_mut() {
        node.wire = f64::NAN;
    }
    RoutedTree::new(tree.source(), nodes)
}

/// Structural validation of a routed tree against the instance it claims
/// to route: finite non-negative wire lengths, finite positions, and every
/// sink covered exactly once.
///
/// # Errors
///
/// Returns [`RouteError::MalformedOutput`] (attributed to the current
/// fleet batch index, when routing under one) describing the first
/// violation found.
fn validate_tree(tree: &RoutedTree, inst: &Instance) -> Result<(), RouteError> {
    let malformed = |detail: String| RouteError::MalformedOutput {
        instance: fault::current_instance(),
        detail,
    };
    let mut covered = vec![false; inst.sink_count()];
    for (i, node) in tree.nodes().iter().enumerate() {
        if !node.wire.is_finite() || node.wire < 0.0 {
            return Err(malformed(format!(
                "node {i} has a non-finite or negative wire length ({})",
                node.wire
            )));
        }
        if !node.pos.x.is_finite() || !node.pos.y.is_finite() {
            return Err(malformed(format!("node {i} has a non-finite position")));
        }
        if let Some(sink) = node.sink {
            if sink >= covered.len() {
                return Err(malformed(format!(
                    "node {i} claims out-of-range sink {sink}"
                )));
            }
            if covered[sink] {
                return Err(malformed(format!("sink {sink} is covered twice")));
            }
            covered[sink] = true;
        }
    }
    if let Some(missing) = covered.iter().position(|&c| !c) {
        return Err(malformed(format!("sink {missing} is not covered")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use astdme_delay::RcParams;
    use astdme_engine::Sink;
    use astdme_geom::Point;

    fn inst(n: usize, k: usize) -> Instance {
        let sinks: Vec<Sink> = (0..n)
            .map(|i| Sink::new(Point::new(700.0 * i as f64, (i % 3) as f64 * 250.0), 1e-14))
            .collect();
        let assignment: Vec<usize> = (0..n).map(|i| i % k).collect();
        Instance::new(
            sinks,
            Groups::from_assignments(assignment, k).unwrap(),
            RcParams::default(),
            Point::new(0.0, 4000.0),
        )
        .unwrap()
    }

    fn ast_plan() -> StagePlan {
        StagePlan {
            model: None,
            engine: EngineConfig::default(),
            topo: TopoConfig::default(),
            grouping: GroupingStage::Keep,
            merge: MergeStage::Flat,
        }
    }

    #[test]
    fn pipeline_counts_rounds_and_merges() {
        let out = run(&inst(9, 3), &ast_plan()).unwrap();
        assert_eq!(out.tree.sink_nodes().count(), 9);
        // n leaves merge down to one root: exactly n - 1 merges.
        assert_eq!(out.stats.merge.merges, 8);
        assert!(out.stats.merge.rounds >= 1);
        assert!(out.stats.merge.rounds <= out.stats.merge.merges);
        assert!(out.stats.route_seconds() <= out.stats.total_seconds());
    }

    #[test]
    fn audit_stage_reports_against_original_groups() {
        // A zero-bound grouped instance routed as one global zero-skew
        // group: intra-group skew (of the original groups) must be ~0.
        let out = run(
            &inst(8, 2),
            &StagePlan {
                grouping: GroupingStage::Single { bound: None },
                ..ast_plan()
            },
        )
        .unwrap();
        assert!(out.report.max_intra_group_skew() < 1e-16);
        assert!(out.report.global_skew() < 1e-16);
    }

    #[test]
    fn per_group_script_counts_all_subloops() {
        let out = run(
            &inst(10, 2),
            &StagePlan {
                grouping: GroupingStage::Single { bound: None },
                merge: MergeStage::PerGroupThenStitch,
                ..ast_plan()
            },
        )
        .unwrap();
        // Two groups of five (4 merges each) plus the stitch (1 merge).
        assert_eq!(out.stats.merge.merges, 9);
        assert_eq!(out.tree.sink_nodes().count(), 10);
    }
}
