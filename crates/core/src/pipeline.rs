//! The staged routing pipeline every route runs through.
//!
//! The paper's flow is one fixed sequence of five stages, each timed, each
//! followed by a fault checkpoint:
//!
//! 1. **group** — frame the instance (translation-normalized when a
//!    subtree cache is attached) and derive the instance the tree is
//!    routed against (keep the instance's own groups, or collapse to one
//!    global group with an optional bound);
//! 2. **merge** — build the merge forest and run the merge step: plan the
//!    bottom-up merge loop fresh (flat, or per-group-then-stitch), plan
//!    fresh while recording the replay script, or replay a recording
//!    (the two ECO steps); with a cache attached, a verified hit stands
//!    in for stages 2–4;
//! 3. **embed** — top-down embedding of the surviving root into a
//!    [`RoutedTree`];
//! 4. **repair** — the post-embedding skew repair pass, skipped when the
//!    engine reports no residual;
//! 5. **audit** — independent verification against the *original*
//!    instance and the routing model.
//!
//! The sequence is written once. A router is just a [`StagePlan`] — the
//! stage configuration — and [`run`] executes it; the ECO session
//! ([`crate::eco`]) runs the same body with its own merge step. Between
//! repair and audit the body splices cached geometry back into the
//! caller's frame, validates the tree, and inserts it into the cache, in
//! that order. The cache is an explicit argument: `None` routes in the
//! raw frame. [`RouteOutcome`] carries the tree together with the audit
//! report and per-stage [`StageStats`], so harnesses (the bench tables,
//! the fleet layer, `examples/fleet.rs`) stop hand-timing routers from
//! the outside.

use crate::stopwatch::Stopwatch;
use core::fmt;
use std::borrow::Cow;
use std::sync::Arc;

use astdme_cache::{region_fingerprint, CachedRegion, Fingerprint, SubtreeCache};
use astdme_delay::DelayModel;
use astdme_engine::{
    audit, repair_group_skew, AuditReport, EngineConfig, GroupId, Groups, Instance, MergeForest,
    NodeId, RoutedTree,
};
use astdme_geom::Point;
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
    /// planning (merge stage only; zero on a cache hit).
    pub plan_seconds: f64,
    /// Seconds of the merge stage spent in the merge engine: fresh merges,
    /// and an ECO flush's adopted merges (merge stage only; zero on a
    /// cache hit).
    pub engine_seconds: f64,
    /// Seconds of the merge stage spent reporting merged rounds back to the
    /// incremental planner (merge stage only; an ECO replay has no such
    /// step). The three splits sum to at most `seconds`: forest
    /// construction and loop bookkeeping are in none of them.
    pub apply_seconds: f64,
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
    /// Whether the merge/embed/repair work was satisfied from the
    /// content-addressed subtree cache instead of recomputed. Always
    /// `false` when no cache is attached. The outcome is bit-identical
    /// either way — this flag (and the stage seconds) are the only
    /// difference.
    pub cache_hit: bool,
    /// Subtree-cache lookups this run satisfied from the cache (0 or 1 for
    /// a single pipeline run; aggregate across a batch to derive a hit
    /// rate from route stats alone). Zero when no cache is attached.
    pub cache_hits: u64,
    /// Subtree-cache lookups this run missed (or failed verification).
    /// Zero when no cache is attached.
    pub cache_misses: u64,
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

impl StagePlan {
    /// Stable `u64` encoding of every routing-relevant knob of the plan,
    /// for content-addressed cache fingerprints: the delay-model override
    /// (tagged; `None` = Elmore over the instance's own RC, which the
    /// instance fingerprint already covers), the engine words (excluding
    /// the diagnostics-only `debug` flag), the merge-order words, and the
    /// grouping/merge-stage discriminants with the grouping bound bits.
    /// Two plans route any instance identically iff their words agree.
    pub fn fingerprint_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(16);
        match self.model {
            None => words.push(0),
            Some(model) => {
                words.push(1);
                words.extend(model.fingerprint_words());
            }
        }
        words.extend(self.engine.fingerprint_words());
        words.extend(self.topo.fingerprint_words());
        match self.grouping {
            GroupingStage::Keep => words.push(0),
            GroupingStage::Single { bound: None } => words.push(1),
            GroupingStage::Single { bound: Some(b) } => {
                words.push(2);
                words.push(b.to_bits());
            }
        }
        words.push(match self.merge {
            MergeStage::Flat => 0,
            MergeStage::PerGroupThenStitch => 1,
        });
        words
    }
}

/// Executes the staged pipeline over `inst`, planning the merge order
/// fresh.
///
/// With `cache: None` the stages route the instance as given (the raw
/// frame). With a [`SubtreeCache`], the instance is
/// **translation-normalized** first (the bounding-box minimum corner
/// becomes the origin) and the cache is consulted between the group and
/// merge stages. Hit and miss alike leave through the *same*
/// [`CachedRegion::splice`] call — translate the normalized nodes back by
/// the anchor, root at the caller's source — so **a hit is bit-identical
/// to a recompute**: tree, audit report, and wirelength, at every thread
/// count and under every eviction order. The audit always runs fresh
/// against the original instance; only planned geometry is ever cached,
/// never verdicts about it, and validation precedes the insert, so a
/// corrupted tree is never memoized.
///
/// The two frames agree bit for bit when the instance's bounding-box
/// minimum corner is already the origin (`a - a = +0.0`). Elsewhere the
/// normalized frame can shift last-ulp merge coordinates (floating-point
/// addition is not translation invariant); each frame is internally
/// exact, and both are independently audited. An instance whose
/// normalization overflows routes in the raw frame and skips the cache.
///
/// # Errors
///
/// Returns [`RouteError`] if a derived re-grouping is invalid (e.g. a
/// negative global skew bound), or if a fault checkpoint, deadline, or
/// output validation fails the route.
pub fn run(
    inst: &Instance,
    plan: &StagePlan,
    cache: Option<&SubtreeCache>,
) -> Result<RouteOutcome, RouteError> {
    let run = run_with(inst, plan, cache, true, |forest, _, _| {
        Some(merge_stage(forest, inst, plan))
    })?;
    Ok(run.expect("fresh planning never declines").outcome)
}

/// One run of the pipeline body, with what an ECO session keeps besides
/// the outcome.
pub(crate) struct Run<'a> {
    /// The routed outcome.
    pub(crate) outcome: RouteOutcome,
    /// The instance stages 2–4 routed: the frame, regrouped by stage 1.
    pub(crate) routed: Cow<'a, Instance>,
    /// The normalization anchor, or `None` in the raw frame.
    pub(crate) anchor: Option<Point>,
    /// The merged forest; `None` when a cache hit stood in for stages
    /// 2–4.
    pub(crate) forest: Option<MergeForest>,
}

/// Where a cached run's region lives: its cache, the anchor it splices
/// back to, and its fingerprints.
struct Slot<'c> {
    cache: &'c SubtreeCache,
    anchor: Point,
    key: Fingerprint,
    verify: Fingerprint,
}

/// The product of stages 2–4: a cache hit, or the fresh forest together
/// with its work in progress (the root after merging, the tree after
/// embedding and repair).
#[allow(clippy::large_enum_variant)] // one per route, on the stack; boxing costs an allocation
enum Planned<T> {
    Hit(Arc<CachedRegion>),
    Fresh(MergeForest, T),
}

impl<T> Planned<T> {
    /// Advances a fresh run by one stage; a hit has nothing left to do.
    fn map<U>(self, f: impl FnOnce(&MergeForest, T) -> U) -> Planned<U> {
        match self {
            Self::Hit(region) => Planned::Hit(region),
            Self::Fresh(forest, x) => {
                let y = f(&forest, x);
                Planned::Fresh(forest, y)
            }
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
/// ECO session's recording routes, replayed flushes, and cache-hit
/// flushes. Only the merge step varies: `merge` receives the fresh forest
/// of the routed instance, that instance, and the normalization anchor
/// (`None` in the raw frame), and returns the surviving root and the
/// loop's counters — or `None` to decline (only a replay does), which
/// ends the run with `Ok(None)`.
///
/// `lookup` consults the cache before merging. An ECO session turns it
/// off to route fresh (it must record), and still inserts the result.
pub(crate) fn run_with<'a>(
    inst: &'a Instance,
    plan: &StagePlan,
    cache: Option<&SubtreeCache>,
    lookup: bool,
    merge: impl FnOnce(&mut MergeForest, &Instance, Option<Point>) -> Option<(NodeId, MergeTrace)>,
) -> Result<Option<Run<'a>>, RouteError> {
    let mut stats = RouteStats::default();
    let model = plan.model.unwrap_or(DelayModel::elmore(*inst.rc()));

    // Stage 1: frame and group. The anchor is the bounding-box minimum
    // corner; subtracting a coordinate from itself is exactly +0.0, so an
    // instance already anchored at the origin normalizes to itself bit for
    // bit.
    let (slot, routed) = stage(StageId::Group, &mut stats.group, |_| {
        let framed = cache.and_then(|cache| {
            let bb = inst.bounding_box();
            let anchor = Point::new(bb.x0(), bb.y0());
            let norm = inst.translated(-anchor.x, -anchor.y).ok()?;
            let (key, verify) = region_fingerprint(&norm, &plan.fingerprint_words());
            Some((
                Slot {
                    cache,
                    anchor,
                    key,
                    verify,
                },
                norm,
            ))
        });
        let (slot, frame) = match framed {
            Some((slot, norm)) => (Some(slot), Cow::Owned(norm)),
            None => (None, Cow::Borrowed(inst)),
        };
        let routed = match derive_grouping(&frame, plan)? {
            Some(regrouped) => Cow::Owned(regrouped),
            None => frame,
        };
        Ok((slot, routed))
    })?;
    let anchor = slot.as_ref().map(|s| s.anchor);

    // Stage 2: merge — satisfied by a verified cache hit, or the merge
    // step over a fresh forest.
    let merged = stage(StageId::Merge, &mut stats.merge, |st| {
        if let Some(s) = slot.as_ref().filter(|_| lookup) {
            match s.cache.lookup(s.key, s.verify, inst.sink_count()) {
                Some(region) => {
                    stats.cache_hit = true;
                    stats.cache_hits = 1;
                    st.rounds = region.rounds;
                    st.merges = region.merges;
                    return Ok(Some(Planned::Hit(region)));
                }
                None => stats.cache_misses = 1,
            }
        }
        let mut forest = MergeForest::for_instance_with_model(&routed, model, plan.engine);
        let Some((root, trace)) = merge(&mut forest, &routed, anchor) else {
            return Ok(None);
        };
        st.rounds = trace.rounds;
        st.merges = trace.merges;
        st.plan_seconds = trace.plan_seconds;
        st.engine_seconds = trace.engine_seconds;
        st.apply_seconds = trace.apply_seconds;
        Ok(Some(Planned::Fresh(forest, root)))
    })?;
    let Some(merged) = merged else {
        return Ok(None);
    };

    // Stage 3: embed (a hit has nothing left to embed — the cached nodes
    // *are* the embedded subtree).
    let embedded = stage(StageId::Embed, &mut stats.embed, |_| {
        Ok(merged.map(|forest, root| forest.embed(root, routed.source())))
    })?;

    // Stage 4: repair. The pass snakes leaf edges when a deep offset
    // conflict left residual skew (see [`repair_group_skew`]); on cleanly
    // solved instances it is skipped outright.
    let planned = stage(StageId::Repair, &mut stats.repair, |st| {
        let planned = embedded.map(|forest, tree| {
            if forest.residual() <= plan.engine.skew_tol {
                return tree;
            }
            let repaired =
                repair_group_skew(&tree, &routed, &model, plan.engine.skew_tol, REPAIR_ITERS);
            st.repair_iterations = repaired.iterations;
            repaired.tree
        });
        if let Planned::Hit(region) = &planned {
            st.repair_iterations = region.repair_iterations;
        }
        Ok(planned)
    })?;

    // Assembly. The raw frame keeps its tree; the normalized frame
    // captures a fresh tree as a region and leaves through ONE splice call
    // shared with hits — identical arithmetic is what makes hit ≡
    // recompute bit-exact. The source comes from the original instance
    // verbatim (never round-tripped through the translation).
    let (tree, forest, fresh) = match (planned, &slot) {
        (Planned::Fresh(forest, tree), None) => (tree, Some(forest), None),
        (Planned::Fresh(forest, tree), Some(s)) => {
            let region = CachedRegion {
                verify: s.verify,
                sink_count: inst.sink_count(),
                nodes: tree.nodes().to_vec(),
                rounds: stats.merge.rounds,
                merges: stats.merge.merges,
                repair_iterations: stats.repair.repair_iterations,
            };
            (
                region.splice(s.anchor, inst.source()),
                Some(forest),
                Some(region),
            )
        }
        (Planned::Hit(region), _) => {
            let anchor = anchor.expect("only a cached run can hit");
            (region.splice(anchor, inst.source()), None, None)
        }
    };
    let corrupt = [StageId::Embed, StageId::Repair]
        .into_iter()
        .any(fault::corrupt_requested);
    let tree = if corrupt { corrupt_tree(tree) } else { tree };

    // Output validation: the audit panics on a structurally broken tree
    // (uncovered sinks), and downstream metrics would silently absorb a
    // NaN wire. Reject malformed output as a typed per-instance error
    // before auditing — and before the cache insert, so corrupted output
    // is never memoized.
    validate_tree(&tree, inst)?;
    if let (Some(s), Some(region)) = (&slot, fresh) {
        s.cache.insert(s.key, region);
    }

    // Stage 5: audit — always fresh, always against the *original*
    // instance, so the report's per-group skews refer to the groups the
    // caller asked about, not a relaxed routing surrogate. Cache hits
    // reuse geometry, never verdicts.
    let report = stage(StageId::Audit, &mut stats.audit, |_| {
        Ok(audit(&tree, inst, &model))
    })?;

    Ok(Some(Run {
        outcome: RouteOutcome {
            tree,
            report,
            stats,
        },
        routed,
        anchor,
        forest,
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
        let out = run(&inst(9, 3), &ast_plan(), None).unwrap();
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
            None,
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
            None,
        )
        .unwrap();
        // Two groups of five (4 merges each) plus the stitch (1 merge).
        assert_eq!(out.stats.merge.merges, 9);
        assert_eq!(out.tree.sink_nodes().count(), 10);
    }

    #[test]
    fn overflowing_normalization_routes_raw_and_skips_the_cache() {
        // The source sits so far from the sinks' bounding-box corner that
        // translating it by that corner overflows. The source wire is then
        // infinite too: a debug build panics at embedding, a release build
        // rejects the tree at validation. Either way the cached call must
        // do exactly what the uncached one does, and touch no cache.
        let sinks = vec![
            Sink::new(Point::new(1e308, 0.0), 1e-14),
            Sink::new(Point::new(1e308, 500.0), 1e-14),
        ];
        let far = Instance::new(
            sinks,
            Groups::single(2).unwrap(),
            RcParams::default(),
            Point::new(-8e307, 0.0),
        )
        .unwrap();
        assert!(far.translated(-1e308, 0.0).is_err());
        let cache = SubtreeCache::new(4);
        let route = |cache| std::panic::catch_unwind(|| run(&far, &ast_plan(), cache)).ok();
        assert_eq!(route(Some(&cache)), route(None));
        assert_eq!(cache.stats(), Default::default(), "no lookup, no insert");
    }
}
