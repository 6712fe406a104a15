//! The bottom-up driving loop shared by all routers.

use astdme_delay::DelayModel;
use astdme_engine::{EngineConfig, Instance, MergeForest, MergeRecording, NodeId};
use astdme_geom::Trr;
use astdme_topo::{plan_round, MergePlanner, MergeSpace, NnSnapshotRow, TopoConfig};

use crate::stopwatch::Stopwatch;

/// Adapter exposing a [`MergeForest`] to the merge planner.
///
/// Keys are forest node indices. The adapter also lets callers restrict the
/// planner to a subset of subtrees (used by [`crate::StitchPerGroup`] to
/// finish each group before crossing groups).
pub struct ForestSpace<'a> {
    forest: &'a MergeForest,
}

impl<'a> ForestSpace<'a> {
    /// Wraps a forest.
    pub fn new(forest: &'a MergeForest) -> Self {
        Self { forest }
    }
}

impl MergeSpace for ForestSpace<'_> {
    fn region(&self, id: usize) -> Trr {
        self.forest.representative_region(NodeId::from_index(id))
    }

    fn distance(&self, a: usize, b: usize) -> f64 {
        // Geometric distance, deliberately: ranking node pairs by full
        // merge-cost estimates defers delay-imbalanced pairs, which strands
        // slow subtrees until only expensive partners remain. Offset
        // compatibility is handled *inside* a merge by candidate-pair
        // ranking (see MergeForest::merge).
        self.forest
            .merge_distance(NodeId::from_index(a), NodeId::from_index(b))
    }

    fn delay(&self, id: usize) -> f64 {
        self.forest.max_delay(NodeId::from_index(id))
    }
}

/// Round and merge counters and the layer split of one merge loop, the
/// raw material of the pipeline's merge-stage
/// [`StageStats`](crate::StageStats).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MergeTrace {
    /// Planning rounds executed.
    pub(crate) rounds: usize,
    /// Merges performed (over `n` subtrees, always `n - 1`).
    pub(crate) merges: usize,
    /// Seconds choosing pairs: planner construction and every round's
    /// planning (an ECO replay's inherited-snapshot planning included).
    pub(crate) plan_seconds: f64,
    /// Seconds in the engine: fresh merges, and an ECO replay's adoptions.
    pub(crate) engine_seconds: f64,
    /// Seconds reporting merged rounds back to the planner.
    pub(crate) apply_seconds: f64,
}

impl MergeTrace {
    /// Accumulates another loop's counters (per-group merge scripts run
    /// several loops over one forest).
    pub(crate) fn absorb(&mut self, other: MergeTrace) {
        self.rounds += other.rounds;
        self.merges += other.merges;
        self.plan_seconds += other.plan_seconds;
        self.engine_seconds += other.engine_seconds;
        self.apply_seconds += other.apply_seconds;
    }
}

/// The replay script a recorded merge loop leaves behind, for the ECO
/// flush to replay against an edited instance.
pub(crate) struct MergeScript {
    /// Per merge, the engine's [`MergeLog`](astdme_engine::MergeLog).
    pub(crate) merges: MergeRecording,
    /// Per planning round, the planner's nearest-neighbor table right
    /// after the round was planned (rows in active order), or `None` for
    /// brute-force tail rounds, which replay by re-planning (cheap: at
    /// most [`BRUTE_FORCE_CUTOFF`](astdme_topo::BRUTE_FORCE_CUTOFF)
    /// subtrees).
    pub(crate) rounds: Vec<Option<Vec<NnSnapshotRow>>>,
}

impl MergeScript {
    /// An empty script for `forest`; create it before the first merge.
    pub(crate) fn for_forest(forest: &MergeForest) -> Self {
        Self {
            merges: MergeRecording::for_forest(forest),
            rounds: Vec::new(),
        }
    }
}

/// Runs the bottom-up merge loop over `start` until a single subtree
/// remains, merging pairs chosen by the incremental
/// [`MergePlanner`] each round.
///
/// Each round's merges are reported back in one batch
/// ([`MergePlanner::apply_round`]), so the planner runs a single
/// maintenance sweep per round instead of per merge — the difference that
/// makes multi-merge ordering profitable under the incremental planner.
///
/// Returns the surviving root. `start` must be non-empty; a single node is
/// returned unchanged.
pub fn merge_until_one(forest: &mut MergeForest, start: Vec<NodeId>, topo: &TopoConfig) -> NodeId {
    merge_until_one_traced(forest, start, topo, None).0
}

/// [`merge_until_one`] with round/merge counters — the entry point the
/// staged pipeline uses so its merge-stage stats are measured inside the
/// loop, not guessed from the outside. With a `script`, the loop also
/// records what an ECO flush replays: per-round planner snapshots (grid
/// regime only) and per-merge logs. Recording never changes a routed bit.
pub(crate) fn merge_until_one_traced(
    forest: &mut MergeForest,
    start: Vec<NodeId>,
    topo: &TopoConfig,
    mut script: Option<&mut MergeScript>,
) -> (NodeId, MergeTrace) {
    assert!(!start.is_empty(), "need at least one subtree to merge");
    if start.len() == 1 {
        return (start[0], MergeTrace::default());
    }
    let keys: Vec<usize> = start.iter().map(|n| n.index()).collect();
    // The layer split is clocked per round, never per merge.
    let mut trace = MergeTrace::default();
    let t = Stopwatch::start();
    let mut planner = MergePlanner::new(&ForestSpace::new(forest), &keys, *topo);
    trace.plan_seconds += t.seconds();
    let mut round: Vec<(usize, usize, usize)> = Vec::new();
    while planner.len() > 1 {
        let t = Stopwatch::start();
        let pairs = planner.plan_round(&ForestSpace::new(forest));
        trace.plan_seconds += t.seconds();
        assert!(!pairs.is_empty(), "planner must make progress");
        if let Some(script) = script.as_deref_mut() {
            // Snapshot *after* planning (caches are flushed, rows are what
            // the round selected from), *before* the merges mutate the
            // forest.
            let grid = planner.in_grid_regime();
            script.rounds.push(grid.then(|| planner.nn_snapshot()));
        }
        round.clear();
        let t = Stopwatch::start();
        for (a, b) in pairs {
            let (na, nb) = (NodeId::from_index(a), NodeId::from_index(b));
            let m = match script.as_deref_mut() {
                Some(script) => forest.merge_recorded(na, nb, &mut script.merges),
                None => forest.merge(na, nb),
            };
            round.push((a, b, m.index()));
        }
        trace.engine_seconds += t.seconds();
        let t = Stopwatch::start();
        planner.apply_round(&ForestSpace::new(forest), &round);
        trace.apply_seconds += t.seconds();
        trace.rounds += 1;
        trace.merges += round.len();
    }
    (NodeId::from_index(planner.sole_key()), trace)
}

/// The from-scratch reference driver: re-plans every round with
/// [`plan_round`] over a freshly rebuilt neighbor structure. Produces the
/// same tree as [`merge_until_one`] (the planners are equivalent; see
/// `astdme_topo::MergePlanner`), at the cost the incremental planner
/// exists to avoid. Kept for equivalence tests and the `scaling` bench's
/// incremental vs from-scratch timing.
pub fn merge_until_one_from_scratch(
    forest: &mut MergeForest,
    start: Vec<NodeId>,
    topo: &TopoConfig,
) -> NodeId {
    assert!(!start.is_empty(), "need at least one subtree to merge");
    /// Sentinel in the dense position table: the key is not active.
    const NO_POS: u32 = u32::MAX;
    let mut active: Vec<usize> = start.iter().map(|n| n.index()).collect();
    // Dense active set with a position map: removal is swap_remove, and
    // crucially the *same* swap_remove discipline the incremental planner
    // uses, so both drivers present identical orderings to the planner
    // (which matters only for exact ties). The table is the planner's
    // dense `Vec` key-table pattern — forest node indices are dense, so a
    // flat vector with a sentinel replaces the old `HashMap` (and each
    // merge grows the key space by exactly one, so the resize below
    // amortizes to a push).
    let max_key = active.iter().copied().max().expect("start is non-empty");
    assert!(max_key < NO_POS as usize, "node indices must fit u32");
    let mut pos: Vec<u32> = vec![NO_POS; max_key + 1];
    for (i, &k) in active.iter().enumerate() {
        assert!(pos[k] == NO_POS, "start subtrees must be distinct");
        pos[k] = i as u32;
    }
    while active.len() > 1 {
        let pairs = {
            let space = ForestSpace::new(forest);
            plan_round(&space, &active, topo)
        };
        assert!(!pairs.is_empty(), "planner must make progress");
        for (a, b) in pairs {
            let m = forest.merge(NodeId::from_index(a), NodeId::from_index(b));
            for x in [a, b] {
                assert!(pos[x] != NO_POS, "planned pair is active");
                let i = pos[x] as usize;
                pos[x] = NO_POS;
                active.swap_remove(i);
                if i < active.len() {
                    pos[active[i]] = i as u32;
                }
            }
            let mk = m.index();
            if mk >= pos.len() {
                pos.resize(mk + 1, NO_POS);
            }
            assert!(pos[mk] == NO_POS, "merge result key already active");
            pos[mk] = active.len() as u32;
            active.push(mk);
        }
    }
    NodeId::from_index(active[0])
}

/// Builds the forest for `inst` under `model`, merges everything bottom-up
/// with the incremental planner, and returns the forest plus the root
/// subtree.
pub fn run_bottom_up(
    inst: &Instance,
    model: DelayModel,
    engine: EngineConfig,
    topo: &TopoConfig,
) -> (MergeForest, NodeId) {
    let mut forest = MergeForest::for_instance_with_model(inst, model, engine);
    let leaves = forest.leaves();
    let root = merge_until_one(&mut forest, leaves, topo);
    (forest, root)
}

/// Like [`run_bottom_up`] but driven by the from-scratch reference
/// planner. Used by equivalence tests and the `scaling` bench's
/// incremental vs from-scratch timing.
pub fn run_bottom_up_from_scratch(
    inst: &Instance,
    model: DelayModel,
    engine: EngineConfig,
    topo: &TopoConfig,
) -> (MergeForest, NodeId) {
    let mut forest = MergeForest::for_instance_with_model(inst, model, engine);
    let leaves = forest.leaves();
    let root = merge_until_one_from_scratch(&mut forest, leaves, topo);
    (forest, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astdme_delay::RcParams;
    use astdme_engine::{Groups, Sink};
    use astdme_geom::Point;

    fn line_instance(n: usize, groups: usize) -> Instance {
        let sinks: Vec<Sink> = (0..n)
            .map(|i| Sink::new(Point::new(300.0 * i as f64, (i % 3) as f64 * 100.0), 1e-14))
            .collect();
        let assignment: Vec<usize> = (0..n).map(|i| i % groups).collect();
        Instance::new(
            sinks,
            Groups::from_assignments(assignment, groups).unwrap(),
            RcParams::default(),
            Point::new(0.0, 2000.0),
        )
        .unwrap()
    }

    #[test]
    fn run_bottom_up_produces_single_root_covering_all_sinks() {
        let inst = line_instance(9, 3);
        let (forest, root) = run_bottom_up(
            &inst,
            DelayModel::elmore(*inst.rc()),
            EngineConfig::default(),
            &TopoConfig::default(),
        );
        let tree = forest.embed(root, inst.source());
        assert_eq!(tree.sink_nodes().count(), 9);
    }

    #[test]
    fn greedy_and_multimerge_both_terminate() {
        let inst = line_instance(8, 2);
        for topo in [TopoConfig::greedy(), TopoConfig::default()] {
            let (forest, root) = run_bottom_up(
                &inst,
                DelayModel::elmore(*inst.rc()),
                EngineConfig::default(),
                &topo,
            );
            let tree = forest.embed(root, inst.source());
            assert_eq!(tree.sink_nodes().count(), 8);
        }
    }

    #[test]
    fn merge_until_one_returns_single_node_unchanged() {
        let inst = line_instance(2, 1);
        let mut forest = MergeForest::for_instance(&inst, EngineConfig::default());
        let leaves = forest.leaves();
        let only = vec![leaves[0]];
        let r = merge_until_one(&mut forest, only, &TopoConfig::default());
        assert_eq!(r, leaves[0]);
    }

    #[test]
    fn incremental_and_from_scratch_drivers_route_identically() {
        // Large enough (> BRUTE_FORCE_CUTOFF leaves) to exercise the
        // incremental grid regime, multiple groups for SDR merges.
        let inst = line_instance(48, 3);
        for topo in [TopoConfig::greedy(), TopoConfig::default()] {
            let (forest_inc, root_inc) = run_bottom_up(
                &inst,
                DelayModel::elmore(*inst.rc()),
                EngineConfig::default(),
                &topo,
            );
            let (forest_ref, root_ref) = run_bottom_up_from_scratch(
                &inst,
                DelayModel::elmore(*inst.rc()),
                EngineConfig::default(),
                &topo,
            );
            let tree_inc = forest_inc.embed(root_inc, inst.source());
            let tree_ref = forest_ref.embed(root_ref, inst.source());
            assert_eq!(
                tree_inc.total_wirelength(),
                tree_ref.total_wirelength(),
                "drivers diverged under {topo:?}"
            );
            assert_eq!(tree_inc.nodes().len(), tree_ref.nodes().len());
        }
    }
}
