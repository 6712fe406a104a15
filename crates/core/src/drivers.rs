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

    fn regions(&self, id: usize, out: &mut Vec<Trr>) {
        // The planner ranks pairs by geometric distance between candidate
        // regions, deliberately: ranking node pairs by full merge-cost
        // estimates defers delay-imbalanced pairs, which strands slow
        // subtrees until only expensive partners remain. Offset
        // compatibility is handled *inside* a merge by candidate-pair
        // ranking (see MergeForest::merge).
        let cands = self.forest.candidates(NodeId::from_index(id));
        out.extend(cands.iter().map(|c| c.region));
    }

    fn region_count(&self, id: usize) -> usize {
        self.forest.candidates(NodeId::from_index(id)).len()
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
    /// Grid builds by the incremental planner
    /// ([`MergePlanner::grid_builds`]).
    pub(crate) grid_builds: usize,
    /// Grid neighbor queries by the incremental planner
    /// ([`MergePlanner::nn_queries`]).
    pub(crate) nn_queries: usize,
    /// Exact pair distances evaluated by the incremental planner
    /// ([`MergePlanner::exact_distances`]).
    pub(crate) exact_distances: usize,
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
        self.grid_builds += other.grid_builds;
        self.nn_queries += other.nn_queries;
        self.exact_distances += other.exact_distances;
    }
}

/// The replay script a recorded merge loop leaves behind, for the ECO
/// flush to replay against an edited instance.
pub(crate) struct MergeScript {
    /// Per merge, the engine's [`MergeLog`](astdme_engine::MergeLog).
    pub(crate) merges: MergeRecording,
    /// Per planning round, the planner's nearest-neighbor table right
    /// after the round was planned, one row per active subtree in rank
    /// order (see [`RankedRow`]), or `None` for brute-force tail rounds,
    /// which replay by re-planning (cheap: at most
    /// [`BRUTE_FORCE_CUTOFF`](astdme_topo::BRUTE_FORCE_CUTOFF) subtrees).
    pub(crate) rounds: Vec<Option<Vec<RankedRow>>>,
}

/// One row of a recorded planning round: an active subtree, its nearest
/// neighbor, their hull distance and the pair's folded score bits — the
/// planner's snapshot triple ([`NnSnapshotRow`]) with `u32` keys (forest
/// node indices fit them; the planner's keys stay below 2^31) and its tie
/// flag in the sign bit of the distance (a distance is never negative),
/// so a row stays 24 B. A round's rows are sorted by [`RankedRow::rank`],
/// the order the planner selects the round's pairs in, so a replay walks
/// them best first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RankedRow {
    /// The pair's score bits ([`score_bits`](astdme_topo::score_bits)).
    pub(crate) score: u64,
    /// The hull distance between the subtree and its neighbor, negated
    /// when tied (see [`RankedRow::tied`]).
    signed_dist: f64,
    /// The subtree.
    pub(crate) key: u32,
    /// Its nearest neighbor.
    pub(crate) nn: u32,
}

/// The layout described on [`RankedRow`]: a recorded route keeps one row
/// per active subtree per grid round.
const _: () = assert!(std::mem::size_of::<RankedRow>() == 24);

impl RankedRow {
    /// The row of subtree `key` whose nearest neighbor `nn` lies at hull
    /// distance `dist`, pair score bits `score`; `tied` when another
    /// subtree lies exactly as near.
    pub(crate) fn new(key: u32, nn: u32, dist: f64, score: u64, tied: bool) -> Self {
        let signed_dist = if tied { -dist.abs() } else { dist.abs() };
        Self {
            score,
            signed_dist,
            key,
            nn,
        }
    }

    /// The hull distance between the subtree and its neighbor.
    pub(crate) fn dist(&self) -> f64 {
        self.signed_dist.abs()
    }

    /// Whether another subtree lay exactly as near as the neighbor, which
    /// then won by its smaller key: a replay, whose keys may order
    /// differently, re-derives such a row.
    pub(crate) fn tied(&self) -> bool {
        self.signed_dist.is_sign_negative()
    }

    /// The pair, smaller key first: the orientation it merges in.
    pub(crate) fn pair(&self) -> (usize, usize) {
        let (key, nn) = (self.key as usize, self.nn as usize);
        (key.min(nn), key.max(nn))
    }

    /// The planner's ranking key `(score bits, lo, hi)`, packed into one
    /// `u128` that orders as the tuple does: the two rows of mutual
    /// neighbors share it.
    pub(crate) fn rank(&self) -> u128 {
        let (lo, hi) = self.pair();
        u128::from(self.score) << 64 | (lo as u128) << 32 | hi as u128
    }
}

/// A planner snapshot, which comes in rank order, as recorded rows, or
/// `None` if some subtree caches no neighbor (its round then replays by
/// re-planning).
fn ranked_rows(snapshot: Vec<NnSnapshotRow>) -> Option<Vec<RankedRow>> {
    let rows = snapshot
        .into_iter()
        .map(|row| {
            let (nn, dist, score, tied) = row.nn?;
            Some(RankedRow::new(row.key as u32, nn as u32, dist, score, tied))
        })
        .collect::<Option<Vec<_>>>()?;
    debug_assert!(
        rows.is_sorted_by_key(RankedRow::rank),
        "snapshot rows in rank order"
    );
    Some(rows)
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
            script
                .rounds
                .push(grid.then(|| ranked_rows(planner.nn_snapshot())).flatten());
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
    trace.grid_builds = planner.grid_builds();
    trace.nn_queries = planner.nn_queries();
    trace.exact_distances = planner.exact_distances();
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
    // The planner's answer depends on the active set alone, not on its
    // order (ties go to the smallest key), so a round's merges simply
    // replace their children.
    let mut active: Vec<usize> = start.iter().map(|n| n.index()).collect();
    while active.len() > 1 {
        let pairs = plan_round(&ForestSpace::new(forest), &active, topo);
        assert!(!pairs.is_empty(), "planner must make progress");
        let mut consumed = vec![false; forest.node_count() + pairs.len()];
        for &(a, b) in &pairs {
            let m = forest.merge(NodeId::from_index(a), NodeId::from_index(b));
            consumed[a] = true;
            consumed[b] = true;
            active.push(m.index());
        }
        active.retain(|&k| !consumed[k]);
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
