//! Helpers shared by the integration tests that compare compacting and
//! recorded merge loops.

use astdme::{
    DelayModel, EngineConfig, ForestSpace, Instance, MergeForest, MergePlanner, MergeRecording,
    NodeId, TopoConfig,
};

/// The bottom-up merge loop of [`astdme::run_bottom_up`] (same planner,
/// same rounds, same merge order), but with every merge recorded, as an
/// ECO session's standing route records them. A recorded forest keeps
/// every candidate list whole, where `run_bottom_up` compacts each
/// consumed node.
pub fn recorded_bottom_up(
    inst: &Instance,
    model: DelayModel,
    engine: EngineConfig,
    topo: &TopoConfig,
) -> (MergeForest, NodeId, MergeRecording) {
    let mut forest = MergeForest::for_instance_with_model(inst, model, engine);
    let keys: Vec<usize> = forest.leaves().iter().map(|n| n.index()).collect();
    let mut rec = MergeRecording::for_forest(&forest);
    let mut planner = MergePlanner::new(&ForestSpace::new(&forest), &keys, *topo);
    let mut round = Vec::new();
    while planner.len() > 1 {
        round.clear();
        for (a, b) in planner.plan_round(&ForestSpace::new(&forest)) {
            let (na, nb) = (NodeId::from_index(a), NodeId::from_index(b));
            round.push((a, b, forest.merge_recorded(na, nb, &mut rec).index()));
        }
        planner.apply_round(&ForestSpace::new(&forest), &round);
    }
    let root = NodeId::from_index(planner.sole_key());
    (forest, root, rec)
}

/// Total candidates a forest holds over all its nodes.
pub fn retained_candidates(forest: &MergeForest) -> usize {
    (0..forest.node_count())
        .map(|i| forest.candidates(NodeId::from_index(i)).len())
        .sum()
}
