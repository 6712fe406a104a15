//! The flush's merge step: the recorded merge rounds replayed against the
//! edited instance.

use astdme_engine::{Instance, MergeForest, NodeId, NO_NODE};
use astdme_geom::Trr;
use astdme_topo::{plan_round, round_limit, select_disjoint, BRUTE_FORCE_CUTOFF};

use super::scan::{RoundScan, ROUTE_VISITS_PER_SINK};
use super::{EcoStats, Recording};
use crate::drivers::{ForestSpace, MergeScript, MergeTrace, RankedRow};
use crate::pipeline::StagePlan;
use crate::stopwatch::Stopwatch;

/// Sentinel in the dense active-position table: the key is not active.
const NO_POS: u32 = u32::MAX;
/// Sentinel in the child → merge-log index: the node is never a child.
const NO_LOG: u32 = u32::MAX;

/// A replay's merge step, as the flush hands it on.
pub(super) struct Replayed {
    /// The merged forest.
    pub(super) forest: MergeForest,
    /// The surviving root.
    pub(super) root: NodeId,
    /// The merge loop's counters.
    pub(super) trace: MergeTrace,
    /// The replay's own script, in the new id space, so flushes chain.
    pub(super) script: MergeScript,
    /// What the embed copies clean subtrees by: the node translation
    /// (standing node → new node) and, per new node, its standing
    /// counterpart if the node is pristine (see [`replay_merges`]).
    /// `None` when a fresh merge appended candidates.
    pub(super) copyable: Option<(Vec<u32>, Vec<u32>)>,
}

/// Replays the recorded merge script against the edited instance.
///
/// Per round, a first walk over the recorded snapshot's rows translates
/// each into the new id space and classifies the active subtree it
/// belongs to:
///
/// * **inherited** — the subtree has a standing counterpart, the
///   counterpart is in the round's snapshot, and the recorded neighbor's
///   counterpart is still active: reuse the recorded `(neighbor,
///   region-distance, score)` verbatim (`O(1)`);
/// * **stale** — counterpart exists but its recorded neighbor was
///   consumed, or won a tie by the standing route's key order (node ids,
///   hence key order, shift between the standing and the edited route):
///   fresh nearest-neighbor scan (exactly what the incremental planner's
///   dirty-list requery computes);
/// * **novel** — no row reached it (the dirty cone, or a subtree whose
///   counterpart was not active in the standing route's round): fresh
///   scan, *and* the subtree may take over any inherited entry it sits
///   strictly nearer to, or exactly as near with a smaller key,
///   mirroring the planner's supersession rule for newly registered
///   subtrees. (Mapped counterparts never take over: their effect on
///   clean entries is already baked into the standing snapshots.)
///
/// Every scan follows the planner's one tie rule
/// ([`Nearest`](astdme_topo::Nearest)): among exactly equal hull
/// distances the smallest node key wins.
///
/// The scans run linearly or over a per-round grid, whichever costs
/// fewer visits (see [`super::scan`]). A second walk then merges the
/// recorded rank order of the unchanged inherited entries with the few
/// changed ones (stale, novel and taken over), sorted on their own (see
/// [`merge_ranked`]), and the round takes disjoint pairs from the merged
/// order up to the round limit: the planner's exact selection by the
/// `(score bits, lo, hi)` key, with no sort or selection over all the
/// round's entries. The merged order is the replay's own snapshot of the
/// round, which the next flush replays. Selected pairs whose children
/// both map onto one recorded merge (same orientation) are adopted
/// bit-for-bit, taking the recorded list where it is the creation prefix
/// (see [`MergeForest::adopt_merge`]); the rest merge fresh.
///
/// **Price.** The scans are charged the visits (hull-distance
/// evaluations) they make, and the total lands in
/// [`EcoStats::scan_visits`]. The replay declines — returns
/// `None`, and the flush reroutes from scratch — only once the charge
/// passes what a from-scratch route of the `n` sinks costs in the same
/// unit, `n ·` [`ROUTE_VISITS_PER_SINK`]. The price depends on `n`
/// alone: a replay that declines has spent at most about one route, so a
/// flush never costs much more than two, and an edit set of any size
/// replays as long as replaying is cheaper.
///
/// This is the flush's merge step over `edited` (the edited instance,
/// regrouped like the recording), whose sinks differ from the
/// recording's at the ascending `dirty` list. It consumes `rec`: the new
/// forest takes the recorded forest's leaf store
/// ([`MergeForest::take_leaves`]), adoptions move candidate lists out of
/// the recorded forest, and each replayed round writes its own rows into
/// the buffer of the recorded ones, so a recording serves one flush. Returns the merged
/// forest, the surviving root, the loop's counters, the replay's own
/// script and the tables the embed copies by (see [`Replayed`]), and
/// fills `stats`' replay and visit counters. While it merges it
/// marks each new node pristine or not, at no extra cost: a clean leaf
/// is, and so is an adopted merge whose log appends nothing, that took
/// its recorded list, and whose two children are pristine. Also returns
/// `None` when the sink count drifted from the recording's, when the
/// recorded leaves cannot be taken, or if a round produced no entries
/// (never the case for well-formed recordings, but cheap to guard).
pub(super) fn replay_merges(
    rec: &mut Recording,
    edited: &Instance,
    dirty: &[usize],
    plan: &StagePlan,
    stats: &mut EcoStats,
) -> Option<Replayed> {
    let Recording {
        forest: std_forest,
        script,
        ..
    } = rec;
    let n = edited.sink_count();
    // The recording's finished forest joined as many leaves: 2n − 1 nodes.
    if std_forest.node_count() != 2 * n - 1 {
        return None;
    }
    let mut forest = MergeForest::take_leaves(std_forest, edited, dirty)?;
    let topo = &plan.topo;
    let mut out = MergeScript::for_forest(&forest);
    if n == 1 {
        return Some(Replayed {
            forest,
            root: NodeId::from_index(0),
            trace: MergeTrace::default(),
            script: out,
            copyable: None,
        });
    }

    // A binary forest over `n` leaves ends with 2n − 1 nodes: the new
    // forest's tables are sized for all of them up front (`out` already
    // holds room for the n − 1 merge logs).
    let nodes = 2 * n - 1;
    out.rounds.reserve(script.rounds.len());
    let std_nodes = std_forest.node_count();
    // Bidirectional node translation: clean leaves map index-for-index;
    // adopted merges extend the maps as they land.
    let mut std_to_new: Vec<u32> = vec![NO_NODE; std_nodes];
    let mut new_to_std: Vec<u32> = vec![NO_NODE; nodes];
    for i in 0..n {
        std_to_new[i] = i as u32;
        new_to_std[i] = i as u32;
    }
    for &i in dirty {
        std_to_new[i] = NO_NODE;
        new_to_std[i] = NO_NODE;
    }
    // Per new node: its standing counterpart if pristine. Clean leaves
    // are; merges are decided as they land.
    let mut pristine = new_to_std.clone();
    let mut appended = false;
    // Which recorded merge consumed each standing node as a child.
    let mut log_of_child: Vec<u32> = vec![NO_LOG; std_nodes];
    for (li, log) in script.merges.logs().iter().enumerate() {
        log_of_child[log.a as usize] = li as u32;
        log_of_child[log.b as usize] = li as u32;
    }
    // Active set, removal by swap_remove; `hulls` holds each active
    // subtree's representative region in step with `active`, so the scans
    // read one dense array. The leaves are the forest's first `n` nodes,
    // in sink order.
    let mut active: Vec<usize> = (0..n).collect();
    let mut hulls: Vec<Trr> = active
        .iter()
        .map(|&l| forest.representative_region(NodeId::from_index(l)))
        .collect();
    let mut pos: Vec<u32> = vec![NO_POS; nodes];
    for (i, &k) in active.iter().enumerate() {
        pos[k] = i as u32;
    }
    // Per-round planning buffers, cleared and reused every replayed round:
    // the scans' table and the rows they changed.
    let mut scan = RoundScan::default();
    let mut changed: Vec<RankedRow> = Vec::new();

    let mut trace = MergeTrace::default();
    let (mut adopted, mut fresh) = (0usize, 0usize);
    let (mut replayed_rounds, mut planned_rounds) = (0usize, 0usize);
    let price = ROUTE_VISITS_PER_SINK * n as u64;

    let mut round_idx = 0usize;
    while active.len() > 1 {
        let n_present = active.len();
        // The round's recorded rows; their buffer, still warm from the
        // first walk, takes the replay's own rows in the second.
        let snap = script
            .rounds
            .get_mut(round_idx)
            .and_then(Option::take)
            .filter(|_| n_present > BRUTE_FORCE_CUTOFF);
        let t = Stopwatch::start();
        let pairs: Vec<(usize, usize)> = match snap {
            None => {
                // Tail rounds (and rounds the recording cannot cover):
                // re-plan from scratch — the reference planner, which the
                // incremental planner is equivalence-tested against.
                planned_rounds += 1;
                out.rounds.push(None);
                let pairs = plan_round(&ForestSpace::new(&forest), &active, topo);
                assert!(!pairs.is_empty(), "planner must make progress");
                pairs
            }
            Some(mut rows) => {
                replayed_rounds += 1;
                // Walk 1: translate the rows, best first. A row whose
                // subtree is not active here reaches no entry; one whose
                // neighbor is not active, or won a tie by a key order the
                // new keys need not keep, leaves its entry stale.
                let active_new = |std: u32| {
                    let x = std_to_new[std as usize];
                    (x != NO_NODE && pos[x as usize] != NO_POS).then_some(x)
                };
                scan.begin(n_present);
                for row in &rows {
                    let Some(x) = active_new(row.key) else {
                        continue;
                    };
                    let ai = pos[x as usize] as usize;
                    match active_new(row.nn).filter(|_| !row.tied()) {
                        Some(v) => {
                            scan.inherit(ai, RankedRow::new(x, v, row.dist(), row.score, false));
                        }
                        None => scan.stale(ai),
                    }
                }
                scan.novel_rest();
                let space = ForestSpace::new(&forest);
                stats.scan_visits += scan.scan(&space, topo, &active, &hulls, &pos);
                if stats.scan_visits > price {
                    return None;
                }
                // Walk 2: the round's rank order, which is also the
                // replay's own snapshot in the new id space, so the next
                // flush replays off this route; then disjoint pairs up to
                // the round limit.
                changed.clear();
                changed.extend(scan.changed());
                changed.sort_unstable_by_key(RankedRow::rank);
                rows.clear();
                merge_ranked(scan.unchanged(), &changed, &mut rows);
                debug_assert_eq!(rows.len(), n_present, "one row per active subtree");
                let limit = round_limit(topo.order, n_present);
                let pairs = select_disjoint(rows.iter().map(RankedRow::pair), limit);
                if pairs.is_empty() {
                    return None;
                }
                out.rounds.push(Some(rows));
                pairs
            }
        };
        trace.plan_seconds += t.seconds();

        let t = Stopwatch::start();
        for &(x, y) in &pairs {
            let mx = new_to_std[x];
            let my = new_to_std[y];
            // The adopted node, its standing counterpart, and whether it
            // took its recorded list and appends nothing.
            let mut adopted_as: Option<(NodeId, u32, bool)> = None;
            if mx != NO_NODE && my != NO_NODE {
                let li = log_of_child[mx as usize];
                if li != NO_LOG && li == log_of_child[my as usize] {
                    let log = &script.merges.logs()[li as usize];
                    // Orientation matters: merge(a, b) != merge(b, a) in
                    // candidate layout, so only the recorded orientation
                    // reproduces what a from-scratch run would execute.
                    if log.a == mx && log.b == my {
                        if let Some((m, taken)) = forest.adopt_merge(
                            NodeId::from_index(x),
                            NodeId::from_index(y),
                            std_forest,
                            log,
                            &script.merges,
                            &std_to_new,
                            Some(&mut out.merges),
                        ) {
                            adopted_as = Some((m, log.result, taken && log.appends.is_empty()));
                        }
                    }
                }
            }
            let m = match adopted_as {
                Some((m, result, _)) => {
                    adopted += 1;
                    std_to_new[result as usize] = m.index() as u32;
                    m
                }
                None => {
                    fresh += 1;
                    let m = forest.merge_recorded(
                        NodeId::from_index(x),
                        NodeId::from_index(y),
                        &mut out.merges,
                    );
                    appended |= out
                        .merges
                        .logs()
                        .last()
                        .is_some_and(|l| !l.appends.is_empty());
                    m
                }
            };
            let mk = m.index();
            for k in [x, y] {
                let i = pos[k] as usize;
                pos[k] = NO_POS;
                active.swap_remove(i);
                hulls.swap_remove(i);
                if i < active.len() {
                    pos[active[i]] = i as u32;
                }
            }
            pos[mk] = active.len() as u32;
            active.push(mk);
            hulls.push(forest.representative_region(m));
            if let Some((_, result, clean)) = adopted_as {
                new_to_std[mk] = result;
                if clean && pristine[x] != NO_NODE && pristine[y] != NO_NODE {
                    pristine[mk] = result;
                }
            }
        }
        trace.engine_seconds += t.seconds();
        trace.rounds += 1;
        trace.merges += pairs.len();
        round_idx += 1;
    }

    stats.adopted_merges = adopted;
    stats.fresh_merges = fresh;
    stats.replayed_rounds = replayed_rounds;
    stats.planned_rounds = planned_rounds;
    Some(Replayed {
        forest,
        root: NodeId::from_index(active[0]),
        trace,
        script: out,
        copyable: (!appended).then_some((std_to_new, pristine)),
    })
}

/// A replayed round's second walk: writes into `next` the rank order
/// ([`RankedRow::rank`]) of `kept` and `changed` together, from which
/// [`select_disjoint`] takes the round's pairs.
///
/// `changed` is sorted. `kept` is a recorded rank order translated into
/// new ids: its scores still ascend, but a run of equal scores may have
/// lost its `(lo, hi)` order. The walk merges the two and sorts by
/// insertion as it goes, which moves a row back only within the run of
/// its own score. The rows of mutual neighbors share their key and stay
/// side by side: [`select_disjoint`] rejects the second of them (its
/// endpoints are taken, or were found taken), as the planner's dedup
/// would drop it.
pub(super) fn merge_ranked(
    kept: impl Iterator<Item = RankedRow>,
    changed: &[RankedRow],
    next: &mut Vec<RankedRow>,
) {
    let mut last = 0;
    let mut changed = changed.iter().map(|&c| (c.rank(), c)).peekable();
    for row in kept {
        let rank = row.rank();
        while let Some((c_rank, c)) = changed.next_if(|&(c_rank, _)| c_rank < rank) {
            last = push_ranked(next, c, c_rank, last);
        }
        last = push_ranked(next, row, rank, last);
    }
    for (c_rank, c) in changed {
        last = push_ranked(next, c, c_rank, last);
    }
}

/// One insertion-sort step: adds `row`, of rank `rank`, to the
/// rank-ordered `next`, whose last rank is `last`, and returns the new
/// last rank.
fn push_ranked(next: &mut Vec<RankedRow>, row: RankedRow, rank: u128, last: u128) -> u128 {
    if rank >= last {
        next.push(row);
        return rank;
    }
    let at = next.partition_point(|r| r.rank() <= rank);
    next.insert(at, row);
    last
}
