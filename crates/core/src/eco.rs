//! Incremental ECO re-routing: batched sink edits with dirty-region
//! re-planning, sublinear in the instance size.
//!
//! Late engineering-change orders (ECOs) move a handful of flip-flops,
//! retune a few loads, or swap a cell — and the clock tree must follow.
//! Rerouting from scratch costs the full `O(n log n)` pipeline for a
//! change that touches a constant number of sinks. An [`EcoSession`]
//! instead keeps the routed state *live* and repairs it:
//!
//! ```text
//!   queue(edit)            flush()
//!  ┌──────────┐   ┌──────────────────────────────────────────────┐
//!  │  batch   │   │ 1. apply     net edit set → edited instance  │
//!  │ (Vec of  ├──▶│ 2. invalidate dirty sinks → their merge-path │
//!  │  edits,  │   │               ancestors lose adoption rights │
//!  │  write-  │   │ 3. re-plan   replay recorded rounds; fresh   │
//!  │  only)   │   │               NN scans only for novel nodes  │
//!  │          │   │ 4. splice    adopted merges share recorded   │
//!  └──────────┘   │               lists, dirty cone re-merged,   │
//!                 │               then embed / repair / audit    │
//!                 └──────────────────────────────────────────────┘
//! ```
//!
//! # How the replay works
//!
//! A session's standing route is produced by a **recording** run: per
//! planning round, the incremental planner's nearest-neighbor table is
//! snapshotted ([`astdme_topo::MergePlanner::nn_snapshot`]), and per
//! merge, the engine appends a [`MergeLog`](astdme_engine::MergeLog)
//! (children, creation candidates, offset-adjustment appends, residual,
//! class-fusion epochs). On `flush`, the edited instance is rerouted
//! against this script:
//!
//! * Clean sinks map leaf-for-leaf onto the standing forest; dirty sinks
//!   (position or load bits changed) get no mapping, which transitively
//!   unmaps exactly their merge-path ancestors — the *dirty cone*.
//! * Each round, subtrees with a standing counterpart **inherit** the
//!   recorded nearest-neighbor entry (key-translated); subtrees in the
//!   dirty cone run a fresh nearest-neighbor scan and may *take over* an
//!   inherited entry when strictly closer — the same supersession rule the
//!   incremental planner applies to newly registered subtrees.
//! * Selected pairs whose children both map onto a recorded merge (same
//!   log, same orientation) are **adopted**:
//!   [`MergeForest::adopt_merge`](astdme_engine::MergeForest::adopt_merge)
//!   shares the recorded result's candidate list instead of re-running
//!   candidate-pair expansion. Everything else is merged fresh
//!   (bit-correct by construction).
//!
//! The replay is only the merge step: every session route — creation,
//! replayed flush, full reroute — runs the staged pipeline's one body
//! ([`crate::pipeline`]), so grouping, embedding, repair, validation, the
//! audit, and the fault checkpoints between stages are the pipeline's
//! own, and a flushed session is
//! **bit-identical to a from-scratch route of the edited instance** —
//! same tree, same audit report, at every thread count. Update latency
//! is sublinear in `n` for small edit sets: inherited entries cost `O(1)`
//! each, and fresh scans are bounded by a work budget (the session falls
//! back to a full reroute when an edit storm exhausts it, or when the
//! edit changes the instance structurally — sink count, group shape, or
//! RC technology).
//!
//! Replay is recorded for [`MergeStage::Flat`] plans under
//! [`MergeOrder::MultiMerge`] (the default of every router except the
//! stitching strawman); other plans still flush correctly via a full
//! reroute each time.
//!
//! # Example
//!
//! ```
//! use astdme_core::eco::{EcoEdit, EcoSession};
//! use astdme_core::{AstDme, Groups, Instance, Point, RcParams, Sink};
//!
//! let sinks: Vec<Sink> = (0..8)
//!     .map(|i| Sink::new(Point::new(400.0 * i as f64, (i % 2) as f64 * 300.0), 1e-14))
//!     .collect();
//! let groups = Groups::from_assignments((0..8).map(|i| i % 2).collect(), 2)?;
//! let inst = Instance::new(sinks, groups, RcParams::default(), Point::new(0.0, 2500.0))?;
//!
//! let mut session = EcoSession::new(&inst, AstDme::new().plan())?;
//! let before = session.outcome().tree.total_wirelength();
//! session.queue(EcoEdit::Move { sink: 3, to: Point::new(1180.0, 40.0) });
//! session.queue(EcoEdit::Retune { sink: 5, cap: 2e-14 });
//! let out = session.flush()?;
//! assert_eq!(out.tree.sink_nodes().count(), 8);
//! # let _ = before;
//! # Ok::<(), astdme_core::RouteError>(())
//! ```

use crate::stopwatch::Stopwatch;

use astdme_delay::RcParams;
use astdme_engine::{GroupId, Groups, Instance, MergeForest, NodeId, Sink, NO_NODE};
use astdme_geom::{Point, Trr};
use astdme_topo::{
    pair_score, plan_round, round_limit, score_bits, select_disjoint, space_distance, MergeOrder,
    MergeSpace, NnSnapshotRow, BRUTE_FORCE_CUTOFF,
};

use crate::drivers::{merge_until_one_traced, ForestSpace, MergeScript, MergeTrace};
use crate::pipeline::{self, MergeStage, RouteOutcome, Run, StagePlan};
use crate::RouteError;

/// Sentinel in the dense active-position table: the key is not active.
const NO_POS: u32 = u32::MAX;
/// Sentinel in the child → merge-log index: the node is never a child.
const NO_LOG: u32 = u32::MAX;

/// One queued engineering-change-order edit. Sink indices refer to the
/// session's instance *at the point the edit applies* — edits in a batch
/// apply sequentially, so a [`EcoEdit::Delete`] shifts the indices later
/// edits in the same batch see, exactly like `Vec::remove`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EcoEdit {
    /// Move a sink to a new position.
    Move {
        /// Index of the sink to move.
        sink: usize,
        /// New placement.
        to: Point,
    },
    /// Change a sink's load capacitance.
    Retune {
        /// Index of the sink to retune.
        sink: usize,
        /// New load capacitance (F).
        cap: f64,
    },
    /// Add a sink to an existing group (appended at the highest index).
    Insert {
        /// The new sink.
        sink: Sink,
        /// The group it joins (must already exist).
        group: GroupId,
    },
    /// Remove a sink (later sinks shift down by one).
    Delete {
        /// Index of the sink to remove.
        sink: usize,
    },
    /// Replace the instance's interconnect technology parameters.
    RetuneRc(RcParams),
}

/// What one [`EcoSession::flush`] did, for observability and the bench's
/// reused-region accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EcoStats {
    /// Edits in the flushed batch.
    pub edits: usize,
    /// Sinks whose position or load actually changed (net, after
    /// cancelling edits), or the full sink count on a structural change.
    pub dirty_sinks: usize,
    /// Merges satisfied by adopting a recorded merge bit-for-bit.
    pub adopted_merges: usize,
    /// Merges recomputed fresh (the dirty cone).
    pub fresh_merges: usize,
    /// Planning rounds replayed against the recorded nearest-neighbor
    /// snapshots.
    pub replayed_rounds: usize,
    /// Planning rounds re-planned from scratch (brute-force tail rounds
    /// and rounds the recording could not cover).
    pub planned_rounds: usize,
    /// Whether the flush fell back to a full pipeline reroute: a
    /// structural edit, a plan without replay, or a declined replay.
    pub full_reroute: bool,
    /// Whether the batch was a net no-op (standing tree returned
    /// unchanged, by reference).
    pub noop: bool,
    /// Wall-clock seconds of the whole flush.
    pub seconds: f64,
}

/// Everything a flush needs to replay the standing route: the routed
/// (regrouped) instance, its merge forest, and the replay script.
struct Recording {
    routed: Instance,
    forest: MergeForest,
    script: MergeScript,
}

/// A live routed instance accepting batched sink edits. See the
/// [module docs](self) for the lifecycle.
pub struct EcoSession {
    plan: StagePlan,
    inst: Instance,
    outcome: RouteOutcome,
    rec: Option<Recording>,
    queue: Vec<EcoEdit>,
    last_flush: EcoStats,
}

impl EcoSession {
    /// Routes `inst` under `plan` (with replay recording when the plan
    /// supports it) and opens the session.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the initial route fails, including a
    /// plan with a negative or NaN global skew bound
    /// ([`RouteError::BadParameter`]).
    pub fn new(inst: &Instance, plan: StagePlan) -> Result<Self, RouteError> {
        let (outcome, rec) = route_full(inst, &plan)?;
        Ok(Self {
            plan,
            inst: inst.clone(),
            outcome,
            rec,
            queue: Vec::new(),
            last_flush: EcoStats::default(),
        })
    }

    /// Queues an edit. Write-optimized: a push, no routing work until
    /// [`EcoSession::flush`].
    pub fn queue(&mut self, edit: EcoEdit) {
        self.queue.push(edit);
    }

    /// The queued, not-yet-flushed edits, in application order.
    pub fn pending(&self) -> &[EcoEdit] {
        &self.queue
    }

    /// The session's current instance (queued edits not applied).
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The standing routed outcome (as of the last flush).
    pub fn outcome(&self) -> &RouteOutcome {
        &self.outcome
    }

    /// Statistics of the most recent [`EcoSession::flush`].
    pub fn last_flush(&self) -> EcoStats {
        self.last_flush
    }

    /// Applies the queued batch: computes the net edited instance,
    /// invalidates the dirty region, re-plans it against the recorded
    /// route, and splices the repaired region back. Returns the standing
    /// outcome — **bit-identical to a from-scratch route of the edited
    /// instance** under the session's plan.
    ///
    /// An empty (or net no-op) batch returns the standing outcome by
    /// reference without routing anything.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::BadParameter`] for an out-of-range sink index
    /// or unknown group, and propagates routing errors. A failed flush
    /// discards the batch and leaves the standing route unchanged.
    pub fn flush(&mut self) -> Result<&RouteOutcome, RouteError> {
        let t0 = Stopwatch::start();
        let edits = std::mem::take(&mut self.queue);
        let mut stats = EcoStats {
            edits: edits.len(),
            ..EcoStats::default()
        };
        if edits.is_empty() {
            stats.noop = true;
            stats.seconds = t0.seconds();
            self.last_flush = stats;
            return Ok(&self.outcome);
        }
        let edited = apply_edits(&self.inst, &edits)?;
        if instance_bits_equal(&edited, &self.inst) {
            stats.noop = true;
            stats.seconds = t0.seconds();
            self.last_flush = stats;
            return Ok(&self.outcome);
        }
        let structural = edited.sink_count() != self.inst.sink_count()
            || edited.groups().assignment() != self.inst.groups().assignment()
            || !bits_equal(edited.groups().bounds(), self.inst.groups().bounds())
            || !rc_bits_equal(edited.rc(), self.inst.rc());
        stats.dirty_sinks = if structural {
            edited.sink_count()
        } else {
            edited
                .sinks()
                .iter()
                .zip(self.inst.sinks())
                .filter(|(a, b)| !sink_bits_equal(a, b))
                .count()
        };
        let (outcome, rec) = route_edited(
            &self.plan,
            self.rec.as_ref(),
            &edited,
            structural,
            &mut stats,
        )?;
        self.inst = edited;
        self.outcome = outcome;
        self.rec = rec;
        stats.seconds = t0.seconds();
        self.last_flush = stats;
        Ok(&self.outcome)
    }
}

/// Whether the plan's merge loop can be recorded and replayed: one flat
/// loop under multi-merge ordering. (Greedy ordering would snapshot one
/// nearest-neighbor table per merge — `O(n²)` memory; the per-group
/// script runs several loops over one forest.) Other plans flush via a
/// full reroute.
fn recordable(plan: &StagePlan) -> bool {
    plan.merge == MergeStage::Flat && matches!(plan.topo.order, MergeOrder::MultiMerge { .. })
}

fn sink_bits_equal(a: &Sink, b: &Sink) -> bool {
    a.pos.x.to_bits() == b.pos.x.to_bits()
        && a.pos.y.to_bits() == b.pos.y.to_bits()
        && a.cap.to_bits() == b.cap.to_bits()
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn rc_bits_equal(a: &RcParams, b: &RcParams) -> bool {
    a.r_per_um().to_bits() == b.r_per_um().to_bits()
        && a.c_per_um().to_bits() == b.c_per_um().to_bits()
}

fn instance_bits_equal(a: &Instance, b: &Instance) -> bool {
    a.sink_count() == b.sink_count()
        && a.sinks()
            .iter()
            .zip(b.sinks())
            .all(|(x, y)| sink_bits_equal(x, y))
        && a.groups().group_count() == b.groups().group_count()
        && a.groups().assignment() == b.groups().assignment()
        && bits_equal(a.groups().bounds(), b.groups().bounds())
        && rc_bits_equal(a.rc(), b.rc())
}

/// Applies the batch sequentially to the standing instance and rebuilds a
/// validated [`Instance`]. Bounds and the source are preserved.
fn apply_edits(standing: &Instance, edits: &[EcoEdit]) -> Result<Instance, RouteError> {
    let mut sinks = standing.sinks().to_vec();
    let mut assignment = standing.groups().assignment();
    let mut rc = *standing.rc();
    let group_count = standing.groups().group_count();
    for (i, edit) in edits.iter().enumerate() {
        match *edit {
            EcoEdit::Move { sink, to } => {
                let len = sinks.len();
                sinks
                    .get_mut(sink)
                    .ok_or_else(|| bad_edit(i, "moves", sink, len))?
                    .pos = to;
            }
            EcoEdit::Retune { sink, cap } => {
                let len = sinks.len();
                sinks
                    .get_mut(sink)
                    .ok_or_else(|| bad_edit(i, "retunes", sink, len))?
                    .cap = cap;
            }
            EcoEdit::Insert { sink, group } => {
                if group.index() >= group_count {
                    return Err(RouteError::BadParameter(format!(
                        "ECO edit {i} inserts into group {} of a {group_count}-group instance",
                        group.index()
                    )));
                }
                sinks.push(sink);
                assignment.push(group.index());
            }
            EcoEdit::Delete { sink } => {
                if sink >= sinks.len() {
                    return Err(bad_edit(i, "deletes", sink, sinks.len()));
                }
                sinks.remove(sink);
                assignment.remove(sink);
            }
            EcoEdit::RetuneRc(params) => rc = params,
        }
    }
    let groups = Groups::from_assignments(assignment, group_count)?
        .with_bounds(standing.groups().bounds().to_vec())?;
    Ok(Instance::new(sinks, groups, rc, standing.source())?)
}

fn bad_edit(i: usize, verb: &str, sink: usize, len: usize) -> RouteError {
    RouteError::BadParameter(format!(
        "ECO edit {i} {verb} out-of-range sink {sink} (instance has {len})"
    ))
}

/// Routes the edited instance: replays the standing recording when the
/// edit is not structural, and falls back to a full reroute when there is
/// no recording or the replay declines.
fn route_edited(
    plan: &StagePlan,
    standing: Option<&Recording>,
    edited: &Instance,
    structural: bool,
    stats: &mut EcoStats,
) -> Result<(RouteOutcome, Option<Recording>), RouteError> {
    if let (false, Some(rec)) = (structural, standing) {
        let mut script = None;
        let run = pipeline::run_with(edited, plan, |forest, routed| {
            let (root, trace, replayed) = replay_merges(rec, forest, routed, plan, stats)?;
            script = Some(replayed);
            Some((root, trace))
        })?;
        if let Some(run) = run {
            return Ok(recorded(run, script));
        }
    }
    stats.full_reroute = true;
    route_full(edited, plan)
}

/// A full pipeline route of `inst`, recording the replay script when the
/// plan supports replay.
fn route_full(
    inst: &Instance,
    plan: &StagePlan,
) -> Result<(RouteOutcome, Option<Recording>), RouteError> {
    if !recordable(plan) {
        return Ok((pipeline::run(inst, plan)?, None));
    }
    let mut script = None;
    let run = pipeline::run_with(inst, plan, |forest, _| {
        let mut recording = MergeScript::for_forest(forest);
        let leaves = forest.leaves();
        let merged = merge_until_one_traced(forest, leaves, &plan.topo, Some(&mut recording));
        script = Some(recording);
        Some(merged)
    })?;
    Ok(recorded(
        run.expect("fresh planning never declines"),
        script,
    ))
}

/// Splits a pipeline run into its outcome and the recording the next
/// flush replays.
fn recorded(run: Run<'_>, script: Option<MergeScript>) -> (RouteOutcome, Option<Recording>) {
    let recording = script.map(|script| Recording {
        routed: run.routed.into_owned(),
        forest: run.forest,
        script,
    });
    (run.outcome, recording)
}

/// Replays the recorded merge script against the edited instance.
///
/// Per round, each active subtree is classified against the recorded
/// nearest-neighbor snapshot:
///
/// * **inherited** — the subtree has a standing counterpart, the
///   counterpart is in the round's snapshot, and the recorded neighbor's
///   counterpart is still active: reuse the recorded `(neighbor,
///   region-distance, score)` verbatim (`O(1)`);
/// * **stale** — counterpart exists but its recorded neighbor was
///   consumed: fresh nearest-neighbor scan (exactly what the incremental
///   planner's dirty-list requery computes);
/// * **novel** — no counterpart (the dirty cone): fresh scan, *and* the
///   subtree may take over any inherited entry it sits strictly closer
///   to, mirroring the planner's supersession rule for newly registered
///   subtrees. (Mapped counterparts never take over: their effect on
///   clean entries is already baked into the standing snapshots.)
///
/// Pair selection then ranks every entry by the planner's `(score bits,
/// lo, hi)` key and takes disjoint pairs up to the round limit —
/// the planner's exact selection semantics. Selected pairs whose children
/// both map onto one recorded merge (same orientation) are adopted
/// bit-for-bit; the rest merge fresh. Fresh scans are charged against a
/// work budget of `(64·n + 65536) · max(k, 1)` subtree visits for a
/// k-sink dirty set — the scans are what the dirty cone costs, so the
/// allowance scales with it; exhausting the budget returns `None` (fall
/// back to a full reroute) so flush latency stays bounded even when a
/// replay degenerates.
///
/// This is the flush's merge step: `forest` is the pipeline's fresh
/// forest of `edited` (the edited instance, regrouped like the
/// recording). Returns the surviving root, the loop's counters, and the
/// replay's own script (in the new id space, so flushes chain), and fills
/// `stats`' dirty and replay counters. Returns `None` (fall back to a full
/// reroute) when the sink count drifted from the recording's, or if a
/// round produced no entries (never the case for well-formed recordings,
/// but cheap to guard).
fn replay_merges(
    rec: &Recording,
    forest: &mut MergeForest,
    edited: &Instance,
    plan: &StagePlan,
    stats: &mut EcoStats,
) -> Option<(NodeId, MergeTrace, MergeScript)> {
    let n = edited.sink_count();
    if n != rec.routed.sink_count() {
        return None;
    }
    // The dirty set: sinks whose bits changed.
    let dirty: Vec<bool> = edited
        .sinks()
        .iter()
        .zip(rec.routed.sinks())
        .map(|(a, b)| !sink_bits_equal(a, b))
        .collect();
    stats.dirty_sinks = dirty.iter().filter(|&&d| d).count();
    let topo = &plan.topo;
    let leaves = forest.leaves();
    let mut out = MergeScript::for_forest(forest);
    if n == 1 {
        return Some((leaves[0], MergeTrace::default(), out));
    }

    let std_nodes = rec.forest.node_count();
    // Bidirectional node translation: clean leaves map index-for-index;
    // adopted merges extend the maps as they land.
    let mut std_to_new: Vec<u32> = vec![NO_NODE; std_nodes];
    let mut new_to_std: Vec<u32> = vec![NO_NODE; n];
    for i in 0..n {
        if !dirty[i] {
            std_to_new[i] = i as u32;
            new_to_std[i] = i as u32;
        }
    }
    // Which recorded merge consumed each standing node as a child.
    let mut log_of_child: Vec<u32> = vec![NO_LOG; std_nodes];
    for (li, log) in rec.script.merges.logs().iter().enumerate() {
        log_of_child[log.a as usize] = li as u32;
        log_of_child[log.b as usize] = li as u32;
    }
    // Per-round row lookup over the snapshot (stamped, reused each round).
    let mut row_stamp: Vec<u32> = vec![0; std_nodes];
    let mut row_slot: Vec<u32> = vec![0; std_nodes];

    // Active set with the exact swap_remove discipline both drivers use —
    // active order is what breaks exact score ties, so it must match.
    // `hulls` holds each active subtree's representative region in step
    // with `active`, so the scans below read one dense array.
    let mut active: Vec<usize> = leaves.iter().map(|l| l.index()).collect();
    let mut hulls: Vec<Trr> = leaves
        .iter()
        .map(|&l| forest.representative_region(l))
        .collect();
    let mut pos: Vec<u32> = vec![NO_POS; n];
    for (i, &k) in active.iter().enumerate() {
        pos[k] = i as u32;
    }
    // Per-round planning buffers, cleared and reused every replayed round.
    let mut nn_of: Vec<Option<(usize, f64, u64)>> = Vec::new();
    let mut inherited: Vec<bool> = Vec::new();
    let mut refresh: Vec<usize> = Vec::new();
    let mut novel: Vec<usize> = Vec::new();
    let mut ranked: Vec<(u64, u32, u32)> = Vec::new();
    let mut region_bufs: [Vec<Trr>; 2] = Default::default();

    let mut trace = MergeTrace::default();
    let (mut adopted, mut fresh) = (0usize, 0usize);
    let (mut replayed_rounds, mut planned_rounds) = (0usize, 0usize);
    let mut scan_work: u64 = 0;
    let k_dirty = stats.dirty_sinks as u64;
    let scan_budget: u64 = (64 * n as u64 + 65_536) * k_dirty.max(1);

    let mut round_idx = 0usize;
    while active.len() > 1 {
        let n_present = active.len();
        let snap = rec
            .script
            .rounds
            .get(round_idx)
            .and_then(Option::as_ref)
            .filter(|_| n_present > BRUTE_FORCE_CUTOFF);
        let t = Stopwatch::start();
        let pairs: Vec<(usize, usize)> = match snap {
            None => {
                // Tail rounds (and rounds the recording cannot cover):
                // re-plan from scratch — the reference planner, which the
                // incremental planner is equivalence-tested against.
                planned_rounds += 1;
                out.rounds.push(None);
                let pairs = plan_round(&ForestSpace::new(forest), &active, topo);
                assert!(!pairs.is_empty(), "planner must make progress");
                pairs
            }
            Some(rows) => {
                replayed_rounds += 1;
                let stamp = round_idx as u32 + 1;
                for (ri, row) in rows.iter().enumerate() {
                    if row.key < std_nodes {
                        row_stamp[row.key] = stamp;
                        row_slot[row.key] = ri as u32;
                    }
                }
                nn_of.clear();
                nn_of.resize(n_present, None);
                inherited.clear();
                inherited.resize(n_present, false);
                refresh.clear();
                novel.clear();
                for (ai, &x) in active.iter().enumerate() {
                    let m = new_to_std[x];
                    if m == NO_NODE || row_stamp[m as usize] != stamp {
                        refresh.push(ai);
                        novel.push(ai);
                        continue;
                    }
                    let row = &rows[row_slot[m as usize] as usize];
                    let valid = row.nn.and_then(|(v, rd, score)| {
                        let sv = *std_to_new.get(v)?;
                        if sv == NO_NODE {
                            return None;
                        }
                        let sv = sv as usize;
                        (sv < pos.len() && pos[sv] != NO_POS).then_some((sv, rd, score))
                    });
                    match valid {
                        Some(t) => {
                            nn_of[ai] = Some(t);
                            inherited[ai] = true;
                        }
                        None => refresh.push(ai),
                    }
                }
                scan_work += (refresh.len() + novel.len()) as u64 * n_present as u64;
                if scan_work > scan_budget {
                    return None;
                }
                {
                    let space = ForestSpace::new(forest);
                    // Fresh own-neighbor scans: exact region-distance
                    // argmin, first-wins in active order (the brute-force
                    // planner's tie rule).
                    for &ai in &refresh {
                        let (x, rx) = (active[ai], hulls[ai]);
                        let mut best: Option<(usize, f64)> = None;
                        for (yi, hy) in hulls.iter().enumerate() {
                            if yi == ai {
                                continue;
                            }
                            let d = rx.distance(hy);
                            if best.is_none_or(|(_, bd)| d < bd) {
                                best = Some((yi, d));
                            }
                        }
                        let (vi, rd) = best.expect("two or more active subtrees");
                        let v = active[vi];
                        let exact = space_distance(&space, x, v, &mut region_bufs);
                        let (lo, hi) = if x < v { (x, v) } else { (v, x) };
                        let score = pair_score(topo, space.delay(lo), space.delay(hi), exact);
                        nn_of[ai] = Some((v, rd, score_bits(score)));
                    }
                    // Takeover: a novel subtree strictly closer than an
                    // inherited entry's recorded neighbor supersedes it.
                    for &ci in &novel {
                        let (d, rd_region) = (active[ci], hulls[ci]);
                        for ui in 0..n_present {
                            if ui == ci || !inherited[ui] {
                                continue;
                            }
                            let Some((_, urd, _)) = nn_of[ui] else {
                                continue;
                            };
                            let u = active[ui];
                            let nd = hulls[ui].distance(&rd_region);
                            if nd < urd {
                                let exact = space_distance(&space, u, d, &mut region_bufs);
                                let (lo, hi) = if u < d { (u, d) } else { (d, u) };
                                let (dl, dh) = (space.delay(lo), space.delay(hi));
                                let score = pair_score(topo, dl, dh, exact);
                                nn_of[ui] = Some((d, nd, score_bits(score)));
                            }
                        }
                    }
                }
                // Rank by the planner's (score bits, lo, hi) key and take
                // disjoint pairs up to the round limit. Node indices fit
                // `u32` (the forest packs its ids so), which keeps the keys
                // small to sort.
                let key = |i: usize| u32::try_from(i).expect("node indices fit u32");
                ranked.clear();
                for (ai, &x) in active.iter().enumerate() {
                    let (v, _, score) = nn_of[ai]?;
                    let (lo, hi) = if x < v { (x, v) } else { (v, x) };
                    ranked.push((score, key(lo), key(hi)));
                }
                ranked.sort_unstable();
                ranked.dedup();
                let pairs = select_disjoint(
                    ranked.iter().map(|&(_, a, b)| (a as usize, b as usize)),
                    round_limit(topo.order, n_present),
                );
                if pairs.is_empty() {
                    return None;
                }
                // The replay's own snapshot, in the new id space, so the
                // next flush replays off this route.
                out.rounds.push(Some(
                    active
                        .iter()
                        .enumerate()
                        .map(|(ai, &x)| NnSnapshotRow {
                            key: x,
                            nn: nn_of[ai],
                        })
                        .collect(),
                ));
                pairs
            }
        };
        trace.plan_seconds += t.seconds();

        let t = Stopwatch::start();
        for &(x, y) in &pairs {
            let mx = new_to_std[x];
            let my = new_to_std[y];
            let mut adopted_as: Option<(NodeId, u32)> = None;
            if mx != NO_NODE && my != NO_NODE {
                let li = log_of_child[mx as usize];
                if li != NO_LOG && li == log_of_child[my as usize] {
                    let log = &rec.script.merges.logs()[li as usize];
                    // Orientation matters: merge(a, b) != merge(b, a) in
                    // candidate layout, so only the recorded orientation
                    // reproduces what a from-scratch run would execute.
                    if log.a == mx && log.b == my {
                        if let Some(m) = forest.adopt_merge(
                            NodeId::from_index(x),
                            NodeId::from_index(y),
                            &rec.forest,
                            log,
                            &rec.script.merges,
                            &std_to_new,
                            Some(&mut out.merges),
                        ) {
                            adopted_as = Some((m, log.result));
                        }
                    }
                }
            }
            let m = match adopted_as {
                Some((m, result)) => {
                    adopted += 1;
                    std_to_new[result as usize] = m.index() as u32;
                    m
                }
                None => {
                    fresh += 1;
                    forest.merge_recorded(
                        NodeId::from_index(x),
                        NodeId::from_index(y),
                        &mut out.merges,
                    )
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
            if mk >= pos.len() {
                pos.resize(mk + 1, NO_POS);
            }
            pos[mk] = active.len() as u32;
            active.push(mk);
            hulls.push(forest.representative_region(m));
            if mk >= new_to_std.len() {
                new_to_std.resize(mk + 1, NO_NODE);
            }
            if let Some((_, result)) = adopted_as {
                new_to_std[mk] = result;
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
    Some((NodeId::from_index(active[0]), trace, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AstDme;
    use astdme_engine::EngineConfig;

    /// Sinks scattered by a multiplicative hash over three intermingled
    /// zero-skew groups, whose conflicting windows force offset
    /// adjustment once fusion is off.
    fn scattered(n: usize) -> Instance {
        let sinks: Vec<Sink> = (0..n as u64)
            .map(|i| {
                let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let (x, y) = ((h >> 20) % 4000, (h >> 40) % 4000);
                Sink::new(Point::new(x as f64, y as f64), 1e-14)
            })
            .collect();
        let groups = Groups::from_assignments((0..n).map(|i| i % 3).collect(), 3)
            .and_then(|g| g.with_uniform_bound(0.0))
            .expect("valid groups");
        Instance::new(sinks, groups, RcParams::default(), Point::new(0.0, 4500.0))
            .expect("valid instance")
    }

    /// Without group fusion, offset adjustment appends candidates to
    /// descendants, so the replay re-appends recorded slices and copies
    /// the creation prefix of every grown node. The flush must still equal
    /// a from-scratch route, and moving the sink back must restore the
    /// original tree.
    #[test]
    fn unfused_flush_with_appends_matches_from_scratch() {
        let inst = scattered(120);
        let plan = AstDme::new()
            .with_engine(EngineConfig {
                fuse_groups: false,
                ..EngineConfig::default()
            })
            .plan();
        let mut session = EcoSession::new(&inst, plan).expect("routes");
        let base = session.outcome().clone();
        let rec = session.rec.as_ref().expect("the plan records");
        assert!(
            rec.script
                .merges
                .logs()
                .iter()
                .any(|l| !l.appends.is_empty()),
            "the recording must carry offset-adjustment appends"
        );
        let from = inst.sinks()[5].pos;
        let to = Point::new(from.x + 300.0, from.y - 200.0);
        session.queue(EcoEdit::Move { sink: 5, to });
        let out = session.flush().expect("flushes").clone();
        let fs = session.last_flush();
        assert!(!fs.full_reroute, "must replay, not reroute");
        assert!(fs.adopted_merges > fs.fresh_merges, "{fs:?}");
        let edited = apply_edits(&inst, &[EcoEdit::Move { sink: 5, to }]).expect("valid");
        let want = pipeline::run(&edited, &plan).expect("routes");
        assert_eq!(out.tree, want.tree);
        assert_eq!(out.report, want.report);
        session.queue(EcoEdit::Move { sink: 5, to: from });
        let back = session.flush().expect("flushes back");
        assert_eq!(back.tree, base.tree);
        assert_eq!(back.report, base.report);
    }
}
