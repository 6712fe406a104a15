//! Incremental ECO re-routing: batched sink edits with dirty-region
//! re-planning.
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
//!  │  write-  │   │               (the forest takes the recorded │
//!  │  only)   │   │               leaves, rebuilding dirty ones) │
//!  │          │   │ 3. re-plan   replay recorded rounds; fresh   │
//!  │          │   │               NN scans only for novel nodes  │
//!  │          │   │ 4. splice    adopted merges take recorded    │
//!  └──────────┘   │               lists, dirty cone re-merged;   │
//!                 │               embed copies clean subtrees    │
//!                 │               from the standing tree and     │
//!                 │               walks the dirty cone; then     │
//!                 │               repair / audit                 │
//!                 └──────────────────────────────────────────────┘
//! ```
//!
//! # How the replay works
//!
//! A session's standing route is produced by a **recording** run: per
//! planning round, the incremental planner's nearest-neighbor table is
//! snapshotted ([`astdme_topo::MergePlanner::nn_snapshot`]) and kept in
//! the planner's rank order, the `(score bits, lo, hi)` order it selects
//! the round's pairs in; per merge, the engine appends a
//! [`MergeLog`](astdme_engine::MergeLog) (children, creation candidates,
//! offset-adjustment appends, residual, class-fusion epochs). On `flush`,
//! the edited instance is rerouted against this script:
//!
//! * Clean sinks map leaf-for-leaf onto the standing forest; dirty sinks
//!   (position or load bits changed) get no mapping, which transitively
//!   unmaps exactly their merge-path ancestors — the *dirty cone*.
//! * Each round, a walk over the recorded rows, best first, translates
//!   them into the new ids: subtrees with a standing counterpart in the
//!   round **inherit** the recorded nearest-neighbor entry; subtrees no
//!   row reaches (the dirty cone, and subtrees whose counterpart merged in
//!   another round) run a fresh nearest-neighbor scan and may *take over*
//!   an inherited entry when strictly closer — the same supersession rule
//!   the incremental planner applies to newly registered subtrees.
//! * A second walk merges the recorded order of the unchanged entries
//!   with the few entries the scans changed, sorted on their own, and
//!   takes the round's pairs from it: the planner's selection, with no
//!   round sorting or selecting over all its entries. The merged order is
//!   the replay's own recording of the round, so flushes chain.
//! * Selected pairs whose children both map onto a recorded merge (same
//!   log, same orientation) are **adopted**:
//!   [`MergeForest::adopt_merge`](astdme_engine::MergeForest::adopt_merge)
//!   takes the recorded result's candidate list instead of re-running
//!   candidate-pair expansion. Everything else is merged fresh
//!   (bit-correct by construction).
//!
//! The replay is only the merge step: every session route — creation,
//! replayed flush, full reroute — runs the staged pipeline's one body
//! ([`crate::pipeline`]), so grouping, embedding, repair, validation, the
//! audit, and the fault checkpoints between stages are the pipeline's
//! own, and a flushed session is
//! **bit-identical to a from-scratch route of the edited instance** —
//! same tree, same audit report, at every thread count.
//!
//! The scans are sublinear in `n` for small edit sets: inherited entries
//! cost `O(1)` each, and the fresh scans of a round run as linear sweeps
//! when there are few of them and over one grid of the round's subtrees
//! when there are many. The rest of a flush is linear in `n`, with small
//! constants: each replayed round walks its recorded rows twice, every
//! clean merge is adopted one by one, the embed copies each clean
//! subtree's range, and the audit reads every routed node. So update
//! latency is linear in `n` for any edit set; a one-sink move at
//! n = 16 000 costs about a ninth of a from-scratch route.
//!
//! # A flush consumes its recording
//!
//! The standing recording serves exactly one flush. The flush compares
//! the edited instance with the standing one once, into the list of dirty
//! sinks (empty: a no-op; none: a structural edit), and takes the
//! recording out of the session before it routes. Its lifecycle in the
//! flush:
//!
//! 1. **Leaves.** The new forest takes the recorded forest's leaf store
//!    ([`MergeForest::take_leaves`]): a recorded forest never freezes a
//!    merge node, so its store holds exactly one leaf per sink. The dirty
//!    sinks' candidates are rewritten in place and every clean leaf node
//!    is copied, so a one-sink move builds one leaf
//!    ([`EcoStats::dirty_sinks`]) where a fresh forest would build `n`
//!    and the old forest's `n` would then be freed. If the recorded
//!    leaves are not in that layout, the replay declines and the flush
//!    reroutes.
//! 2. **Merges.** Adoption moves each clean merge's candidate list out of
//!    the recorded forest into the new one instead of sharing it: the old
//!    forest is thrown away after the flush, so sharing would only cost a
//!    reference count per list, once to take it and once to drop it.
//! 3. **Rounds.** Each replayed round writes the replay's own rows into
//!    the recorded round's buffer.
//! 4. **Drop.** What is left of the recorded forest (its node array, and
//!    the lists adoption copied instead of taking) is freed when the
//!    flush ends. Keeping it as the next flush's spare would skip that
//!    free, but the spare would outlive the flush and raise the session's
//!    peak memory.
//!
//! A successful flush leaves its own recording for the next. A flush that
//! fails while routing leaves the session's outcome as it was but no
//! recording, and the next flush reroutes from scratch and records
//! again.
//!
//! # When a flush reroutes instead
//!
//! The session falls back to a full reroute when the edit changes the
//! instance structurally (sink count, group shape, or RC technology),
//! when the plan records no replay, and when a replay turns out dearer
//! than the reroute. The last is decided on price, in one deterministic
//! unit: a *visit*, one hull-distance evaluation of a replay scan. The
//! replay counts the visits it makes ([`EcoStats::scan_visits`]) and
//! declines once they pass what a from-scratch route of the `n` sinks
//! costs in visits, a price that depends on `n` alone. The edit count
//! does not enter: a one-sink move whose dirty cone runs long replays,
//! and so does a large batch whose scans stay local, while a flush whose
//! scans degrade toward all pairs (an edit storm that piles sinks onto
//! one spot) falls back after spending about one route's worth.
//!
//! Exact distance ties, routine on lattice placements, cost a replay no
//! decline: it breaks them as the planner does, smallest node key first,
//! and re-scans a recorded neighbor that won its tie by key order.
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
use astdme_engine::{EmbedMap, GroupId, Groups, Instance, MergeForest, RoutedTree, Sink, Standing};
use astdme_geom::Point;
use astdme_topo::MergeOrder;

use crate::drivers::{merge_until_one_traced, MergeScript};
use crate::pipeline::{self, MergeStage, Merged, RouteOutcome, Run, StagePlan};
use crate::RouteError;

mod replay;
mod scan;

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
    /// A replayed flush builds exactly these sinks' leaves and takes the
    /// rest from the recording it consumes (see
    /// [`MergeForest::take_leaves`]); a full reroute builds all `n`.
    pub dirty_sinks: usize,
    /// Merges satisfied by adopting a recorded merge bit-for-bit.
    pub adopted_merges: usize,
    /// Merges recomputed fresh (the dirty cone).
    pub fresh_merges: usize,
    /// Routed nodes the embed copied from the standing tree instead of
    /// walking them: the nodes below each pristine subtree root that the
    /// walk reached as the standing embedding did (see
    /// [`astdme_engine::Standing`]). Deterministic for a given session
    /// and batch; zero on a full reroute.
    pub reused_nodes: usize,
    /// Planning rounds replayed against the recorded nearest-neighbor
    /// snapshots.
    pub replayed_rounds: usize,
    /// Planning rounds re-planned from scratch (brute-force tail rounds
    /// and rounds the recording could not cover).
    pub planned_rounds: usize,
    /// The replay's scan work, in visits: one per hull-distance
    /// evaluation of its nearest-neighbor and takeover scans, whether a
    /// round sweeps linearly or queries a grid. Deterministic for a given
    /// session and batch. The replay declines once this passes what a
    /// from-scratch route costs in the same unit (see the
    /// [module docs](self)); a declined replay's visits are counted too.
    pub scan_visits: u64,
    /// Whether the flush fell back to a full pipeline reroute: a
    /// structural edit, a plan without replay, or a declined replay.
    pub full_reroute: bool,
    /// Whether the batch was a net no-op (standing tree returned
    /// unchanged, by reference).
    pub noop: bool,
    /// Wall-clock seconds of the whole flush.
    pub seconds: f64,
}

/// Everything a flush needs to replay the standing route, besides the
/// session's instance it routed: its merge forest, the replay script,
/// and where the embed put each forest node. The last lets the next
/// flush's embed copy each subtree the replay marks pristine from the
/// standing tree instead of walking it (see [`astdme_engine::Standing`]).
/// One flush consumes it: the replay takes the leaf store and candidate
/// lists out of its forest.
struct Recording {
    forest: MergeForest,
    script: MergeScript,
    /// The standing tree's embed map; `None` when repair changed the
    /// tree after the embed, so its wires are not the embed's.
    embedding: Option<EmbedMap>,
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
    /// discards the batch and leaves the standing route unchanged. A flush
    /// that fails while routing (a stage error or an injected fault) has
    /// already consumed the session's recording, which its replay takes
    /// candidate lists from: the session keeps its outcome but no
    /// recording, so the next flush reroutes from scratch
    /// ([`EcoStats::full_reroute`]) and records again.
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
        let dirty = dirty_sinks(&edited, &self.inst);
        if dirty.as_ref().is_some_and(Vec::is_empty) {
            stats.noop = true;
            stats.seconds = t0.seconds();
            self.last_flush = stats;
            return Ok(&self.outcome);
        }
        stats.dirty_sinks = dirty.as_ref().map_or(edited.sink_count(), Vec::len);
        // The flush consumes the recording: the replay moves its leaf
        // store and candidate lists out of it, and a successful flush
        // records afresh.
        let mut standing = self.rec.take();
        let standing = standing.as_mut().map(|rec| (rec, &self.outcome.tree));
        let (outcome, rec) = route_edited(&self.plan, standing, &edited, dirty, &mut stats)?;
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

/// The sinks of `edited` whose position or load bits differ from
/// `standing`'s, ascending, or `None` when the edit is structural: the
/// sink count, group assignment, group bounds or RC technology changed.
/// The one comparison of the two instances a flush makes: an empty list
/// is a net no-op, and the replay and its forest work from the list.
fn dirty_sinks(edited: &Instance, standing: &Instance) -> Option<Vec<usize>> {
    let n = edited.sink_count();
    let (ge, gs) = (edited.groups(), standing.groups());
    let structural = n != standing.sink_count()
        || ge.group_count() != gs.group_count()
        || (0..n).any(|i| ge.group_of(i) != gs.group_of(i))
        || !bits_equal(ge.bounds(), gs.bounds())
        || !rc_bits_equal(edited.rc(), standing.rc());
    (!structural).then(|| {
        let pairs = edited.sinks().iter().zip(standing.sinks());
        pairs
            .enumerate()
            .filter(|(_, (a, b))| !sink_bits_equal(a, b))
            .map(|(i, _)| i)
            .collect()
    })
}

/// Applies the batch sequentially to the standing instance and rebuilds a
/// validated [`Instance`]. Bounds and the source are preserved.
fn apply_edits(standing: &Instance, edits: &[EcoEdit]) -> Result<Instance, RouteError> {
    let mut sinks = standing.sinks().to_vec();
    // Only inserts and deletes change the group assignment: the first one
    // copies it out, and without one the standing groups are kept.
    let mut assignment: Option<Vec<usize>> = None;
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
                assignment
                    .get_or_insert_with(|| standing.groups().assignment())
                    .push(group.index());
            }
            EcoEdit::Delete { sink } => {
                if sink >= sinks.len() {
                    return Err(bad_edit(i, "deletes", sink, sinks.len()));
                }
                sinks.remove(sink);
                assignment
                    .get_or_insert_with(|| standing.groups().assignment())
                    .remove(sink);
            }
            EcoEdit::RetuneRc(params) => rc = params,
        }
    }
    let groups = match assignment {
        Some(assignment) => Groups::from_assignments(assignment, group_count)?
            .with_bounds(standing.groups().bounds().to_vec())?,
        None => standing.groups().clone(),
    };
    Ok(Instance::new(sinks, groups, rc, standing.source())?)
}

fn bad_edit(i: usize, verb: &str, sink: usize, len: usize) -> RouteError {
    RouteError::BadParameter(format!(
        "ECO edit {i} {verb} out-of-range sink {sink} (instance has {len})"
    ))
}

/// Routes the edited instance: replays the standing recording (and its
/// tree, which the embed copies clean subtrees from) when the edit is not
/// structural (`dirty` lists the changed sinks), and falls back to a full
/// reroute when there is no recording or the replay declines.
fn route_edited(
    plan: &StagePlan,
    standing: Option<(&mut Recording, &RoutedTree)>,
    edited: &Instance,
    dirty: Option<Vec<usize>>,
    stats: &mut EcoStats,
) -> Result<(RouteOutcome, Option<Recording>), RouteError> {
    if let (Some(dirty), Some((rec, tree))) = (dirty, standing) {
        let mut script = None;
        let run =
            pipeline::run_with(edited, plan, |routed, _| {
                let replayed = replay::replay_merges(&mut *rec, routed, &dirty, plan, stats)?;
                script = Some(replayed.script);
                // The replay is done taking lists; the embed reads the
                // recording's map for the rest of the run.
                let rec: &Recording = rec;
                let standing = rec.embedding.as_ref().zip(replayed.copyable).map(
                    |(map, (to_new, pristine))| Standing {
                        tree,
                        map,
                        to_new,
                        pristine,
                    },
                );
                Some(Merged {
                    forest: replayed.forest,
                    root: replayed.root,
                    trace: replayed.trace,
                    record: true,
                    standing,
                })
            })?;
        if let Some(run) = run {
            stats.reused_nodes = run.reused_nodes;
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
    let run = pipeline::run_with(inst, plan, |routed, model| {
        let mut forest = MergeForest::for_instance_with_model(routed, model, plan.engine);
        let mut recording = MergeScript::for_forest(&forest);
        let leaves = forest.leaves();
        let (root, trace) =
            merge_until_one_traced(&mut forest, leaves, &plan.topo, Some(&mut recording));
        script = Some(recording);
        Some(Merged {
            record: true,
            ..Merged::plain(forest, root, trace)
        })
    })?;
    Ok(recorded(
        run.expect("fresh planning never declines"),
        script,
    ))
}

/// Splits a pipeline run into its outcome and the recording the next
/// flush replays.
fn recorded(run: Run, script: Option<MergeScript>) -> (RouteOutcome, Option<Recording>) {
    let recording = script.map(|script| Recording {
        forest: run.forest,
        script,
        embedding: run.embedding,
    });
    (run.outcome, recording)
}

#[cfg(test)]
mod tests;
