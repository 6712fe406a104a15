//! The merge forest: bottom-up subtree merging with group-aware skew
//! feasibility, snaking, and offset adjustment.
//!
//! This implements the body of the AST-DME algorithm (Kim 2006, Fig. 6).
//! The four cases distinguished there fall out of the shared-group
//! structure of the two children's [`DelayMap`]s:
//!
//! | paper case | shared groups | behaviour here |
//! |---|---|---|
//! | same group (step 4) | all, windows overlap | classic DME/BST split |
//! | different groups (step 5) | none | SDR: every split `[0, D]` feasible |
//! | share one group (step 6) | some, windows overlap | constrained window |
//! | share several groups (step 7) | some, windows conflict | offset adjustment (wire sneaking, Eqs. 5.1–5.3) |
//!
//! plus wire snaking whenever the feasible δ-window is out of reach at the
//! geometric distance (the classic detour case of exact zero-skew routing).
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`mod@self`] | [`MergeForest`]: construction, accessors, the `merge` orchestration (rank → expand → commit → prune/fuse → freeze → exact-size node) |
//! | `node` | [`NodeId`], the per-node candidate lists (shared and copy-on-write while live, a frozen run once consumed) and cached hull / max-delay / finiteness summaries |
//! | `frozen` | the chunked store consumed nodes are compacted into, and the compaction itself |
//! | `context` | `MergeCtx` (the immutable expansion view), the candidate `Overlay`, the `Scratch` buffers a merge reuses |
//! | `expand` | expansion into the scratch candidate list, the in-place overlay-replay commit, candidate pruning |
//! | `pairing` | shared-constraint assembly, pair-cost estimation, the bounded cheapest-first pair ranking |
//! | `cases` | the Fig. 6 case analysis: feasible splits, snaking, best-effort fallback |
//! | `class` | `ClassState` (group classes, prescribed offsets, per-group bounds) and class fusing (steps 6–7) |
//! | `offset` | recursive offset adjustment / wire sneaking |
//! | `embed` | top-down embedding of a finished root into a [`RoutedTree`] |
//!
//! # One merge, one allocation
//!
//! A merge works in the forest's `Scratch` and allocates once, for the
//! new node's candidate list:
//!
//! 1. **Rank** — `rank_pairs` prices the `pair_limit` nearest
//!    child-candidate pairs, then every other pair whose region distance,
//!    a lower bound on its cost, could still enter the top `pair_limit`.
//!    The result is exactly that of stably sorting every pair's cost;
//!    nodes or class state carrying a non-finite value price every pair.
//! 2. **Expand** — each ranked pair appends its merged candidates to the
//!    one scratch candidate list.
//! 3. **Commit** — overlays replay onto their nodes and provenance is
//!    remapped in place in that list; `prune` then sorts, dedups and
//!    truncates it, the kept candidates get their delay maps, and class
//!    fusion filters it. An overlay that appends to a frozen node thaws it
//!    into a live list, copy-on-write.
//! 4. **Freeze** — the two children are consumed: unless the merge is
//!    recorded, each child's candidates that the kept ones reference are
//!    moved, in order, into the forest's frozen store (copied only when a
//!    cloned forest shares the list), the kept candidates' provenance is
//!    remapped to the compacted positions, and the child's live list is
//!    freed. The store grows in fixed-size chunks, one allocation per 512
//!    frozen candidates, so freezing adds no per-merge allocation. Leaves
//!    are born in the store, so a forest allocates no list per sink
//!    either.
//! 5. The new node takes the kept candidates in an exact-size shared
//!    slice, so a root holds its candidates' bytes and no spare capacity;
//!    a cloned forest shares the list instead of copying it, and an
//!    adopted merge (see `record`) takes it from the recorded forest.
//!
//! A finished forest therefore holds the root's candidates plus, for
//! every other node, only the candidates its parent references (about a
//! third of those it was created with): the rest can never be reached by
//! the top-down embedding. A recorded forest keeps whole lists (see
//! `record` for why).
//!
//! The new node's allocation is sized by the candidate layout (see
//! `candidate`): 144 B per candidate, of which the delay map takes 72 B
//! inline (up to four groups with ids below 256) and the provenance 24 B
//! (`u32` child-candidate indices plus the two wire lengths; a leaf is
//! known by its node, not by its candidates).
//!
//! A larger map spills to a heap list. Expansion leaves a merge's own
//! candidates without maps; after `prune`, each kept candidate gets its
//! map in one pass (`DelayMap::shifted_merge`) from the committed child
//! candidates its provenance names. So only a *kept* candidate with a
//! spilled map costs one more allocation (the ≈40% `prune` drops cost
//! none), and freezing moves a kept one's list into the store instead of
//! cloning it. Offset adjustment's overlay candidates are built whole,
//! because later expansions read their maps.
//!
//! # Borrow discipline
//!
//! [`MergeForest::merge`] never hands `&mut self` to the case analysis.
//! Instead it builds a `MergeCtx` — shared borrows of the node table,
//! delay model, config and class state — and expands each ranked
//! candidate pair against it. Anything an expansion *derives* (offset
//! adjustment re-deriving child candidates) goes into the context's
//! private overlay. Expansions only ever read state that predates the
//! merge call, so they are independent of each other and of the order
//! they run in; the commit replays the overlays in ranked order, so the
//! result is a function of the ranking alone. Parallelism lives one level
//! up, across whole instances (the fleet): a merge is one link in a chain
//! of dependent merges and is too small to split. See `context` for
//! details.

use std::sync::Arc;

use astdme_delay::DelayModel;
use astdme_geom::{Point, Trr};

use crate::{CandKind, Candidate, DelayMap, EngineConfig, GroupId, Instance};

mod cases;
mod class;
mod context;
mod embed;
mod expand;
mod frozen;
mod node;
mod offset;
mod pairing;
mod record;

pub use embed::{EmbedMap, Embedding, Standing};
pub use node::NodeId;
pub use record::{MergeLog, MergeRecording, NO_NODE};

use class::ClassState;
use context::{MergeCtx, Scratch};
use frozen::{FrozenStore, Run};
use node::{Cands, Node};

/// Bottom-up merge state for one routing run.
///
/// Leaves are created first (one per sink); [`MergeForest::merge`] combines
/// two subtrees into a new one, enforcing every shared group's skew bound;
/// [`MergeForest::embed`] turns the finished root into a
/// [`RoutedTree`](crate::RoutedTree).
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct MergeForest {
    nodes: Vec<Node>,
    /// The compacted candidate runs of frozen (consumed) nodes.
    store: FrozenStore,
    model: DelayModel,
    cfg: EngineConfig,
    leaves: usize,
    residual: f64,
    /// Group classes, their prescribed offsets and the per-group bounds.
    classes: ClassState,
    scratch: Scratch,
}

impl MergeForest {
    /// Creates an empty forest for a given delay model and per-group skew
    /// bounds (seconds, indexed by group).
    pub fn new(model: DelayModel, bounds: Vec<f64>, cfg: EngineConfig) -> Self {
        Self {
            nodes: Vec::new(),
            store: FrozenStore::default(),
            model,
            cfg,
            leaves: 0,
            residual: 0.0,
            classes: ClassState::new(bounds),
            scratch: Scratch::default(),
        }
    }

    /// Creates a forest for `inst` using its RC technology under the Elmore
    /// model, with one leaf per sink.
    pub fn for_instance(inst: &Instance, cfg: EngineConfig) -> Self {
        Self::for_instance_with_model(inst, DelayModel::elmore(*inst.rc()), cfg)
    }

    /// Like [`MergeForest::for_instance`] but with an explicit delay model
    /// (e.g. [`DelayModel::Pathlength`] for the ablation of Ch. III).
    pub fn for_instance_with_model(inst: &Instance, model: DelayModel, cfg: EngineConfig) -> Self {
        let mut f = Self::new(model, inst.groups().bounds().to_vec(), cfg);
        // A route over n sinks ends with 2n − 1 nodes.
        f.nodes
            .reserve_exact((2 * inst.sink_count()).saturating_sub(1));
        for (i, s) in inst.sinks().iter().enumerate() {
            f.add_leaf(i, s.pos, s.cap, inst.group_of(i));
        }
        f
    }

    /// A forest with one leaf per sink of `inst`, bit-identical to
    /// [`MergeForest::for_instance_with_model`] under `std`'s model and
    /// config, whose leaves come from `std` instead of a second store.
    ///
    /// `std` is a forest over the same sinks that has frozen nothing but
    /// its leaves, as a recorded forest never freezes a merge node (see
    /// `record`); its leaves were built for an instance that differs from
    /// `inst` only at the sinks `dirty` lists, ascending (position or
    /// load). The new forest moves `std`'s frozen store, which then holds
    /// exactly the leaves, one run per sink in sink order, copies every
    /// leaf node, and rewrites the dirty sinks' candidates and nodes. It
    /// also takes `std`'s scratch buffers.
    ///
    /// `std` keeps its merge nodes, for adoption; its frozen leaves read
    /// as empty from then on. Returns `None` when `std`'s leaf or group
    /// count is not `inst`'s, or its store or leaf nodes are not the
    /// frozen leaves `n` calls of `add_leaf` lay out (offset adjustment
    /// never appends to a leaf, which has one group, so a route leaves
    /// them so). Some of `std`'s leaves may then read as empty already:
    /// discard it and build the forest fresh.
    pub fn take_leaves(
        std: &mut MergeForest,
        inst: &Instance,
        dirty: &[usize],
    ) -> Option<MergeForest> {
        let n = inst.sink_count();
        let bounds = inst.groups().bounds();
        if std.leaves != n
            || std.nodes.len() < n
            || std.classes.bounds().len() != bounds.len()
            || !std.store.holds_leaves(n)
        {
            return None;
        }
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty ascends");
        let mut nodes = Vec::with_capacity((2 * n).saturating_sub(1));
        for (i, leaf) in std.nodes[..n].iter_mut().enumerate() {
            nodes.push(leaf.leaf_copy(i, Run::leaf(i))?);
            leaf.cands = Cands::Frozen(Run::EMPTY);
        }
        let mut store = std::mem::replace(&mut std.store, FrozenStore::emptied());
        for &i in dirty {
            let s = &inst.sinks()[i];
            let cand = leaf_candidate(s.pos, s.cap, inst.group_of(i));
            nodes[i] = Node::leaf(Run::leaf(i), &cand, i);
            *store.leaf_mut(i) = cand;
        }
        debug_assert!(
            inst.sinks().iter().enumerate().all(|(i, s)| {
                store.get(Run::leaf(i))[0] == leaf_candidate(s.pos, s.cap, inst.group_of(i))
            }),
            "every sink outside `dirty` keeps its leaf candidate"
        );
        Some(Self {
            nodes,
            store,
            model: std.model,
            cfg: std.cfg,
            leaves: n,
            residual: 0.0,
            classes: ClassState::new(bounds.to_vec()),
            scratch: std::mem::take(&mut std.scratch),
        })
    }

    /// The expansion view of the current forest state: shared borrows of
    /// everything the case analysis reads, plus a fresh overlay. See the
    /// module docs for the borrow discipline.
    pub(crate) fn ctx(&self) -> MergeCtx<'_> {
        MergeCtx::new(self)
    }

    /// Adds a leaf subtree for sink `sink_idx` and returns its node.
    pub fn add_leaf(&mut self, sink_idx: usize, pos: Point, cap: f64, group: GroupId) -> NodeId {
        debug_assert!(
            group.index() < self.classes.bounds().len(),
            "group {group} has no declared bound"
        );
        let id = NodeId(self.nodes.len());
        let run = self
            .store
            .freeze(1, std::iter::once(leaf_candidate(pos, cap, group)));
        let leaf = Node::leaf(run, &self.store.get(run)[0], sink_idx);
        self.nodes.push(leaf);
        self.leaves += 1;
        id
    }

    /// Node ids of all leaves, in insertion order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.sink().is_some())
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// The candidates of a node.
    ///
    /// A root exposes every candidate it keeps. Once an unrecorded merge
    /// consumes a node, it exposes only the candidates that merge's
    /// candidates reference, in their original order, and the parent's
    /// provenance indices count within that compacted list (plus anything
    /// later offset adjustment appends). A recorded forest
    /// ([`MergeForest::merge_recorded`]) keeps every list whole.
    pub fn candidates(&self, id: NodeId) -> &[Candidate] {
        self.list(id)
    }

    fn list(&self, id: NodeId) -> &[Candidate] {
        self.nodes[id.0].list(&self.store)
    }

    /// The children of a node, if it is a merge.
    pub fn children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        self.nodes[id.0].children()
    }

    /// A representative region for neighbor queries: the hull of the node's
    /// candidate regions (TRRs are closed under hull). O(1): the hull is
    /// maintained as candidates are created, never recomputed — the
    /// incremental planner queries this every round.
    pub fn representative_region(&self, id: NodeId) -> Trr {
        self.nodes[id.0].hull
    }

    /// The largest root-to-sink delay among a node's candidates (used by
    /// the delay-target merging-order enhancement, Ch. V.F). O(1): cached
    /// at candidate creation like [`MergeForest::representative_region`].
    pub fn max_delay(&self, id: NodeId) -> f64 {
        self.nodes[id.0].max_delay
    }

    /// Worst skew-bound violation accepted so far (seconds); zero on any
    /// instance the engine solved exactly. Non-zero values indicate an
    /// irreconcilable offset conflict that even wire sneaking could not
    /// repair (see module docs) and are surfaced by the audit as well.
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Number of nodes (leaves + merges) created so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Gives each kept candidate of the merge of `a` and `b` its delay map,
    /// from the committed child candidates its provenance names (commit
    /// has remapped those indices to final positions, overlay appends
    /// included). The maps are the bits expansion would have built.
    fn fill_delays(&self, a: NodeId, b: NodeId, cands: &mut [Candidate]) {
        let (la, lb) = (self.list(a), self.list(b));
        for c in cands {
            let (ca, cb) = (&la[c.kind.cand_a as usize], &lb[c.kind.cand_b as usize]);
            c.delays = cases::merged_delays(&self.model, &c.kind, ca, cb);
        }
    }

    /// Merges subtrees `a` and `b` into a new subtree, satisfying every
    /// shared group's skew bound, snaking or adjusting offsets as needed.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is stale.
    pub fn merge(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.merge_impl(a, b, None)
    }

    /// The merge body, optionally recording a [`MergeLog`] into `rec` (see
    /// [`MergeForest::merge_recorded`]). The recorded and unrecorded paths
    /// run the same operations in the same order, so recording never
    /// changes a routed bit.
    fn merge_impl(&mut self, a: NodeId, b: NodeId, mut rec: Option<&mut MergeRecording>) -> NodeId {
        assert!(a != b, "cannot merge a node with itself");
        // Rank child-candidate pairs by estimated merge cost (distance plus
        // forced snaking / conflict-resolution cost); expand the best few
        // into the scratch candidate list and commit them in place.
        let mut scratch = std::mem::take(&mut self.scratch);
        let bounded = self.ranking_is_bounded(a, b);
        self.ctx().rank_pairs(a, b, bounded, &mut scratch);
        self.expand_pairs(a, b, &mut scratch);
        let (worst_residual, appends) = self.commit_expansions(a, b, &mut scratch, rec.is_some());
        if scratch.cands.is_empty() {
            // All pairs failed even best-effort: should be unreachable, but
            // degrade gracefully with the closest pair at face value.
            let (_, ia, ib) = scratch.ranked[0];
            let d = self.list(a)[ia].region.distance(&self.list(b)[ib].region);
            let half = 0.5 * d;
            let fallback = self.ctx().expanded_candidate(a, b, ia, ib, half, d - half);
            scratch.cands.push(fallback);
        }
        Self::prune(&mut scratch.cands, self.cfg.max_candidates);
        self.fill_delays(a, b, &mut scratch.cands);
        self.residual = self.residual.max(worst_residual);
        let epoch_before = rec.as_ref().map_or(0, |r| r.epoch());
        if self.cfg.fuse_groups {
            self.fuse_classes(&mut scratch);
        }
        let epoch_after = rec
            .as_mut()
            .map_or(epoch_before, |r| r.note_class_state(&self.classes));
        // Unrecorded, the children freeze to the candidates the kept ones
        // reference; a recorded forest keeps whole lists, because an ECO
        // flush may freshly merge an adopted child and needs its creation
        // list.
        if rec.is_none() {
            self.freeze_children(a, b, &mut scratch);
        }
        // The node takes exactly the kept candidates (one exact-size
        // allocation per merge); the scratch list keeps its capacity.
        let cands: Arc<[Candidate]> = scratch.cands.drain(..).collect();
        self.scratch = scratch;
        let id = NodeId(self.nodes.len());
        let creation_len = cands.len();
        self.nodes.push(Node::new(cands, Some((a, b)), None));
        if let Some(r) = rec {
            r.logs.push(MergeLog {
                a: a.0 as u32,
                b: b.0 as u32,
                result: id.0 as u32,
                creation_len: creation_len as u32,
                appends,
                residual: worst_residual,
                epoch_before: epoch_before as u32,
                epoch_after: epoch_after as u32,
            });
        }
        id
    }
}

/// The one candidate of a leaf at `pos` with load `cap` in `group`.
fn leaf_candidate(pos: Point, cap: f64, group: GroupId) -> Candidate {
    Candidate {
        region: Trr::from_point(pos),
        delays: DelayMap::leaf(group),
        cap,
        wirelen: 0.0,
        kind: CandKind::LEAF,
    }
}

#[cfg(test)]
mod tests;
