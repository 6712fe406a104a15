//! Forest nodes: stable ids, per-node candidate storage (live or frozen),
//! and the cached hull / max-delay / finiteness summaries the incremental
//! planner and the bounded pair ranking query every merge.

use std::sync::Arc;

use astdme_geom::Trr;

use crate::Candidate;

use super::frozen::{FrozenStore, Run};

/// Identifier of a subtree (node) in a [`MergeForest`](crate::MergeForest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in creation order (leaves first).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from an index previously obtained via
    /// [`NodeId::index`]. Using indices from a different forest yields
    /// stale ids, which panic on use.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Self(i)
    }
}

/// Sentinel of the packed `u32` child and sink ids: none.
const NONE: u32 = u32::MAX;

/// Packs an index into a `u32` id; indices must stay below the sentinel.
fn pack(i: usize) -> u32 {
    assert!(i < NONE as usize, "forest indices must fit u32");
    i as u32
}

fn unpack(id: u32) -> Option<usize> {
    (id != NONE).then_some(id as usize)
}

/// Where a node's candidate list lives.
#[derive(Debug, Clone)]
pub(crate) enum Cands {
    /// An immutable shared list: every merge root, every merge node of a
    /// recorded forest, and a frozen node an append thawed. A cloned
    /// forest points at the list it copies from instead of copying it,
    /// and an adopted merge takes the recorded node's list (see
    /// `record`).
    Live(Arc<[Candidate]>),
    /// A run of the forest's [`FrozenStore`]: a consumed node compacted to
    /// the candidates its parent references, or a leaf (see `frozen`).
    Frozen(Run),
}

/// One subtree: its candidate set plus provenance and cached summaries.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// The candidate list. Appends (offset adjustment) replace it
    /// copy-on-write with a live list, frozen or not.
    pub(crate) cands: Cands,
    /// Child node indices (`NONE` on leaves). The ids are packed as `u32`
    /// so the node shrinks by more than the shared list's header adds.
    children: [u32; 2],
    /// Sink index of a leaf (`NONE` on merges).
    sink: u32,
    /// Hull of all candidate regions, maintained incrementally: candidates
    /// are only ever *added* to an existing node (offset adjustment), and
    /// hulls are monotone under insertion, so this never needs a rescan.
    /// Freezing does not shrink it: like `max_delay` and `finite` it
    /// describes the list the node was created with plus its appends. The
    /// planner and the pair ranking only query roots, which are never
    /// frozen, so no query sees the difference.
    pub(crate) hull: Trr,
    /// Largest root-to-sink delay over all candidates, maintained the same
    /// way. Both fields exist so the planner's per-round queries are O(1)
    /// instead of O(candidates).
    pub(crate) max_delay: f64,
    /// Whether every candidate's region, load and delay ranges are finite,
    /// maintained the same way. The bounded pair ranking relies on finite
    /// inputs (see `pairing`); a node that ever carried a NaN or infinity
    /// sends its merges down the price-every-pair fallback.
    pub(crate) finite: bool,
    /// Whether an unrecorded merge has taken this node as a child (see
    /// `MergeForest::freeze_children`).
    consumed: bool,
}

/// A route holds two nodes per sink; freezing must not grow them.
const _: () = assert!(std::mem::size_of::<Node>() <= 72);

impl Node {
    /// A node owning the live list `cands`.
    pub(crate) fn new(
        cands: Arc<[Candidate]>,
        children: Option<(NodeId, NodeId)>,
        sink: Option<usize>,
    ) -> Self {
        let summary = summarize(&cands);
        Self::from_parts(Cands::Live(cands), summary, children, sink)
    }

    /// A leaf whose one candidate `cand` is stored as the frozen run
    /// `run`. A leaf is born frozen: a parent always references its only
    /// candidate, so consuming it compacts nothing.
    pub(crate) fn leaf(run: Run, cand: &Candidate, sink: usize) -> Self {
        let summary = summarize(std::slice::from_ref(cand));
        Self::from_parts(Cands::Frozen(run), summary, None, Some(sink))
    }

    /// A copy of this node for a forest whose store holds the same leaf
    /// candidate at `run`, when the node is still the frozen leaf of
    /// `sink` that [`Node::leaf`] made there: not thawed by an append, not
    /// a merge.
    pub(crate) fn leaf_copy(&self, sink: usize, run: Run) -> Option<Self> {
        let pristine =
            matches!(self.cands, Cands::Frozen(r) if r == run) && unpack(self.sink) == Some(sink);
        pristine.then_some(Self {
            cands: Cands::Frozen(run),
            consumed: false,
            ..*self
        })
    }

    fn from_parts(
        cands: Cands,
        (hull, max_delay, finite): (Trr, f64, bool),
        children: Option<(NodeId, NodeId)>,
        sink: Option<usize>,
    ) -> Self {
        Self {
            cands,
            children: children.map_or([NONE; 2], |(a, b)| [pack(a.0), pack(b.0)]),
            sink: sink.map_or(NONE, pack),
            hull,
            max_delay,
            finite,
            consumed: false,
        }
    }

    /// A merge node that takes `src`'s candidate list and the cached
    /// summaries that describe exactly that list, leaving `src` an empty
    /// frozen run (see [`Run::EMPTY`]).
    pub(crate) fn taking(src: &mut Node, (a, b): (NodeId, NodeId)) -> Self {
        Self {
            cands: std::mem::replace(&mut src.cands, Cands::Frozen(Run::EMPTY)),
            children: [pack(a.0), pack(b.0)],
            sink: NONE,
            hull: src.hull,
            max_delay: src.max_delay,
            finite: src.finite,
            consumed: false,
        }
    }

    /// The candidate list, wherever it lives.
    pub(crate) fn list<'a>(&'a self, store: &'a FrozenStore) -> &'a [Candidate] {
        match &self.cands {
            Cands::Live(list) => list,
            Cands::Frozen(run) => store.get(*run),
        }
    }

    /// Marks the node consumed by an unrecorded merge; returns whether
    /// this is its first such consumption.
    pub(crate) fn consume(&mut self) -> bool {
        !std::mem::replace(&mut self.consumed, true)
    }

    /// The children of a merge node.
    pub(crate) fn children(&self) -> Option<(NodeId, NodeId)> {
        let [a, b] = self.children;
        Some((NodeId(unpack(a)?), NodeId(unpack(b)?)))
    }

    /// The sink of a leaf.
    pub(crate) fn sink(&self) -> Option<usize> {
        unpack(self.sink)
    }

    /// Appends a run of candidates, keeping the cached hull/delay exact.
    /// The list is shared or frozen, so this builds its live successor:
    /// one exact-size allocation when `added` is a drain or a cloned slice
    /// (the collect knows the length up front). A frozen node's run stays
    /// behind in the store, unreferenced. Callers batch every append a
    /// node receives in one commit or adoption into one call.
    pub(crate) fn extend_candidates(
        &mut self,
        store: &FrozenStore,
        added: impl Iterator<Item = Candidate>,
    ) {
        let old = self.list(store);
        let len = old.len();
        let list: Arc<[Candidate]> = old.iter().cloned().chain(added).collect();
        for c in &list[len..] {
            self.hull = self.hull.hull(&c.region);
            self.max_delay = self.max_delay.max(cand_max_delay(c));
            self.finite &= cand_finite(c);
        }
        self.cands = Cands::Live(list);
    }
}

/// The cached summaries of a fresh list: its hull, largest delay and
/// finiteness.
fn summarize(cands: &[Candidate]) -> (Trr, f64, bool) {
    debug_assert!(!cands.is_empty(), "nodes always carry a candidate");
    let mut hull = cands[0].region;
    for c in &cands[1..] {
        hull = hull.hull(&c.region);
    }
    let max_delay = cands.iter().map(cand_max_delay).fold(0.0, f64::max);
    (hull, max_delay, cands.iter().all(cand_finite))
}

pub(crate) fn cand_max_delay(c: &Candidate) -> f64 {
    c.delays.overall_range().map_or(0.0, |r| r.hi)
}

/// Whether everything a pair-cost estimate reads from `c` is finite.
fn cand_finite(c: &Candidate) -> bool {
    let (u, v) = (c.region.u(), c.region.v());
    [u.lo(), u.hi(), v.lo(), v.hi(), c.cap]
        .iter()
        .all(|x| x.is_finite())
        && c.delays
            .ranges()
            .all(|r| r.lo.is_finite() && r.hi.is_finite())
}
