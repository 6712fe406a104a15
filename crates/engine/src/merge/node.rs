//! Forest nodes: stable ids, per-node candidate storage, and the cached
//! hull / max-delay / finiteness summaries the incremental planner and the
//! bounded pair ranking query every merge.

use std::sync::Arc;

use astdme_geom::Trr;

use crate::Candidate;

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

/// One subtree root: its candidate set plus provenance and cached
/// summaries.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// The candidate list, immutable and shared: an adopted merge and a
    /// cloned forest point at the list they copy from instead of copying
    /// it. Appends (offset adjustment) replace the list copy-on-write.
    pub(crate) cands: Arc<[Candidate]>,
    /// Child node indices (`NONE` on leaves). The ids are packed as `u32`
    /// so the node shrinks by more than the shared list's header adds.
    children: [u32; 2],
    /// Sink index of a leaf (`NONE` on merges).
    sink: u32,
    /// Hull of all candidate regions, maintained incrementally: candidates
    /// are only ever *added* to an existing node (offset adjustment), and
    /// hulls are monotone under insertion, so this never needs a rescan.
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
}

impl Node {
    pub(crate) fn new(
        cands: Arc<[Candidate]>,
        children: Option<(NodeId, NodeId)>,
        sink: Option<usize>,
    ) -> Self {
        debug_assert!(!cands.is_empty(), "nodes always carry a candidate");
        let mut hull = cands[0].region;
        for c in &cands[1..] {
            hull = hull.hull(&c.region);
        }
        let max_delay = cands.iter().map(cand_max_delay).fold(0.0, f64::max);
        let finite = cands.iter().all(cand_finite);
        Self {
            cands,
            children: children.map_or([NONE; 2], |(a, b)| [pack(a.0), pack(b.0)]),
            sink: sink.map_or(NONE, pack),
            hull,
            max_delay,
            finite,
        }
    }

    /// A merge node sharing `src`'s candidate list and its cached
    /// summaries, which describe exactly that list.
    pub(crate) fn sharing(src: &Node, (a, b): (NodeId, NodeId)) -> Self {
        Self {
            cands: Arc::clone(&src.cands),
            children: [pack(a.0), pack(b.0)],
            sink: NONE,
            hull: src.hull,
            max_delay: src.max_delay,
            finite: src.finite,
        }
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
    /// The list is shared, so this builds its successor: one exact-size
    /// allocation when `added` is a drain or a cloned slice (the collect
    /// knows the length up front). Callers batch every append a node
    /// receives in one commit or adoption into one call.
    pub(crate) fn extend_candidates(&mut self, added: impl Iterator<Item = Candidate>) {
        let old = self.cands.len();
        self.cands = self.cands.iter().cloned().chain(added).collect();
        for c in &self.cands[old..] {
            self.hull = self.hull.hull(&c.region);
            self.max_delay = self.max_delay.max(cand_max_delay(c));
            self.finite &= cand_finite(c);
        }
    }
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
            .iter()
            .all(|(_, r)| r.lo.is_finite() && r.hi.is_finite())
}
