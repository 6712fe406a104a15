//! Forest nodes: stable ids, per-node candidate storage, and the cached
//! hull / max-delay / finiteness summaries the incremental planner and the
//! bounded pair ranking query every merge.

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

/// One subtree root: its candidate set plus provenance and cached
/// summaries.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) cands: Vec<Candidate>,
    pub(crate) children: Option<(NodeId, NodeId)>,
    pub(crate) sink: Option<usize>,
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
        cands: Vec<Candidate>,
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
            children,
            sink,
            hull,
            max_delay,
            finite,
        }
    }

    /// Registers one more candidate, keeping the cached hull/delay exact.
    pub(crate) fn push_candidate(&mut self, cand: Candidate) {
        self.hull = self.hull.hull(&cand.region);
        self.max_delay = self.max_delay.max(cand_max_delay(&cand));
        self.finite &= cand_finite(&cand);
        self.cands.push(cand);
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
