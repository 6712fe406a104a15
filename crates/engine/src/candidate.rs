//! Subtree-root candidates: exact iso-delay embeddings with provenance.
//!
//! # Layout
//!
//! A routed forest holds several candidates per root and, once a merge
//! consumes a node, the candidates its parent references (one to a few;
//! see `merge::frozen`), so a candidate's size is most of a route's
//! memory. A candidate is 144 B: the region
//! (32 B), the delay map (72 B: inline up to four groups with one-byte
//! ids, see [`DelayMap`]), load and wirelength (16 B) and the provenance
//! record (24 B: two `u32` child-candidate indices and two wire lengths).
//! The provenance carries no leaf variant: whether a candidate is a leaf
//! is a property of its node (a leaf node has no children and records its
//! sink), so a leaf's record is all zeros.
//!
//! A delay map of more than four groups adds one heap list per
//! candidate, allocated once when the merge gives a kept candidate its
//! map (after pruning, so a discarded candidate allocates none) and
//! moved, not cloned, when compaction freezes it.

use astdme_geom::Trr;

use crate::DelayMap;

/// How a candidate came to be — the provenance used by top-down embedding:
/// which candidate of each child node the merge combined, and the wire it
/// spent on each side. On a leaf node's candidate it is
/// [`CandKind::LEAF`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandKind {
    /// Index of the chosen candidate within the first child node.
    pub cand_a: u32,
    /// Index of the chosen candidate within the second child node.
    pub cand_b: u32,
    /// Electrical wire length from the merge point to child `a`'s root.
    pub ea: f64,
    /// Electrical wire length from the merge point to child `b`'s root.
    pub eb: f64,
}

impl CandKind {
    /// The record of a leaf's candidate: no children, no wire.
    pub const LEAF: Self = Self {
        cand_a: 0,
        cand_b: 0,
        ea: 0.0,
        eb: 0.0,
    };
}

/// One feasible embedding of a subtree root.
///
/// Everything here is exact for any root position inside `region`:
/// the [`Trr`] is an iso-delay locus, so `delays`, `cap` and `wirelen` do
/// not depend on where in the region the root lands during top-down
/// embedding. A subtree keeps a small set of candidates (different wire
/// splits of its last merge); the parent merge chooses among them.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Feasible root positions (all equivalent for delay purposes).
    pub region: Trr,
    /// Exact per-group delay intervals from the root.
    pub delays: DelayMap,
    /// Total load capacitance of the subtree (sinks + wire).
    pub cap: f64,
    /// Total wirelength accumulated below (and including) this root's
    /// merge, in µm of routed wire (snaking included).
    pub wirelen: f64,
    /// Provenance for top-down embedding.
    pub kind: CandKind,
}

/// The layout described in the module docs; growing a candidate grows
/// every route's footprint, so it fails the build instead.
const _: () = assert!(std::mem::size_of::<Candidate>() <= 144);

/// A candidate index as provenance stores it. Nodes keep a handful of
/// candidates, so every index fits.
pub(crate) fn cand_index(i: usize) -> u32 {
    u32::try_from(i).expect("candidate indices fit u32")
}

impl Candidate {
    /// Total wire this merge spent, per the provenance (0 for leaves).
    pub fn merge_wire(&self) -> f64 {
        self.kind.ea + self.kind.eb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayMap, GroupId};
    use astdme_geom::Point;

    #[test]
    fn merge_wire_reads_provenance() {
        let leaf = Candidate {
            region: Trr::from_point(Point::new(0.0, 0.0)),
            delays: DelayMap::leaf(GroupId(0)),
            cap: 1e-14,
            wirelen: 0.0,
            kind: CandKind::LEAF,
        };
        assert_eq!(leaf.merge_wire(), 0.0);
        let merged = Candidate {
            kind: CandKind {
                cand_a: 0,
                cand_b: 1,
                ea: 3.0,
                eb: 4.5,
            },
            ..leaf
        };
        assert_eq!(merged.merge_wire(), 7.5);
    }
}
