//! The explicit merge context: an immutable view of the forest plus a
//! private candidate overlay, so candidate-pair expansion is a pure
//! function of pre-merge state.
//!
//! # Borrow discipline
//!
//! [`MergeForest::merge`](crate::MergeForest::merge) runs in two phases:
//!
//! 1. **Expansion** — every selected child-candidate pair is expanded
//!    against a [`MergeCtx`]: shared `&` borrows of the forest's nodes,
//!    model, config and class state, plus an owned [`Overlay`] where the
//!    offset-adjustment machinery parks any candidates it derives on
//!    *existing* nodes. Expansions never see each other's overlays (a
//!    pair's provenance chain predates the merge), so each one is a pure
//!    function of pre-merge state.
//! 2. **Commit** — back under `&mut self`, the forest replays each
//!    expansion's overlay in pair order, remapping overlay-local candidate
//!    indices to their final positions. This reproduces the exact indices
//!    the old single-borrow serial code produced.
//!
//! The [`Scratch`] buffers (constraint assembly, the merged
//! candidate list) are threaded as explicit `&mut` parameters rather than
//! stored in the context, so a context can hand out `&Candidate` borrows
//! while a callee fills buffers.

use astdme_delay::{DelayModel, SharedConstraint};

use crate::{Candidate, EngineConfig, MergeForest};

use super::class::ClassState;
use super::frozen::FrozenStore;
use super::node::Node;
use super::NodeId;

/// Reusable buffers for one merge, carried by the forest between merges
/// so the hot path allocates nothing per pair or per ranking: constraint
/// assembly, the bounded pair ranking, and the single candidate list every
/// expansion appends to and the commit, prune and class fusion then work
/// on in place.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    pub(crate) ea: Vec<(u32, f64, f64, f64)>,
    pub(crate) eb: Vec<(u32, f64, f64, f64)>,
    pub(crate) cons: Vec<SharedConstraint>,
    /// Split-sample staging for `sample_candidates`.
    pub(crate) samples: Vec<f64>,
    /// Pair distances `(d, ia * nb + ib)` for the bounded ranking
    /// (`rank_pairs`).
    pub(crate) dists: Vec<(f64, usize)>,
    /// The ranked pairs a merge expands, `(cost, ia, ib)` cheapest first.
    pub(crate) ranked: Vec<(f64, usize, usize)>,
    /// Merged candidates of every expansion, in ranked-pair order: the
    /// expansions append here, and the commit, `prune` and class fusion
    /// rewrite it in place before the new node takes the kept candidates.
    pub(crate) cands: Vec<Candidate>,
    /// One record per expansion, in ranked-pair order.
    pub(crate) exps: Vec<Expansion>,
    /// Commit-phase node snapshots/bases (`commit_expansions`): small
    /// `(node, count)` association lists reused across merges.
    pub(crate) snap: Vec<(usize, usize)>,
    pub(crate) bases: Vec<(usize, usize)>,
    /// Commit-phase `(node, candidate)` appends, in commit order, held
    /// back so each touched node's shared list is rebuilt once per commit.
    pub(crate) appended: Vec<(usize, Candidate)>,
    /// Compaction's child-candidate renumbering (`freeze_children`): the
    /// compacted index of every referenced candidate.
    pub(crate) remap: Vec<u32>,
}

/// Candidates derived on *existing* nodes during one pair expansion
/// (offset adjustment / wire sneaking), indexed past the node's pre-merge
/// candidate count. Owned by a [`MergeCtx`]; committed to the forest in
/// pair order afterwards.
///
/// Storage is three flat vectors (append list, intrusive per-node chain,
/// first-touch tail table) instead of a `HashMap<node, Vec<positions>>`:
/// an untouched overlay — the common case, one per candidate pair — costs
/// no allocation at all, and a touched one costs three `Vec`s regardless
/// of how many candidates a deep offset-adjustment recursion derives.
#[derive(Debug, Clone, Default)]
pub(crate) struct Overlay {
    /// `(node index, candidate)` in append order. Append order guarantees
    /// a candidate's overlay-local provenance indices refer to entries
    /// earlier in this list (children are derived before the parents that
    /// reference them), which is what lets the commit remap in one pass.
    added: Vec<(usize, Candidate)>,
    /// `prev[i]`: index in `added` of the previous candidate for the same
    /// node (`NO_PREV` for a node's first), forming per-node chains.
    prev: Vec<u32>,
    /// One entry per touched node, in first-touch order:
    /// `(node, last added index, count)`. Expansions touch a handful of
    /// nodes (the provenance chain of one pair), so lookup is a scan.
    tails: Vec<(usize, u32, u32)>,
}

/// Chain terminator in [`Overlay::prev`].
const NO_PREV: u32 = u32::MAX;

impl Overlay {
    /// The `slot`-th candidate appended for `node`.
    fn get(&self, node: usize, slot: usize) -> &Candidate {
        let &(_, last, count) = self
            .tails
            .iter()
            .find(|&&(n, ..)| n == node)
            .expect("overlay read of an untouched node");
        let mut pos = last;
        for _ in 0..(count as usize - 1 - slot) {
            pos = self.prev[pos as usize];
        }
        &self.added[pos as usize].1
    }

    fn push(&mut self, node: usize, cand: Candidate) -> usize {
        let at = self.added.len() as u32;
        let slot = match self.tails.iter_mut().find(|&&mut (n, ..)| n == node) {
            Some((_, last, count)) => {
                self.prev.push(*last);
                *last = at;
                *count += 1;
                *count as usize - 1
            }
            None => {
                self.prev.push(NO_PREV);
                self.tails.push((node, at, 1));
                0
            }
        };
        self.added.push((node, cand));
        slot
    }

    /// The touched node indices (with repeats, in append order).
    pub(crate) fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.added.iter().map(|(n, _)| *n)
    }

    /// Consumes the overlay in append order.
    pub(crate) fn into_entries(self) -> impl Iterator<Item = (usize, Candidate)> {
        self.added.into_iter()
    }
}

/// The immutable merge context: everything one pair expansion may read,
/// plus its private [`Overlay`]. See the module docs for the borrow
/// discipline.
pub(crate) struct MergeCtx<'a> {
    pub(crate) nodes: &'a [Node],
    store: &'a FrozenStore,
    pub(crate) model: &'a DelayModel,
    pub(crate) cfg: &'a EngineConfig,
    pub(crate) classes: &'a ClassState,
    overlay: Overlay,
}

impl<'a> MergeCtx<'a> {
    pub(crate) fn new(f: &'a MergeForest) -> Self {
        Self {
            nodes: &f.nodes,
            store: &f.store,
            model: &f.model,
            cfg: &f.cfg,
            classes: &f.classes,
            overlay: Overlay::default(),
        }
    }

    /// The committed candidates of `node`: a consumed node's compacted
    /// list once it is frozen.
    pub(crate) fn list(&self, node: NodeId) -> &'a [Candidate] {
        self.nodes[node.0].list(self.store)
    }

    /// Candidate `i` of `node`: a committed candidate when `i` is below the
    /// node's pre-merge count, an overlay entry otherwise. Offset
    /// adjustment follows provenance into consumed nodes, whose indices
    /// are those of their compacted lists.
    pub(crate) fn cand(&self, node: NodeId, i: usize) -> &Candidate {
        let base = self.list(node);
        if i < base.len() {
            &base[i]
        } else {
            self.overlay.get(node.0, i - base.len())
        }
    }

    /// Parks a derived candidate on `node`, returning the index future
    /// [`MergeCtx::cand`] calls (and provenance) can use for it.
    pub(crate) fn push_overlay(&mut self, node: NodeId, cand: Candidate) -> usize {
        let base = self.list(node).len();
        base + self.overlay.push(node.0, cand)
    }

    /// Surrenders the overlay for the commit phase.
    pub(crate) fn into_overlay(self) -> Overlay {
        self.overlay
    }
}

/// The bookkeeping of one pair expansion: where its merged candidates end
/// in [`Scratch::cands`] (they start at the previous expansion's end;
/// provenance indices still overlay-local), the skew residual incurred,
/// and the overlay of candidates derived on existing nodes.
#[derive(Debug, Clone)]
pub(crate) struct Expansion {
    pub(crate) end: usize,
    pub(crate) residual: f64,
    pub(crate) overlay: Overlay,
}
