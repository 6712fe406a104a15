//! The frozen store: consumed subtrees compacted to the candidates their
//! parent references.
//!
//! A node keeps several candidates while it is a root, because its parent
//! merge may pick any of them. Once that merge commits, the top-down
//! embedding can only reach the child candidates the new node's
//! candidates point at (each parent candidate names one candidate per
//! child), so the rest are dead. On typical routes a parent references
//! about a third of its children's candidates.
//!
//! After each unrecorded merge, [`MergeForest::freeze_children`] moves
//! each child's referenced candidates, in their original order, into the
//! forest's [`FrozenStore`], remaps the new candidates' `cand_a`/`cand_b`
//! to the compacted positions, and drops the child's live list. A list a
//! cloned forest still shares is copied first. The store is a list of
//! fixed-capacity chunks that are never reallocated: growth appends a
//! chunk and never copies or doubles what is already stored.
//!
//! Leaves are born frozen (`Node::leaf`): `add_leaf` writes a sink's one
//! candidate straight into the store, because every parent references
//! it. Consuming a leaf then compacts nothing, and a forest allocates no
//! list per sink. Compacting costs a route little beyond freeing each
//! consumed merge node's live list. A recorded forest freezes nothing
//! else, so its store is exactly its leaves, in sink order: an ECO
//! flush's forest takes it whole ([`MergeForest::take_leaves`]).
//!
//! Only the indices change, never a candidate's value, and nothing ranks
//! or prunes by the index of a consumed node's candidate, so a compacting
//! route embeds the same tree bit for bit as a recorded one (which keeps
//! every list whole, see `record`). Offset adjustment still reads and
//! appends to consumed nodes through the compacted indices; an append
//! thaws the node into a live list (see `Node::extend_candidates`).

use std::sync::Arc;

use crate::{CandKind, Candidate};

use super::context::Scratch;
use super::node::Cands;
use super::{MergeForest, NodeId};

/// Candidates per chunk: 72 KiB of 144 B candidates, small enough that a
/// short route's partly filled last chunk costs little, large enough that
/// a 64k-sink route allocates a few hundred chunks in all.
const CHUNK: usize = 512;

/// Marks a child candidate no new candidate references (in
/// [`Scratch::remap`]).
const UNREFERENCED: u32 = u32::MAX;

/// A node's run of frozen candidates: `len` entries from `start` in chunk
/// `chunk`. Eight bytes, so a node's [`Cands`] stays as small as the
/// shared list it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    chunk: u32,
    start: u16,
    len: u16,
}

/// Chunked storage for frozen candidate runs. A chunk never grows past
/// the capacity it was created with, so a run never moves.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenStore {
    chunks: Vec<Vec<Candidate>>,
}

impl Run {
    /// The empty run a recorded node is left with once an adoption takes
    /// its list, and a leaf once [`MergeForest::take_leaves`] takes its
    /// store. It reads as the empty head of chunk 0, which holds the
    /// first leaf's candidate in every forest that has merged, and is the
    /// one empty chunk a forest whose leaves were taken keeps.
    pub(crate) const EMPTY: Run = Run {
        chunk: 0,
        start: 0,
        len: 0,
    };

    /// The run of the `i`-th leaf in a store that holds only leaves (see
    /// [`FrozenStore::holds_leaves`]).
    pub(crate) fn leaf(i: usize) -> Run {
        Run {
            chunk: u32::try_from(i / CHUNK).expect("frozen chunk count fits u32"),
            start: (i % CHUNK) as u16,
            len: 1,
        }
    }
}

impl FrozenStore {
    /// A store of one empty chunk, in which [`Run::EMPTY`] reads as empty.
    pub(crate) fn emptied() -> Self {
        Self {
            chunks: vec![Vec::new()],
        }
    }

    /// Whether the store holds exactly `n` leaf candidates, as `n` calls
    /// of `add_leaf` lay them out: one run per leaf, the `i`-th at
    /// [`Run::leaf`]`(i)`, in chunks of [`CHUNK`] with nothing else
    /// frozen and nothing cloned.
    pub(crate) fn holds_leaves(&self, n: usize) -> bool {
        self.chunks.len() == n.div_ceil(CHUNK)
            && self.chunks.iter().enumerate().all(|(c, chunk)| {
                chunk.capacity() == CHUNK && chunk.len() == (n - c * CHUNK).min(CHUNK)
            })
    }

    /// The candidate of the `i`-th leaf in a store that holds only
    /// leaves.
    pub(crate) fn leaf_mut(&mut self, i: usize) -> &mut Candidate {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }

    /// The candidates of `run`.
    pub(crate) fn get(&self, run: Run) -> &[Candidate] {
        let start = run.start as usize;
        &self.chunks[run.chunk as usize][start..start + run.len as usize]
    }

    /// Stores the `len` candidates `cands` yields as one run. Starts a
    /// new chunk when the last one lacks room, judged by its actual spare
    /// capacity (a cloned forest's chunks have none); a run longer than
    /// [`CHUNK`] gets a chunk of its own.
    pub(crate) fn freeze(&mut self, len: u16, cands: impl Iterator<Item = Candidate>) -> Run {
        let n = usize::from(len);
        if self
            .chunks
            .last()
            .is_none_or(|c| c.capacity() - c.len() < n)
        {
            self.chunks.push(Vec::with_capacity(CHUNK.max(n)));
        }
        let chunk = self.chunks.len() - 1;
        let store = &mut self.chunks[chunk];
        let start = store.len();
        store.extend(cands);
        debug_assert_eq!(store.len() - start, n, "run length as announced");
        Run {
            chunk: u32::try_from(chunk).expect("frozen chunk count fits u32"),
            start: u16::try_from(start).expect("a chunk holds at most u16::MAX candidates"),
            len,
        }
    }
}

/// The provenance index a candidate keeps into its first (`first`) or
/// second child.
fn side(kind: &mut CandKind, first: bool) -> &mut u32 {
    if first {
        &mut kind.cand_a
    } else {
        &mut kind.cand_b
    }
}

impl MergeForest {
    /// Freezes the children `a` and `b` of the merge whose kept candidates
    /// are `scratch.cands`, remapping those candidates' provenance to the
    /// compacted lists. Only a child's first consumer freezes it: a second
    /// parent would remap provenance the first one still points through.
    pub(super) fn freeze_children(&mut self, a: NodeId, b: NodeId, scratch: &mut Scratch) {
        self.freeze_child(a, true, scratch);
        self.freeze_child(b, false, scratch);
    }

    fn freeze_child(&mut self, child: NodeId, first: bool, scratch: &mut Scratch) {
        let Self { nodes, store, .. } = self;
        let node = &mut nodes[child.0];
        if !node.consume() {
            return;
        }
        let Cands::Live(list) = &mut node.cands else {
            // A leaf, born frozen (see `Node::leaf`).
            return;
        };
        let Scratch { cands, remap, .. } = scratch;
        // Mark the referenced candidates, then number them in order.
        remap.clear();
        remap.resize(list.len(), UNREFERENCED);
        for c in cands.iter_mut() {
            remap[*side(&mut c.kind, first) as usize] = 0;
        }
        let Ok(kept) = u16::try_from(remap.iter().filter(|&&r| r != UNREFERENCED).count()) else {
            // Past any configured candidate limit: keep the list whole.
            return;
        };
        for (slot, i) in remap.iter_mut().filter(|s| **s != UNREFERENCED).zip(0..) {
            *slot = i;
        }
        for c in cands.iter_mut() {
            let i = side(&mut c.kind, first);
            *i = remap[*i as usize];
        }
        // The list is dropped below, so move the kept candidates out of it
        // (a spilled delay map moves its heap list instead of copying
        // it). A list a cloned forest still shares is copied first.
        let list = Arc::make_mut(list);
        let run = store.freeze(
            kept,
            list.iter_mut()
                .zip(remap.iter())
                .filter(|&(_, &r)| r != UNREFERENCED)
                .map(|(c, _)| Candidate {
                    delays: std::mem::take(&mut c.delays),
                    ..*c
                }),
        );
        // Drops the live list.
        node.cands = Cands::Frozen(run);
    }
}
