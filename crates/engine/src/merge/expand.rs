//! Candidate-pair expansion and the deterministic commit.
//!
//! Split from `mod.rs` (which keeps the `merge` orchestration): this file
//! owns the expand -> commit half of a merge. Every ranked pair is
//! expanded against its own [`MergeCtx`](super::context::MergeCtx)
//! snapshot, appending its merged candidates to the one reused list in
//! [`Scratch::cands`]. The commit then replays each pair's overlay in
//! ranked order and remaps provenance in place, so the committed
//! candidate contents *and indices* are fixed by the ranking alone, and
//! `prune` sorts, dedups and truncates the same list.
//! See the module docs in `mod.rs` for the borrow discipline that makes
//! expansions independent.

use crate::candidate::cand_index;
use crate::Candidate;

use super::context::{Expansion, Scratch};
use super::{MergeForest, NodeId};

impl MergeForest {
    /// Expands every pair in `scratch.ranked`, filling `scratch.cands` and
    /// `scratch.exps`: every pair appends straight into `scratch.cands`,
    /// so the hot path allocates no per-pair buffers.
    pub(super) fn expand_pairs(&self, a: NodeId, b: NodeId, scratch: &mut Scratch) {
        scratch.cands.clear();
        scratch.exps.clear();
        for i in 0..scratch.ranked.len() {
            let (_, ia, ib) = scratch.ranked[i];
            let mut ctx = self.ctx();
            let residual = ctx.expand_pair(a, b, ia, ib, scratch);
            scratch.exps.push(Expansion {
                end: scratch.cands.len(),
                residual,
                overlay: ctx.into_overlay(),
            });
        }
    }

    /// Commits `scratch.exps` in ranked-pair order: overlay candidates are
    /// appended to their nodes (each touched node's shared list is rebuilt
    /// once, after the replay), and every overlay-local provenance index —
    /// in the overlays and in `scratch.cands` — is remapped to its final
    /// position. Because expansions are computed against the pre-merge
    /// snapshot and replayed in pair order, the final candidate contents
    /// *and indices* are exactly what the old single-borrow serial loop
    /// produced. Returns the worst residual.
    ///
    /// With `record` set, additionally returns the per-node append slices
    /// `(node, start, len)` this commit wrote (empty otherwise) — the raw
    /// material of a [`MergeLog`](super::MergeLog).
    pub(super) fn commit_expansions(
        &mut self,
        a: NodeId,
        b: NodeId,
        scratch: &mut Scratch,
        record: bool,
    ) -> (f64, Vec<(u32, u32, u32)>) {
        let Scratch {
            cands,
            exps,
            snap,
            bases,
            appended,
            ..
        } = scratch;
        // Pre-commit candidate counts of every overlay-touched node: any
        // provenance index below the snapshot refers to a committed
        // candidate; anything at or above is overlay-local to its pair.
        // Expansions touch a handful of nodes, so `(node, count)`
        // association lists (reused via scratch) beat hash maps here.
        snap.clear();
        for exp in exps.iter() {
            for n in exp.overlay.nodes() {
                if !snap.iter().any(|&(sn, _)| sn == n) {
                    snap.push((n, self.list(NodeId(n)).len()));
                }
            }
        }
        fn lookup(list: &[(usize, usize)], node: usize) -> Option<usize> {
            list.iter().find(|&&(n, _)| n == node).map(|&(_, v)| v)
        }
        // Within one expansion's replay, a node's overlay candidates commit
        // at consecutive indices (nothing else touches the node), so the
        // remap only needs the node's candidate count at first touch.
        fn remap(bases: &[(usize, usize)], snap: &[(usize, usize)], node: usize, idx: &mut u32) {
            let i = *idx as usize;
            if let Some(s) = lookup(snap, node).filter(|&s| i >= s) {
                *idx = cand_index(lookup(bases, node).expect("remapped node has a base") + (i - s));
            }
        }
        let mut worst_residual = 0.0f64;
        let mut start = 0;
        for exp in exps.drain(..) {
            worst_residual = worst_residual.max(exp.residual);
            // Committed index of this expansion's first overlay candidate,
            // per node.
            bases.clear();
            for (n, mut cand) in exp.overlay.into_entries() {
                let (l, r) = self.nodes[n]
                    .children()
                    .expect("overlay candidates extend merge nodes");
                remap(bases, snap, l.0, &mut cand.kind.cand_a);
                remap(bases, snap, r.0, &mut cand.kind.cand_b);
                if !bases.iter().any(|&(bn, _)| bn == n) {
                    // The node's length so far: its pre-commit count plus
                    // what earlier expansions appended to it.
                    let len = lookup(snap, n).expect("overlay nodes are snapshotted")
                        + appended.iter().filter(|&&(an, _)| an == n).count();
                    bases.push((n, len));
                }
                appended.push((n, cand));
            }
            for cand in &mut cands[start..exp.end] {
                remap(bases, snap, a.0, &mut cand.kind.cand_a);
                remap(bases, snap, b.0, &mut cand.kind.cand_b);
            }
            start = exp.end;
        }
        // One copy-on-write rebuild per touched node. The stable sort
        // groups each node's appends in first-touch order and keeps their
        // commit order within the node.
        appended.sort_by_key(|&(n, _)| snap.iter().position(|&(sn, _)| sn == n));
        let mut appends = Vec::new();
        while let Some(&(n, _)) = appended.first() {
            let run = appended.iter().take_while(|&&(an, _)| an == n).count();
            let pre = self.list(NodeId(n)).len();
            self.nodes[n].extend_candidates(&self.store, appended.drain(..run).map(|(_, c)| c));
            if record {
                appends.push((n as u32, pre as u32, run as u32));
            }
        }
        snap.clear();
        bases.clear();
        (worst_residual, appends)
    }

    /// Keeps the `k` most promising candidates: cheapest wirelength first,
    /// larger regions (more downstream freedom) on ties. `total_cmp` so a
    /// poisoned (NaN) candidate sorts deterministically last instead of
    /// panicking — the audit reports the damage.
    pub(super) fn prune(cands: &mut Vec<Candidate>, k: usize) {
        cands.sort_by(|x, y| {
            let wl = x.wirelen.total_cmp(&y.wirelen);
            wl.then(y.region.diameter().total_cmp(&x.region.diameter()))
        });
        // Drop near-duplicates (same wirelen, same region within tolerance).
        cands.dedup_by(|x, y| {
            (x.wirelen - y.wirelen).abs() <= 1e-9 * (1.0 + y.wirelen)
                && x.region.hull(&y.region).half_perimeter() <= y.region.half_perimeter() + 1e-9
        });
        cands.truncate(k.max(1));
    }
}
