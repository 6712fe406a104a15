//! Merge recording and adoption: the engine half of incremental ECO
//! re-routing.
//!
//! A **recording** ([`MergeRecording`]) captures, per merge, everything a
//! later run needs to *re-create that merge without re-deriving it*:
//! which children merged, how many candidates the new node was created
//! with, which descendant nodes received appended candidates (offset
//! adjustment writes into the overlay-touched subtree), the merge's
//! residual contribution, and the global class-fusion state before and
//! after, as indices into the recording's `ClassState` snapshots (one per
//! distinct state the run went through; a run with group fusion off never
//! leaves snapshot 0). Candidate **values** are deliberately not copied —
//! the recorded forest itself is kept alive by the ECO session, and every
//! recorded value is a slice of it:
//!
//! * creation candidates of node `r` = the first `creation_len` entries of
//!   `r`'s final candidate list (later appends are strictly suffix-only,
//!   see `commit_expansions`);
//! * appended candidates = `cands[start..start + len]` of the touched
//!   node's final list.
//!
//! [`MergeForest::adopt_merge`] replays one recorded merge into a *new*
//! forest: it validates that the class state matches the recorded
//! pre-merge snapshot and that every append target has a counterpart in
//! the new forest, then re-appends the recorded append slices, gives the
//! new node its creation candidates, and folds in the recorded residual.
//! The recorded forest is the caller's to consume (an ECO flush throws
//! its standing recording away once the flush succeeds), so when the
//! recorded node's final list *is* its creation prefix (no later merge
//! appended to it), the adopted node takes that list and its cached
//! summaries out of the recorded node instead of copying them, and leaves
//! the recorded node empty; only a node that later received appends has
//! its prefix copied. A taken node never has appends, so no later
//! adoption reads it as an append target, and any other read of it only
//! makes an adoption decline. Because a merge's result is a pure function
//! of its children's candidate lists, the class state, and the engine
//! config, an adopted node is **bit-identical** to what
//! [`MergeForest::merge`] would have produced — adoption just skips the
//! expansion work. Any validation failure returns `None` and the caller
//! falls back to a fresh [`MergeForest::merge`], which is always correct.
//!
//! # Recorded forests keep whole lists
//!
//! An unrecorded merge freezes its consumed children to the candidates
//! it references (see `frozen`). A recorded merge does not, and neither
//! does an adoption: the recording names creation lists and append
//! slices by position in the *whole* lists, and a later flush may pair
//! an adopted node with a different partner in a fresh merge, which may
//! pick any candidate the node was created with, not only those the
//! recorded parent referenced. So a recorded forest (an ECO session's
//! standing route and every flush) holds about three times the
//! candidates of a plain route's forest.

use std::sync::Arc;

use super::class::ClassState;
use super::node::{Cands, Node};
use super::{MergeForest, NodeId};
use crate::Candidate;

/// Sentinel in node-translation maps: the node has no counterpart.
pub const NO_NODE: u32 = u32::MAX;

/// One recorded merge (the index slices follow the conventions laid out
/// in this module's docs).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeLog {
    /// First child, in merge orientation (merging is not symmetric in its
    /// argument order).
    pub a: u32,
    /// Second child.
    pub b: u32,
    /// The node the merge created.
    pub result: u32,
    /// Number of candidates `result` was created with; its final list may
    /// have grown by later appends, so the creation set is the prefix
    /// `cands[..creation_len]`.
    pub creation_len: u32,
    /// Candidates this merge appended to descendant nodes during offset
    /// adjustment, as `(node, start, len)` slices of the recorded forest's
    /// final candidate lists, in commit order.
    pub appends: Vec<(u32, u32, u32)>,
    /// The merge's residual contribution (worst accepted skew-bound
    /// violation; the forest residual is the running max of these).
    pub residual: f64,
    /// Index into [`MergeRecording`]'s class snapshots of the class state
    /// this merge ran under.
    pub epoch_before: u32,
    /// Index of the class state after this merge (differs from
    /// `epoch_before` only when the merge fused two classes).
    pub epoch_after: u32,
}

/// The full merge script of one bottom-up run: per-merge logs plus every
/// distinct class-fusion state the run went through (snapshot 0 is the
/// initial state; at most one new snapshot per group fusion). Snapshots
/// compare bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeRecording {
    pub(super) logs: Vec<MergeLog>,
    class_snaps: Vec<ClassState>,
}

impl MergeRecording {
    /// An empty recording seeded with `forest`'s current class state as
    /// snapshot 0, with room for the merges that join `forest`'s leaves
    /// into one tree. Create it right after the leaves are added, before
    /// the first merge.
    pub fn for_forest(forest: &MergeForest) -> Self {
        Self {
            logs: Vec::with_capacity(forest.leaves.saturating_sub(1)),
            class_snaps: vec![forest.classes.clone()],
        }
    }

    /// The recorded merges, in execution order.
    pub fn logs(&self) -> &[MergeLog] {
        &self.logs
    }

    /// Index of the current (latest) class snapshot.
    pub(crate) fn epoch(&self) -> usize {
        self.class_snaps.len() - 1
    }

    /// Records the class state after a merge: pushes a new snapshot iff it
    /// differs bitwise from the latest one, and returns the current epoch.
    pub(crate) fn note_class_state(&mut self, classes: &ClassState) -> usize {
        let last = self.class_snaps.last().expect("snapshot 0 always exists");
        if !last.same_bits(classes) {
            self.class_snaps.push(classes.clone());
        }
        self.epoch()
    }
}

impl MergeForest {
    /// [`MergeForest::merge`] that also appends a [`MergeLog`] to `rec`,
    /// so the merge can later be adopted into another forest. Produces a
    /// tree bit-identical to the unrecorded merge.
    pub fn merge_recorded(&mut self, a: NodeId, b: NodeId, rec: &mut MergeRecording) -> NodeId {
        self.merge_impl(a, b, Some(rec))
    }

    /// Replays the recorded merge `log` (of the forest `std`, recorded in
    /// `rec`) as the merge of `x` and `y` in this forest, translating
    /// recorded node ids through `std_to_new` (`std` node → this forest's
    /// node, [`NO_NODE`] = no counterpart).
    ///
    /// Returns the adopted node, bit-identical to what
    /// [`MergeForest::merge`]`(x, y)` would create, and whether it took the
    /// recorded node's candidate list: it does when that list is the
    /// creation prefix, leaving the recorded node `log.result` in `std`
    /// with an empty list, and copies the prefix otherwise. This holds
    /// **provided** the caller guarantees `x` and `y` are bit-identical
    /// counterparts of `log.a` and `log.b` (same candidate lists, same
    /// orientation).
    /// Validation that can be checked here — the class state matching the
    /// recorded pre-merge snapshot, every append target being translated —
    /// is checked before any mutation; on failure the forest is untouched
    /// and `None` is returned (fall back to a fresh merge).
    ///
    /// When `rec_out` is given, the adopted merge is re-recorded into it
    /// in this forest's id space, so the new forest supports the next
    /// adoption pass.
    #[allow(clippy::too_many_arguments)]
    pub fn adopt_merge(
        &mut self,
        x: NodeId,
        y: NodeId,
        std: &mut MergeForest,
        log: &MergeLog,
        rec: &MergeRecording,
        std_to_new: &[u32],
        rec_out: Option<&mut MergeRecording>,
    ) -> Option<(NodeId, bool)> {
        if !rec.class_snaps[log.epoch_before as usize].same_bits(&self.classes) {
            return None;
        }
        for &(n, start, len) in &log.appends {
            let mapped = std_to_new.get(n as usize).copied().unwrap_or(NO_NODE);
            if mapped == NO_NODE {
                return None;
            }
            if std.list(NodeId(n as usize)).len() < (start + len) as usize {
                return None;
            }
            // Positional alignment: the counterpart's list must sit at
            // exactly the recorded pre-append length, or the adopted
            // candidates' provenance indices (positional into child lists)
            // would refer to different candidates than they did on record.
            if self.list(NodeId(mapped as usize)).len() != start as usize {
                return None;
            }
        }
        let result = NodeId(log.result as usize);
        if std.list(result).len() < log.creation_len as usize {
            return None;
        }
        // Validated — mutate. Replay order (appends, then node creation)
        // does not matter for bit-identity: the creation candidates'
        // provenance indices point at creation-time child positions, which
        // later appends never shift.
        for &(n, start, len) in &log.appends {
            let mapped = std_to_new[n as usize] as usize;
            let run = &std.list(NodeId(n as usize))[start as usize..(start + len) as usize];
            self.nodes[mapped].extend_candidates(&self.store, run.iter().cloned());
        }
        let creation_len = log.creation_len as usize;
        let src = &mut std.nodes[result.0];
        let taken = matches!(&src.cands, Cands::Live(list) if list.len() == creation_len);
        let node = if taken {
            Node::taking(src, (x, y))
        } else {
            let cands: Arc<[Candidate]> = Arc::from(&std.list(result)[..creation_len]);
            Node::new(cands, Some((x, y)), None)
        };
        self.residual = self.residual.max(log.residual);
        if log.epoch_after != log.epoch_before {
            self.classes = rec.class_snaps[log.epoch_after as usize].clone();
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        if let Some(out) = rec_out {
            let epoch_before = out.epoch();
            let epoch_after = out.note_class_state(&self.classes);
            let appends = log
                .appends
                .iter()
                .map(|&(n, start, len)| (std_to_new[n as usize], start, len))
                .collect();
            out.logs.push(MergeLog {
                a: x.0 as u32,
                b: y.0 as u32,
                result: id.0 as u32,
                creation_len: creation_len as u32,
                appends,
                residual: log.residual,
                epoch_before: epoch_before as u32,
                epoch_after: epoch_after as u32,
            });
        }
        Some((id, taken))
    }
}
