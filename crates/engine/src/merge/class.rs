//! Group-class fusion (Kim 2006, Fig. 6 steps 6–7): the [`ClassState`]
//! every merge reads, and the commit-phase fusion that writes it.
//!
//! With group fusion off no merge ever fuses, so a forest keeps its
//! initial state (every group its own class, every offset zero) and the
//! class view of a delay map is the per-group view, bit for bit.

use crate::{DelayMap, GroupId, MergeForest};

use super::context::Scratch;

/// A union-find over groups, each group's prescribed offset from its class
/// reference (adjusted delay = real delay − offset), and the per-group
/// skew bounds. A forest owns one; a [`MergeRecording`](super::MergeRecording)
/// snapshots each distinct state its run went through.
#[derive(Debug, Clone)]
pub(crate) struct ClassState {
    class_parent: Vec<u32>,
    phi: Vec<f64>,
    bounds: Vec<f64>,
}

impl ClassState {
    /// The unfused state over groups with the given skew bounds.
    pub(crate) fn new(bounds: Vec<f64>) -> Self {
        let k = bounds.len();
        Self {
            class_parent: (0..k as u32).collect(),
            phi: vec![0.0; k],
            bounds,
        }
    }

    /// The per-group skew bounds (seconds, indexed by group).
    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The effective (fused) class of a group: a union-find root lookup
    /// without path compression (chains are a few links long, and the
    /// state is shared immutably during expansion).
    pub(crate) fn class_of(&self, g: GroupId) -> u32 {
        let mut c = g.0;
        while self.class_parent[c as usize] != c {
            c = self.class_parent[c as usize];
        }
        c
    }

    /// Per-class adjusted delay hulls of a delay map, into a reused buffer
    /// (cleared first): `(class, adj_lo, adj_hi, min member bound)`,
    /// ascending by class. Both pair costing and class fusing read these.
    pub(crate) fn effective_entries_into(
        &self,
        delays: &DelayMap,
        out: &mut Vec<(u32, f64, f64, f64)>,
    ) {
        out.clear();
        for (g, r) in delays.iter() {
            let (off, bound) = (self.phi[g.index()], self.bounds[g.index()]);
            out.push((self.class_of(g), r.lo - off, r.hi - off, bound));
        }
        // Sort once, then coalesce same-class runs in place; the bits
        // equal a stable fold's (see the oracle test).
        out.sort_unstable_by_key(|(c, ..)| *c);
        out.dedup_by(|e, run| {
            let same = e.0 == run.0;
            if same {
                (run.1, run.2, run.3) = (run.1.min(e.1), run.2.max(e.2), run.3.min(e.3));
            }
            same
        });
    }

    /// Fuses class `absorb` into class `keep`: every member of `absorb`
    /// moves its offset by `delta`, so its adjusted delays align with
    /// `keep`'s from now on, and `absorb`'s root joins `keep`.
    pub(crate) fn fuse(&mut self, keep: u32, absorb: u32, delta: f64) {
        for g in 0..self.phi.len() {
            if self.class_of(GroupId(g as u32)) == absorb {
                self.phi[g] += delta;
            }
        }
        self.class_parent[absorb as usize] = keep;
    }

    /// Whether every bound and offset is finite: the class half of the
    /// bounded pair ranking's precondition.
    pub(crate) fn is_finite(&self) -> bool {
        self.bounds.iter().chain(&self.phi).all(|x| x.is_finite())
    }

    /// Whether two states are equal bit for bit. A NaN offset equals
    /// itself here, so a state always matches its own snapshot.
    pub(crate) fn same_bits(&self, other: &Self) -> bool {
        let bits = |x: &[f64], y: &[f64]| {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        self.class_parent == other.class_parent
            && bits(&self.phi, &other.phi)
            && bits(&self.bounds, &other.bounds)
    }
}

/// Bitwise, as [`ClassState::same_bits`].
impl PartialEq for ClassState {
    fn eq(&self, other: &Self) -> bool {
        self.same_bits(other)
    }
}

impl MergeForest {
    /// Fuses the effective classes co-resident in a freshly merged node
    /// (Fig. 6 steps 6-7): the best candidate's realized inter-class offset
    /// becomes the prescribed offset; candidates realizing a different
    /// offset are dropped from `scratch.cands` (they would violate the
    /// prescription downstream). The class hulls go through the scratch
    /// entry buffers, so fusing allocates nothing.
    ///
    /// Runs in the commit phase, after expansion: this is the one place
    /// the merge path mutates class state, so it stays on `&mut self`.
    pub(super) fn fuse_classes(&mut self, scratch: &mut Scratch) {
        let Scratch { ea, eb, cands, .. } = scratch;
        let classes = &self.classes;
        classes.effective_entries_into(&cands[0].delays, ea);
        debug_assert!(
            ea.len() <= 2,
            "children each carry one class, so a merge sees at most two"
        );
        if ea.len() != 2 {
            return;
        }
        let (keep, absorb) = (ea[0].0, ea[1].0);
        let delta = ea[1].1 - ea[0].1;
        // Retain offset-consistent candidates (the best always is).
        let keep_tol = self.cfg.skew_tol.max(1e-12 * delta.abs());
        cands.retain(|c| {
            classes.effective_entries_into(&c.delays, eb);
            eb.len() == 2 && (eb[1].1 - eb[0].1 - delta).abs() <= keep_tol
        });
        debug_assert!(!cands.is_empty(), "best candidate is always consistent");
        self.classes.fuse(keep, absorb, delta);
    }
}

#[cfg(test)]
mod tests;
