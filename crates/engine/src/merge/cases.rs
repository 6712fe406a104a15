//! The four merge cases of the paper's Fig. 6, as pure expansions over a
//! [`MergeCtx`]: feasible-split merging (cases 1–3), snaking when the
//! δ-window is out of geometric reach, offset adjustment on conflicting
//! windows (case 4, delegated to [`super::offset`]), and the best-effort
//! fallback that records a skew residual.

use astdme_delay::{feasible_splits, min_total_for_feasibility, DelayModel, SharedConstraint};
use astdme_geom::{merge_locus, Interval};

use crate::candidate::cand_index;
use crate::{CandKind, Candidate, DelayMap};

use super::context::{MergeCtx, Scratch};
use super::NodeId;

impl MergeCtx<'_> {
    /// Expands one child-candidate pair, appending the merged candidates
    /// to `scratch.cands`. Returns the skew residual incurred (0 when
    /// solved exactly).
    ///
    /// Mutation is confined to the context's overlay (candidates the
    /// offset-adjustment machinery derives on existing nodes) and the
    /// caller's buffers, which is what lets `merge` fan expansions out
    /// across threads. `scratch` is the caller's buffer set (one per
    /// worker): constraint assembly reuses it and the candidates land in
    /// its list, so a fused-groups expansion allocates nothing.
    pub(crate) fn expand_pair(
        &mut self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        scratch: &mut Scratch,
    ) -> f64 {
        self.shared_constraints_in(a, b, ia, ib, scratch);
        // Cases 1-3 (plus snaking) at the pair as given.
        let (cons, samples, out) = (&scratch.cons, &mut scratch.samples, &mut scratch.cands);
        if self.try_expand_at(a, b, ia, ib, cons, samples, out) {
            return 0.0;
        }
        // Case 4: conflicting δ-windows — only re-balancing inside a child
        // can align the groups (the paper's wire sneaking, Fig. 5).
        if let Some((ia2, ib2)) = self.adjust_offsets(a, b, ia, ib, scratch) {
            self.shared_constraints_in(a, b, ia2, ib2, scratch);
            let (cons, samples, out) = (&scratch.cons, &mut scratch.samples, &mut scratch.cands);
            if self.try_expand_at(a, b, ia2, ib2, cons, samples, out) {
                return 0.0;
            }
        }
        // Best effort: minimize the worst window violation.
        // Re-derive the original pair's constraints (the adjustment path
        // reused the buffers); assembly is deterministic, so this is the
        // same constraint set the first attempt saw.
        self.shared_constraints_in(a, b, ia, ib, scratch);
        self.best_effort(a, b, ia, ib, &scratch.cons, &mut scratch.cands)
    }

    /// Cases 1-3 plus snaking for one concrete pair: sample the feasible
    /// splits at the geometric distance, else at the minimum total wire
    /// that restores feasibility (the snaking detour), appending them to
    /// `out`. `false` (nothing appended) means the δ-windows conflict
    /// outright and case 4 must take over.
    #[allow(clippy::too_many_arguments)] // the pair plus its constraint set and two buffers
    fn try_expand_at(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        cons: &[SharedConstraint],
        samples: &mut Vec<f64>,
        out: &mut Vec<Candidate>,
    ) -> bool {
        let (ca, cb) = (self.cand(a, ia), self.cand(b, ib));
        let d = ca.region.distance(&cb.region);
        let (cap_a, cap_b) = (ca.cap, cb.cap);
        let set = feasible_splits(self.model, cap_a, cap_b, d, cons, self.cfg.skew_tol);
        if !set.is_empty() {
            self.sample_candidates(a, b, ia, ib, d, &set, samples, out);
            return true;
        }
        let Some(t) =
            min_total_for_feasibility(self.model, cap_a, cap_b, d, cons, self.cfg.skew_tol)
        else {
            return false;
        };
        let t = t + (t * 1e-12).max(1e-9);
        let set = feasible_splits(self.model, cap_a, cap_b, t, cons, self.cfg.skew_tol);
        if set.is_empty() {
            return false;
        }
        self.sample_candidates(a, b, ia, ib, t, &set, samples, out);
        true
    }

    /// Appends candidates for sampled splits of a feasible set to `out`.
    /// `samples` is a reused staging buffer (cleared here).
    #[allow(clippy::too_many_arguments)] // mirrors build_candidate's pair/split args plus the buffers
    fn sample_candidates(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        total: f64,
        set: &astdme_delay::IntervalSet,
        samples: &mut Vec<f64>,
        out: &mut Vec<Candidate>,
    ) {
        set.sample_into(self.cfg.split_samples, samples);
        out.extend(samples.iter().map(|&ea| {
            let ea = ea.clamp(0.0, total);
            self.expanded_candidate(a, b, ia, ib, ea, total - ea)
        }));
    }

    /// Constructs the merged candidate for an explicit wire split, delay
    /// map included. Offset adjustment builds its overlay candidates this
    /// way: later expansions read their maps.
    pub(crate) fn build_candidate(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        ea: f64,
        eb: f64,
    ) -> Candidate {
        let mut cand = self.expanded_candidate(a, b, ia, ib, ea, eb);
        let (ca, cb) = (self.cand(a, ia), self.cand(b, ib));
        cand.delays = merged_delays(self.model, &cand.kind, ca, cb);
        cand
    }

    /// [`MergeCtx::build_candidate`] without the delay map (left empty):
    /// how expansion builds a merge's own candidates. `prune` orders and
    /// dedups on wirelength and region alone and drops about 40% of them,
    /// so the merge gives only the kept ones their maps, after `prune`
    /// (`MergeForest::fill_delays`), and a discarded candidate never
    /// builds (or, past four groups, allocates) one.
    pub(crate) fn expanded_candidate(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        ea: f64,
        eb: f64,
    ) -> Candidate {
        let (ca, cb) = (self.cand(a, ia), self.cand(b, ib));
        let region = merge_locus(&ca.region, &cb.region, ea, eb)
            .expect("split must cover the geometric distance");
        Candidate {
            region,
            delays: DelayMap::default(),
            cap: ca.cap + cb.cap + self.model.wire_cap(ea + eb),
            wirelen: ca.wirelen + cb.wirelen + ea + eb,
            kind: CandKind {
                cand_a: cand_index(ia),
                cand_b: cand_index(ib),
                ea,
                eb,
            },
        }
    }

    /// Fallback when offsets cannot be aligned: merge at the δ minimizing
    /// the worst window violation, appending the one candidate to `out`,
    /// and return the residual.
    fn best_effort(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        cons: &[SharedConstraint],
        out: &mut Vec<Candidate>,
    ) -> f64 {
        let (ca, cb) = (self.cand(a, ia), self.cand(b, ib));
        let d = ca.region.distance(&cb.region);
        // Minimax point over the windows: midpoint of [max lo, min hi].
        let mut lo_max = f64::NEG_INFINITY;
        let mut hi_min = f64::INFINITY;
        for c in cons {
            // Use the raw ends even if the window itself is inverted/empty.
            lo_max = lo_max.max(c.hi_b - c.lo_a - c.bound);
            hi_min = hi_min.min(c.bound + c.lo_b - c.hi_a);
        }
        let (delta_hat, residual) = if lo_max.is_finite() && hi_min.is_finite() {
            (0.5 * (lo_max + hi_min), (0.5 * (lo_max - hi_min)).max(0.0))
        } else {
            (0.0, 0.0)
        };
        // Realize δ̂ with minimal wire: extend one side if out of range.
        let (cap_a, cap_b) = (ca.cap, cb.cap);
        let mut total = d;
        let delta_max = self.model.wire_delay(d, cap_a);
        let delta_min = -self.model.wire_delay(d, cap_b);
        if delta_hat > delta_max {
            total = self
                .model
                .extension_for_delay(delta_hat.max(0.0), cap_a)
                .max(d);
        } else if delta_hat < delta_min {
            total = self
                .model
                .extension_for_delay((-delta_hat).max(0.0), cap_b)
                .max(d);
        }
        let diff = self
            .model
            .delay_quad(cap_a)
            .sub(&self.model.delay_quad(cap_b).reflect(total))
            .add_const(-delta_hat);
        let ea = diff
            .monotone_root(Interval::new(0.0, total))
            .unwrap_or(0.5 * total)
            .clamp(0.0, total);
        out.push(self.expanded_candidate(a, b, ia, ib, ea, total - ea));
        residual
    }
}

/// The delay map of the candidate merging child candidates `ca` and `cb`
/// with the wire `kind` records: each child's map shifted by its edge's
/// delay, then merged (`DelayMap::shifted_merge`, one pass).
pub(crate) fn merged_delays(
    model: &DelayModel,
    kind: &CandKind,
    ca: &Candidate,
    cb: &Candidate,
) -> DelayMap {
    let da = model.wire_delay(kind.ea, ca.cap);
    let db = model.wire_delay(kind.eb, cb.cap);
    ca.delays.shifted_merge(da, &cb.delays, db)
}
