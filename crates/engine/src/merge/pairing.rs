//! Candidate-pair selection: shared-constraint assembly, merge-cost
//! estimation, and the bounded cheapest-first ranking that decides which
//! child candidate pairs a merge expands. The ranking prices the
//! `pair_limit` nearest pairs and then only the pairs whose distance could
//! still enter the top `pair_limit`, which on typical merges prices a few
//! pairs out of dozens, without sorting them.

use astdme_delay::{intersect_delta_windows, SharedConstraint};

use crate::MergeForest;

use super::context::{MergeCtx, Scratch};
use super::NodeId;

impl MergeCtx<'_> {
    /// Shared-class constraints between two candidates, into
    /// `scratch.cons` (cleared first), reusing `scratch`'s entry buffers —
    /// the sole entry point, so every caller shares one buffer set instead
    /// of allocating per call. Constraints are per effective class over
    /// offset-adjusted delays, ascending by class. The engine's group-fusion
    /// flag only decides whether classes ever fuse: with fusion off every
    /// class is one group at offset zero, so these are the per-group
    /// constraints, bit for bit.
    pub(crate) fn shared_constraints_in(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        scratch: &mut Scratch,
    ) {
        let (ca, cb) = (self.cand(a, ia), self.cand(b, ib));
        let Scratch { ea, eb, cons, .. } = scratch;
        self.classes.effective_entries_into(&ca.delays, ea);
        self.classes.effective_entries_into(&cb.delays, eb);
        cons.clear();
        // Both lists ascend by class: a merge join.
        let mut rest = eb.iter().peekable();
        for &(c, lo_a, hi_a, bound_a) in ea.iter() {
            while rest.next_if(|e| e.0 < c).is_some() {}
            if let Some(&(_, lo_b, hi_b, bound_b)) = rest.next_if(|e| e.0 == c) {
                let bound = bound_a.min(bound_b);
                cons.push(SharedConstraint {
                    lo_a,
                    hi_a,
                    lo_b,
                    hi_b,
                    bound,
                });
            }
        }
    }

    /// Estimated wire cost of merging one candidate pair: the geometric
    /// distance plus any snaking the shared-group δ-windows force, plus a
    /// proxy for offset-conflict resolution cost. This is what makes the
    /// engine prefer offset-compatible partners — the quantity the paper's
    /// "minimum merging-cost" scheme needs on difficult instances.
    ///
    /// Every branch returns the distance `d`, `d.max(x)` or `d + ext` with
    /// `ext >= 0`, so on finite inputs the estimate is a number no smaller
    /// than `d` — the bound [`MergeCtx::rank_pairs`] prunes with.
    ///
    /// Takes an explicit [`Scratch`] because this is the innermost loop of
    /// `merge`: the constraint assembly reuses the caller's buffers
    /// instead of allocating per call.
    pub(crate) fn pair_cost_estimate(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        scratch: &mut Scratch,
    ) -> f64 {
        let (ca, cb) = (self.cand(a, ia), self.cand(b, ib));
        let d = ca.region.distance(&cb.region);
        let (cap_a, cap_b) = (ca.cap, cb.cap);
        self.shared_constraints_in(a, b, ia, ib, scratch);
        let cons = &scratch.cons;
        match intersect_delta_windows(cons, self.cfg.skew_tol) {
            Some(None) => d,
            Some(Some(w)) => {
                let mut need = d;
                if w.lo() > 0.0 {
                    need = need.max(self.model.extension_for_delay(w.lo(), cap_a));
                }
                if w.hi() < 0.0 {
                    need = need.max(self.model.extension_for_delay(-w.hi(), cap_b));
                }
                need
            }
            None => {
                // Conflict: the windows' spread must be paid as relative
                // shifts somewhere inside a child. Approximate with the
                // wire needed to realize the full spread against the
                // smaller load.
                let (mut mid_lo, mut mid_hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for c in cons {
                    let mid = 0.5 * ((c.hi_b - c.lo_a - c.bound) + (c.bound + c.lo_b - c.hi_a));
                    mid_lo = mid_lo.min(mid);
                    mid_hi = mid_hi.max(mid);
                }
                let spread = mid_hi - mid_lo;
                d + self
                    .model
                    .extension_for_delay(spread.max(0.0), cap_a.min(cap_b))
            }
        }
    }

    /// Ranks the child-candidate pairs of merging `a` with `b` into
    /// `scratch.ranked`: the `pair_limit` cheapest by estimated cost,
    /// cheapest first, ties in row-major `(ia, ib)` order. NaN estimates
    /// rank by `total_cmp`; if the cheapest pair is NaN it is kept alone,
    /// otherwise every NaN pair is dropped, so poisoned estimates never
    /// reach expansion (where their NaN wirelengths would panic the
    /// pruning sort) and an all-NaN ranking surfaces in the audit instead.
    ///
    /// With `bounded` set the caller vouches that every input is finite,
    /// so each estimate is a number no smaller than its pair's distance
    /// `d`. The `pair_limit` nearest pairs (an unordered selection, no
    /// sort) are priced first; one pass then prices every other pair whose
    /// `d` does not exceed the current `pair_limit`-th cost, since no other
    /// pair can beat it (the insertion breaks cost ties by index, so the
    /// pricing order never matters). A NaN estimate means the bound failed
    /// after all, and every pair is priced from scratch. Without `bounded`
    /// every pair is priced. Either way the result equals stably sorting
    /// all pairs by `total_cmp` cost and truncating as above.
    pub(crate) fn rank_pairs(&self, a: NodeId, b: NodeId, bounded: bool, scratch: &mut Scratch) {
        let k = self.cfg.pair_limit;
        let nb = self.list(b).len();
        let mut dists = std::mem::take(&mut scratch.dists);
        let mut ranked = std::mem::take(&mut scratch.ranked);
        dists.clear();
        ranked.clear();
        for (ia, ca) in self.list(a).iter().enumerate() {
            for (ib, cb) in self.list(b).iter().enumerate() {
                dists.push((ca.region.distance(&cb.region), ia * nb + ib));
            }
        }
        let mut price = |ranked: &mut Vec<(f64, usize, usize)>, i: usize| {
            let cost = self.pair_cost_estimate(a, b, i / nb, i % nb, scratch);
            let at = ranked.partition_point(|&(c, ja, jb)| {
                c.total_cmp(&cost).then((ja * nb + jb).cmp(&i)).is_lt()
            });
            if at < k {
                ranked.truncate(k - 1);
                ranked.insert(at, (cost, i / nb, i % nb));
            }
            !cost.is_nan()
        };
        let sound = bounded && {
            if (1..dists.len()).contains(&k) {
                dists.select_nth_unstable_by(k - 1, |x, y| x.0.total_cmp(&y.0));
            }
            let (nearest, rest) = dists.split_at(k.min(dists.len()));
            nearest.iter().all(|&(_, i)| price(&mut ranked, i))
                && rest.iter().all(|&(d, i)| {
                    ranked.last().is_none_or(|kth| d > kth.0) || price(&mut ranked, i)
                })
        };
        if !sound {
            ranked.clear();
            for &(_, i) in &dists {
                price(&mut ranked, i);
            }
        }
        match ranked.iter().position(|p| p.0.is_nan()) {
            Some(0) => ranked.truncate(1),
            Some(first_nan) => ranked.truncate(first_nan),
            None => {}
        }
        scratch.dists = dists;
        scratch.ranked = ranked;
    }
}

impl MergeForest {
    /// Whether merging `a` with `b` may use the bounded ranking: both
    /// children's candidates and the forest's bounds, class offsets and
    /// skew tolerance are finite (see [`MergeCtx::rank_pairs`]).
    pub(super) fn ranking_is_bounded(&self, a: NodeId, b: NodeId) -> bool {
        self.cfg.skew_tol.is_finite()
            && self.classes.is_finite()
            && self.nodes[a.0].finite
            && self.nodes[b.0].finite
    }
}
