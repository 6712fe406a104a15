//! Candidate-pair selection: shared-constraint assembly, merge-cost
//! estimation, and the bounded cheapest-first ranking that decides which
//! child candidate pairs a merge expands. The ranking prices the
//! `pair_limit` nearest pairs and then only the pairs whose distance could
//! still enter the top `pair_limit`, which on typical merges prices a few
//! pairs out of dozens, without sorting them.

use astdme_delay::{intersect_delta_windows, SharedConstraint};

use crate::{DelayMap, MergeForest};

use super::context::{class_of_in, MergeCtx, Scratch};
use super::NodeId;

/// Per-class adjusted delay hulls of a delay map, into a reused buffer
/// (cleared first): `(class, adj_lo, adj_hi, min member bound)`, ascending
/// by class. The single implementation behind both the hot pair-cost path
/// (scratch buffers) and class fusing after a merge commits.
pub(crate) fn effective_entries_into(
    class_parent: &[u32],
    phi: &[f64],
    bounds: &[f64],
    delays: &DelayMap,
    out: &mut Vec<(u32, f64, f64, f64)>,
) {
    out.clear();
    for (g, r) in delays.iter() {
        let c = class_of_in(class_parent, g);
        out.push((
            c,
            r.lo - phi[g.index()],
            r.hi - phi[g.index()],
            bounds[g.index()],
        ));
    }
    // Sort once, then coalesce same-class runs in place: O(C log C)
    // instead of a linear `find` per group (hulling is order-independent,
    // so this matches the old first-occurrence merge exactly).
    out.sort_unstable_by_key(|(c, ..)| *c);
    let mut w = 0;
    for i in 0..out.len() {
        if w > 0 && out[w - 1].0 == out[i].0 {
            out[w - 1].1 = out[w - 1].1.min(out[i].1);
            out[w - 1].2 = out[w - 1].2.max(out[i].2);
            out[w - 1].3 = out[w - 1].3.min(out[i].3);
        } else {
            out[w] = out[i];
            w += 1;
        }
    }
    out.truncate(w);
}

impl MergeCtx<'_> {
    /// Shared-group constraints between two candidates, into
    /// `scratch.cons` (cleared first), reusing `scratch`'s entry buffers —
    /// the sole entry point, so every caller shares one buffer set instead
    /// of allocating per call. With group fusion on, constraints are per
    /// effective class over offset-adjusted delays; otherwise per original
    /// group.
    pub(crate) fn shared_constraints_in(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        scratch: &mut Scratch,
    ) {
        let (ca, cb) = (self.cand(a, ia), self.cand(b, ib));
        if self.cfg.fuse_groups {
            effective_entries_into(
                self.class_parent,
                self.phi,
                self.bounds,
                &ca.delays,
                &mut scratch.ea,
            );
            effective_entries_into(
                self.class_parent,
                self.phi,
                self.bounds,
                &cb.delays,
                &mut scratch.eb,
            );
            let cons = &mut scratch.cons;
            cons.clear();
            let (ea, eb) = (&scratch.ea, &scratch.eb);
            let (mut i, mut j) = (0, 0);
            while i < ea.len() && j < eb.len() {
                match ea[i].0.cmp(&eb[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        cons.push(SharedConstraint {
                            lo_a: ea[i].1,
                            hi_a: ea[i].2,
                            lo_b: eb[j].1,
                            hi_b: eb[j].2,
                            bound: ea[i].3.min(eb[j].3),
                        });
                        i += 1;
                        j += 1;
                    }
                }
            }
            return;
        }
        let cons = &mut scratch.cons;
        cons.clear();
        cons.extend(
            ca.delays
                .shared_ranges(&cb.delays)
                .map(|(g, ra, rb)| SharedConstraint {
                    lo_a: ra.lo,
                    hi_a: ra.hi,
                    lo_b: rb.lo,
                    hi_b: rb.hi,
                    bound: self.bounds[g.index()],
                }),
        );
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
        self.finite_state && self.nodes[a.0].finite && self.nodes[b.0].finite
    }
}

#[cfg(test)]
mod tests;
