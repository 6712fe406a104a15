//! Offset adjustment for difficult instances: the generalization of the
//! paper's wire sneaking (Ch. V.E instance 2) that re-derives a child
//! subtree so conflicting δ-windows align. Derived candidates are parked
//! in the context's overlay, never written to the forest directly.

use astdme_delay::{intersect_delta_windows, min_total_for_feasibility, SharedConstraint};
use astdme_geom::Interval;

use crate::{CandKind, Candidate, DelayMap, GroupId};

use super::context::{MergeCtx, Scratch};
use super::NodeId;

impl MergeCtx<'_> {
    /// Attempts to re-balance one child's last merge so that the conflicting
    /// δ-windows of this merge align (Kim 2006, Ch. V.E instance 2).
    ///
    /// Returns candidate indices to use instead, or `None` if neither side
    /// can be adjusted.
    pub(crate) fn adjust_offsets(
        &mut self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        scratch: &mut Scratch,
    ) -> Option<(usize, usize)> {
        // Prefer adjusting the subtree with smaller load (cheaper snake).
        let order = if self.cand(a, ia).cap <= self.cand(b, ib).cap {
            [(a, ia, b, ib, true), (b, ib, a, ia, false)]
        } else {
            [(b, ib, a, ia, false), (a, ia, b, ib, true)]
        };
        for (child, ic, other, io, child_is_a) in order {
            if let Some(new_ic) = self.adjust_child(child, ic, other, io, child_is_a, scratch) {
                return Some(if child_is_a {
                    (new_ic, ib)
                } else {
                    (ia, new_ic)
                });
            }
        }
        None
    }

    /// Re-derives `child` (recursively where needed) so that its group
    /// delays align with `other`'s δ-windows: the generalization of the
    /// paper's wire sneaking (Ch. V.E instance 2) to arbitrarily deep
    /// offset conflicts.
    ///
    /// `child_is_a` says which role `child` plays in the parent merge (the
    /// δ-window formulas are asymmetric).
    fn adjust_child(
        &mut self,
        child: NodeId,
        ic: usize,
        other: NodeId,
        io: usize,
        child_is_a: bool,
        scratch: &mut Scratch,
    ) -> Option<usize> {
        let cc = self.cand(child, ic).clone();
        let oc = self.cand(other, io).clone();
        // δ-windows in the *child-first* orientation (child plays role
        // "a") regardless of its actual role: intersection emptiness is
        // orientation invariant, and in this orientation shifting the
        // group's delays inside `child` by +σ always translates the window
        // by -σ. The final validation below re-checks in true orientation.
        let mut windows: Vec<(GroupId, Interval)> = Vec::new();
        for (g, rc_g, ro_g) in cc.delays.shared_ranges(&oc.delays) {
            let w = SharedConstraint {
                lo_a: rc_g.lo,
                hi_a: rc_g.hi,
                lo_b: ro_g.lo,
                hi_b: ro_g.hi,
                bound: self.classes.bounds()[g.index()],
            }
            .delta_window_with_tol(self.cfg.skew_tol)?;
            windows.push((g, w));
        }
        if windows.len() < 2 {
            // A single group's window is never self-conflicting.
            return None;
        }
        // Candidate anchors δ̂: aligning on each group's own window (that
        // group shifts nothing, the others move to it) plus the median of
        // window midpoints. The cheapest *realized* adjustment wins —
        // which shifts are free depends on slack deep inside the child, so
        // we measure rather than predict.
        // total_cmp: an unbounded group's window is (-inf, +inf), whose
        // midpoint is NaN — it must sort deterministically (its anchor
        // no-ops below: every per-group shift against a NaN δ̂ comes out
        // 0), not panic.
        let mut mids: Vec<f64> = windows.iter().map(|(_, w)| w.mid()).collect();
        mids.sort_by(|x, y| x.total_cmp(y));
        let mut anchors: Vec<f64> = mids.clone();
        anchors.push(mids[mids.len() / 2]);
        anchors.dedup_by(|x, y| (*x - *y).abs() <= 1e-12 * (y.abs() + 1e-30));

        let mut best: Option<(f64, usize)> = None;
        for delta_hat in anchors {
            // Per-group shift: the nearest point of (W_g - δ̂) to zero.
            let targets: Vec<(GroupId, f64)> = windows
                .iter()
                .filter_map(|(g, w)| {
                    let (lo, hi) = (w.lo() - delta_hat, w.hi() - delta_hat);
                    // Nearest point of (W_g - δ̂) to zero; a window that
                    // already covers δ̂ needs no shift. Branching directly
                    // keeps the selection free of raw float equality
                    // (astdme_lint's float-eq rule) without changing a bit:
                    // the old form computed s = 0.0 for the covering case
                    // and filtered it with `s != 0.0`.
                    if lo > 0.0 {
                        Some((*g, lo))
                    } else if hi < 0.0 {
                        Some((*g, hi))
                    } else {
                        None
                    }
                })
                .collect();
            if targets.is_empty() {
                continue; // windows already intersect; nothing to adjust
            }
            let Some(idx) = self.shift_candidate(child, ic, &targets) else {
                continue;
            };
            // Validate in true orientation (with rounding slack) and cost
            // the result: the new candidate's wire plus the snake the
            // parent merge would still need.
            if child_is_a {
                self.shared_constraints_in(child, other, idx, io, scratch);
            } else {
                self.shared_constraints_in(other, child, io, idx, scratch);
            }
            let cons = &scratch.cons;
            if intersect_delta_windows(cons, self.cfg.skew_tol).is_none() {
                // Leave the unused candidate in the overlay (indices must
                // stay stable once created); it is committed with the rest
                // but simply never gets referenced.
                continue;
            }
            let new_c = self.cand(child, idx);
            let d = new_c.region.distance(&oc.region);
            let (cap_c, cap_o) = (new_c.cap, oc.cap);
            let new_wirelen = new_c.wirelen;
            let parent_total = if child_is_a {
                min_total_for_feasibility(self.model, cap_c, cap_o, d, cons, self.cfg.skew_tol)
            } else {
                min_total_for_feasibility(self.model, cap_o, cap_c, d, cons, self.cfg.skew_tol)
            }
            .unwrap_or(d);
            let cost = new_wirelen + parent_total;
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, idx));
            }
        }
        best.map(|(_, idx)| idx)
    }

    /// Builds a new candidate of `node` in which each listed group's delay
    /// range is shifted by the given amount *relative to* the node's other
    /// groups (an arbitrary common absolute shift on top is permitted —
    /// the parent merge absorbs it in its own wire balance).
    ///
    /// Recursion: at each merge, the shift decomposes into a common part
    /// per child (absorbed by that child's merge wire, snaking if needed)
    /// plus residual relative shifts inside each child. Groups present
    /// under both children receive consistent shifts on both sides, so
    /// their alignment (and any bounded spread) is preserved exactly.
    ///
    /// Returns the index of the new candidate on `node` (an overlay index
    /// past the node's committed count), or `None` when a shift is
    /// infeasible (e.g. it would require negative wire).
    fn shift_candidate(
        &mut self,
        node: NodeId,
        ic: usize,
        targets: &[(GroupId, f64)],
    ) -> Option<usize> {
        let cand = self.cand(node, ic).clone();
        let shift_of = |g: GroupId| -> f64 {
            targets
                .iter()
                .find(|(tg, _)| *tg == g)
                .map(|(_, s)| *s)
                .unwrap_or(0.0)
        };
        // Relative no-op (all groups shifted equally)?
        let shifts: Vec<f64> = cand.delays.groups().map(shift_of).collect();
        let s_min = shifts.iter().cloned().fold(f64::INFINITY, f64::min);
        let s_max = shifts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let scale = s_min.abs().max(s_max.abs());
        if s_max - s_min <= 1e-12 * scale + 1e-30 {
            return Some(ic);
        }
        // A leaf has one group, so it never needs distinct shifts.
        let (l, r) = self.nodes[node.0].children()?;
        let CandKind {
            cand_a,
            cand_b,
            ea: el_star,
            eb: er_star,
        } = cand.kind;
        let (il, ir) = (cand_a as usize, cand_b as usize);
        let (lc, rc) = (self.cand(l, il).clone(), self.cand(r, ir).clone());

        // Decompose per child: common part on the edge, residual recursed.
        let split_side = |delays: &DelayMap| -> (f64, Vec<(GroupId, f64)>) {
            let common = delays.groups().map(shift_of).fold(f64::INFINITY, f64::min);
            let residual: Vec<(GroupId, f64)> = delays
                .groups()
                .filter_map(|g| {
                    let s = shift_of(g) - common;
                    (s.abs() > 1e-12 * scale + 1e-30).then_some((g, s))
                })
                .collect();
            (common, residual)
        };
        let (common_l, res_l) = split_side(&lc.delays);
        let (common_r, res_r) = split_side(&rc.delays);

        let il2 = self.shift_candidate(l, il, &res_l)?;
        let ir2 = self.shift_candidate(r, ir, &res_r)?;
        let (lc2, rc2) = (self.cand(l, il2).clone(), self.cand(r, ir2).clone());
        // Recursions may have drifted by a common amount of their own;
        // re-anchor each edge's common shift against the realized delays.
        // The drift of a child is measured on any one of its groups, net of
        // that group's own requested residual shift.
        let drift = |old: &Candidate, new: &Candidate, res: &[(GroupId, f64)]| -> f64 {
            let g = old.delays.groups().next().expect("non-empty delay map");
            let req = res
                .iter()
                .find(|(tg, _)| *tg == g)
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            let (o, n) = (
                old.delays.range(g).expect("anchor group"),
                new.delays.range(g).expect("anchor group survives shifting"),
            );
            (n.lo - o.lo) - req
        };
        let dl_star = self.model.wire_delay(el_star, lc.cap);
        let dr_star = self.model.wire_delay(er_star, rc.cap);
        // Desired edge delays before the free common shift x:
        let dl_base = dl_star + common_l - drift(&lc, &lc2, &res_l);
        let dr_base = dr_star + common_r - drift(&rc, &rc2, &res_r);
        // Choose the common shift x minimizing total wire subject to
        // non-negative delays and geometric reachability.
        let d_lr = lc2.region.distance(&rc2.region);
        let (el2, er2) = self.solve_common_shift(dl_base, dr_base, lc2.cap, rc2.cap, d_lr)?;

        let new_cand = self.build_candidate(l, r, il2, ir2, el2, er2);
        Some(self.push_overlay(node, new_cand))
    }

    /// Finds wire lengths realizing edge delays `dl_base + x` and
    /// `dr_base + x` for the common shift `x` that minimizes total wire,
    /// subject to non-negative delays and `el + er >= dist`.
    fn solve_common_shift(
        &self,
        dl_base: f64,
        dr_base: f64,
        cap_l: f64,
        cap_r: f64,
        dist: f64,
    ) -> Option<(f64, f64)> {
        let len_for = |d: f64, cap: f64| -> f64 { self.model.extension_for_delay(d.max(0.0), cap) };
        let total = |x: f64| -> f64 { len_for(dl_base + x, cap_l) + len_for(dr_base + x, cap_r) };
        // Smallest admissible x keeps both delays non-negative.
        let x_min = (-dl_base).max(-dr_base);
        if total(x_min) >= dist {
            return Some((
                len_for(dl_base + x_min, cap_l),
                len_for(dr_base + x_min, cap_r),
            ));
        }
        // Grow x until the children become reachable, then bisect to the
        // minimum-wire point total(x) == dist.
        let scale = (dl_base.abs() + dr_base.abs()).max(1e-15);
        let mut hi = x_min.max(0.0) + scale;
        let mut guard = 0;
        while total(hi) < dist {
            hi = x_min.max(0.0) + (hi - x_min.max(0.0)) * 2.0 + scale;
            guard += 1;
            if guard > 200 {
                return None;
            }
        }
        let mut lo = x_min;
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if total(mid) >= dist {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some((len_for(dl_base + hi, cap_l), len_for(dr_base + hi, cap_r)))
    }
}
