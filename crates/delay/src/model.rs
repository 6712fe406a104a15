//! Delay models: Elmore (π-model RC) and pathlength (linear).

use core::fmt;

use crate::{Quad, RcParams};

/// Outcome of balancing a merge wire between two subtrees.
///
/// `ea` and `eb` are *electrical* wire lengths from the merge point to the
/// roots of subtrees `a` and `b`. Their sum may exceed the geometric
/// distance between the subtrees, in which case the excess is routed as a
/// snaking detour during embedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Wire length from the merge point to subtree `a`'s root.
    pub ea: f64,
    /// Wire length from the merge point to subtree `b`'s root.
    pub eb: f64,
}

impl Split {
    /// Total wire spent by this merge.
    #[inline]
    pub fn total(&self) -> f64 {
        self.ea + self.eb
    }

    /// Returns `true` if the split spends more wire than the geometric
    /// `distance` (i.e. it snakes), up to rounding slack.
    #[inline]
    pub fn snaked(&self, distance: f64) -> bool {
        self.total() > distance * (1.0 + 1e-12) + 1e-12
    }
}

impl fmt::Display for Split {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(ea = {}, eb = {})", self.ea, self.eb)
    }
}

/// A signal-delay model for clock wires.
///
/// Both variants expose wire delay as the quadratic `a2·len² + a1·len` (with
/// `a1` depending on the load for Elmore), which is what lets every skew
/// constraint downstream be solved in closed form.
///
/// * [`DelayModel::Elmore`] — the model of the paper (Ch. III): a wire of
///   length `l` driving load `C` has delay `r·l·(c·l/2 + C)` (π-model).
/// * [`DelayModel::Pathlength`] — delay equals geometric pathlength; the
///   primitive model of the earlier associative-skew work (\[12\] in the
///   paper), kept to reproduce the paper's argument that it cannot control
///   Elmore skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Elmore delay over π-modelled RC wire.
    Elmore(RcParams),
    /// Delay = geometric pathlength (unit: metres of wire, not seconds).
    Pathlength,
}

impl DelayModel {
    /// Convenience constructor for [`DelayModel::Elmore`].
    #[inline]
    pub fn elmore(params: RcParams) -> Self {
        Self::Elmore(params)
    }

    /// Convenience constructor for [`DelayModel::Pathlength`].
    #[inline]
    pub fn pathlength() -> Self {
        Self::Pathlength
    }

    /// The underlying RC parameters, if Elmore.
    #[inline]
    pub fn rc(&self) -> Option<&RcParams> {
        match self {
            Self::Elmore(p) => Some(p),
            Self::Pathlength => None,
        }
    }

    /// Delay of a wire of length `len` driving `downstream_cap` at its far
    /// end.
    ///
    /// ```
    /// use astdme_delay::{DelayModel, RcParams};
    /// let m = DelayModel::elmore(RcParams::new(0.003, 2e-17));
    /// // 1000 um driving 20 fF: 3 * (1e-14 + 2e-14) = 9e-14 s.
    /// assert!((m.wire_delay(1000.0, 2e-14) - 9e-14).abs() < 1e-28);
    /// ```
    #[inline]
    pub fn wire_delay(&self, len: f64, downstream_cap: f64) -> f64 {
        self.delay_quad(downstream_cap).eval(len)
    }

    /// Capacitance contributed by a wire of length `len` (zero for the
    /// pathlength model, which is purely geometric).
    #[inline]
    pub fn wire_cap(&self, len: f64) -> f64 {
        match self {
            Self::Elmore(p) => p.wire_cap(len),
            Self::Pathlength => 0.0,
        }
    }

    /// Wire delay as a quadratic in length for a fixed far-end load:
    /// Elmore gives `(rc/2)·l² + rC·l`; pathlength gives `l`.
    #[inline]
    pub fn delay_quad(&self, downstream_cap: f64) -> Quad {
        match self {
            Self::Elmore(p) => Quad::new(
                0.5 * p.r_per_um() * p.c_per_um(),
                p.r_per_um() * downstream_cap,
                0.0,
            ),
            Self::Pathlength => Quad::new(0.0, 1.0, 0.0),
        }
    }

    /// The wire split `(ea, eb)` with `ea + eb >= dist` equalizing delays
    /// from the merge point: `d(ea, Ca) + ta = d(eb, Cb) + tb`.
    ///
    /// If the balance point lies inside `[0, dist]` this is Tsay's exact
    /// zero-skew merge and `ea + eb = dist`; otherwise the faster side is
    /// extended past the distance (wire snaking) with the slower side's
    /// wire length pinned to zero.
    ///
    /// `ta`/`tb` are the subtree root-to-sink delays being equalized, and
    /// `ca`/`cb` the subtree load capacitances.
    pub fn balance_split(&self, ta: f64, ca: f64, tb: f64, cb: f64, dist: f64) -> Split {
        debug_assert!(dist >= 0.0, "distance must be non-negative");
        if dist > 0.0 {
            // Solve d(x, Ca) + ta = d(dist - x, Cb) + tb for x in [0, dist].
            // The difference is strictly increasing in x, so check ends.
            let da = self.delay_quad(ca);
            let db = self.delay_quad(cb).reflect(dist);
            let diff = da.add_const(ta).sub(&db.add_const(tb));
            if diff.eval(0.0) >= 0.0 {
                // a is already as slow or slower with no wire: snake b side.
                return Split {
                    ea: 0.0,
                    eb: self.extension_for_delay(ta - tb, cb).max(dist),
                };
            }
            if diff.eval(dist) <= 0.0 {
                return Split {
                    eb: 0.0,
                    ea: self.extension_for_delay(tb - ta, ca).max(dist),
                };
            }
            let x = diff
                .monotone_root(astdme_geom::Interval::new(0.0, dist))
                .expect("sign change bracketed above");
            Split {
                ea: x,
                eb: dist - x,
            }
        } else if ta >= tb {
            Split {
                ea: 0.0,
                eb: self.extension_for_delay(ta - tb, cb),
            }
        } else {
            Split {
                eb: 0.0,
                ea: self.extension_for_delay(tb - ta, ca),
            }
        }
    }

    /// The wire length whose delay into load `downstream_cap` equals
    /// `extra_delay` (>= 0): inverts `d(len) = extra_delay`. Used to size
    /// snaking detours.
    ///
    /// # Panics
    ///
    /// Panics if `extra_delay` is negative beyond rounding noise.
    pub fn extension_for_delay(&self, extra_delay: f64, downstream_cap: f64) -> f64 {
        assert!(
            extra_delay >= -1e-18,
            "cannot extend wire for negative delay {extra_delay}"
        );
        let extra = extra_delay.max(0.0);
        if extra == 0.0 {
            return 0.0;
        }
        match self {
            Self::Pathlength => extra,
            Self::Elmore(p) => {
                let (r, c) = (p.r_per_um(), p.c_per_um());
                // Solve (rc/2) e^2 + r C e - extra = 0 for e >= 0, in the
                // stable form e = 2·extra / (rC + sqrt((rC)^2 + 2 rc extra)).
                let rc2 = 0.5 * r * c;
                let rcl = r * downstream_cap;
                let disc = rcl * rcl + 4.0 * rc2 * extra;
                2.0 * extra / (rcl + disc.sqrt())
            }
        }
    }
}

impl fmt::Display for DelayModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Elmore(p) => write!(f, "Elmore({p})"),
            Self::Pathlength => write!(f, "Pathlength"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> DelayModel {
        DelayModel::elmore(RcParams::default())
    }

    #[test]
    fn wire_delay_matches_pi_model() {
        // r l (c l / 2 + C)
        let d = m().wire_delay(500.0, 1e-14);
        let expect = 0.003 * 500.0 * (2e-17 * 500.0 / 2.0 + 1e-14);
        assert!((d - expect).abs() < 1e-28);
    }

    #[test]
    fn pathlength_delay_is_length() {
        let m = DelayModel::pathlength();
        assert_eq!(m.wire_delay(123.0, 5e-14), 123.0);
        assert_eq!(m.wire_cap(123.0), 0.0);
    }

    #[test]
    fn balance_symmetric_splits_in_half() {
        let s = m().balance_split(0.0, 1e-14, 0.0, 1e-14, 1000.0);
        assert!((s.ea - 500.0).abs() < 1e-6);
        assert!((s.eb - 500.0).abs() < 1e-6);
        assert!(!s.snaked(1000.0));
    }

    #[test]
    fn balance_shifts_toward_faster_side() {
        // b is slower (tb > ta): merge point moves toward b, so eb < ea.
        // (2e-14 s is a realistic imbalance over a 1000 um merge.)
        let s = m().balance_split(0.0, 1e-14, 2e-14, 1e-14, 1000.0);
        assert!(s.eb < s.ea);
        assert!((s.total() - 1000.0).abs() < 1e-9);
        // Delays at the merge point agree.
        let da = m().wire_delay(s.ea, 1e-14);
        let db = m().wire_delay(s.eb, 1e-14) + 2e-14;
        assert!((da - db).abs() < 1e-26);
    }

    #[test]
    fn balance_snakes_when_one_side_dominates() {
        // a enormously slower than b: even ea = 0 can't equalize within
        // dist, so b's wire extends past the distance.
        let s = m().balance_split(1e-9, 1e-14, 0.0, 1e-14, 100.0);
        assert_eq!(s.ea, 0.0);
        assert!(s.eb > 100.0);
        // And the delays agree after the snake.
        let db = m().wire_delay(s.eb, 1e-14);
        assert!((db - 1e-9).abs() < 1e-19);
    }

    #[test]
    fn balance_zero_distance_snakes_exactly() {
        let s = m().balance_split(2e-12, 1e-14, 0.0, 2e-14, 0.0);
        assert_eq!(s.ea, 0.0);
        let db = m().wire_delay(s.eb, 2e-14);
        assert!((db - 2e-12).abs() < 1e-22);
    }

    #[test]
    fn extension_for_delay_inverts_wire_delay() {
        for extra in [0.0, 1e-13, 5e-11, 2e-10] {
            for cap in [0.0, 1e-15, 5e-14] {
                let e = m().extension_for_delay(extra, cap);
                assert!((m().wire_delay(e, cap) - extra).abs() < 1e-22 + 1e-12 * extra);
            }
        }
    }

    #[test]
    fn balance_equalizes_for_pathlength_model() {
        let m = DelayModel::pathlength();
        let s = m.balance_split(3.0, 0.0, 0.0, 0.0, 10.0);
        // ea + 3 = eb, ea + eb = 10 -> ea = 3.5
        assert!((s.ea - 3.5).abs() < 1e-9);
        assert!((s.eb - 6.5).abs() < 1e-9);
    }

    #[test]
    fn split_total_and_snaked() {
        let s = Split { ea: 3.0, eb: 4.0 };
        assert_eq!(s.total(), 7.0);
        assert!(s.snaked(6.0));
        assert!(!s.snaked(7.0));
    }
}
