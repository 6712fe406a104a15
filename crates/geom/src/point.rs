//! Points in the Manhattan plane and their rotated-coordinate images.

use core::fmt;

/// A point in the ordinary (x, y) plane, with distances measured in the L1
/// (Manhattan) metric.
///
/// ```
/// use astdme_geom::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, -1.0);
/// assert_eq!(a.dist(b), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// L1 (Manhattan) distance to `other`.
    #[inline]
    pub fn dist(self, other: Self) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Image of this point under the 45° rotation `u = x + y`, `v = x - y`.
    ///
    /// L1 distance between points equals L∞ distance between their images,
    /// which is what makes TRR arithmetic per-axis.
    #[inline]
    pub fn to_rot(self) -> RotPoint {
        RotPoint {
            u: self.x + self.y,
            v: self.x - self.y,
        }
    }

    /// Componentwise midpoint.
    #[inline]
    pub fn midpoint(self, other: Self) -> Self {
        Self::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Returns `true` if both coordinates are within `tol` of `other`'s.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.x - other.x).abs() <= tol && (self.y - other.y).abs() <= tol
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Self::new(x, y)
    }
}

/// A point in rotated coordinates `u = x + y`, `v = x - y`.
///
/// The rotation is a bijection; [`RotPoint::to_real`] inverts it. L∞
/// distance here equals L1 distance in the real plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RotPoint {
    /// `x + y`.
    pub u: f64,
    /// `x - y`.
    pub v: f64,
}

impl RotPoint {
    /// Creates a rotated-space point.
    #[inline]
    pub fn new(u: f64, v: f64) -> Self {
        Self { u, v }
    }

    /// Maps back to the real plane: `x = (u + v) / 2`, `y = (u - v) / 2`.
    #[inline]
    pub fn to_real(self) -> Point {
        Point::new(0.5 * (self.u + self.v), 0.5 * (self.u - self.v))
    }

    /// L∞ (Chebyshev) distance to `other`; equals the L1 distance between
    /// the corresponding real points.
    #[inline]
    pub fn dist_linf(self, other: Self) -> f64 {
        (self.u - other.u).abs().max((self.v - other.v).abs())
    }
}

impl fmt::Display for RotPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(u={}, v={})", self.u, self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_roundtrips() {
        let p = Point::new(3.25, -1.5);
        let q = p.to_rot().to_real();
        assert!(p.approx_eq(q, 1e-12));
    }

    #[test]
    fn l1_equals_linf_after_rotation() {
        let cases = [
            (Point::new(0.0, 0.0), Point::new(1.0, 2.0)),
            (Point::new(-5.0, 3.0), Point::new(2.0, 2.0)),
            (Point::new(1.5, 1.5), Point::new(1.5, 1.5)),
        ];
        for (a, b) in cases {
            assert!(
                (a.dist(b) - a.to_rot().dist_linf(b.to_rot())).abs() < 1e-12,
                "mismatch for {a} {b}"
            );
        }
    }

    #[test]
    fn midpoint_is_halfway_in_l1() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 2.0);
        let m = a.midpoint(b);
        assert_eq!(a.dist(m), m.dist(b));
        assert_eq!(a.dist(m) + m.dist(b), a.dist(b));
    }

    #[test]
    fn dist_is_a_metric_on_samples() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
        ];
        for &a in &pts {
            assert_eq!(a.dist(a), 0.0);
            for &b in &pts {
                assert_eq!(a.dist(b), b.dist(a));
                for &c in &pts {
                    assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn from_tuple() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p, Point::new(1.0, 2.0));
    }
}
