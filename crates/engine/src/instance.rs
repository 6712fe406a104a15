//! Clock routing instances: sinks, groups, technology, source.

use astdme_delay::RcParams;
use astdme_geom::{Point, Rect};

use crate::{GroupId, Groups, InstanceError};

/// A clock sink (flip-flop clock pin): a position and a load capacitance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sink {
    /// Placement of the sink in the Manhattan plane (µm).
    pub pos: Point,
    /// Input capacitance of the sink (F).
    pub cap: f64,
}

impl Sink {
    /// Creates a sink at `pos` with load capacitance `cap` (farads).
    #[inline]
    pub fn new(pos: Point, cap: f64) -> Self {
        Self { pos, cap }
    }
}

/// A complete associative-skew clock routing instance (the input of the
/// AST problem, Ch. II of the paper): sink placements and loads, the group
/// partition with intra-group skew bounds, interconnect technology, and the
/// clock source location.
///
/// ```
/// use astdme_delay::RcParams;
/// use astdme_engine::{Groups, Instance, Sink};
/// use astdme_geom::Point;
///
/// let sinks = vec![
///     Sink::new(Point::new(0.0, 0.0), 2e-14),
///     Sink::new(Point::new(500.0, 100.0), 1e-14),
/// ];
/// let inst = Instance::new(
///     sinks,
///     Groups::from_assignments(vec![0, 1], 2)?,
///     RcParams::default(),
///     Point::new(250.0, 50.0),
/// )?;
/// assert_eq!(inst.sink_count(), 2);
/// # Ok::<(), astdme_engine::InstanceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    sinks: Vec<Sink>,
    groups: Groups,
    rc: RcParams,
    source: Point,
}

impl Instance {
    /// Builds and validates an instance.
    ///
    /// # Errors
    ///
    /// Fails when there are no sinks, the group assignment does not cover
    /// the sinks, or a sink has a non-finite position / non-positive
    /// capacitance.
    pub fn new(
        sinks: Vec<Sink>,
        groups: Groups,
        rc: RcParams,
        source: Point,
    ) -> Result<Self, InstanceError> {
        if sinks.is_empty() {
            return Err(InstanceError::NoSinks);
        }
        if groups.sink_count() != sinks.len() {
            return Err(InstanceError::AssignmentLengthMismatch {
                sinks: sinks.len(),
                assignments: groups.sink_count(),
            });
        }
        for (i, s) in sinks.iter().enumerate() {
            let finite = s.pos.x.is_finite() && s.pos.y.is_finite();
            if !finite || !s.cap.is_finite() || s.cap <= 0.0 {
                return Err(InstanceError::BadSink(i));
            }
        }
        if !source.x.is_finite() || !source.y.is_finite() {
            return Err(InstanceError::BadSink(sinks.len()));
        }
        Ok(Self {
            sinks,
            groups,
            rc,
            source,
        })
    }

    /// The sinks.
    #[inline]
    pub fn sinks(&self) -> &[Sink] {
        &self.sinks
    }

    /// Number of sinks.
    #[inline]
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// The group partition and bounds.
    #[inline]
    pub fn groups(&self) -> &Groups {
        &self.groups
    }

    /// The group of sink `i`.
    #[inline]
    pub fn group_of(&self, i: usize) -> GroupId {
        self.groups.group_of(i)
    }

    /// Interconnect RC technology.
    #[inline]
    pub fn rc(&self) -> &RcParams {
        &self.rc
    }

    /// Clock source location `s0`.
    #[inline]
    pub fn source(&self) -> Point {
        self.source
    }

    /// Bounding box of all sink positions.
    pub fn bounding_box(&self) -> Rect {
        Rect::bounding(self.sinks.iter().map(|s| s.pos)).expect("validated non-empty")
    }

    /// Returns a copy of the instance with the group partition replaced
    /// (e.g. to run the single-group baselines on the same placement).
    ///
    /// # Errors
    ///
    /// Fails if the new partition does not cover the sinks.
    pub fn with_groups(&self, groups: Groups) -> Result<Self, InstanceError> {
        Self::new(self.sinks.clone(), groups, self.rc, self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sinks2() -> Vec<Sink> {
        vec![
            Sink::new(Point::new(0.0, 0.0), 1e-14),
            Sink::new(Point::new(10.0, 5.0), 1e-14),
        ]
    }

    #[test]
    fn valid_instance_builds() {
        let inst = Instance::new(
            sinks2(),
            Groups::single(2).unwrap(),
            RcParams::default(),
            Point::new(5.0, 5.0),
        )
        .unwrap();
        assert_eq!(inst.sink_count(), 2);
        assert_eq!(inst.bounding_box().width(), 10.0);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        let err = Instance::new(
            Vec::new(),
            Groups::single(1).unwrap(),
            RcParams::default(),
            Point::default(),
        )
        .unwrap_err();
        assert_eq!(err, InstanceError::NoSinks);

        let err = Instance::new(
            sinks2(),
            Groups::single(3).unwrap(),
            RcParams::default(),
            Point::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            InstanceError::AssignmentLengthMismatch { .. }
        ));
    }

    #[test]
    fn rejects_bad_sinks() {
        let mut s = sinks2();
        s[1].cap = 0.0;
        let err = Instance::new(
            s,
            Groups::single(2).unwrap(),
            RcParams::default(),
            Point::default(),
        )
        .unwrap_err();
        assert_eq!(err, InstanceError::BadSink(1));

        let mut s = sinks2();
        s[0].pos = Point::new(f64::NAN, 0.0);
        assert!(Instance::new(
            s,
            Groups::single(2).unwrap(),
            RcParams::default(),
            Point::default()
        )
        .is_err());
    }

    #[test]
    fn with_groups_swaps_partition() {
        let inst = Instance::new(
            sinks2(),
            Groups::single(2).unwrap(),
            RcParams::default(),
            Point::default(),
        )
        .unwrap();
        let re = inst
            .with_groups(Groups::from_assignments(vec![0, 1], 2).unwrap())
            .unwrap();
        assert_eq!(re.groups().group_count(), 2);
        assert!(inst.with_groups(Groups::single(5).unwrap()).is_err());
    }
}
