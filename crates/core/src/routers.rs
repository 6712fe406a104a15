//! The four routers: AST-DME and its baselines.
//!
//! Every router is a thin stage configuration — a
//! [`StagePlan`](crate::pipeline::StagePlan) — over the shared
//! [`pipeline`](crate::pipeline). The baselines differ from [`AstDme`]
//! only in their grouping and merge stages, so each `plan()` is AST-DME's
//! plan with those fields replaced. The engine, merge-order and
//! delay-model builders exist once, on [`AstDme`]; to run a baseline
//! under other settings, set those fields of its `plan()` and call
//! [`pipeline::run`].

use astdme_delay::DelayModel;
use astdme_engine::{EngineConfig, Instance, RoutedTree};
use astdme_topo::TopoConfig;

use crate::pipeline::{self, GroupingStage, MergeStage, RouteOutcome, StagePlan};
use crate::RouteError;

/// A clock-tree router: consumes an [`Instance`], produces a
/// [`RoutedTree`].
///
/// All implementations in this crate are deterministic: the same instance
/// yields the same tree.
pub trait ClockRouter {
    /// Routes the instance through the staged pipeline, returning the
    /// tree together with its audit report and per-stage statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the instance (or a derived re-grouping)
    /// is invalid or a router parameter is out of range.
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError>;

    /// Routes the instance.
    ///
    /// The default implementation runs [`ClockRouter::route_traced`] and
    /// keeps only the tree.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the instance (or a derived re-grouping)
    /// is invalid or a router parameter is out of range.
    fn route(&self, inst: &Instance) -> Result<RoutedTree, RouteError> {
        Ok(self.route_traced(inst)?.tree)
    }

    /// A short, stable name for tables and logs.
    fn name(&self) -> &'static str;
}

/// **AST-DME** — the paper's associative-skew router (Fig. 6).
///
/// Skew bounds are enforced only within each sink group of the instance
/// (zero by default); subtrees from different groups merge freely through
/// shortest-distance regions, and partially-shared-group merges use
/// feasible-window intersection with wire sneaking (Ch. V.E).
///
/// ```
/// use astdme_core::{AstDme, ClockRouter, Groups, Instance, Point, RcParams, Sink};
///
/// let sinks = vec![
///     Sink::new(Point::new(0.0, 0.0), 1e-14),
///     Sink::new(Point::new(400.0, 0.0), 1e-14),
///     Sink::new(Point::new(800.0, 0.0), 1e-14),
/// ];
/// let inst = Instance::new(
///     sinks,
///     Groups::from_assignments(vec![0, 1, 0], 2)?,
///     RcParams::default(),
///     Point::new(400.0, 500.0),
/// )?;
/// let tree = AstDme::new().route(&inst)?;
/// assert_eq!(tree.sink_nodes().count(), 3);
/// # Ok::<(), astdme_core::RouteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AstDme {
    engine: EngineConfig,
    topo: TopoConfig,
    model: Option<DelayModel>,
}

impl AstDme {
    /// AST-DME with default engine and merge-order settings.
    pub fn new() -> Self {
        Self {
            engine: EngineConfig::default(),
            topo: TopoConfig::default(),
            model: None,
        }
    }

    /// Overrides the engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the merge-order configuration (Ch. V.F enhancements).
    pub fn with_topo(mut self, topo: TopoConfig) -> Self {
        self.topo = topo;
        self
    }

    /// Overrides the delay model (e.g. [`DelayModel::Pathlength`] to
    /// reproduce the primitive model of the earlier work \[12\]).
    pub fn with_model(mut self, model: DelayModel) -> Self {
        self.model = Some(model);
        self
    }

    /// The router as explicit stage configuration — what
    /// [`route_traced`](ClockRouter::route_traced) executes, and the plan
    /// an [`EcoSession`](crate::eco::EcoSession) takes.
    pub fn plan(&self) -> StagePlan {
        StagePlan {
            model: self.model,
            engine: self.engine,
            topo: self.topo,
            grouping: GroupingStage::Keep,
            merge: MergeStage::Flat,
        }
    }
}

impl Default for AstDme {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockRouter for AstDme {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        pipeline::run(inst, &self.plan())
    }

    fn name(&self) -> &'static str {
        "AST-DME"
    }
}

/// **EXT-BST** — the paper's baseline: bounded-skew routing with a single
/// global skew bound across *all* sinks (10 ps in the paper's tables),
/// which trivially satisfies every intra-group constraint up to the bound.
#[derive(Debug, Clone)]
pub struct ExtBst {
    bound: f64,
}

impl ExtBst {
    /// EXT-BST with a global skew bound in seconds (the paper uses
    /// `10e-12`).
    pub fn new(bound: f64) -> Self {
        Self { bound }
    }

    /// The paper's configuration: 10 ps global bound.
    pub fn paper() -> Self {
        Self::new(10e-12)
    }

    /// The router as explicit stage configuration (see [`AstDme::plan`]).
    pub fn plan(&self) -> StagePlan {
        StagePlan {
            grouping: GroupingStage::Single {
                bound: Some(self.bound),
            },
            ..AstDme::new().plan()
        }
    }
}

impl ClockRouter for ExtBst {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        pipeline::run(inst, &self.plan())
    }

    fn name(&self) -> &'static str {
        "EXT-BST"
    }
}

/// **greedy-DME** — classic zero-skew routing: every sink at identical
/// delay, the strictest (and longest-wire) discipline. Equivalent to
/// [`ExtBst`] with bound zero.
#[derive(Debug, Clone, Default)]
pub struct GreedyDme;

impl GreedyDme {
    /// Zero-skew routing with default settings.
    pub fn new() -> Self {
        Self
    }

    /// The router as explicit stage configuration (see [`AstDme::plan`]).
    pub fn plan(&self) -> StagePlan {
        StagePlan {
            grouping: GroupingStage::Single { bound: None },
            ..AstDme::new().plan()
        }
    }
}

impl ClockRouter for GreedyDme {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        pipeline::run(inst, &self.plan())
    }

    fn name(&self) -> &'static str {
        "greedy-DME"
    }
}

/// **Stitch-per-group** — the construct-separately-then-stitch approach of
/// the earlier associative-skew work (\[12\] in the paper): each group's
/// subtree is built to zero skew in isolation, then the group roots are
/// stitched together with zero skew across groups.
///
/// On intermingled groups this wastes wire through overlap (the paper's
/// Fig. 2a observation); it exists as the comparison strawman.
#[derive(Debug, Clone, Default)]
pub struct StitchPerGroup;

impl StitchPerGroup {
    /// Stitching router with default settings.
    pub fn new() -> Self {
        Self
    }

    /// The router as explicit stage configuration (see [`AstDme::plan`]).
    /// Zero skew everywhere (matching the \[12\] extension that forces
    /// zero inter-group offsets), but with a merge order that finishes
    /// each group before any cross-group merge.
    pub fn plan(&self) -> StagePlan {
        StagePlan {
            grouping: GroupingStage::Single { bound: None },
            merge: MergeStage::PerGroupThenStitch,
            ..AstDme::new().plan()
        }
    }
}

impl ClockRouter for StitchPerGroup {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        pipeline::run(inst, &self.plan())
    }

    fn name(&self) -> &'static str {
        "stitch-per-group"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EcoSession;
    use astdme_delay::RcParams;
    use astdme_engine::{audit, Groups, Sink};
    use astdme_geom::Point;

    /// Genuinely intermingled two-group instance: adjacent sinks alternate
    /// groups along a jittered line, with asymmetric loads.
    fn interleaved(n: usize) -> Instance {
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                Sink::new(
                    Point::new(800.0 * i as f64, 600.0 * (i % 3) as f64),
                    (1 + i % 4) as f64 * 1e-14,
                )
            })
            .collect();
        let assignment: Vec<usize> = (0..n).map(|i| i % 2).collect();
        Instance::new(
            sinks,
            Groups::from_assignments(assignment, 2).unwrap(),
            RcParams::default(),
            Point::new(400.0 * n as f64, 5000.0),
        )
        .unwrap()
    }

    #[test]
    fn all_routers_cover_all_sinks() {
        let inst = interleaved(8);
        let routers: Vec<Box<dyn ClockRouter>> = vec![
            Box::new(AstDme::new()),
            Box::new(ExtBst::paper()),
            Box::new(GreedyDme::new()),
            Box::new(StitchPerGroup::new()),
        ];
        for r in routers {
            let tree = r.route(&inst).unwrap();
            assert_eq!(tree.sink_nodes().count(), 8, "router {}", r.name());
        }
    }

    #[test]
    fn ast_dme_zero_intra_group_skew() {
        let inst = interleaved(10);
        let tree = AstDme::new().route(&inst).unwrap();
        let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
        assert!(
            report.max_intra_group_skew() < 1e-16,
            "intra-group skew {} too large",
            report.max_intra_group_skew()
        );
    }

    #[test]
    fn ext_bst_respects_global_bound() {
        let inst = interleaved(10);
        let bound = 10e-12;
        let tree = ExtBst::new(bound).route(&inst).unwrap();
        let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
        assert!(report.global_skew() <= bound + 1e-15);
    }

    #[test]
    fn greedy_dme_zero_global_skew() {
        let inst = interleaved(6);
        let tree = GreedyDme::new().route(&inst).unwrap();
        let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
        assert!(report.global_skew() < 1e-16);
    }

    #[test]
    fn ast_beats_global_baselines_on_interleaved_groups() {
        // Compare against a *tight* global bound: on an instance this
        // small, wire delays are well below 10 ps, so the paper's 10 ps
        // EXT-BST would be effectively unconstrained (the crossover the
        // bench harness shows at die scale).
        let inst = interleaved(12);
        let ast = AstDme::new().route(&inst).unwrap().total_wirelength();
        let zst = GreedyDme::new().route(&inst).unwrap().total_wirelength();
        let bst = ExtBst::new(1e-15).route(&inst).unwrap().total_wirelength();
        // AST's constraint set is a strict subset, but both are greedy
        // heuristics whose merge orders differ slightly; allow 2% noise.
        assert!(
            ast <= zst * 1.02,
            "AST ({ast}) should not exceed ZST ({zst}) beyond greedy noise"
        );
        assert!(
            ast <= bst * 1.02,
            "AST ({ast}) should not exceed tight EXT-BST ({bst}) beyond greedy noise"
        );
    }

    #[test]
    fn stitching_wastes_wire_on_interleaved_groups() {
        // Fig. 2 of the paper: separate per-group trees overlap.
        let inst = interleaved(12);
        let ast = AstDme::new().route(&inst).unwrap().total_wirelength();
        let stitch = StitchPerGroup::new()
            .route(&inst)
            .unwrap()
            .total_wirelength();
        assert!(
            ast < stitch,
            "AST ({ast}) should beat stitching ({stitch}) on intermingled groups"
        );
        // Stitching still satisfies the constraints (zero skew everywhere).
        let tree = StitchPerGroup::new().route(&inst).unwrap();
        let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
        assert!(report.max_intra_group_skew() < 1e-16);
    }

    #[test]
    fn zero_bound_ext_bst_routes_exactly_as_greedy_dme() {
        // The crate docs' claim: a zero global bound is zero skew, so the
        // two routers must agree to the bit, audit report included.
        let inst = interleaved(12);
        let greedy = GreedyDme::new().route_traced(&inst).unwrap();
        let bst = ExtBst::new(0.0).route_traced(&inst).unwrap();
        assert_eq!(bst.tree, greedy.tree);
        assert_eq!(bst.report, greedy.report);
    }

    #[test]
    fn negative_bound_rejected() {
        // One check, whichever way the bound arrives: the router, the
        // pipeline entry, or an ECO session.
        let inst = interleaved(4);
        for bound in [-1.0, f64::NAN] {
            let plan = ExtBst::new(bound).plan();
            let errs = [
                ExtBst::new(bound).route(&inst).unwrap_err(),
                pipeline::run(&inst, &plan).unwrap_err(),
                EcoSession::new(&inst, plan)
                    .err()
                    .expect("session must fail"),
            ];
            for err in errs {
                assert!(
                    matches!(err, RouteError::BadParameter(_)),
                    "{bound}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn pathlength_model_routes_but_does_not_control_elmore_skew() {
        // Ch. III of the paper: the linear model balances pathlength, which
        // does not equalize Elmore delay.
        let inst = interleaved(8);
        let tree = AstDme::new()
            .with_model(DelayModel::pathlength())
            .route(&inst)
            .unwrap();
        let path_report = audit(&tree, &inst, &DelayModel::pathlength());
        assert!(path_report.max_intra_group_skew() < 1e-9); // pathlength balanced
        let elmore_report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
        assert!(
            elmore_report.max_intra_group_skew() > 1e-15,
            "pathlength routing should leave real Elmore skew"
        );
    }
}
