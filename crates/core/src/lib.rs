//! Associative-skew clock routing: AST-DME and its baselines.
//!
//! This crate is the public API of the `astdme` workspace, reproducing
//! *"Associative Skew Clock Routing for Difficult Instances"* (Min-seok
//! Kim, Texas A&M, 2006). It provides four routers over a shared
//! deferred-merge engine:
//!
//! * [`AstDme`] — **the paper's contribution** (Fig. 6): zero (or bounded)
//!   skew enforced only *within* each sink group, with merging allowed
//!   across groups (SDR merges), wire snaking, and offset adjustment for
//!   partially shared groups.
//! * [`ExtBst`] — the paper's baseline: bounded-skew routing (\[4\], Cong et
//!   al.) with a single global bound (10 ps in the paper's tables), which
//!   trivially satisfies any intra-group constraint.
//! * [`GreedyDme`] — classic zero-skew routing (Edahiro's greedy-DME):
//!   the strictest discipline, one global group at bound zero.
//! * [`StitchPerGroup`] — the construct-separately-then-stitch strawman of
//!   the earlier associative-skew work (\[12\]), used to reproduce the
//!   observation of the paper's Fig. 2.
//!
//! All four implement [`ClockRouter`]; results are
//! [`RoutedTree`]s that can be audited independently with [`audit`].
//!
//! Every route runs through one staged [`pipeline`] (group, merge,
//! embed, repair, audit) on the instance's own coordinates. Fleet batches
//! and streams ([`route_batch`], [`route_stream`]), Monte Carlo sweeps
//! ([`sweep`]) and incremental ECO sessions ([`EcoSession`]) all route
//! through that same body.
//!
//! # Example
//!
//! ```
//! use astdme_core::{AstDme, ClockRouter, ExtBst, Groups, Instance, Point, RcParams, Sink};
//!
//! // Two intermingled groups on a line.
//! let sinks: Vec<Sink> = (0..6)
//!     .map(|i| Sink::new(Point::new(500.0 * i as f64, 0.0), 1e-14))
//!     .collect();
//! let groups = Groups::from_assignments(vec![0, 1, 0, 1, 0, 1], 2)?;
//! let inst = Instance::new(sinks, groups, RcParams::default(), Point::new(1250.0, 2000.0))?;
//!
//! let ast = AstDme::new().route(&inst)?;
//! // Zero-bound EXT-BST == greedy-DME: the strictest global discipline.
//! let bst = ExtBst::new(0.0).route(&inst)?;
//!
//! // Associative skew may not spend more wire than the global baseline.
//! assert!(ast.total_wirelength() <= bst.total_wirelength() * 1.0001);
//! # Ok::<(), astdme_core::RouteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocmeter;
mod drivers;
pub mod eco;
mod error;
pub mod fault;
pub mod fleet;
pub mod pipeline;
pub mod robustness;
mod routers;
pub mod stopwatch;

pub use drivers::{
    merge_until_one, merge_until_one_from_scratch, run_bottom_up, run_bottom_up_from_scratch,
    ForestSpace,
};
pub use eco::{EcoEdit, EcoSession, EcoStats};
pub use error::RouteError;
pub use fault::{Fault, FaultKind, FaultPlan};
pub use fleet::{
    route_batch, route_stream, BatchPlan, BatchPolicy, RouteStream, StealStats, StreamPolicy,
    DEFAULT_STREAM_IN_FLIGHT,
};
pub use pipeline::{
    GroupingStage, MergeStage, RouteOutcome, RouteStats, StageId, StagePlan, StageStats,
};
pub use robustness::{
    sweep, MetricSummary, PerturbationSpec, RobustnessReport, SweepConfig, VariantFailure,
};
pub use routers::{AstDme, ClockRouter, ExtBst, GreedyDme, StitchPerGroup};

// The full modelling vocabulary, so downstream users need only this crate.
pub use astdme_delay::{DelayModel, RcParams};
pub use astdme_engine::{
    audit, group_ranges, repair_group_skew, AuditReport, CandKind, Candidate, DelayMap, DelayRange,
    EngineConfig, GroupId, Groups, Instance, InstanceError, MergeForest, MergeRecording, NodeId,
    RoutedNode, RoutedTree, Sink,
};
pub use astdme_geom::{Point, Rect, Trr};
pub use astdme_topo::{plan_round, MergeOrder, MergePlanner, MergeSpace, TopoConfig};
