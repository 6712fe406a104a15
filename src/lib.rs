//! # astdme — Associative Skew Clock Routing
//!
//! A Rust reproduction of *"Associative Skew Clock Routing for Difficult
//! Instances"* (Min-seok Kim, Texas A&M, 2006): the **AST-DME** algorithm,
//! which builds a clock routing tree enforcing skew constraints only within
//! identified groups of sinks, together with the classic substrates it
//! builds on (DME zero-skew routing, bounded-skew BST routing) and the
//! baselines it is evaluated against.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`astdme_core`] (re-exported at the root) — the routing algorithms:
//!   [`AstDme`], [`ExtBst`], [`GreedyDme`], [`StitchPerGroup`], all
//!   implementing [`ClockRouter`]. Every router runs the shared staged
//!   [`pipeline`] (group → merge → embed → repair
//!   → audit); [`ClockRouter::route_traced`] returns the tree together
//!   with its audit report and per-stage [`StageStats`], and
//!   [`route_batch`] fans whole instance portfolios out on one
//!   work-claiming loop over scoped threads — scheduled costliest-first
//!   by a [`BatchPlan`] — with input-ordered,
//!   bit-identical results and per-instance failure isolation (a
//!   panicking route surfaces as [`RouteError::Panicked`] in its own
//!   slot).
//! * [`instances`] — benchmark instance synthesis (`r1`–`r5` equivalents)
//!   and group partitioners.
//!
//! # Quickstart
//!
//! ```
//! use astdme::{audit, AstDme, ClockRouter, DelayModel, Groups, Instance, Point, RcParams, Sink};
//!
//! // Four sinks in two associated groups (0 and 1), intermingled.
//! let sinks = vec![
//!     Sink::new(Point::new(0.0, 0.0), 1e-14),
//!     Sink::new(Point::new(1000.0, 0.0), 1e-14),
//!     Sink::new(Point::new(0.0, 1000.0), 1e-14),
//!     Sink::new(Point::new(1000.0, 1000.0), 1e-14),
//! ];
//! let groups = Groups::from_assignments(vec![0, 1, 0, 1], 2)?;
//! let inst = Instance::new(sinks, groups, RcParams::default(), Point::new(500.0, 500.0))?;
//!
//! let routed = AstDme::new().route(&inst)?;
//! let report = audit(&routed, &inst, &DelayModel::elmore(*inst.rc()));
//! assert!(report.max_intra_group_skew() < 1e-16); // zero skew within groups
//! # Ok::<(), astdme::RouteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use astdme_core::*;

/// Benchmark instance synthesis: seeded `r1`–`r5` equivalents, clustered and
/// intermingled group partitioners, JSON instance I/O.
pub mod instances {
    pub use astdme_instances::*;
}
