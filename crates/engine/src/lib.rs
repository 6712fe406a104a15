//! Deferred-merge embedding engine with associative-skew support.
//!
//! This crate is the machinery underneath every router in the workspace
//! (`astdme-core`): a bottom-up **merge forest** over candidate regions, the
//! four merge cases of Kim 2006 Fig. 6, offset adjustment via wire sneaking
//! (Ch. V.E), **top-down embedding** into a routed tree, and an independent
//! **audit** that re-derives every delay from the final tree.
//!
//! # Model
//!
//! A subtree root is represented by a small set of [`Candidate`]s. Each
//! candidate pins down, exactly:
//!
//! * a [`Trr`](astdme_geom::Trr) region of feasible root positions, on which
//!   all delays are position-independent by construction (iso-delay loci);
//! * a [`DelayMap`]: for every sink group present in the subtree, the
//!   interval of root-to-sink delays;
//! * the subtree's load capacitance and accumulated wirelength;
//! * provenance: which child candidates and wire split produced it.
//!
//! Merging two candidates reduces to the δ-window feasibility problem of
//! [`astdme_delay`]; the merge case distinction of the paper (same group /
//! different groups / partially shared groups) falls out of which groups
//! the two delay maps share. Sampling happens only across the *split
//! continuum* (the number of candidates kept), never in the delay
//! bookkeeping.
//!
//! # Layout
//!
//! The merge procedure lives in the `merge/` module tree: `merge::node`
//! (ids and per-node candidate storage), `merge::context` (the `MergeCtx`
//! expansion view and candidate overlay), `merge::pairing` (constraint
//! assembly and bounded pair-cost ranking), `merge::expand` (expansion
//! into one reused candidate list and the in-place commit),
//! `merge::cases` (the Fig. 6 case analysis), `merge::class` (group
//! classes, their offsets and class fusing), `merge::offset` (wire
//! sneaking), and `merge::embed` (top-down embedding); `merge` itself holds
//! [`MergeForest`] and the rank → expand → commit orchestration.
//!
//! The central discipline: `MergeForest::merge` never hands `&mut self`
//! to the case analysis. Expansion runs against a `MergeCtx` of shared
//! borrows plus a private overlay for derived candidates, so every
//! expansion is a pure function of pre-merge state (the overlays are
//! committed deterministically in ranked-pair order afterwards). See the
//! `merge` module docs for the full map and the commit protocol.
//!
//! # Example
//!
//! ```
//! use astdme_delay::{DelayModel, RcParams};
//! use astdme_engine::{audit, EngineConfig, Groups, Instance, MergeForest, Sink};
//! use astdme_geom::Point;
//!
//! let sinks = vec![
//!     Sink::new(Point::new(0.0, 0.0), 1e-14),
//!     Sink::new(Point::new(200.0, 0.0), 1e-14),
//! ];
//! let groups = Groups::from_assignments(vec![0, 0], 1)?;
//! let inst = Instance::new(sinks, groups, RcParams::default(), Point::new(100.0, 300.0))?;
//!
//! let mut forest = MergeForest::for_instance(&inst, EngineConfig::default());
//! let (a, b) = (forest.leaves()[0], forest.leaves()[1]);
//! let root = forest.merge(a, b);
//! let tree = forest.embed(root, inst.source());
//! let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
//! assert!(report.max_intra_group_skew() < 1e-18);
//! # Ok::<(), astdme_engine::InstanceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod candidate;
mod config;
mod delaymap;
mod group;
mod instance;
mod merge;
mod repair;
mod routed;

pub use audit::{audit, group_ranges, AuditReport};
pub use candidate::{CandKind, Candidate};
pub use config::EngineConfig;
pub use delaymap::{DelayMap, DelayRange};
pub use group::{GroupId, Groups, InstanceError};
pub use instance::{Instance, Sink};
pub use merge::{
    EmbedMap, Embedding, MergeForest, MergeLog, MergeRecording, NodeId, Standing, NO_NODE,
};
pub use repair::{repair_group_skew, RepairOutcome};
pub use routed::{Children, RoutedNode, RoutedTree};
