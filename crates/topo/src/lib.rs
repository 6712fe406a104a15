//! Merging-order schemes for bottom-up clock routing.
//!
//! The AST-DME algorithm (Kim 2006, Fig. 6, step 3) repeatedly merges the
//! pair of subtrees at minimum merging cost. This crate provides:
//!
//! * [`GridIndex`] — a bucketed neighbor index over subtree root regions,
//!   so nearest-pair queries do not scan all pairs, with one ranked
//!   nearest-neighbor query whose answer is a [`Nearest`]: among exactly
//!   tied distances the smallest key wins, the one tie rule of every
//!   planner and of the ECO replay;
//! * [`plan_round`] — one round of merge planning under a [`TopoConfig`],
//!   **from scratch** (rebuilds the index and re-queries every neighbor on
//!   each call): the reference implementation;
//! * [`min_region_distance`] — the exact merging cost of two subtrees
//!   (minimum distance between their candidate regions), the one kernel
//!   every planner scores pairs with;
//! * [`MergePlanner`] — the **incremental planner** the routing drivers
//!   use: neighbor caches and pair scores survive across rounds, so only
//!   invalidated caches pay the exact-distance refinement, making a full
//!   bottom-up run near-linear instead of quadratic. It copies each
//!   subtree's hull, delay and candidate regions once, when the subtree
//!   becomes active, and scores pairs from that copy alone. Multi-merge rounds
//!   rebuild the flat grid once per round; greedy rounds patch it in place
//!   (see the `planner` module docs for the data structures and the
//!   equivalence argument);
//! * two merge orders under either planner:
//!   * [`MergeOrder::GreedyNearest`]: the paper's base scheme, one
//!     minimum-cost pair per round;
//!   * [`MergeOrder::MultiMerge`]: Edahiro's simultaneous multi-merging
//!     (enhancement 1 of Ch. V.F) — a large set of disjoint nearest pairs
//!     per round, reducing neighbor-graph rebuilds;
//!   * a **delay-target bias** (enhancement 2 of Ch. V.F): preferring to
//!     merge subtrees with large accumulated delay first, which reduces
//!     later imbalance and hence wire snaking.
//!
//! The schemes only *order* merges; skew feasibility is enforced by the
//! engine regardless, so any ordering yields a correct tree — ordering
//! affects wirelength and runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod plan;
mod planner;

pub use grid::{GridIndex, Nearest};
pub use plan::{
    min_region_distance, pair_score, plan_round, round_limit, score_bits, select_disjoint,
    space_distance, MergeOrder, MergeSpace, TopoConfig, BRUTE_FORCE_CUTOFF,
};
pub use planner::{MergePlanner, NnSnapshotRow};
