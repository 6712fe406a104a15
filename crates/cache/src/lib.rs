//! Content-addressed subtree cache for repeated merge regions.
//!
//! Real routing traffic repeats itself: the same sub-instance (a cluster
//! of sinks with identical relative geometry, group structure, and delay
//! parameters) recurs across portfolio batches, across robustness-sweep
//! variants, and across repeated calls on the same scenario. This crate
//! provides the machinery that lets the pipeline recognize a repeat and
//! splice the previously planned and embedded subtree instead of
//! recomputing it — the dedup-on-merge design of miden-vm's
//! `MastForestMerger` (node fingerprints) transplanted to clock routing:
//!
//! * [`Fingerprint`] — a 128-bit digest from a vendored, word-oriented
//!   SipHash-style hasher; no external dependency, stable across
//!   platforms and releases of this workspace.
//! * [`region_fingerprint`] — the canonical fingerprint of a merge region:
//!   a translation-normalized instance plus the routing-relevant plan
//!   configuration, hashed field by field (see **Canonicalization** below).
//! * [`SubtreeCache`] — the shared, thread-safe handle the fleet layer
//!   threads through batches and sweeps: fingerprint → [`CachedRegion`]
//!   (the planned merge region's embedded node vector plus its trace
//!   counters), with hit/miss/insert/eviction [`CacheStats`]. Its bound is
//!   a deterministically evicted least-recently-used map (monotonic
//!   recency ticks, argmin eviction; no randomized or address-dependent
//!   state anywhere).
//!
//! # Canonicalization rules
//!
//! Two instances share a fingerprint exactly when they are bit-identical
//! after **translation normalization**: subtract the bounding-box minimum
//! corner (the anchor) from every sink position and from the source. The
//! fingerprint covers, in fixed order:
//!
//! 1. sink count, then per sink the normalized position bits
//!    (`f64::to_bits`) and the load-capacitance bits;
//! 2. group structure: group count, per-sink group assignment, per-group
//!    skew-bound bits;
//! 3. the normalized source position bits;
//! 4. the RC technology bits (`r_per_um`, `c_per_um`);
//! 5. the caller-supplied plan words — the routing-relevant stage
//!    configuration (delay model, engine preset, merge order, grouping
//!    and merge-stage discriminants), encoded by the crate that owns each
//!    config type.
//!
//! Everything is hashed as raw `u64` words — coordinate *bits*, never
//! rounded values — so the fingerprint inherits f64 equality exactly: no
//! epsilon, no false positives from nearby-but-different geometry. Every
//! lookup additionally checks a second fingerprint computed under an
//! independent key pair ([`CachedRegion::verify`]) and the sink count, so
//! a primary-key collision (already ~2⁻¹²⁸) cannot splice the wrong
//! subtree silently.
//!
//! # Determinism contract
//!
//! A cache *hit* returns the stored normalized node vector; splicing it at
//! the instance's anchor is the same arithmetic the miss path performs on
//! its freshly routed normalized tree. The pipeline therefore guarantees
//! **hit ≡ recompute to the bit** — trees, audit reports, wirelengths — at
//! every thread count, under every eviction order, and however the cache
//! is shared (see `astdme_core::pipeline`). Eviction order itself is
//! deterministic for a fixed operation sequence: recency is a monotonic
//! tick counter, never wall-clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod lru;
mod region;

pub use hash::Fingerprint;
pub use region::{region_fingerprint, CacheStats, CachedRegion, SubtreeCache};
