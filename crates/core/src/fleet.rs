//! The fleet layer: batch and streaming routing of whole instance
//! portfolios, scheduled by a cost model onto `astdme_par`'s persistent
//! worker pool.
//!
//! The paper's evaluation routes a portfolio — every circuit × group count
//! × router — and a production deployment serves many scenarios
//! concurrently. Two entry points cover both shapes of consumption:
//!
//! * [`route_batch`] — **barrier semantics**: fans whole instances out
//!   across pool workers and returns outcomes in input order, bit-identical
//!   to a sequential loop at every thread count. Internally this is the
//!   streaming execution below plus a collect-and-reorder step.
//! * [`route_stream`] — **completion-order semantics**: returns a
//!   [`RouteStream`] iterator yielding `(input index, outcome)` pairs *as
//!   instances finish*, with a bounded number of completed-but-unconsumed
//!   outcomes in flight. The first small instance of a skewed portfolio is
//!   available orders of magnitude before the barrier would release it —
//!   the serving-layer shape the ROADMAP's daemon item needs.
//!
//! # Scheduling
//!
//! Portfolios are skewed: one n=4000 circuit takes orders of magnitude
//! longer than an n=250 one, and a fixed contiguous-chunk split would park
//! every small instance behind the big one on a single worker. Two
//! mechanisms prevent that:
//!
//! * **Largest-first ordering.** A [`BatchPlan`] estimates each
//!   instance's cost — a-priori from sink count and group structure, or
//!   refined by observed per-stage seconds ([`crate::RouteStats`]) fed to
//!   a [`CostModel`] from prior runs — and hands instances to the workers
//!   costliest first, the classic LPT heuristic.
//! * **Work claiming.** Batch and stream both run [`astdme_par`]'s one
//!   claim loop over the scheduled order: a worker that finishes early
//!   claims the next pending instance instead of idling behind a static
//!   chunk boundary. The batch is the scoped form (the calling thread
//!   routes too, and files each outcome in its input slot); the stream is
//!   the detached form. Workers come from the persistent pool — parked
//!   threads woken per call, not spawned per call.
//!
//! Both mechanisms change scheduling only: each instance's outcome is a
//! pure function of the instance and router, so the batch vector is
//! identical at every thread count (and to the sequential loop), and the
//! stream yields the same `(index, outcome)` set in a different arrival
//! order.
//!
//! Instance-level fan-out is the only parallelism: a single route is one
//! chain of dependent merges. Workers are marked, so a [`ClockRouter`]
//! that itself routes a batch runs that inner batch inline on its worker
//! instead of oversubscribing the machine — one layer of threads, never a
//! multiplication.
//!
//! # Failure isolation
//!
//! Errors are per-instance: one invalid instance yields its own
//! [`RouteError`] slot and the rest of the batch routes normally. That
//! holds for *panics* too — the fleet layer catches a panic inside a
//! router and surfaces it as [`RouteError::Panicked`] for that instance
//! only, instead of letting the unwind kill the whole batch or stream.
//!
//! # Stream lifecycle
//!
//! A [`RouteStream`] owns its instances and router handle (workers are
//! detached pool jobs, so nothing may borrow from the caller), bounds
//! completed-unconsumed outcomes at [`StreamPolicy::in_flight`] (workers
//! block rather than pile up results), and cancels on drop: dropping the
//! iterator early stops workers from claiming further instances and
//! unblocks any worker waiting to deliver — no joins, no deadlocks, no
//! leaked work beyond the instances already being routed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use astdme_cache::{BoundedLru, SubtreeCache};
use astdme_engine::Instance;
use astdme_par::ClaimStream;

use crate::fault::FaultPlan;
use crate::pipeline::{RouteOutcome, RouteStats};
use crate::{ClockRouter, RouteError};

pub use astdme_par::StealStats;

/// Estimates per-instance routing cost for [`BatchPlan`] scheduling.
///
/// A fresh model prices an instance a-priori from its sink count and group
/// structure ([`CostModel::static_cost`]); feeding it observed per-stage
/// wall-clock from prior runs ([`CostModel::observe`]) replaces the
/// a-priori guess with measured seconds for instance shapes it has seen,
/// and calibrates the a-priori scale for shapes it has not.
///
/// Only the *relative order* of estimates matters to the schedule, so an
/// uncalibrated model is perfectly usable — observations just sharpen the
/// largest-first ordering when a portfolio mixes repeat shapes (as bench
/// sweeps and production re-routes do).
///
/// The exact-shape refinement map is **bounded**: a long-lived model fed a
/// stream of distinct shapes (a service re-planning many portfolios) keeps
/// only the [`COST_MODEL_SHAPES`] most recently used shapes, evicting
/// deterministically via [`BoundedLru`]. The global calibration sums are
/// unbounded scalars and keep every observation's weight regardless of
/// eviction, so an evicted shape degrades gracefully to a calibrated
/// static estimate rather than an uncalibrated one.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Observed `(total seconds, runs)` per instance shape, keyed by
    /// `(sink count, group count)`; bounded and LRU-evicted.
    observed: BoundedLru<(usize, usize), (f64, u32)>,
    /// Sum of [`CostModel::static_cost`] over all observations.
    observed_static: f64,
    /// Sum of observed seconds over all observations.
    observed_seconds: f64,
}

/// Default bound on the distinct instance shapes a [`CostModel`] keeps
/// exact observations for; least-recently-used shapes beyond it fall back
/// to the calibrated static estimate.
pub const COST_MODEL_SHAPES: usize = 512;

impl Default for CostModel {
    fn default() -> Self {
        Self::with_shape_capacity(COST_MODEL_SHAPES)
    }
}

impl CostModel {
    /// A model with no observations: estimates are purely a-priori.
    pub fn new() -> Self {
        Self::default()
    }

    /// A model whose exact-shape map holds at most `shapes` entries
    /// (clamped to ≥ 1); eviction is deterministic LRU.
    pub fn with_shape_capacity(shapes: usize) -> Self {
        Self {
            observed: BoundedLru::new(shapes),
            observed_static: 0.0,
            observed_seconds: 0.0,
        }
    }

    /// Maximum number of distinct shapes the exact-observation map holds.
    pub fn shape_capacity(&self) -> usize {
        self.observed.capacity()
    }

    /// Number of distinct shapes currently holding exact observations.
    pub fn shapes_observed(&self) -> usize {
        self.observed.len()
    }

    /// The a-priori cost of routing `inst`: sink count times a log factor
    /// for the merge loop, times a mild group-structure factor (more
    /// groups mean more constraint bookkeeping per merge). Unitless — the
    /// absolute scale is irrelevant to scheduling; only ordering counts.
    pub fn static_cost(inst: &Instance) -> f64 {
        let n = inst.sink_count() as f64;
        let k = inst.groups().group_count() as f64;
        n * n.log2().max(1.0) * (1.0 + 0.1 * (k - 1.0))
    }

    /// Records one routed instance's observed pipeline wall-clock
    /// (`stats.total_seconds()`), refining future [`CostModel::estimate`]
    /// calls for this instance shape and calibrating the a-priori scale
    /// for unseen ones.
    pub fn observe(&mut self, inst: &Instance, stats: &RouteStats) {
        let secs = stats.total_seconds();
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        let shape = (inst.sink_count(), inst.groups().group_count());
        if let Some(entry) = self.observed.get_mut(&shape) {
            entry.0 += secs;
            entry.1 += 1;
        } else {
            self.observed.insert(shape, (secs, 1));
        }
        self.observed_static += Self::static_cost(inst);
        self.observed_seconds += secs;
    }

    /// Estimated cost of routing `inst`: the mean observed seconds for its
    /// exact shape when available, otherwise [`CostModel::static_cost`]
    /// scaled by the global seconds-per-static-unit calibration (1.0 when
    /// nothing has been observed yet). Reads without touching LRU recency
    /// — estimating a batch never perturbs which shapes get evicted.
    pub fn estimate(&self, inst: &Instance) -> f64 {
        if let Some(&(total, runs)) = self
            .observed
            .peek(&(inst.sink_count(), inst.groups().group_count()))
        {
            return total / f64::from(runs);
        }
        let scale = if self.observed_static > 0.0 && self.observed_seconds > 0.0 {
            self.observed_seconds / self.observed_static
        } else {
            1.0
        };
        Self::static_cost(inst) * scale
    }

    /// The a-priori cost of an incremental ECO flush
    /// ([`crate::eco::EcoSession::flush`]) touching `dirty` sinks of
    /// `inst`: the dirty cone's re-merging work (`dirty · log n`, with the
    /// same group factor as [`CostModel::static_cost`]) plus the linear
    /// sweep the replay pays regardless (leaf mapping, embedding, audit).
    ///
    /// Priced by the **dirty region, not the instance**: a one-sink move
    /// on a 4000-sink instance must schedule cheaper than a fresh
    /// 250-sink route. A flush touching every sink degenerates to
    /// [`CostModel::static_cost`] (it *is* a full reroute).
    pub fn static_flush_cost(inst: &Instance, dirty: usize) -> f64 {
        if dirty >= inst.sink_count() {
            return Self::static_cost(inst);
        }
        let n = inst.sink_count() as f64;
        let k = inst.groups().group_count() as f64;
        let cone = dirty as f64 * n.log2().max(1.0) * (1.0 + 0.1 * (k - 1.0));
        cone + 0.05 * n
    }

    /// Estimated cost of flushing a `dirty`-sink ECO batch on `inst`:
    /// [`CostModel::static_flush_cost`] under the same global
    /// seconds-per-static-unit calibration as [`CostModel::estimate`]
    /// (flushes share the pipeline's stages, so the full-route calibration
    /// transfers).
    pub fn estimate_flush(&self, inst: &Instance, dirty: usize) -> f64 {
        let scale = if self.observed_static > 0.0 && self.observed_seconds > 0.0 {
            self.observed_seconds / self.observed_static
        } else {
            1.0
        };
        Self::static_flush_cost(inst, dirty) * scale
    }
}

/// Per-batch hardening policy: deadline budgets, fault injection, and
/// index attribution for errors.
///
/// The default policy is exactly the historic behavior — no deadline, no
/// injected faults, errors attributed by position in the batch — so
/// [`route_batch`] and [`BatchPlan::route`] are unchanged for existing
/// callers. The robustness sweep ([`crate::robustness`]) and the
/// fault-tolerance tests construct explicit policies.
#[derive(Debug, Clone, Default)]
pub struct BatchPolicy {
    /// Per-instance wall-clock budget in seconds, checked cooperatively at
    /// the checkpoint after every pipeline stage; an overrun fails that
    /// instance's slot with [`RouteError::DeadlineExceeded`] while the
    /// rest of the batch returns unchanged. `None` disables the check.
    pub deadline_seconds: Option<f64>,
    /// Deterministic fault schedule, keyed by *attributed* instance index
    /// (i.e. batch position plus [`BatchPolicy::index_offset`]).
    pub faults: FaultPlan,
    /// Added to each instance's batch position for error attribution and
    /// fault lookup — a chunked sweep sets this to the chunk's base so
    /// errors carry sweep-global variant indices.
    pub index_offset: usize,
    /// Shared content-addressed subtree cache consulted by every route in
    /// the batch ([`SubtreeCache`] is a cheap `Arc` handle). Repeated
    /// merge regions across the batch — duplicate placements, translated
    /// copies, re-planned portfolios — route once and splice thereafter.
    ///
    /// The cache reaches the routers through the thread-local route
    /// context; each of this crate's routers hands it to
    /// [`crate::pipeline::run`] as that call's explicit `cache`
    /// argument. Nothing else picks it up: an
    /// [`EcoSession`](crate::eco::EcoSession) opened inside the batch
    /// uses only the cache it was given.
    ///
    /// A hit is **bit-identical to the recompute** the miss path would
    /// perform: cached outcomes are a pure function of the instance and
    /// plan, never of cache state, capacity, sharing, eviction order, or
    /// thread count. (The cached pipeline routes in the
    /// translation-normalized frame, so its outcomes coincide with the
    /// cache-*free* path exactly when the instance's bounding-box minimum
    /// corner is already the origin; otherwise last-ulp merge coordinates
    /// may differ between the two modes, both independently audited.)
    /// `None` (the default) routes every instance in the raw frame.
    pub cache: Option<SubtreeCache>,
}

impl BatchPolicy {
    /// The default policy: no deadline, no faults, zero offset, no cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-instance deadline budget; returns `self` for chaining.
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline_seconds = Some(seconds);
        self
    }

    /// Sets the fault schedule; returns `self` for chaining.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a shared subtree cache (a cheap `Arc` clone of the handle);
    /// returns `self` for chaining.
    pub fn with_cache(mut self, cache: SubtreeCache) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// A schedule for routing one batch: per-instance cost estimates plus the
/// largest-first order the work-stealing pool consumes them in.
///
/// The plan is pure scheduling — [`BatchPlan::route`] returns outcomes in
/// **input order** and bit-identical to a sequential loop no matter how
/// the estimates rank the instances. A wildly wrong cost model can only
/// cost wall-clock, never change a tree.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Input indices, costliest first (ties broken by input index, so the
    /// schedule itself is deterministic).
    order: Vec<usize>,
    /// Estimated cost per *input* index.
    cost: Vec<f64>,
}

impl BatchPlan {
    /// Plans `instances` with a fresh (a-priori) [`CostModel`].
    pub fn new(instances: &[Instance]) -> Self {
        Self::with_model(instances, &CostModel::new())
    }

    /// Plans `instances` largest-first under `model`'s estimates.
    pub fn with_model(instances: &[Instance], model: &CostModel) -> Self {
        let cost: Vec<f64> = instances.iter().map(|inst| model.estimate(inst)).collect();
        let mut order: Vec<usize> = (0..instances.len()).collect();
        order.sort_by(|&a, &b| cost[b].total_cmp(&cost[a]).then(a.cmp(&b)));
        Self { order, cost }
    }

    /// The scheduled order: input indices, costliest first.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Estimated costs, indexed by *input* position.
    pub fn costs(&self) -> &[f64] {
        &self.cost
    }

    /// Routes the batch under this schedule; see [`route_batch`] for the
    /// result contract. `instances` must be the slice the plan was built
    /// from (or one of equal length — the plan only permutes indices).
    pub fn route<R>(
        &self,
        instances: &[Instance],
        router: &R,
    ) -> Vec<Result<RouteOutcome, RouteError>>
    where
        R: ClockRouter + Sync + ?Sized,
    {
        self.route_with_policy(instances, router, &BatchPolicy::default())
            .0
    }

    /// Like [`BatchPlan::route`], under an explicit [`BatchPolicy`] —
    /// per-instance deadlines, deterministic fault injection, index-offset
    /// attribution, a shared subtree cache — and additionally returning
    /// the fan-out's per-worker [`StealStats`] (the scaling bench's
    /// balance measurement reads these). Instances the policy does not
    /// touch return outcomes bit-identical to a policy-free run at every
    /// thread count.
    ///
    /// This is the collect-and-reorder form of the streaming execution:
    /// the calling thread and pool helpers claim schedule slots from one
    /// cursor, and the caller files each outcome in its input slot as it
    /// arrives. Each outcome is a pure function of its instance and the
    /// policy, so the reorder step preserves bit-identity with the
    /// sequential loop.
    pub fn route_with_policy<R>(
        &self,
        instances: &[Instance],
        router: &R,
        policy: &BatchPolicy,
    ) -> (Vec<Result<RouteOutcome, RouteError>>, StealStats)
    where
        R: ClockRouter + Sync + ?Sized,
    {
        assert_eq!(
            self.order.len(),
            instances.len(),
            "BatchPlan built for a different batch size"
        );
        let len = instances.len();
        let mut out: Vec<Option<Result<RouteOutcome, RouteError>>> = Vec::with_capacity(len);
        out.resize_with(len, || None);
        // Every outcome fits in flight: a helper never waits on the
        // caller, who may be routing the batch's largest instance.
        let stats = astdme_par::claim_loop(
            len,
            len,
            |slot| {
                let idx = self.order[slot];
                route_caught(router, &instances[idx], idx + policy.index_offset, policy)
            },
            |slot, result| out[self.order[slot]] = Some(result),
        );
        let out = out
            .into_iter()
            .map(|r| r.expect("schedule order is a permutation of the batch"))
            .collect();
        (out, stats)
    }
}

/// Routes one instance under the batch policy, converting a panic inside
/// the router into a per-instance [`RouteError::Panicked`] attributed with
/// the instance's index and sink count — the isolation guarantee of the
/// fleet layer. Installs the thread-local route context the pipeline's
/// fault/deadline checkpoints poll; the RAII guard clears it even when the
/// route panics, so the worker thread is clean for its next instance.
/// Crate-visible: the robustness sweep routes its variants through the
/// same guarded path.
pub(crate) fn route_caught<R>(
    router: &R,
    inst: &Instance,
    index: usize,
    policy: &BatchPolicy,
) -> Result<RouteOutcome, RouteError>
where
    R: ClockRouter + ?Sized,
{
    catch_unwind(AssertUnwindSafe(|| {
        let _ctx = crate::fault::install(
            index,
            policy.deadline_seconds,
            policy.faults.get(index),
            policy.cache.clone(),
        );
        router.route_traced(inst)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(RouteError::Panicked {
            instance: index,
            sinks: inst.sink_count(),
            message,
        })
    })
}

/// Routes every instance in `instances` through `router`, fanning
/// instances out across work-stealing threads, costliest instance first
/// (see the [module docs](self) for the scheduling model).
///
/// Results come back **in input order**, one per instance, each carrying
/// the routed tree plus its audit report and per-stage stats
/// ([`RouteOutcome`]). The output is bit-identical to
/// `instances.iter().map(|i| router.route_traced(i))` at every thread
/// count (including the [`astdme_par::set_thread_override`] settings the
/// determinism tests sweep): scheduling changes, trees never do.
///
/// Errors are per-instance — one invalid *or panicking* instance does not
/// poison the rest of the batch; a panic surfaces as
/// [`RouteError::Panicked`] in that instance's slot.
///
/// Equivalent to `BatchPlan::new(instances).route(instances, router)`;
/// build the [`BatchPlan`] yourself to reuse a calibrated [`CostModel`],
/// and call [`BatchPlan::route_with_policy`] to attach a [`BatchPolicy`]
/// (deadlines, faults, a shared [`SubtreeCache`]) or to read the
/// fan-out's [`StealStats`].
pub fn route_batch<R>(instances: &[Instance], router: &R) -> Vec<Result<RouteOutcome, RouteError>>
where
    R: ClockRouter + Sync + ?Sized,
{
    BatchPlan::new(instances).route(instances, router)
}

/// Default bound on completed-but-unconsumed outcomes a [`RouteStream`]
/// holds before its workers block: deep enough that a consumer doing real
/// work per result never stalls the workers, shallow enough that a slow
/// consumer of a large portfolio caps memory at a handful of trees.
pub const DEFAULT_STREAM_IN_FLIGHT: usize = 16;

/// How a [`route_stream`] call runs: the per-instance hardening policy
/// plus the stream's in-flight bound and worker count.
#[derive(Debug, Clone)]
pub struct StreamPolicy {
    /// Per-instance hardening applied to every routed instance: deadline,
    /// fault injection, index-offset attribution, subtree cache — exactly
    /// the [`BatchPolicy`] semantics of the barrier path.
    pub batch: BatchPolicy,
    /// Bound on completed-but-unconsumed outcomes (clamped to ≥ 1 at
    /// stream construction). Workers that finish an instance while the
    /// buffer is full block until the consumer catches up, so peak live
    /// trees stay at `in_flight` plus one per worker.
    pub in_flight: usize,
    /// Number of stream workers, capped at the instance count; `None`
    /// (the default) uses [`astdme_par::effective_threads`] — the thread
    /// override when set, else `ASTDME_THREADS`/`available_parallelism`.
    pub workers: Option<usize>,
}

impl Default for StreamPolicy {
    fn default() -> Self {
        Self {
            batch: BatchPolicy::default(),
            in_flight: DEFAULT_STREAM_IN_FLIGHT,
            workers: None,
        }
    }
}

impl StreamPolicy {
    /// The default policy: no hardening, [`DEFAULT_STREAM_IN_FLIGHT`]
    /// outcomes in flight, automatic worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-instance hardening policy; returns `self`.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the in-flight bound (clamped to at least 1); returns `self`.
    pub fn with_in_flight(mut self, in_flight: usize) -> Self {
        self.in_flight = in_flight.max(1);
        self
    }

    /// Pins the worker count (capped at the instance count when the
    /// stream starts); returns `self`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }
}

/// A completion-order stream of routing outcomes; see [`route_stream`].
///
/// Iterates `(input index, outcome)` pairs in the order instances
/// *finish* — for a skewed portfolio under multiple workers, the first
/// yields arrive while the largest instance is still routing. The full
/// drain contains exactly one pair per instance; collecting and reordering
/// them reproduces [`route_batch`]'s vector bit for bit.
///
/// Dropping the stream before exhaustion **cancels** it: workers stop
/// claiming new instances, any worker blocked on delivery unblocks
/// immediately (its completed outcome is discarded), and instances already
/// mid-route run to completion on the pool without anything waiting on
/// them. Dropping never blocks and never deadlocks the pool.
pub struct RouteStream {
    /// The detached claim loop; dropping it stops further claims. Each
    /// item is `(schedule slot, (input index, outcome))`.
    claims: ClaimStream<(usize, Result<RouteOutcome, RouteError>)>,
    total: usize,
    yielded: usize,
}

impl std::fmt::Debug for RouteStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteStream")
            .field("total", &self.total)
            .field("yielded", &self.yielded)
            .finish_non_exhaustive()
    }
}

impl RouteStream {
    /// Number of instances the stream was started with.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of outcomes yielded so far.
    pub fn yielded(&self) -> usize {
        self.yielded
    }

    /// Outcomes not yet yielded.
    pub fn remaining(&self) -> usize {
        self.total - self.yielded
    }
}

impl Iterator for RouteStream {
    type Item = (usize, Result<RouteOutcome, RouteError>);

    fn next(&mut self) -> Option<Self::Item> {
        let (_slot, item) = self.claims.next()?;
        self.yielded += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        (remaining, Some(remaining))
    }
}

/// Routes `instances` through `router` on detached pool workers and
/// returns a [`RouteStream`] yielding `(input index, outcome)` pairs in
/// **completion order** — each result available the moment its instance
/// finishes, instead of at the batch barrier.
///
/// Instances are scheduled costliest-first (the same [`BatchPlan`] LPT
/// order as [`route_batch`]) and claimed from a shared cursor, so the
/// skewed-portfolio behavior is: the big instance starts immediately on
/// one worker while the others drain the small ones — time-to-first-result
/// is one *small* route, not the whole batch (the scaling bench's
/// `latency` section measures exactly this against the barrier wait).
///
/// Per-instance semantics are identical to the batch path: outcomes are a
/// pure function of `(instance, router, policy.batch)`, panics surface as
/// [`RouteError::Panicked`] in their own instance's pair while later
/// completions keep arriving, and deadlines/faults/caches apply per
/// [`BatchPolicy`]. Collecting the stream and sorting by index reproduces
/// [`route_batch`] bit for bit.
///
/// The stream owns `instances` and the router handle — workers are
/// detached pool jobs that may outlive any particular stack frame, so
/// nothing here can borrow. An empty `instances` yields an immediately
/// exhausted stream.
pub fn route_stream(
    instances: Vec<Instance>,
    router: Arc<dyn ClockRouter + Send + Sync>,
    policy: StreamPolicy,
) -> RouteStream {
    let total = instances.len();
    let order = BatchPlan::new(&instances).order;
    let workers = policy.workers.unwrap_or_else(astdme_par::effective_threads);
    let batch = policy.batch;
    let claims = astdme_par::claim_stream(total, workers, policy.in_flight, move |slot| {
        let idx = order[slot];
        let result = route_caught(
            router.as_ref(),
            &instances[idx],
            idx + batch.index_offset,
            &batch,
        );
        (idx, result)
    });
    RouteStream {
        claims,
        total,
        yielded: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AstDme, Groups, RcParams, Sink};
    use astdme_geom::Point;

    fn inst(n: usize, jitter: f64) -> Instance {
        let sinks: Vec<Sink> = (0..n)
            .map(|i| {
                Sink::new(
                    Point::new(600.0 * i as f64 + jitter, (i % 4) as f64 * 300.0),
                    1e-14,
                )
            })
            .collect();
        let assignment: Vec<usize> = (0..n).map(|i| i % 2).collect();
        Instance::new(
            sinks,
            Groups::from_assignments(assignment, 2).unwrap(),
            RcParams::default(),
            Point::new(0.0, 3000.0),
        )
        .unwrap()
    }

    #[test]
    fn flush_estimate_prices_by_dirty_region_not_instance_size() {
        // A one-sink ECO move on a large instance must schedule cheaper
        // than a fresh route of a much smaller instance — both a-priori
        // and under an observation-calibrated model.
        let large = inst(4000, 0.0);
        let small = inst(250, 0.0);
        assert!(
            CostModel::static_flush_cost(&large, 1) < CostModel::static_cost(&small),
            "1-sink flush on n=4000 ({}) must undercut fresh n=250 ({})",
            CostModel::static_flush_cost(&large, 1),
            CostModel::static_cost(&small)
        );
        let mut model = CostModel::new();
        let mut stats = RouteStats::default();
        stats.merge.seconds = 0.5;
        model.observe(&inst(1000, 0.0), &stats);
        assert!(model.estimate_flush(&large, 1) < model.estimate(&small));
        // Monotone in the dirty count, and a full-instance flush prices
        // as a full reroute.
        assert!(CostModel::static_flush_cost(&large, 1) < CostModel::static_flush_cost(&large, 64));
        assert_eq!(
            CostModel::static_flush_cost(&large, 4000),
            CostModel::static_cost(&large)
        );
    }

    #[test]
    fn batch_matches_sequential_loop_in_order() {
        let instances: Vec<Instance> = (0..4).map(|i| inst(8 + i, 37.0 * i as f64)).collect();
        let router = AstDme::new();
        let batch = route_batch(&instances, &router);
        assert_eq!(batch.len(), instances.len());
        for (i, (out, inst)) in batch.iter().zip(&instances).enumerate() {
            let seq = router.route_traced(inst).expect("routes");
            let out = out.as_ref().expect("routes");
            assert_eq!(out.tree, seq.tree, "instance {i} diverged");
            assert_eq!(out.report, seq.report, "instance {i} report diverged");
        }
    }

    #[test]
    fn batch_works_through_a_trait_object() {
        let instances: Vec<Instance> = (0..2).map(|i| inst(6, i as f64)).collect();
        let router: &(dyn ClockRouter + Sync) = &AstDme::new();
        let batch = route_batch(instances.as_slice(), router);
        assert!(batch.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = route_batch(&[], &AstDme::new());
        assert!(batch.is_empty());
    }

    #[test]
    fn plan_schedules_largest_first() {
        // Sizes deliberately out of order: 12, 40, 6, 40.
        let instances = vec![inst(12, 0.0), inst(40, 1.0), inst(6, 2.0), inst(40, 3.0)];
        let plan = BatchPlan::new(&instances);
        assert_eq!(
            plan.order(),
            &[1, 3, 0, 2],
            "costliest first, ties by index"
        );
        assert_eq!(plan.costs().len(), 4);
        assert!(plan.costs()[1] > plan.costs()[0]);
        // The schedule must not perturb results or their order.
        let router = AstDme::new();
        let planned = plan.route(&instances, &router);
        for (i, (out, inst)) in planned.iter().zip(&instances).enumerate() {
            let seq = router.route_traced(inst).expect("routes");
            assert_eq!(out.as_ref().expect("routes").tree, seq.tree, "instance {i}");
        }
    }

    #[test]
    fn static_cost_grows_with_sinks_and_groups() {
        let small = inst(10, 0.0);
        let large = inst(200, 0.0);
        assert!(CostModel::static_cost(&large) > CostModel::static_cost(&small));
        let model = CostModel::new();
        assert_eq!(model.estimate(&small), CostModel::static_cost(&small));
    }

    fn stats_with_merge_seconds(seconds: f64) -> RouteStats {
        RouteStats {
            merge: crate::pipeline::StageStats {
                seconds,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn observed_seconds_refine_estimates() {
        let a = inst(10, 0.0);
        let b = inst(20, 0.0);
        let mut model = CostModel::new();
        // Pretend the *smaller* shape measured slower: observations must
        // override the a-priori ordering for seen shapes.
        model.observe(&a, &stats_with_merge_seconds(2.0));
        model.observe(&b, &stats_with_merge_seconds(0.5));
        assert!(model.estimate(&a) > model.estimate(&b));
        let plan = BatchPlan::with_model(&[a, b], &model);
        assert_eq!(plan.order(), &[0, 1]);
        // An unseen shape still gets a calibrated static estimate.
        let c = inst(15, 0.0);
        assert!(model.estimate(&c) > 0.0);
    }

    #[test]
    fn observe_averages_repeat_shapes() {
        let a = inst(10, 0.0);
        let mut model = CostModel::new();
        model.observe(&a, &stats_with_merge_seconds(1.0));
        model.observe(&a, &stats_with_merge_seconds(3.0));
        assert!((model.estimate(&a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shape_map_is_bounded_with_deterministic_eviction() {
        // Capacity 2: observing a third distinct shape must evict the
        // least recently *observed* shape — estimate() peeks and never
        // perturbs recency.
        let a = inst(10, 0.0);
        let b = inst(20, 0.0);
        let c = inst(30, 0.0);
        let mut model = CostModel::with_shape_capacity(2);
        assert_eq!(model.shape_capacity(), 2);
        model.observe(&a, &stats_with_merge_seconds(5.0));
        model.observe(&b, &stats_with_merge_seconds(0.25));
        assert_eq!(model.shapes_observed(), 2);
        // Reading estimates (even many times) must not save shape `a`.
        for _ in 0..8 {
            let _ = model.estimate(&a);
        }
        model.observe(&c, &stats_with_merge_seconds(1.0));
        assert_eq!(model.shapes_observed(), 2, "map stays bounded");
        // Evicted `a` falls back to the *calibrated* static estimate: the
        // exact 5.0s observation is gone, but the global calibration
        // still carries its weight.
        let scale = (5.0 + 0.25 + 1.0)
            / (CostModel::static_cost(&a)
                + CostModel::static_cost(&b)
                + CostModel::static_cost(&c));
        assert!((model.estimate(&a) - CostModel::static_cost(&a) * scale).abs() < 1e-12);
        // Survivors keep their exact observations.
        assert!((model.estimate(&b) - 0.25).abs() < 1e-12);
        assert!((model.estimate(&c) - 1.0).abs() < 1e-12);
        // Deterministic: the same observation sequence evicts the same
        // shape, every run.
        let rebuild = || {
            let mut m = CostModel::with_shape_capacity(2);
            m.observe(&a, &stats_with_merge_seconds(5.0));
            m.observe(&b, &stats_with_merge_seconds(0.25));
            m.observe(&c, &stats_with_merge_seconds(1.0));
            (m.estimate(&a), m.estimate(&b), m.estimate(&c))
        };
        assert_eq!(rebuild(), rebuild());
    }

    #[test]
    fn cached_batch_is_bit_identical_and_hits_on_duplicates() {
        use astdme_cache::SubtreeCache;
        // Three copies of one placement plus a distinct one, all anchored
        // at the origin (sink 0 sits at (0, 0), so translation
        // normalization is the exact identity): the duplicate region
        // routes once, splices twice, and every tree matches the
        // cache-free batch bit for bit.
        let instances = vec![inst(12, 0.0), inst(12, 0.0), inst(9, 0.0), inst(12, 0.0)];
        let router = AstDme::new();
        let cold = route_batch(&instances, &router);
        let cache = SubtreeCache::new(64);
        let plan = BatchPlan::new(&instances);
        let cached = BatchPolicy::new().with_cache(cache.clone());
        let warm = plan.route_with_policy(&instances, &router, &cached).0;
        for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert_eq!(c.tree, w.tree, "instance {i} tree diverged under cache");
            assert_eq!(c.report, w.report, "instance {i} report diverged");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4);
        // Concurrent duplicates may race their first lookups, but after a
        // full pass both distinct regions are resident: a second pass must
        // hit on every instance — and still match bit for bit.
        let rewarm = plan.route_with_policy(&instances, &router, &cached).0;
        for (i, (c, w)) in cold.iter().zip(&rewarm).enumerate() {
            assert_eq!(
                c.as_ref().unwrap().tree,
                w.as_ref().unwrap().tree,
                "instance {i} tree diverged on the warm pass"
            );
            assert!(w.as_ref().unwrap().stats.cache_hit, "instance {i} must hit");
        }
        assert_eq!(cache.stats().hits, stats.hits + 4);
    }

    #[test]
    fn stats_account_for_every_instance() {
        let instances: Vec<Instance> = (0..5).map(|i| inst(6 + i, i as f64)).collect();
        let plan = BatchPlan::new(&instances);
        let (out, stats) =
            plan.route_with_policy(&instances, &AstDme::new(), &BatchPolicy::default());
        assert_eq!(out.len(), 5);
        assert_eq!(stats.worker_items.iter().sum::<usize>(), 5);
        assert!(stats.balance() >= 1.0);
    }

    /// A router that panics on one specific sink count — the failure mode
    /// the batch layer must contain.
    struct PanicAt {
        trip: usize,
        inner: AstDme,
    }

    impl ClockRouter for PanicAt {
        fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
            assert_ne!(inst.sink_count(), self.trip, "injected panic");
            self.inner.route_traced(inst)
        }
        fn name(&self) -> &'static str {
            "panic-at"
        }
    }

    #[test]
    fn panicking_instance_does_not_poison_the_batch() {
        let instances = vec![inst(8, 0.0), inst(9, 1.0), inst(10, 2.0)];
        let router = PanicAt {
            trip: 9,
            inner: AstDme::new(),
        };
        let batch = route_batch(&instances, &router);
        assert_eq!(batch.len(), 3);
        match &batch[1] {
            Err(RouteError::Panicked {
                instance,
                sinks,
                message,
            }) => {
                assert_eq!(*instance, 1, "panic attributed to the wrong slot");
                assert_eq!(*sinks, 9);
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        for i in [0usize, 2] {
            let seq = AstDme::new().route_traced(&instances[i]).expect("routes");
            let out = batch[i].as_ref().expect("survivors route normally");
            assert_eq!(out.tree, seq.tree, "instance {i}");
        }
    }

    /// A 1-sink instance: the single sink forms its own (only) group.
    fn one_sink_inst() -> Instance {
        Instance::new(
            vec![Sink::new(Point::new(500.0, 700.0), 1e-14)],
            Groups::single(1).unwrap(),
            RcParams::default(),
            Point::new(0.0, 0.0),
        )
        .unwrap()
    }

    #[test]
    fn empty_batch_plan_has_no_order_and_routes_to_nothing() {
        let plan = BatchPlan::new(&[]);
        assert!(plan.order().is_empty());
        assert!(plan.costs().is_empty());
        assert!(plan.route(&[], &AstDme::new()).is_empty());
        // With a calibrated model too.
        let mut model = CostModel::new();
        model.observe(&inst(8, 0.0), &stats_with_merge_seconds(1.0));
        assert!(BatchPlan::with_model(&[], &model).order().is_empty());
    }

    #[test]
    fn one_sink_instance_costs_are_finite_and_routable() {
        let tiny = one_sink_inst();
        // n=1 ⇒ log2(n) = 0; the .max(1.0) floor keeps the cost positive
        // and finite, never NaN.
        let cost = CostModel::static_cost(&tiny);
        assert!(cost.is_finite() && cost > 0.0, "got {cost}");
        let model = CostModel::new();
        assert!(model.estimate(&tiny).is_finite());
        let plan = BatchPlan::new(std::slice::from_ref(&tiny));
        assert_eq!(plan.order(), &[0]);
        assert!(plan.costs()[0].is_finite());
        let batch = plan.route(std::slice::from_ref(&tiny), &AstDme::new());
        let out = batch[0].as_ref().expect("1-sink instance routes");
        assert_eq!(out.tree.sink_nodes().count(), 1);
        // Mixed with a normal instance, scheduling still works.
        let mixed = vec![tiny, inst(12, 0.0)];
        let plan = BatchPlan::new(&mixed);
        assert_eq!(plan.order(), &[1, 0], "larger instance schedules first");
        assert!(route_batch(&mixed, &AstDme::new())
            .iter()
            .all(|r| r.is_ok()));
    }

    #[test]
    fn observing_a_one_sink_instance_keeps_estimates_finite() {
        let tiny = one_sink_inst();
        let mut model = CostModel::new();
        model.observe(&tiny, &stats_with_merge_seconds(0.25));
        assert!((model.estimate(&tiny) - 0.25).abs() < 1e-12);
        // Calibration from the 1-sink observation must not poison unseen
        // shapes either.
        assert!(model.estimate(&inst(10, 0.0)).is_finite());
    }

    #[test]
    fn injected_panic_fault_is_attributed_with_the_offset() {
        use crate::fault::{Fault, FaultKind};
        use crate::pipeline::StageId;
        let instances = vec![inst(8, 0.0), inst(9, 1.0), inst(10, 2.0)];
        let policy = BatchPolicy::new().with_faults(FaultPlan::new().inject(
            101,
            Fault {
                stage: StageId::Merge,
                kind: FaultKind::Panic,
            },
        ));
        let policy = BatchPolicy {
            index_offset: 100,
            ..policy
        };
        let plan = BatchPlan::new(&instances);
        let (batch, _) = plan.route_with_policy(&instances, &AstDme::new(), &policy);
        match &batch[1] {
            Err(RouteError::Panicked {
                instance,
                sinks,
                message,
            }) => {
                assert_eq!(*instance, 101, "offset must flow into attribution");
                assert_eq!(*sinks, 9);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Survivors are bit-identical to a policy-free run.
        let clean = route_batch(&instances, &AstDme::new());
        for i in [0usize, 2] {
            assert_eq!(
                batch[i].as_ref().unwrap().tree,
                clean[i].as_ref().unwrap().tree,
                "survivor {i} diverged under the fault policy"
            );
        }
    }

    #[test]
    fn injected_corruption_surfaces_as_malformed_output() {
        use crate::fault::{Fault, FaultKind};
        use crate::pipeline::StageId;
        let instances = vec![inst(8, 0.0), inst(9, 1.0)];
        let policy = BatchPolicy::new().with_faults(FaultPlan::new().inject(
            0,
            Fault {
                stage: StageId::Embed,
                kind: FaultKind::Corrupt,
            },
        ));
        let plan = BatchPlan::new(&instances);
        let (batch, _) = plan.route_with_policy(&instances, &AstDme::new(), &policy);
        match &batch[0] {
            Err(RouteError::MalformedOutput { instance, detail }) => {
                assert_eq!(*instance, Some(0));
                assert!(detail.contains("wire"), "{detail}");
            }
            other => panic!("expected MalformedOutput, got {other:?}"),
        }
        assert!(batch[1].is_ok(), "survivor must route normally");
    }

    #[test]
    fn deadline_overrun_fails_only_the_stalled_instance() {
        use crate::fault::{Fault, FaultKind};
        use crate::pipeline::StageId;
        let instances = vec![inst(8, 0.0), inst(9, 1.0), inst(10, 2.0)];
        // The budget is orders of magnitude above what these tiny
        // instances need, and the injected stall is above the budget:
        // only instance 2 can overrun, even on a loaded machine.
        let policy = BatchPolicy::new()
            .with_deadline(1.0)
            .with_faults(FaultPlan::new().inject(
                2,
                Fault {
                    stage: StageId::Embed,
                    kind: FaultKind::Stall { seconds: 1.3 },
                },
            ));
        let plan = BatchPlan::new(&instances);
        let (batch, _) = plan.route_with_policy(&instances, &AstDme::new(), &policy);
        match &batch[2] {
            Err(RouteError::DeadlineExceeded {
                instance, stage, ..
            }) => {
                assert_eq!(*instance, 2);
                assert_eq!(*stage, StageId::Embed);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let clean = route_batch(&instances, &AstDme::new());
        for i in [0usize, 1] {
            assert_eq!(
                batch[i].as_ref().unwrap().tree,
                clean[i].as_ref().unwrap().tree,
                "survivor {i} diverged under the deadline policy"
            );
        }
    }
}
