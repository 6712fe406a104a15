//! The fleet layer: batch routing of whole instance portfolios,
//! scheduled largest-first onto `astdme_par`'s claim loop.
//!
//! The paper's evaluation routes a portfolio — every circuit × group count
//! × router. [`route_batch`] fans whole instances out across scoped
//! threads and returns outcomes in input order, bit-identical to a
//! sequential loop at every thread count.
//!
//! # Scheduling
//!
//! Portfolios are skewed: one n=4000 circuit takes orders of magnitude
//! longer than an n=250 one, and a fixed contiguous-chunk split would park
//! every small instance behind the big one on a single worker. Two
//! mechanisms prevent that:
//!
//! * **Largest-first ordering.** A [`BatchPlan`] estimates each
//!   instance's cost a-priori from its sink count and group structure and
//!   hands instances to the workers costliest first, the classic LPT
//!   heuristic.
//! * **Work claiming.** The batch runs [`astdme_par`]'s one claim loop
//!   over the scheduled order: a worker that finishes early claims the
//!   next pending instance instead of idling behind a static chunk
//!   boundary. The calling thread routes too, and files each outcome in
//!   its input slot as it completes.
//!
//! Both mechanisms change scheduling only: each instance's outcome is a
//! pure function of the instance and router, so the batch vector is
//! identical at every thread count (and to the sequential loop).
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
//! only, instead of letting the unwind kill the whole batch.

use std::panic::{catch_unwind, AssertUnwindSafe};

use astdme_engine::Instance;

use crate::fault::FaultPlan;
use crate::pipeline::RouteOutcome;
use crate::{ClockRouter, RouteError};

pub use astdme_par::StealStats;

/// The a-priori cost of routing `inst` for [`BatchPlan`] scheduling: sink
/// count times a log factor for the merge loop, times a mild
/// group-structure factor (more groups mean more constraint bookkeeping
/// per merge). Unitless — only the order of the estimates matters.
fn static_cost(inst: &Instance) -> f64 {
    let n = inst.sink_count() as f64;
    let k = inst.groups().group_count() as f64;
    n * n.log2().max(1.0) * (1.0 + 0.1 * (k - 1.0))
}

/// Per-batch hardening policy: deadline budgets and fault injection.
///
/// The default policy sets neither: no deadline, no injected faults.
/// That is what [`route_batch`] and [`BatchPlan::route`] run under.
/// Errors always name the instance by its position in the batch. The
/// robustness sweep ([`crate::robustness`]) and the fault-tolerance
/// tests construct explicit policies.
#[derive(Debug, Clone, Default)]
pub struct BatchPolicy {
    /// Per-instance wall-clock budget in seconds, checked cooperatively at
    /// the checkpoint after every pipeline stage; an overrun fails that
    /// instance's slot with [`RouteError::DeadlineExceeded`] while the
    /// rest of the batch returns unchanged. `None` disables the check.
    pub deadline_seconds: Option<f64>,
    /// Deterministic fault schedule, keyed by batch position.
    pub faults: FaultPlan,
}

impl BatchPolicy {
    /// The default policy: no deadline, no faults.
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
}

/// A schedule for routing one batch: the largest-first order, by a-priori
/// cost estimate, the claim loop hands the instances out in.
///
/// The plan is pure scheduling — [`BatchPlan::route`] returns outcomes in
/// **input order** and bit-identical to a sequential loop no matter how
/// the estimates rank the instances. A wildly wrong estimate can only
/// cost wall-clock, never change a tree.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Input indices, costliest first (ties broken by input index, so the
    /// schedule itself is deterministic).
    order: Vec<usize>,
}

impl BatchPlan {
    /// Plans `instances` largest-first by their a-priori cost estimate.
    pub fn new(instances: &[Instance]) -> Self {
        let cost: Vec<f64> = instances.iter().map(static_cost).collect();
        let mut order: Vec<usize> = (0..instances.len()).collect();
        order.sort_by(|&a, &b| cost[b].total_cmp(&cost[a]).then(a.cmp(&b)));
        Self { order }
    }

    /// The scheduled order: input indices, costliest first.
    pub fn order(&self) -> &[usize] {
        &self.order
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
    /// per-instance deadlines and deterministic fault injection — and
    /// additionally returning the fan-out's per-worker
    /// [`StealStats`] (busy seconds and items per worker). Instances the
    /// policy does not touch return outcomes bit-identical to a
    /// policy-free run at every thread count.
    ///
    /// The calling thread and its scoped helpers claim schedule slots
    /// from one cursor, and the caller files each outcome in its input
    /// slot as it arrives. Each outcome is a pure function of its instance and the
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
                route_caught(router, &instances[idx], idx, policy)
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
        let _ctx = crate::fault::install(index, policy.deadline_seconds, policy.faults.get(index));
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
/// instances out across work-claiming threads, costliest instance first
/// (see the [module docs](self) for the scheduling model).
///
/// Results come back **in input order**, one per instance, each carrying
/// the routed tree plus its audit report and per-stage stats
/// ([`RouteOutcome`]). The output is bit-identical to
/// `instances.iter().map(|i| router.route_traced(i))` at every thread
/// count (including the calling thread's override, the
/// [`astdme_par::set_thread_override`] settings the determinism tests
/// sweep): scheduling changes, trees never do.
///
/// Errors are per-instance — one invalid *or panicking* instance does not
/// poison the rest of the batch; a panic surfaces as
/// [`RouteError::Panicked`] in that instance's slot.
///
/// Equivalent to `BatchPlan::new(instances).route(instances, router)`;
/// call [`BatchPlan::route_with_policy`] to attach a [`BatchPolicy`]
/// (deadlines, faults) or to read the
/// fan-out's [`StealStats`].
pub fn route_batch<R>(instances: &[Instance], router: &R) -> Vec<Result<RouteOutcome, RouteError>>
where
    R: ClockRouter + Sync + ?Sized,
{
    BatchPlan::new(instances).route(instances, router)
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
        assert!(static_cost(&large) > static_cost(&small));
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
        assert!(plan.route(&[], &AstDme::new()).is_empty());
    }

    #[test]
    fn one_sink_instance_costs_are_finite_and_routable() {
        let tiny = one_sink_inst();
        // n=1 ⇒ log2(n) = 0; the .max(1.0) floor keeps the cost positive
        // and finite, never NaN.
        let cost = static_cost(&tiny);
        assert!(cost.is_finite() && cost > 0.0, "got {cost}");
        let plan = BatchPlan::new(std::slice::from_ref(&tiny));
        assert_eq!(plan.order(), &[0]);
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
    fn injected_panic_fault_is_attributed_by_batch_position() {
        use crate::fault::{Fault, FaultKind};
        use crate::pipeline::StageId;
        // The schedule runs the largest instance first, so position 0 is
        // the last slot claimed: the fault and its error follow position.
        let instances = vec![inst(8, 0.0), inst(9, 1.0), inst(10, 2.0)];
        let policy = BatchPolicy::new().with_faults(FaultPlan::new().inject(
            0,
            Fault {
                stage: StageId::Merge,
                kind: FaultKind::Panic,
            },
        ));
        let plan = BatchPlan::new(&instances);
        assert_eq!(plan.order(), &[2, 1, 0]);
        let (batch, _) = plan.route_with_policy(&instances, &AstDme::new(), &policy);
        match &batch[0] {
            Err(RouteError::Panicked {
                instance,
                sinks,
                message,
            }) => {
                assert_eq!(*instance, 0, "panic attributed to the wrong position");
                assert_eq!(*sinks, 8);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Survivors are bit-identical to a policy-free run.
        let clean = route_batch(&instances, &AstDme::new());
        for i in [1usize, 2] {
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
