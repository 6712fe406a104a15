//! Completion-order streaming: `route_stream` must yield exactly the
//! batch's `(index, outcome)` set — reordered by completion, never
//! altered — at every thread count, and its lifecycle edges (empty
//! stream, single instance, early drop, mid-stream panic) must neither
//! deadlock nor poison later completions.
//!
//! The stream is the serving-layer primitive the batch barrier is built
//! on: these tests pin the contract the future routing-as-a-service
//! daemon consumes.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    route_batch, route_stream, AstDme, ClockRouter, Instance, RouteError, RouteOutcome,
    StreamPolicy,
};

const BOUND: f64 = 10e-12;

/// The thread override is process-global and the harness runs tests on
/// parallel threads: every test that sets it serializes on this lock (and
/// restores the previous value via `astdme_par::override_guard`).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_lock() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn portfolio() -> Vec<Instance> {
    [
        (40usize, 3usize, 7u64),
        (52, 4, 11),
        (33, 2, 23),
        (47, 5, 5),
    ]
    .iter()
    .map(|&(n, k, seed)| {
        let p = synthetic_instance(n, seed, &format!("stream{n}"));
        let inst = partition::intermingled(&p, k, seed ^ 1).expect("valid partition");
        inst.with_groups(
            inst.groups()
                .clone()
                .with_uniform_bound(BOUND)
                .expect("bound ok"),
        )
        .expect("regroup ok")
    })
    .collect()
}

fn assert_outcomes_identical(a: &RouteOutcome, b: &RouteOutcome, ctx: &str) {
    assert_eq!(a.tree, b.tree, "{ctx}: trees diverged");
    assert_eq!(a.report, b.report, "{ctx}: audit reports diverged");
}

#[test]
fn stream_drained_and_reordered_equals_the_batch_at_every_thread_count() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let instances = portfolio();
    let router = Arc::new(AstDme::new());
    let reference = route_batch(&instances, router.as_ref());
    for threads in [1usize, 2, 3, 8] {
        astdme_par::set_thread_override(NonZeroUsize::new(threads));
        let stream = route_stream(
            instances.clone(),
            router.clone(),
            StreamPolicy::new().with_in_flight(2),
        );
        assert_eq!(stream.total(), instances.len());
        let mut slots: Vec<Option<Result<RouteOutcome, RouteError>>> =
            (0..instances.len()).map(|_| None).collect();
        for (idx, result) in stream {
            assert!(slots[idx].is_none(), "index {idx} yielded twice");
            slots[idx] = Some(result);
        }
        for (idx, slot) in slots.into_iter().enumerate() {
            let streamed = slot.unwrap_or_else(|| panic!("index {idx} never yielded"));
            assert_outcomes_identical(
                streamed.as_ref().expect("routes"),
                reference[idx].as_ref().expect("routes"),
                &format!("threads={threads} instance={idx}"),
            );
        }
    }
}

#[test]
fn empty_stream_is_immediately_exhausted() {
    let router: Arc<dyn ClockRouter + Send + Sync> = Arc::new(AstDme::new());
    let mut stream = route_stream(Vec::new(), router, StreamPolicy::new());
    assert_eq!(stream.total(), 0);
    assert_eq!(stream.size_hint(), (0, Some(0)));
    assert!(stream.next().is_none(), "no instances, no yields");
    assert!(stream.next().is_none(), "exhaustion is stable");
}

#[test]
fn single_instance_stream_yields_exactly_once() {
    let instances = vec![portfolio().remove(0)];
    let router = Arc::new(AstDme::new());
    let reference = router.route_traced(&instances[0]).expect("routes");
    let mut stream = route_stream(instances, router, StreamPolicy::new());
    let (idx, result) = stream.next().expect("one yield");
    assert_eq!(idx, 0);
    assert_outcomes_identical(&result.expect("routes"), &reference, "single instance");
    assert!(stream.next().is_none());
    assert_eq!(stream.yielded(), 1);
    assert_eq!(stream.remaining(), 0);
}

/// A router that counts the routes it starts — the witness that
/// cancellation stops workers from claiming more instances.
#[derive(Default)]
struct CountingRouter {
    started: AtomicUsize,
    inner: AstDme,
}

impl ClockRouter for CountingRouter {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        self.started.fetch_add(1, Ordering::SeqCst);
        self.inner.route_traced(inst)
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

/// Waits until every worker of a dropped stream has left — each one
/// shares the stream's clone of the router handle — and returns the
/// number of routes started.
fn settle(router: &Arc<CountingRouter>) -> usize {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Arc::strong_count(router) > 1 {
        assert!(Instant::now() < deadline, "stream workers never left");
        std::thread::sleep(Duration::from_millis(1));
    }
    router.started.load(Ordering::SeqCst)
}

#[test]
fn dropping_the_stream_early_cancels_without_deadlock() {
    let _lock = override_lock();
    // Two workers, in-flight bound of 1, and more instances than either:
    // at drop time workers are claiming, routing, and blocking on a full
    // buffer — every state the cancellation path must unblock.
    let workers = 2;
    let _guard = astdme_par::override_guard(NonZeroUsize::new(workers));
    let instances: Vec<Instance> = portfolio().into_iter().cycle().take(12).collect();
    for consume in [0usize, 1, 3] {
        let router = Arc::new(CountingRouter::default());
        let mut stream = route_stream(
            instances.clone(),
            router.clone(),
            StreamPolicy::new().with_in_flight(1),
        );
        for _ in 0..consume {
            assert!(stream.next().is_some(), "stream has 12 instances");
        }
        drop(stream);
        let at_drop = router.started.load(Ordering::SeqCst);
        // A worker may have passed its stop check just before the drop:
        // at most one further route per worker may start after it.
        let total = settle(&router);
        assert!(
            total <= at_drop + workers,
            "consume {consume}: {total} routes started, {at_drop} at drop, {workers} workers"
        );
        assert!(
            total < instances.len(),
            "consume {consume}: the drop cancelled nothing"
        );
        // The pool must still be fully serviceable after the cancel —
        // a stuck worker would hang this follow-up barrier call.
        let after = route_batch(&instances[..2], router.as_ref());
        assert!(after.iter().all(Result::is_ok), "pool healthy after drop");
    }
}

/// A router that panics on one specific sink count — the failure the
/// stream must confine to a single yielded pair.
struct PanicOnSinkCount {
    trip: usize,
    inner: AstDme,
}

impl ClockRouter for PanicOnSinkCount {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        assert_ne!(inst.sink_count(), self.trip, "injected stream panic");
        self.inner.route_traced(inst)
    }
    fn name(&self) -> &'static str {
        "panic-on-sink-count"
    }
}

#[test]
fn mid_stream_panic_surfaces_in_its_own_pair_and_later_completions_arrive() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(2));
    let instances = portfolio();
    let trip = instances[1].sink_count();
    let router = Arc::new(PanicOnSinkCount {
        trip,
        inner: AstDme::new(),
    });
    let stream = route_stream(instances.clone(), router, StreamPolicy::new());
    let mut yields: Vec<(usize, Result<RouteOutcome, RouteError>)> = stream.collect();
    assert_eq!(yields.len(), instances.len(), "panic must not eat yields");
    yields.sort_by_key(|(idx, _)| *idx);
    let clean = AstDme::new();
    for (idx, result) in yields {
        if idx == 1 {
            match result {
                Err(RouteError::Panicked {
                    instance,
                    sinks,
                    message,
                }) => {
                    assert_eq!(instance, 1);
                    assert_eq!(sinks, trip);
                    assert!(message.contains("injected stream panic"), "{message}");
                }
                other => panic!("expected Panicked for index 1, got {other:?}"),
            }
        } else {
            let streamed = result.expect("survivors route normally");
            let reference = clean.route_traced(&instances[idx]).expect("routes");
            assert_outcomes_identical(&streamed, &reference, &format!("survivor {idx}"));
        }
    }
}

#[test]
fn stream_policy_hardening_matches_the_batch_path() {
    use astdme::{BatchPolicy, Fault, FaultKind, FaultPlan, StageId};
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(2));
    let instances = portfolio();
    let faults = FaultPlan::new().inject(
        2,
        Fault {
            stage: StageId::Merge,
            kind: FaultKind::Panic,
        },
    );
    let policy = StreamPolicy::new().with_batch(BatchPolicy::new().with_faults(faults));
    let stream = route_stream(instances.clone(), Arc::new(AstDme::new()), policy);
    let mut yields: Vec<_> = stream.collect();
    yields.sort_by_key(|(idx, _)| *idx);
    assert!(matches!(
        &yields[2].1,
        Err(RouteError::Panicked { instance: 2, .. })
    ));
    for (idx, result) in yields.iter().filter(|(idx, _)| *idx != 2) {
        assert!(result.is_ok(), "survivor {idx} must route");
    }
}
