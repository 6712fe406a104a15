use super::*;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::MutexGuard;
use std::time::Duration;

/// Tests touching the process-global override (or asserting producer
/// counts, which the override perturbs) serialize on this lock.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Lock + RAII override for a test: serializes on [`OVERRIDE_LOCK`] and
/// restores the previous override when dropped — even when the test body
/// panics mid-sweep, so one failing test cannot poison the override for
/// the rest of the binary.
fn pinned(n: Option<NonZeroUsize>) -> (MutexGuard<'static, ()>, ThreadOverrideGuard) {
    let lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    (lock, override_guard(n))
}

/// Runs `f` over `items` through the claim loop and files every result
/// by index, asserting each index arrives exactly once.
fn ordered<T: Sync, R: Send>(
    items: &[T],
    in_flight: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> (Vec<R>, StealStats) {
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let stats = claim_loop(
        items.len(),
        in_flight,
        |i| f(i, &items[i]),
        |i, r| {
            assert!(slots[i].is_none(), "index {i} delivered twice");
            slots[i] = Some(r);
        },
    );
    let out = slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("index {i} never delivered")))
        .collect();
    (out, stats)
}

fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    ordered(items, items.len(), |_, x| f(x)).0
}

#[test]
fn thread_override_is_respected_and_results_invariant() {
    let _pin = pinned(None);
    let items: Vec<u64> = (0..500).collect();
    let expected: Vec<u64> = items.iter().map(|x| x * 7).collect();
    for n in [1usize, 2, 3, 8] {
        set_thread_override(NonZeroUsize::new(n));
        assert_eq!(thread_override(), NonZeroUsize::new(n));
        assert_eq!(effective_threads(), n);
        assert_eq!(map(&items, |x| x * 7), expected, "threads = {n}");
    }
    set_thread_override(None);
    assert_eq!(thread_override(), None);
    assert_eq!(map(&items, |x| x * 7), expected);
}

#[test]
fn override_guard_restores_previous_value() {
    let _pin = pinned(NonZeroUsize::new(3));
    {
        let _inner = override_guard(NonZeroUsize::new(7));
        assert_eq!(thread_override(), NonZeroUsize::new(7));
        // Sweeping inside the guard is fine; drop restores 3, not 5.
        set_thread_override(NonZeroUsize::new(5));
    }
    assert_eq!(thread_override(), NonZeroUsize::new(3));
}

#[test]
fn every_index_is_delivered_once_in_any_order() {
    let _pin = pinned(NonZeroUsize::new(4));
    let items: Vec<u64> = (0..777).map(|x| x * 2).collect();
    let expected: Vec<u64> = items
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as u64) * 1000 + x)
        .collect();
    for in_flight in [1, 4, items.len()] {
        let (out, _) = ordered(&items, in_flight, |i, &x| (i as u64) * 1000 + x);
        assert_eq!(out, expected, "in_flight = {in_flight}");
    }
}

#[test]
fn skewed_costs_stay_bit_identical() {
    // One very expensive item at the front, many cheap ones behind it:
    // filing by index must reassemble input order exactly.
    let _pin = pinned(NonZeroUsize::new(4));
    let items: Vec<u32> = (0..97).map(|i| if i == 0 { 200_000 } else { 50 }).collect();
    let crunch = |x: u32| -> u64 { (0..x as u64).fold(7u64, |a, b| a.wrapping_mul(31) ^ b) };
    let serial: Vec<u64> = items.iter().map(|&x| crunch(x)).collect();
    assert_eq!(map(&items, |&x| crunch(x)), serial);
}

#[test]
fn stats_cover_every_item_and_producer() {
    let _pin = pinned(NonZeroUsize::new(4));
    let items: Vec<u64> = (0..300).collect();
    let (out, stats) = ordered(&items, 8, |_, &x| x + 1);
    assert_eq!(out, (1..=300).collect::<Vec<u64>>());
    // Three helpers plus the caller, each reporting (a helper that woke
    // after the cursor ran dry reports zero items).
    assert_eq!(stats.workers(), 4);
    assert_eq!(stats.worker_items.iter().sum::<usize>(), items.len());
    assert!(stats.balance() >= 1.0);
    assert_eq!(stats.worker_busy_seconds.len(), 4);
}

#[test]
fn balance_ignores_workers_that_claimed_nothing() {
    // A producer that woke after the cursor ran dry (0 items, ~zero busy
    // time) is wakeup latency, not imbalance.
    let stats = StealStats {
        worker_busy_seconds: vec![2.0, 1.0, 1e-7],
        worker_items: vec![5, 3, 0],
    };
    assert_eq!(stats.balance(), 2.0);
    let one_loaded = StealStats {
        worker_busy_seconds: vec![2.0, 1e-7],
        worker_items: vec![8, 0],
    };
    assert_eq!(one_loaded.balance(), 1.0);
}

#[test]
fn one_thread_runs_inline_as_one_producer() {
    let _pin = pinned(NonZeroUsize::new(1));
    let items: Vec<u64> = (0..10).collect();
    let caller = std::thread::current().id();
    let (on_caller, stats) = ordered(&items, 1, |_, _| std::thread::current().id() == caller);
    assert!(
        on_caller.iter().all(|&c| c),
        "inline loop produces on the caller"
    );
    assert_eq!(stats.workers(), 1);
    assert_eq!(stats.worker_items, vec![10]);
    assert_eq!(stats.balance(), 1.0);
}

#[test]
fn single_and_empty_ranges_run_inline() {
    let _pin = pinned(NonZeroUsize::new(4));
    let (out, stats) = ordered(&[5u32], 1, |_, x| x + 1);
    assert_eq!(out, vec![6]);
    assert_eq!(stats.workers(), 1);
    let empty: [u32; 0] = [];
    let (out, stats) = ordered(&empty, 1, |_, x| *x);
    assert!(out.is_empty());
    assert_eq!(stats.worker_items, vec![0]);
}

/// The payload a test panic carries, so the caller can check it got the
/// original value back rather than a generic join-failure message.
#[derive(Debug, PartialEq)]
struct Boom(&'static str);

fn caught_payload(f: impl FnOnce()) -> Boom {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the panic must propagate");
    *payload
        .downcast::<Boom>()
        .expect("the original payload reaches the caller")
}

#[test]
fn helper_produce_panic_reaches_the_caller_with_its_payload() {
    let _pin = pinned(None);
    for threads in [1usize, 2, 4] {
        set_thread_override(NonZeroUsize::new(threads));
        let caller = std::thread::current().id();
        // A helper signals, then panics, on its first item; the caller
        // holds its own first item until that signal arrives, so a helper
        // is sure to claim one. With one thread there is no helper, and
        // the caller's produce panics at item 13 instead.
        let (signal, signalled) = mpsc::channel::<()>();
        let (signal, signalled) = (Mutex::new(signal), Mutex::new(signalled));
        let waited = AtomicBool::new(false);
        let payload = caught_payload(|| {
            claim_loop(
                64,
                1,
                |i| {
                    if std::thread::current().id() != caller {
                        let _ = lock(&signal).send(());
                        panic_any(Boom("produce"));
                    }
                    if threads == 1 && i == 13 {
                        panic_any(Boom("produce"));
                    }
                    if threads > 1 && !waited.swap(true, Ordering::SeqCst) {
                        let _ = lock(&signalled).recv_timeout(Duration::from_secs(60));
                    }
                    i
                },
                |_, _| {},
            );
        });
        assert_eq!(payload, Boom("produce"), "threads = {threads}");
    }
}

#[test]
fn caller_consume_panic_reaches_the_caller_with_its_payload() {
    let _pin = pinned(None);
    for threads in [1usize, 2, 4] {
        set_thread_override(NonZeroUsize::new(threads));
        // `in_flight = 1`: helpers block on a full channel, and only the
        // dropped receiver can release them.
        let payload = caught_payload(|| {
            claim_loop(
                256,
                1,
                |i| i,
                |_, i| {
                    if i == 5 {
                        panic_any(Boom("consume"));
                    }
                },
            );
        });
        assert_eq!(payload, Boom("consume"), "threads = {threads}");
    }
}

#[test]
fn pool_survives_panicking_jobs_and_is_reused() {
    let _pin = pinned(NonZeroUsize::new(4));
    let items: Vec<u64> = (0..64).collect();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        map(&items, |&x| {
            assert_ne!(x, 7, "injected");
            x
        })
    }));
    // The panicking call's workers went back to the idle list; the next
    // call runs normally on the same pool.
    let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
    assert_eq!(map(&items, |x| x + 1), expected);
}

#[test]
fn repeated_calls_reuse_pool_threads() {
    let _pin = pinned(NonZeroUsize::new(3));
    let items: Vec<u64> = (0..256).collect();
    // Warm the pool, then measure: many further calls at the same width
    // must not spawn additional threads.
    let _ = map(&items, |x| x + 1);
    // Count only this thread's spawns: the pool's global total moves with
    // whatever concurrent tests fan out. A barrier checks its helpers back
    // in before returning, so each call finds the previous call's workers
    // idle.
    let warmed = pool::spawned_by_current_thread();
    for _ in 0..32 {
        let _ = map(&items, |x| x * 2);
    }
    assert_eq!(
        pool::spawned_by_current_thread(),
        warmed,
        "steady-state calls must reuse parked workers, not spawn"
    );
}

#[test]
fn nested_claim_loops_run_inline() {
    let _pin = pinned(NonZeroUsize::new(4));
    assert!(!in_parallel_worker(), "main thread is not a worker");
    let items: Vec<u64> = (0..64).collect();
    // Each outer item runs an inner loop; the guard must keep the inner
    // one on the producing thread (observable via the worker flag, the
    // inner producer count, and the results).
    let nested = map(&items, |&x| {
        let (inner, stats) = ordered(&[x, x + 1, x + 2], 3, |_, y| y * 2);
        (in_parallel_worker(), stats.workers(), inner)
    });
    for (i, (flagged, producers, inner)) in nested.iter().enumerate() {
        assert!(*flagged, "outer item {i} should run on a marked thread");
        assert_eq!(*producers, 1, "inner loop of item {i} must run inline");
        let x = i as u64;
        assert_eq!(inner, &vec![2 * x, 2 * x + 2, 2 * x + 4]);
    }
    assert!(
        !in_parallel_worker(),
        "participation must not leak the worker mark"
    );
}

#[test]
fn stream_delivers_every_index_once() {
    for (len, workers, in_flight) in [(0usize, 2usize, 1usize), (1, 4, 1), (50, 3, 2), (50, 8, 50)]
    {
        let mut got: Vec<usize> = claim_stream(len, workers, in_flight, |i| i * 3)
            .map(|(i, r)| {
                assert_eq!(r, i * 3);
                i
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..len).collect::<Vec<_>>(), "len {len}");
    }
}

#[test]
fn dropping_a_stream_stops_claims() {
    let started = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&started);
    // The producers share the closure, so it (and this sender) drops
    // exactly when the last producer has left.
    let (alive, gone) = mpsc::channel::<()>();
    let workers = 2;
    let mut stream = claim_stream(1000, workers, 1, move |i| {
        let _alive = &alive;
        counter.fetch_add(1, Ordering::SeqCst);
        i
    });
    assert!(stream.next().is_some());
    drop(stream);
    let at_drop = started.load(Ordering::SeqCst);
    assert!(gone.recv().is_err(), "nothing is ever sent");
    // A producer may have passed its stop check just before the drop:
    // at most one further claim per producer.
    let total = started.load(Ordering::SeqCst);
    assert!(
        total <= at_drop + workers,
        "{total} claims, {at_drop} at drop"
    );
}

#[test]
fn spawn_pooled_runs_detached_jobs() {
    let (tx, rx) = mpsc::channel::<u64>();
    for i in 0..8u64 {
        let tx = tx.clone();
        pool::spawn_pooled(move || {
            // Detached jobs run on marked workers: nested claim loops
            // inside them run inline.
            assert!(in_parallel_worker());
            tx.send(i * 10).unwrap();
        });
    }
    drop(tx);
    let mut got: Vec<u64> = rx.iter().collect();
    got.sort_unstable();
    assert_eq!(got, (0..8).map(|i| i * 10).collect::<Vec<_>>());
}

#[test]
fn scope_with_reports_helper_count_and_joins() {
    let _pin = pinned(None);
    let hits = AtomicUsize::new(0);
    let work = |_slot: usize| {
        hits.fetch_add(1, Ordering::SeqCst);
    };
    let running = pool::scope_with(2, &work, |running| {
        // The caller is marked as a worker for the duration of main.
        assert!(in_parallel_worker());
        running
    });
    assert!(running <= 2);
    // Every granted helper ran its work closure by the time the barrier
    // returned.
    assert_eq!(hits.load(Ordering::SeqCst), running);
    assert!(!in_parallel_worker(), "caller mark must be restored");
}
