use super::*;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

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
    let items: Vec<u64> = (0..500).collect();
    let expected: Vec<u64> = items.iter().map(|x| x * 7).collect();
    for n in [1usize, 2, 3, 8] {
        set_thread_override(NonZeroUsize::new(n));
        assert_eq!(effective_threads(), n);
        assert_eq!(map(&items, |x| x * 7), expected, "threads = {n}");
    }
    set_thread_override(None);
    assert_eq!(effective_threads(), auto_threads());
    assert_eq!(map(&items, |x| x * 7), expected);
}

/// A thread starts at the automatic count whatever its spawner set, its
/// own override of 1 runs its loops inline, and that setting never
/// reaches the spawner.
#[test]
fn the_override_is_the_calling_threads_alone() {
    set_thread_override(NonZeroUsize::new(3));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            assert_eq!(effective_threads(), auto_threads());
            set_thread_override(NonZeroUsize::new(1));
            let (out, stats) = ordered(&[1u64, 2, 3, 4], 4, |_, x| x + 1);
            assert_eq!((out, stats.workers()), (vec![2, 3, 4, 5], 1));
        });
    });
    assert_eq!(effective_threads(), 3);
}

#[test]
fn every_index_is_delivered_once_in_any_order() {
    set_thread_override(NonZeroUsize::new(4));
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
    set_thread_override(NonZeroUsize::new(4));
    let items: Vec<u32> = (0..97).map(|i| if i == 0 { 200_000 } else { 50 }).collect();
    let crunch = |x: u32| -> u64 { (0..x as u64).fold(7u64, |a, b| a.wrapping_mul(31) ^ b) };
    let serial: Vec<u64> = items.iter().map(|&x| crunch(x)).collect();
    assert_eq!(map(&items, |&x| crunch(x)), serial);
}

#[test]
fn stats_cover_every_item_and_producer() {
    set_thread_override(NonZeroUsize::new(4));
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
    set_thread_override(NonZeroUsize::new(1));
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
    set_thread_override(NonZeroUsize::new(4));
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
fn a_loop_after_a_panicking_loop_delivers_every_index() {
    set_thread_override(NonZeroUsize::new(4));
    let items: Vec<u64> = (0..64).collect();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        map(&items, |&x| {
            assert_ne!(x, 7, "injected");
            x
        })
    }));
    // Nothing of the panicking call outlives it: the next call runs
    // normally and delivers every index.
    let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
    assert_eq!(map(&items, |x| x + 1), expected);
}

#[test]
fn nested_claim_loops_run_inline() {
    set_thread_override(NonZeroUsize::new(4));
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
fn claim_loop_marks_its_producers_and_restores_the_caller() {
    set_thread_override(NonZeroUsize::new(3));
    let items: Vec<u64> = (0..200).collect();
    let (marked, stats) = ordered(&items, 4, |_, _| in_parallel_worker());
    // Every producer, the caller included, is marked while it produces.
    assert!(marked.iter().all(|&m| m));
    // Every producer was joined and reported by the time the call
    // returned, and there were no more of them than threads.
    assert!((1..=3).contains(&stats.workers()), "{stats:?}");
    assert_eq!(stats.worker_items.iter().sum::<usize>(), items.len());
    assert!(!in_parallel_worker(), "caller mark must be restored");
}

#[test]
fn fanout_is_capped_without_starting_a_thread() {
    set_thread_override(NonZeroUsize::new(10_000));
    assert_eq!(effective_threads(), 10_000);
    assert_eq!(fanout_threads(10_000), MAX_THREADS);
    assert_eq!(fanout_threads(3), 3);
    assert_eq!(fanout_threads(1), 1);
}
