//! Ordered parallel map over slices, scheduled by work stealing onto a
//! **persistent worker pool**.
//!
//! The workspace's `parallel` features parallelize candidate-pair
//! expansion in the merge engine and cost work in the planner, and the
//! fleet layer fans whole instances
//! out across threads. The container image has no crates.io access, so
//! instead of `rayon` this crate provides the primitives those layers
//! need: an ordered fork-join map ([`par_map`], [`par_map_with`],
//! [`par_map_indexed`]) that preserves input order (making parallel runs
//! bit-identical to serial ones), plus the lower-level pool entry points
//! ([`scope_with`], [`spawn_pooled`]) the fleet's completion-order
//! streams are built on.
//!
//! # The pool
//!
//! Worker threads are spawned lazily on first use, park on a private job
//! channel between calls, and are **reused across calls** — a `par_map`
//! is a submission to the pool, not a spawn/join cycle, so the per-call
//! cost is a channel send and a wakeup rather than thread creation. The
//! caller always participates in barrier calls as one of the workers
//! (there is no handoff for the serial share of the work), and parked
//! workers never keep the process alive. See [`pool_threads`] for the
//! reuse diagnostic and the `pool` module docs for the lifecycle.
//!
//! # Scheduling: small-block work stealing
//!
//! Workers do **not** get fixed contiguous chunks. All workers share one
//! atomic next-index cursor and repeatedly claim small blocks of
//! consecutive items from it until the slice is exhausted. A worker that
//! lands on cheap items comes back for more while a worker stuck on an
//! expensive item keeps crunching — so skewed workloads (one huge item
//! among many small ones) no longer leave most threads idle, which is
//! exactly the shape of a routing portfolio. Each result is written to the
//! slot of its *input* index, so the output vector is identical at every
//! thread count: stealing changes scheduling, never output.
//!
//! # Thread counts
//!
//! The fan-out width is, in priority order: the process-global
//! [`set_thread_override`] count when set, else the `ASTDME_THREADS`
//! environment variable (read once per process) when set and ≥ 1, else
//! `available_parallelism`. [`effective_threads`] reports the resolved
//! value.
//!
//! # Nested parallelism
//!
//! The map never nests: pool threads are permanently marked, barrier
//! callers are marked for the duration of their participation, and any
//! call made *from inside a worker* takes the serial fallback. An outer
//! fan-out (the fleet layer mapping over instances) therefore forces
//! every inner fan-out (the engine mapping over candidate pairs) serial,
//! instead of multiplying thread counts. Results are unchanged either way
//! — the serial fallback is byte-for-byte the one-thread schedule — so
//! the guard only prevents oversubscription, never changes output.
//!
//! # Panics
//!
//! If the mapped closure panics on a worker thread, the panic **payload**
//! is re-raised on the caller via [`std::panic::resume_unwind`] — not
//! swallowed into a generic join-failure message — so callers that isolate
//! failures (the fleet layer catches per-instance panics) and test
//! harnesses both see the original message. Pool workers survive
//! panicking jobs and return to the idle list.

// The one `unsafe` block in the workspace lives in `pool::scope_with`
// (lifetime erasure made sound by a completion latch); everything else
// stays checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{pool_threads, scope_with, spawn_pooled};

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Whether the current thread is a parallel-map worker. Workers run
    /// nested calls serially (see the module docs).
    pub(crate) static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is inside a parallel-map worker — i.e. a
/// further [`par_map`] call from here would take the serial fallback.
pub fn in_parallel_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Process-global thread-count override (0 = none / auto).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every subsequent map call to use exactly `n` threads instead of
/// the automatic count (`None` restores auto — the `ASTDME_THREADS`
/// environment variable if set, else `available_parallelism`). `Some(1)`
/// runs the serial fallback — byte-for-byte the code path a build without
/// any parallelism takes.
///
/// Results are thread-count invariant by construction (outputs are
/// written to input-order slots), so this knob only changes *scheduling*:
/// the determinism tests sweep it to prove exactly that, and the scaling
/// bench uses it for its parallel-vs-serial measurement. Process-global;
/// concurrent tests that flip it should serialize on a lock and restore
/// the previous value with [`override_guard`] so a failing test cannot
/// poison later ones.
pub fn set_thread_override(n: Option<NonZeroUsize>) {
    THREAD_OVERRIDE.store(n.map_or(0, NonZeroUsize::get), Ordering::SeqCst);
}

/// The active thread-count override, if any.
pub fn thread_override() -> Option<NonZeroUsize> {
    NonZeroUsize::new(THREAD_OVERRIDE.load(Ordering::SeqCst))
}

/// RAII handle restoring the previous thread-count override on drop; see
/// [`override_guard`].
#[must_use = "dropping the guard immediately restores the previous override"]
#[derive(Debug)]
pub struct ThreadOverrideGuard {
    prev: Option<NonZeroUsize>,
}

/// Sets the thread-count override to `n` and returns a guard that restores
/// the *previous* value when dropped — including during a panic unwind, so
/// a failing test or bench cannot leave its override in place to poison
/// whatever runs next in the same process.
///
/// Tests that sweep several counts can keep calling
/// [`set_thread_override`] inside the guard's scope; the guard always
/// restores the value it captured at construction.
pub fn override_guard(n: Option<NonZeroUsize>) -> ThreadOverrideGuard {
    let prev = thread_override();
    set_thread_override(n);
    ThreadOverrideGuard { prev }
}

impl Drop for ThreadOverrideGuard {
    fn drop(&mut self) {
        set_thread_override(self.prev);
    }
}

/// The automatic thread count, read once per process: the
/// `ASTDME_THREADS` environment variable when set to an integer ≥ 1
/// (the CI knob that makes fan-out real on single-core runners), else
/// `available_parallelism`. Cached because the std call is not cheap on
/// Linux (it re-reads cgroup quota files every time) and the merge engine
/// calls [`par_map`] once per merge — uncached, the lookup alone cost ~2x
/// on single-core machines. An explicit [`set_thread_override`] wins over
/// both sources.
fn auto_threads() -> usize {
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Some(n) = std::env::var("ASTDME_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    })
}

/// The thread count a fan-out would use right now: the
/// [`set_thread_override`] value when set, else the automatic count (see
/// [`auto_threads`'s sources](set_thread_override)). The fleet layer
/// sizes its streaming worker sets from this.
pub fn effective_threads() -> usize {
    thread_override().map_or_else(auto_threads, NonZeroUsize::get)
}

/// Per-worker scheduling statistics of one parallel map call: the raw
/// material for load-balance and latency measurements (the scaling
/// bench's skewed fleet portfolio records [`StealStats::balance`], and
/// its `latency` section reads the queue-wait and idle columns).
///
/// All four vectors are parallel: entry *j* describes worker *j* of the
/// call (in completion order — which worker is which varies run to run,
/// the multiset of entries is what's meaningful).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StealStats {
    /// Busy wall-clock seconds per worker, from the moment its work loop
    /// started to the moment the shared cursor ran dry for it. One entry
    /// per worker; exactly one entry when the call took the serial
    /// fallback.
    pub worker_busy_seconds: Vec<f64>,
    /// Items processed per worker (sums to the input length).
    pub worker_items: Vec<usize>,
    /// Seconds each worker waited between call submission and its work
    /// loop starting — pool wakeup latency (near zero for the caller,
    /// who starts immediately). Zero for the serial fallback.
    pub worker_queue_wait_seconds: Vec<f64>,
    /// Seconds of each worker's busy window *not* spent executing items:
    /// cursor claims, context setup, and result buffering. Zero for the
    /// serial fallback.
    pub worker_idle_seconds: Vec<f64>,
}

impl StealStats {
    /// Number of workers that participated (1 for the serial fallback).
    pub fn workers(&self) -> usize {
        self.worker_busy_seconds.len()
    }

    /// Load balance as max/min worker busy-time over the workers that
    /// processed at least one item: 1.0 is perfect, large values mean
    /// some loaded workers sat on far less work than others. Workers that
    /// claimed nothing are excluded — a thread that woke after the
    /// cursor ran dry is wakeup latency, not imbalance, and dividing by
    /// its ~zero busy time would turn the metric into noise. Defined as
    /// 1.0 when fewer than two workers processed items (including the
    /// serial fallback).
    pub fn balance(&self) -> f64 {
        let busy = || {
            self.worker_busy_seconds
                .iter()
                .zip(&self.worker_items)
                .filter(|&(_, &items)| items > 0)
                .map(|(&secs, _)| secs)
        };
        if busy().count() < 2 {
            return 1.0;
        }
        let max = busy().fold(0.0f64, f64::max);
        let min = busy().fold(f64::INFINITY, f64::min);
        if min > 0.0 {
            max / min
        } else {
            f64::INFINITY
        }
    }

    /// The worst queue wait across workers (0.0 with no workers): how
    /// long the slowest-to-wake worker sat between submission and its
    /// first cursor claim.
    pub fn max_queue_wait_seconds(&self) -> f64 {
        self.worker_queue_wait_seconds
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// Total non-item seconds inside workers' busy windows, summed across
    /// workers — the scheduling overhead of the call.
    pub fn total_idle_seconds(&self) -> f64 {
        self.worker_idle_seconds.iter().sum()
    }
}

/// How many steal blocks each worker's fair share is split into. Higher
/// means finer-grained stealing (better balance, more cursor contention);
/// 8 keeps the block claim cost negligible while letting a worker that
/// drew the expensive items shed the rest of the slice to its peers.
const BLOCKS_PER_WORKER: usize = 8;

/// Steal-block size for `len` items over `threads` workers: small blocks,
/// never zero. For the fleet's portfolio-sized inputs this degenerates to
/// single-item stealing, which is what a handful of wildly-uneven
/// instances wants.
fn steal_block(len: usize, threads: usize) -> usize {
    (len / (threads * BLOCKS_PER_WORKER)).max(1)
}

/// The worker count a call over `len` items would fan out to; 1 means the
/// serial fallback (small input, single core, nested call, or an override
/// of one). Public so the fleet layer can make the same decision for its
/// own streaming loops and stay consistent with the map primitives.
pub fn fanout_threads(len: usize, min_len: usize) -> usize {
    let threads = effective_threads();
    if len < min_len.max(2) || threads < 2 || in_parallel_worker() {
        1
    } else {
        threads.min(len)
    }
}

/// The serial schedule: one context, one in-order pass. Both the fallback
/// path and the one-thread reference the determinism tests compare
/// against.
fn serial_map<C, T, R>(
    items: &[T],
    make_ctx: impl Fn() -> C,
    f: impl Fn(&mut C, usize, &T) -> R,
) -> Vec<R> {
    let mut ctx = make_ctx();
    items
        .iter()
        .enumerate()
        .map(|(i, item)| f(&mut ctx, i, item))
        .collect()
}

/// One worker's contribution to a [`steal_map`] call.
struct StealPart<R> {
    results: Vec<(usize, R)>,
    busy: f64,
    queue_wait: f64,
    idle: f64,
}

/// The work-stealing schedule on the pool: the caller plus `threads - 1`
/// pool helpers share an atomic cursor, claim small blocks of consecutive
/// indices, and tag every result with its input index; the caller-side
/// reassembly writes each result into its input-order slot, so the output
/// is bit-identical to [`serial_map`].
fn steal_map<C, T, R, F>(
    items: &[T],
    threads: usize,
    make_ctx: &(impl Fn() -> C + Sync),
    f: &F,
) -> (Vec<R>, StealStats)
where
    T: Sync,
    R: Send,
    F: Fn(&mut C, usize, &T) -> R + Sync,
{
    let block = steal_block(items.len(), threads);
    let next = AtomicUsize::new(0);
    let submitted = Instant::now();
    let parts: Mutex<Vec<StealPart<R>>> = Mutex::new(Vec::with_capacity(threads));
    let work = |_slot: usize| {
        let queue_wait = submitted.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut ctx = make_ctx();
        let mut results: Vec<(usize, R)> = Vec::new();
        let mut item_seconds = 0.0f64;
        loop {
            let start = next.fetch_add(block, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + block).min(items.len());
            let tb = Instant::now();
            for (i, item) in items[start..end].iter().enumerate() {
                results.push((start + i, f(&mut ctx, start + i, item)));
            }
            item_seconds += tb.elapsed().as_secs_f64();
        }
        let busy = t0.elapsed().as_secs_f64();
        parts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(StealPart {
                results,
                busy,
                queue_wait,
                idle: (busy - item_seconds).max(0.0),
            });
    };
    // The caller participates as a worker; helpers come from the pool.
    // If the pool is saturated and fewer (or zero) helpers run, the
    // cursor still covers every index — the call just balances worse.
    pool::scope_with(threads - 1, &work, |_running| work(0));
    let parts = parts.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut stats = StealStats::default();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for part in parts {
        stats.worker_items.push(part.results.len());
        stats.worker_busy_seconds.push(part.busy);
        stats.worker_queue_wait_seconds.push(part.queue_wait);
        stats.worker_idle_seconds.push(part.idle);
        for (i, r) in part.results {
            debug_assert!(slots[i].is_none(), "index {i} claimed twice");
            slots[i] = Some(r);
        }
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("stealing cursor covers every index exactly once"))
        .collect();
    (out, stats)
}

/// The serial fallback's [`StealStats`]: one worker, whole-loop busy time,
/// no queue wait and no scheduling idle.
fn serial_stats(len: usize, busy: f64) -> StealStats {
    StealStats {
        worker_busy_seconds: vec![busy],
        worker_items: vec![len],
        worker_queue_wait_seconds: vec![0.0],
        worker_idle_seconds: vec![0.0],
    }
}

/// Maps `f` over `items` with the index of each item, using up to
/// [`effective_threads`] pool workers. Inputs shorter than `min_len` (or
/// single-core machines, or calls from inside a worker) run serially.
/// Results land in input order regardless of which worker computed them,
/// so output is deterministic at every thread count.
pub fn par_map_indexed<T, R, F>(items: &[T], min_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = fanout_threads(items.len(), min_len);
    if threads < 2 {
        return serial_map(items, || (), |(), i, item| f(i, item));
    }
    steal_map(items, threads, &|| (), &|(): &mut (), i, item| f(i, item)).0
}

/// Like [`par_map_indexed`], but additionally returns the per-worker
/// [`StealStats`] of the run — the fleet layer's balance measurements ride
/// on this. The serial fallback reports a single worker whose busy time is
/// the whole loop.
pub fn par_map_indexed_stats<T, R, F>(items: &[T], min_len: usize, f: F) -> (Vec<R>, StealStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = fanout_threads(items.len(), min_len);
    if threads < 2 {
        let t0 = Instant::now();
        let out = serial_map(items, || (), |(), i, item| f(i, item));
        let stats = serial_stats(items.len(), t0.elapsed().as_secs_f64());
        return (out, stats);
    }
    steal_map(items, threads, &|| (), &|(): &mut (), i, item| f(i, item))
}

/// Maps `f` over `items`, in input order — a thin wrapper over the
/// work-stealing scheduler of [`par_map_indexed`] that ignores the item
/// index.
pub fn par_map<T, R, F>(items: &[T], min_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, min_len, |_, item| f(item))
}

/// Like [`par_map`], but each worker thread builds one scratch context
/// with `make_ctx` and threads it through every item it steals — for
/// callers whose per-item work wants reusable buffers without per-item
/// allocation. The serial fallback builds exactly one context. A thin
/// wrapper over the same work-stealing scheduler as [`par_map_indexed`].
pub fn par_map_with<C, T, R, F>(
    items: &[T],
    min_len: usize,
    make_ctx: impl Fn() -> C + Sync,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut C, &T) -> R + Sync,
{
    let threads = fanout_threads(items.len(), min_len);
    if threads < 2 {
        return serial_map(items, make_ctx, |ctx, _, item| f(ctx, item));
    }
    steal_map(items, threads, &make_ctx, &|ctx: &mut C, _, item| {
        f(ctx, item)
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::{Mutex, MutexGuard};

    /// Tests touching the process-global override (or asserting worker
    /// counts, which the override perturbs) serialize on this lock.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    /// Lock + RAII override for a test: serializes on [`OVERRIDE_LOCK`]
    /// and restores the previous override when dropped — even when the
    /// test body panics mid-sweep, so one failing test cannot poison the
    /// override for the rest of the binary.
    fn pinned(n: Option<NonZeroUsize>) -> (MutexGuard<'static, ()>, ThreadOverrideGuard) {
        let lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        (lock, override_guard(n))
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
            assert_eq!(par_map(&items, 0, |x| x * 7), expected, "threads = {n}");
        }
        set_thread_override(None);
        assert_eq!(thread_override(), None);
        assert_eq!(par_map(&items, 0, |x| x * 7), expected);
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
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let parallel = par_map(&items, 0, |x| x * 3 + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn indexed_map_sees_input_indices() {
        let _pin = pinned(NonZeroUsize::new(4));
        let items: Vec<u64> = (0..777).map(|x| x * 2).collect();
        let out = par_map_indexed(&items, 0, |i, &x| (i as u64) * 1000 + x);
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u64) * 1000 + x)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn skewed_costs_stay_bit_identical() {
        // One very expensive item at the front, many cheap ones behind it:
        // the work-stealing schedule must reassemble input order exactly.
        let _pin = pinned(NonZeroUsize::new(4));
        let items: Vec<u32> = (0..97).map(|i| if i == 0 { 200_000 } else { 50 }).collect();
        let crunch = |x: u32| -> u64 { (0..x as u64).fold(7u64, |a, b| a.wrapping_mul(31) ^ b) };
        let serial: Vec<u64> = items.iter().map(|&x| crunch(x)).collect();
        assert_eq!(par_map(&items, 0, |&x| crunch(x)), serial);
    }

    #[test]
    fn stats_cover_every_item_and_worker() {
        let _pin = pinned(NonZeroUsize::new(4));
        let items: Vec<u64> = (0..300).collect();
        let (out, stats) = par_map_indexed_stats(&items, 0, |_, &x| x + 1);
        assert_eq!(out, (1..=300).collect::<Vec<u64>>());
        assert_eq!(stats.workers(), 4);
        assert_eq!(stats.worker_items.iter().sum::<usize>(), items.len());
        assert!(stats.balance() >= 1.0);
        // The new latency columns are parallel to the busy column and
        // non-negative.
        assert_eq!(stats.worker_queue_wait_seconds.len(), 4);
        assert_eq!(stats.worker_idle_seconds.len(), 4);
        assert!(stats.max_queue_wait_seconds() >= 0.0);
        assert!(stats.total_idle_seconds() >= 0.0);
    }

    #[test]
    fn balance_ignores_workers_that_claimed_nothing() {
        // A worker that woke after the cursor ran dry (0 items, ~zero
        // busy time) is wakeup latency, not imbalance.
        let stats = StealStats {
            worker_busy_seconds: vec![2.0, 1.0, 1e-7],
            worker_items: vec![5, 3, 0],
            ..StealStats::default()
        };
        assert_eq!(stats.balance(), 2.0);
        let one_loaded = StealStats {
            worker_busy_seconds: vec![2.0, 1e-7],
            worker_items: vec![8, 0],
            ..StealStats::default()
        };
        assert_eq!(one_loaded.balance(), 1.0);
    }

    #[test]
    fn serial_fallback_reports_one_worker() {
        let _pin = pinned(NonZeroUsize::new(1));
        let items: Vec<u64> = (0..10).collect();
        let (_, stats) = par_map_indexed_stats(&items, 0, |_, &x| x);
        assert_eq!(stats.workers(), 1);
        assert_eq!(stats.worker_items, vec![10]);
        assert_eq!(stats.worker_queue_wait_seconds, vec![0.0]);
        assert_eq!(stats.worker_idle_seconds, vec![0.0]);
        assert_eq!(stats.balance(), 1.0);
    }

    #[test]
    fn worker_panic_payload_reaches_the_caller() {
        let _pin = pinned(NonZeroUsize::new(4));
        let items: Vec<u64> = (0..64).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, 0, |&x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        }))
        .expect_err("the worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("format-style panics carry a String payload");
        assert_eq!(msg, "boom at 13");
    }

    #[test]
    fn pool_survives_panicking_jobs_and_is_reused() {
        let _pin = pinned(NonZeroUsize::new(4));
        let items: Vec<u64> = (0..64).collect();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, 0, |&x| {
                assert_ne!(x, 7, "injected");
                x
            })
        }));
        // The panicking call's workers went back to the idle list; the
        // next call runs normally on the same pool.
        let expected: Vec<u64> = items.iter().map(|x| x + 1).collect();
        assert_eq!(par_map(&items, 0, |x| x + 1), expected);
    }

    #[test]
    fn repeated_calls_reuse_pool_threads() {
        let _pin = pinned(NonZeroUsize::new(3));
        let items: Vec<u64> = (0..256).collect();
        // Warm the pool, then measure: many further calls at the same
        // width must not spawn additional threads.
        let _ = par_map(&items, 0, |x| x + 1);
        // Count only this thread's spawns: the pool's global total moves
        // with whatever concurrent tests fan out. A barrier checks its
        // helpers back in before returning, so each call finds the
        // previous call's workers idle.
        let warmed = pool::spawned_by_current_thread();
        for _ in 0..32 {
            let _ = par_map(&items, 0, |x| x * 2);
        }
        assert_eq!(
            pool::spawned_by_current_thread(),
            warmed,
            "steady-state calls must reuse parked workers, not spawn"
        );
    }

    #[test]
    fn spawn_pooled_runs_detached_jobs() {
        let (tx, rx) = mpsc::channel::<u64>();
        for i in 0..8u64 {
            let tx = tx.clone();
            spawn_pooled(move || {
                // Detached jobs run on marked workers: nested fan-outs
                // inside them take the serial fallback.
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
        let running = scope_with(2, &work, |running| {
            // The caller is marked as a worker for the duration of main.
            assert!(in_parallel_worker());
            running
        });
        assert!(running <= 2);
        // Every granted helper ran its work closure by the time the
        // barrier returned.
        assert_eq!(hits.load(Ordering::SeqCst), running);
        assert!(!in_parallel_worker(), "caller mark must be restored");
    }

    #[test]
    fn small_inputs_run_serially() {
        let items = [1, 2, 3];
        assert_eq!(par_map(&items, 64, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: [u32; 0] = [];
        assert!(par_map(&items, 0, |x| *x).is_empty());
    }

    #[test]
    fn nested_par_map_runs_serially_inside_workers() {
        let _pin = pinned(NonZeroUsize::new(4));
        assert!(!in_parallel_worker(), "main thread is not a worker");
        let items: Vec<u64> = (0..64).collect();
        // Each outer item runs an inner par_map; the guard must force the
        // inner one onto the worker thread itself (observable via the
        // worker flag staying set and results staying correct).
        let nested_flags = par_map(&items, 0, |&x| {
            let inner: Vec<u64> = par_map(&[x, x + 1, x + 2], 0, |y| y * 2);
            (in_parallel_worker(), inner)
        });
        for (i, (flagged, inner)) in nested_flags.iter().enumerate() {
            assert!(*flagged, "outer item {i} should run on a marked worker");
            let x = i as u64;
            assert_eq!(inner, &vec![2 * x, 2 * x + 2, 2 * x + 4]);
        }
        assert!(
            !in_parallel_worker(),
            "participation must not leak the worker mark"
        );
    }

    #[test]
    fn par_map_with_reuses_one_context_per_worker() {
        // Pin the override: the worker-count bound below must match the
        // fan-out actually used, not whatever the auto count says — and
        // certainly not an override a previously-failed test left behind
        // (the RAII guards rule that out, too).
        let _pin = pinned(NonZeroUsize::new(4));
        let items: Vec<u64> = (0..10_000).collect();
        let contexts = AtomicUsize::new(0);
        let out = par_map_with(
            &items,
            0,
            || {
                contexts.fetch_add(1, Ordering::SeqCst);
                Vec::<u64>::new()
            },
            |buf, &x| {
                buf.clear();
                buf.push(x);
                buf[0] * 2
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let workers = effective_threads();
        assert!(
            contexts.load(Ordering::SeqCst) <= workers.min(items.len()),
            "one context per worker, not per item"
        );
    }
}
