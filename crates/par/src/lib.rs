//! One work-claiming loop over a **persistent worker pool**: the only
//! parallelism in the workspace.
//!
//! AST-DME's bottom-up merge is one chain of dependent merges per
//! instance, so the parallelism that pays is across independent
//! instances: a routing portfolio, a Monte Carlo sweep, a stream of
//! scenarios. The container image has no crates.io access, so instead of
//! `rayon` this crate provides exactly what those fan-outs need — one
//! claim loop in two forms:
//!
//! * [`claim_loop`] — **scoped**: the caller and up to
//!   [`effective_threads`]` − 1` pool helpers claim indices `0..len` from
//!   a shared cursor, produce each one, and hand every `(index, result)`
//!   to the caller's `consume` in completion order. The call returns when
//!   every index has been consumed, so `produce` may borrow from the
//!   caller's stack. The fleet's batch (consume writes input-order slots)
//!   and the robustness sweep (consume reorders into an index-ordered
//!   reduction) are this form.
//! * [`claim_stream`] — **detached**: the same producer loop on owned
//!   pool jobs, delivered through a [`ClaimStream`] iterator; dropping the
//!   iterator stops further claims. The fleet's completion-order
//!   `route_stream` is this form.
//!
//! # The loop
//!
//! Producers share one atomic cursor and claim one index at a time, so a
//! producer that drew cheap items comes back for more while one stuck on
//! an expensive item keeps working — the shape of a skewed portfolio.
//! Results travel through a channel bounded at `in_flight`: a producer
//! that runs ahead of the consumer blocks instead of piling up results. A
//! stop flag is checked before every claim.
//!
//! In the scoped form **the caller produces too**: it runs the same loop
//! as the helpers, consumes its own results directly, and drains the
//! channel between its items and after the cursor runs dry. With no
//! helpers (one thread, a nested call, or a saturated pool) the same loop
//! simply runs inline — there is no separate serial path. A caller that
//! only consumed would add one more routing thread, with its own heap, to
//! every fan-out.
//!
//! Scheduling never changes output: each index is produced exactly once
//! and consumed exactly once, so a consumer that files results by index
//! is identical at every thread count.
//!
//! # The pool
//!
//! Worker threads are spawned lazily on first use, park on a private job
//! channel between calls, and are **reused across calls** — a fan-out is
//! a submission to the pool, not a spawn/join cycle. Parked workers never
//! keep the process alive. See [`pool_threads`] for the reuse diagnostic
//! and the `pool` module docs for the lifecycle.
//!
//! # Thread counts
//!
//! The fan-out width is, in priority order: the process-global
//! [`set_thread_override`] count when set, else the `ASTDME_THREADS`
//! environment variable (read once per process) when set and ≥ 1, else
//! `available_parallelism`. [`effective_threads`] reports the resolved
//! value.
//!
//! # Nesting
//!
//! Fan-outs never nest: pool threads are permanently marked, scoped
//! callers are marked while they participate, and a [`claim_loop`] made
//! from a marked thread runs inline. A `ClockRouter` that itself routes a
//! batch therefore cannot oversubscribe the machine from inside a fleet
//! worker.
//!
//! # Panics
//!
//! A panic in `produce` or `consume` sets the stop flag, so no producer
//! claims another index. In the scoped form the original payload is
//! re-raised on the caller via [`std::panic::resume_unwind`] once every
//! helper has finished. Pool workers survive panicking jobs and return to
//! the idle list.

// The one `unsafe` block in the workspace lives in `pool::scope_with`
// (lifetime erasure made sound by a completion latch); everything else
// stays checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::pool_threads;

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

thread_local! {
    /// Whether the current thread is a pool worker or a participating
    /// scoped caller. Fan-outs from a marked thread run inline (see the
    /// module docs).
    pub(crate) static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a pool worker or a participating scoped
/// caller — i.e. a [`claim_loop`] from here would run inline.
pub(crate) fn in_parallel_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Process-global thread-count override (0 = none / auto).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every subsequent fan-out to use exactly `n` threads instead of
/// the automatic count (`None` restores auto — the `ASTDME_THREADS`
/// environment variable if set, else `available_parallelism`). `Some(1)`
/// runs every [`claim_loop`] inline on the caller.
///
/// Results are thread-count invariant by construction (each index is
/// produced and consumed exactly once), so this knob only changes
/// *scheduling*: the determinism tests sweep it to prove exactly that.
/// Process-global; concurrent tests that flip it should serialize on a
/// lock and restore the previous value with [`override_guard`] so a
/// failing test cannot poison later ones.
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
/// Linux (it re-reads cgroup quota files every time). An explicit
/// [`set_thread_override`] wins over both sources.
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

/// The producer count a [`claim_loop`] over `len` items uses: 1 (the
/// caller alone) for fewer than two items, one thread, or a call from a
/// marked thread; otherwise [`effective_threads`] capped at `len`.
pub(crate) fn fanout_threads(len: usize) -> usize {
    let threads = effective_threads();
    if len < 2 || threads < 2 || in_parallel_worker() {
        1
    } else {
        threads.min(len)
    }
}

/// Per-producer scheduling statistics of one [`claim_loop`] call: busy
/// time and item counts, the raw material for [`StealStats::balance`].
///
/// Both vectors are parallel: entry *j* describes producer *j* of the
/// call — the caller and every pool helper that ran, in no fixed order;
/// the multiset of entries is what's meaningful.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StealStats {
    /// Busy wall-clock seconds per producer, from the moment its loop
    /// started to the moment it stopped claiming. Exactly one entry when
    /// the loop ran inline on the caller.
    pub worker_busy_seconds: Vec<f64>,
    /// Items produced per producer (sums to the input length).
    pub worker_items: Vec<usize>,
}

impl StealStats {
    /// Number of producers that participated (1 when the loop ran inline).
    pub fn workers(&self) -> usize {
        self.worker_busy_seconds.len()
    }

    /// Load balance as max/min producer busy-time over the producers that
    /// processed at least one item: 1.0 is perfect, large values mean
    /// some loaded producers sat on far less work than others. Producers
    /// that claimed nothing are excluded — a thread that woke after the
    /// cursor ran dry is wakeup latency, not imbalance, and dividing by
    /// its ~zero busy time would turn the metric into noise. Defined as
    /// 1.0 when fewer than two producers processed items (including the
    /// inline loop).
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

    fn push(&mut self, clock: Clock) {
        self.worker_busy_seconds.push(clock.busy);
        self.worker_items.push(clock.items);
    }
}

/// One producer's share of a [`StealStats`].
#[derive(Debug, Default)]
struct Clock {
    busy: f64,
    items: usize,
}

/// Locks `m`, ignoring poison: every value guarded here stays consistent
/// across a panic (a sender slot, a list of clocks).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sets the stop flag when dropped during a panic unwind, so a failing
/// `produce` or `consume` stops every producer from claiming again.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The claim state every producer of one loop shares: a cursor over
/// `0..len` and the stop flag. Both are `Relaxed`: neither publishes
/// data (results travel through the channel), and a producer that reads
/// a stale `false` is still stopped by its next failed send.
struct Claims {
    len: usize,
    next: AtomicUsize,
    stop: AtomicBool,
}

impl Claims {
    fn new(len: usize) -> Self {
        Self {
            len,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// The producer loop: check the stop flag, claim the next index,
    /// produce it, deliver it — until the cursor runs dry, the flag is
    /// set, or `deliver` reports that nobody is listening any more.
    fn run<R>(
        &self,
        produce: &impl Fn(usize) -> R,
        mut deliver: impl FnMut(usize, R) -> bool,
    ) -> Clock {
        let _stop = StopOnUnwind(&self.stop);
        let t0 = Instant::now();
        let mut items = 0usize;
        while !self.stop.load(Ordering::Relaxed) {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.len {
                break;
            }
            let result = produce(index);
            items += 1;
            if !deliver(index, result) {
                break;
            }
        }
        Clock {
            busy: t0.elapsed().as_secs_f64(),
            items,
        }
    }
}

/// The scoped claim loop: produces every index in `0..len` exactly once
/// and hands each `(index, result)` to `consume` on the calling thread,
/// in completion order. Returns the [`StealStats`] of every producer.
///
/// The caller is one of the producers. Up to [`effective_threads`]` − 1`
/// pool helpers run alongside it, delivering through a channel bounded at
/// `in_flight` (clamped to ≥ 1); the caller consumes its own results
/// directly and drains the channel between its items and after the
/// cursor runs dry. With no helpers — fewer than two items, one thread,
/// a call from inside a pool worker or another claim loop, or a saturated
/// pool — the same loop runs inline.
///
/// The call does not return until every helper has finished, so
/// `produce` may borrow from the caller's stack.
///
/// # Panics
///
/// A panic in `produce` (on any producer) or in `consume` stops further
/// claims and is re-raised on the caller with its original payload after
/// every helper has finished; indices not yet consumed are dropped.
pub fn claim_loop<R, P, C>(len: usize, in_flight: usize, produce: P, mut consume: C) -> StealStats
where
    R: Send,
    P: Fn(usize) -> R + Sync,
    C: FnMut(usize, R),
{
    let claims = Claims::new(len);
    let (tx, rx) = sync_channel::<(usize, R)>(in_flight.max(1));
    // Helpers clone the sender when they start; the caller takes it once
    // the cursor is dry, so a helper that wakes later finds it gone and
    // leaves, and the caller's final drain ends with the last helper.
    let sender = Mutex::new(Some(tx));
    let clocks = Mutex::new(Vec::new());
    let helper = |_slot: usize| {
        let tx = lock(&sender).clone();
        let clock = match tx {
            Some(tx) => claims.run(&produce, |i, r| tx.send((i, r)).is_ok()),
            None => Clock::default(),
        };
        lock(&clocks).push(clock);
    };
    pool::scope_with(fanout_threads(len) - 1, &helper, |_running| {
        // Owned by this closure: if the caller unwinds, the receiver
        // drops with it and every helper blocked on a full channel gets a
        // send error instead of waiting forever.
        let rx = rx;
        let clock = claims.run(&produce, |i, r| {
            consume(i, r);
            rx.try_iter().for_each(|(i, r)| consume(i, r));
            true
        });
        drop(lock(&sender).take());
        rx.iter().for_each(|(i, r)| consume(i, r));
        lock(&clocks).push(clock);
    });
    let mut stats = StealStats::default();
    for clock in clocks.into_inner().unwrap_or_else(|e| e.into_inner()) {
        stats.push(clock);
    }
    stats
}

/// A completion-order stream of `(index, result)` pairs from
/// [`claim_stream`]'s detached producers.
///
/// Dropping it stops the loop: producers claim no further index, and a
/// producer blocked on delivery gets a send error and leaves. Items
/// already being produced run to completion without anything waiting on
/// them. Dropping never blocks.
pub struct ClaimStream<R> {
    rx: Receiver<(usize, R)>,
    claims: Arc<Claims>,
}

impl<R> Iterator for ClaimStream<R> {
    type Item = (usize, R);

    /// Blocks until the next result arrives; `None` once every producer
    /// has left.
    fn next(&mut self) -> Option<Self::Item> {
        self.rx.recv().ok()
    }
}

impl<R> Drop for ClaimStream<R> {
    fn drop(&mut self) {
        // The receiver drops right after (field drop order), so a
        // producer blocked mid-send wakes with an error.
        self.claims.stop.store(true, Ordering::Relaxed);
    }
}

/// The detached claim loop: `workers` (capped at `len`) pool jobs run the
/// producer loop of [`claim_loop`] over `0..len` and deliver through a
/// channel bounded at `in_flight` (clamped to ≥ 1) to the returned
/// [`ClaimStream`]. Nothing waits for the jobs, so `produce` must own
/// everything it touches. An empty range yields an exhausted stream.
///
/// A panic in `produce` stops further claims; the stream then ends once
/// the remaining producers leave. The payload is discarded — there is no
/// caller to re-raise it on — so producers that can fail should return
/// their failures as values.
pub fn claim_stream<R, P>(
    len: usize,
    workers: usize,
    in_flight: usize,
    produce: P,
) -> ClaimStream<R>
where
    R: Send + 'static,
    P: Fn(usize) -> R + Send + Sync + 'static,
{
    let claims = Arc::new(Claims::new(len));
    let produce = Arc::new(produce);
    let (tx, rx) = sync_channel(in_flight.max(1));
    for _ in 0..workers.max(1).min(len) {
        let (claims, produce, tx) = (Arc::clone(&claims), Arc::clone(&produce), tx.clone());
        pool::spawn_pooled(move || {
            claims.run(&*produce, |i, r| tx.send((i, r)).is_ok());
        });
    }
    ClaimStream { rx, claims }
}

#[cfg(test)]
mod tests;
