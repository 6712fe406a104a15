//! One work-claiming loop on scoped threads: the only parallelism in the
//! workspace.
//!
//! AST-DME's bottom-up merge is one chain of dependent merges per
//! instance, so the parallelism that pays is across independent
//! instances: a routing portfolio, a Monte Carlo sweep. The container
//! image has no crates.io access, so instead of `rayon` this crate
//! provides exactly what those fan-outs need — [`claim_loop`]: the caller
//! and up to `threads − 1` scoped helper threads (see *Thread counts*)
//! claim indices `0..len` from a shared cursor, produce each one, and hand
//! every `(index, result)` to the caller's `consume` in completion order.
//! The call returns when every index has been consumed and every helper
//! has been joined, so `produce` may borrow from the caller's stack. The
//! fleet's batch (consume writes input-order slots) and the robustness
//! sweep (consume reorders into an index-ordered reduction) both run on
//! it.
//!
//! # The loop
//!
//! Producers share one atomic cursor and claim one index at a time, so a
//! producer that drew cheap items comes back for more while one stuck on
//! an expensive item keeps working — the shape of a skewed portfolio.
//! Helpers deliver through a channel bounded at `in_flight`: a helper
//! that runs ahead of the consumer blocks instead of piling up results. A
//! stop flag is checked before every claim.
//!
//! **The caller produces too**: it runs the same loop as the helpers,
//! consumes its own results directly, and drains the channel between its
//! items and after the cursor runs dry. With no helpers (one thread, a
//! nested call, or no thread could be spawned) the same loop simply runs
//! inline — there is no separate serial path. A caller that only consumed
//! would add one more routing thread, with its own heap, to every
//! fan-out.
//!
//! Scheduling never changes output: each index is produced exactly once
//! and consumed exactly once, so a consumer that files results by index
//! is identical at every thread count.
//!
//! # Thread counts
//!
//! The fan-out width is, in priority order: the calling thread's
//! [`set_thread_override`] count when set, else the `ASTDME_THREADS`
//! environment variable (read once per process, never written) when set
//! and ≥ 1, else `available_parallelism`. The override is a thread-local,
//! so one thread's setting never changes another's fan-outs; helpers need
//! none, since they never fan out (see *Nesting*). A fan-out never uses
//! more threads than it has items, nor more than 256 (a sanity backstop,
//! not a tuning knob). Helpers are spawned per call and joined before it
//! returns; a spawn that fails leaves the loop with fewer helpers, never
//! fewer items.
//!
//! # Nesting
//!
//! Fan-outs never nest: helpers are marked for their whole life, the
//! caller is marked while it participates, and a [`claim_loop`] made
//! from a marked thread runs inline. A `ClockRouter` that itself routes a
//! batch therefore cannot oversubscribe the machine from inside a fleet
//! worker.
//!
//! # Panics
//!
//! A panic in `produce` or `consume` sets the stop flag, so no producer
//! claims another index. The first panic payload is re-raised on the
//! caller via [`std::panic::resume_unwind`] once every helper has been
//! joined.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

thread_local! {
    /// Whether the current thread is a claim-loop helper or a
    /// participating caller. Fan-outs from a marked thread run inline
    /// (see the crate docs).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// The calling thread's thread-count override (0 = none / auto); see
    /// [`set_thread_override`].
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Whether the calling thread is a claim-loop helper or a participating
/// caller — i.e. a [`claim_loop`] from here would run inline.
fn in_parallel_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Hard cap on the producers of one fan-out, the caller included — a
/// sanity backstop far above any real fan-out (thread counts come from
/// `available_parallelism` or an explicit override), not a tuning knob.
const MAX_THREADS: usize = 256;

/// Makes every later fan-out started from the calling thread use exactly
/// `n` threads instead of the automatic count (`None` restores auto — the
/// `ASTDME_THREADS` environment variable if set, else
/// `available_parallelism`). `Some(1)` runs the calling thread's
/// [`claim_loop`]s inline.
///
/// The setting is the calling thread's alone: no other thread's fan-outs
/// see it, so concurrent tests that sweep thread counts need no lock.
/// Results are thread-count invariant by construction (each index is
/// produced and consumed exactly once), so this knob only changes
/// *scheduling*: the determinism tests sweep it to prove exactly that.
pub fn set_thread_override(n: Option<NonZeroUsize>) {
    OVERRIDE.with(|o| o.set(n.map_or(0, NonZeroUsize::get)));
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

/// The thread count a fan-out from the calling thread would use: its
/// [`set_thread_override`] value when set, else [`auto_threads`].
fn effective_threads() -> usize {
    NonZeroUsize::new(OVERRIDE.with(Cell::get)).map_or_else(auto_threads, NonZeroUsize::get)
}

/// The producer count a [`claim_loop`] over `len` items uses: 1 (the
/// caller alone) for fewer than two items, one thread, or a call from a
/// marked thread; otherwise [`effective_threads`] capped at `len` and at
/// [`MAX_THREADS`]. Pure: it starts no thread.
fn fanout_threads(len: usize) -> usize {
    let threads = effective_threads();
    if len < 2 || threads < 2 || in_parallel_worker() {
        1
    } else {
        threads.min(len).min(MAX_THREADS)
    }
}

/// Per-producer scheduling statistics of one [`claim_loop`] call: busy
/// time and item counts, the raw material for [`StealStats::balance`].
///
/// Both vectors are parallel: entry *j* describes producer *j* of the
/// call — the caller and every helper that ran, in no fixed order;
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
struct Clock {
    busy: f64,
    items: usize,
}

/// Locks `m`, ignoring poison: every value guarded here stays consistent
/// across a panic (the stats, a panic payload).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
    /// The producer loop: check the stop flag, claim the next index,
    /// produce it, deliver it — until the cursor runs dry, the flag is
    /// set, or `deliver` reports that nobody is listening any more.
    fn run<R>(
        &self,
        produce: &impl Fn(usize) -> R,
        mut deliver: impl FnMut(usize, R) -> bool,
    ) -> Clock {
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

/// The claim loop: produces every index in `0..len` exactly once and
/// hands each `(index, result)` to `consume` on the calling thread, in
/// completion order. Returns the [`StealStats`] of every producer.
///
/// The caller is one of the producers. Up to `threads − 1` scoped helper
/// threads (the calling thread's count; see the crate docs) run alongside
/// it, delivering through a channel bounded at `in_flight` (clamped to
/// ≥ 1); the caller consumes its own results directly and drains the
/// channel between its items and after the cursor runs dry. With no helpers — fewer than two items, one
/// thread, a call from inside another claim loop, or no helper could be
/// spawned — the same loop runs inline.
///
/// The call does not return until every helper has been joined, so
/// `produce` may borrow from the caller's stack.
///
/// # Panics
///
/// A panic in `produce` (on any producer) or in `consume` stops further
/// claims; the first payload is re-raised on the caller once every
/// helper has been joined. Indices not yet consumed are dropped.
pub fn claim_loop<R, P, C>(len: usize, in_flight: usize, produce: P, mut consume: C) -> StealStats
where
    R: Send,
    P: Fn(usize) -> R + Sync,
    C: FnMut(usize, R),
{
    let claims = Claims {
        len,
        next: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    let (tx, rx) = sync_channel::<(usize, R)>(in_flight.max(1));
    let stats = Mutex::new(StealStats::default());
    let first_panic = Mutex::new(None);
    // A panic in `produce` or `consume` stops further claims; the first
    // payload is kept for the caller.
    let stash = |payload: Box<dyn Any + Send>| {
        claims.stop.store(true, Ordering::Relaxed);
        lock(&first_panic).get_or_insert(payload);
    };
    std::thread::scope(|scope| {
        let (claims, produce, stats, stash) = (&claims, &produce, &stats, &stash);
        for _ in 1..fanout_threads(len) {
            let tx = tx.clone();
            let helper = move || {
                IN_WORKER.with(|w| w.set(true));
                let run = || claims.run(produce, |i, r| tx.send((i, r)).is_ok());
                match catch_unwind(AssertUnwindSafe(run)) {
                    Ok(clock) => lock(stats).push(clock),
                    Err(payload) => stash(payload),
                }
            };
            let spawned = std::thread::Builder::new()
                .name("astdme-claim".into())
                .spawn_scoped(scope, helper);
            if spawned.is_err() {
                break;
            }
        }
        // Only the helpers hold senders now, so the caller's final drain
        // ends with the last helper.
        drop(tx);
        let was_worker = IN_WORKER.with(|w| w.replace(true));
        let caller = catch_unwind(AssertUnwindSafe(|| {
            // Owned by this closure: if the caller unwinds, the receiver
            // drops with it and every helper blocked on a full channel
            // gets a send error instead of waiting forever.
            let rx = rx;
            let clock = claims.run(produce, |i, r| {
                consume(i, r);
                rx.try_iter().for_each(|(i, r)| consume(i, r));
                true
            });
            rx.iter().for_each(|(i, r)| consume(i, r));
            clock
        }));
        IN_WORKER.with(|w| w.set(was_worker));
        match caller {
            Ok(clock) => lock(stats).push(clock),
            Err(payload) => stash(payload),
        }
    });
    if let Some(payload) = lock(&first_panic).take() {
        resume_unwind(payload);
    }
    stats.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests;
