//! A per-thread allocation counter the pipeline samples per stage.
//!
//! The library crates forbid `unsafe`, so the `GlobalAlloc` shim itself
//! lives in whichever *binary* wants allocation accounting (the scaling
//! bench, the alloc-budget test harness). That shim calls [`on_alloc`]
//! once per allocation; the pipeline snapshots [`current`] around each
//! stage and reports the deltas in
//! [`StageStats::allocs`](crate::StageStats). In a binary without an
//! instrumented allocator the counter simply stays at zero and every
//! reported delta is zero — the accounting is free to ignore.
//!
//! The counter is thread-local: a delta counts the allocations made by the
//! thread that took both snapshots, and nothing another thread allocated
//! meanwhile. Under fleet fan-out each worker's stage counts are its own,
//! and concurrent tests cannot leak into each other's budgets. Work a
//! route hands to other threads (the engine's `parallel` expansion
//! fan-out) is charged to those threads, not to the route.

use std::cell::Cell;

thread_local! {
    /// Allocations this thread has made since it started. `const`-
    /// initialized with no destructor, so reading or bumping it from
    /// inside a global allocator never allocates or registers anything.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation on the current thread. Called by an
/// instrumented `GlobalAlloc` in the hosting binary.
#[inline]
pub fn on_alloc() {
    COUNT.with(|c| c.set(c.get() + 1));
}

/// The current thread's allocation count.
#[inline]
pub fn current() -> u64 {
    COUNT.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_exactly_this_threads_allocations() {
        let before = current();
        on_alloc();
        on_alloc();
        assert_eq!(current(), before + 2);
        // A pool helper's allocations never show up here.
        let helper = |_slot: usize| {
            for _ in 0..5 {
                on_alloc();
            }
        };
        astdme_par::scope_with(1, &helper, |_running| ());
        assert_eq!(current(), before + 2);
    }
}
