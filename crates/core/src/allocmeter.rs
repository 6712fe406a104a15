//! A per-thread allocation counter the pipeline samples per stage.
//!
//! The library crates forbid `unsafe`, so the `GlobalAlloc` shim itself
//! lives in whichever *binary* wants allocation accounting (the scaling
//! bench, the alloc-budget test harness). That shim calls [`on_alloc`]
//! once per allocation. The pipeline snapshots [`current`] around each
//! stage and reports the deltas in
//! [`StageStats::allocs`](crate::StageStats); the scaling bench reads
//! [`current`] around the bare merge loop instead. In a binary without an
//! instrumented allocator the counter simply stays at zero and every
//! reported delta is zero — the accounting is free to ignore.
//!
//! The counter is thread-local: a delta counts the allocations made by the
//! thread that took both snapshots, and nothing another thread allocated
//! meanwhile. Under fleet fan-out each worker's stage counts are its own,
//! and concurrent tests cannot leak into each other's budgets. A route
//! runs on one thread, so its counts are complete.

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
        // A claim-loop helper's allocations never show up here: only the
        // items this thread produced count.
        let caller = std::thread::current().id();
        let mut mine = 0u64;
        astdme_par::claim_loop(
            16,
            16,
            |_| {
                for _ in 0..5 {
                    on_alloc();
                }
                std::thread::current().id() == caller
            },
            |_, on_caller| mine += u64::from(on_caller),
        );
        assert_eq!(current(), before + 2 + 5 * mine);
    }
}
