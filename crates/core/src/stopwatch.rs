//! The workspace's single sanctioned wall-clock entry point.
//!
//! Every invariant this codebase holds — batch ≡ sequential, parallel ≡
//! serial to the bit — forbids routing *decisions* from reading the wall
//! clock. Timing is still needed for two legitimate purposes: per-stage
//! [`StageStats`](crate::StageStats) seconds (observability, never fed
//! back into routing) and the cooperative per-instance deadline
//! ([`RouteError::DeadlineExceeded`](crate::RouteError::DeadlineExceeded),
//! a typed failure rather than a changed route). Both go through
//! [`Stopwatch`] so that `astdme_lint`'s `wall-clock` rule can allowlist
//! exactly one module: raw `Instant::now`/`SystemTime` reads anywhere
//! else in the deterministic crates are lint errors (the bench harness
//! and `astdme_par`'s claim-loop timing keep their own clocks — they are the
//! other allowlisted timing modules).
//!
//! The type is deliberately minimal — start and read elapsed seconds.
//! There is no way to compare two stopwatches, format timestamps, or
//! otherwise launder wall-clock state into routing data structures.

use std::time::Instant;

/// A started wall-clock timer; read elapsed seconds with
/// [`Stopwatch::seconds`].
///
/// ```
/// use astdme_core::stopwatch::Stopwatch;
///
/// let sw = Stopwatch::start();
/// let elapsed = sw.seconds();
/// assert!(elapsed >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a timer at the current instant.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
