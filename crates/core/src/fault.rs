//! Deterministic fault injection and per-instance deadlines for the
//! routing pipeline.
//!
//! Production fault tolerance that is only ever exercised *by accident*
//! (a real panic slipping through) is untested fault tolerance. This
//! module lets the fleet layer provoke failures on purpose:
//!
//! * a [`FaultPlan`] names instances (by batch index) that must fail, and
//!   *how*: a forced panic, an injected stall, or a corrupted output
//!   ([`FaultKind`]), each at a chosen pipeline stage ([`StageId`]);
//! * a per-instance **deadline budget**
//!   ([`BatchPolicy::deadline_seconds`](crate::fleet::BatchPolicy)) is
//!   checked cooperatively at the checkpoint after every pipeline stage
//!   and turns an overrun into
//!   [`RouteError::DeadlineExceeded`](crate::RouteError) for that
//!   instance only.
//!
//! Both mechanisms ride on a thread-local *route context* installed by
//! the fleet layer around each `route_traced` call (each instance routes
//! entirely on one worker thread, so thread-local state is per-instance
//! state). The pipeline polls a `checkpoint` between stages; with no
//! context installed — every direct `route_traced` call — the checkpoint
//! is a no-op, so the hooks cost one thread-local read on the vast
//! majority of routes.
//!
//! The guarantee the whole module exists to test: injected faults and
//! deadline overruns fail **only their own instance's slot**; survivors'
//! outcomes are bit-identical to a fault-free run (`tests/robustness.rs`
//! pins this, and `RobustnessReport` accounting rides on it).

use crate::stopwatch::Stopwatch;
use std::cell::RefCell;
use std::collections::BTreeMap;

use astdme_cache::SubtreeCache;

use crate::pipeline::StageId;
use crate::RouteError;

/// What an injected fault does when its stage checkpoint is reached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Panic with a fixed message — exercises the
    /// [`RouteError::Panicked`] isolation path deliberately.
    Panic,
    /// Sleep for the given wall-clock duration before the checkpoint's
    /// deadline test — the deterministic way to force a
    /// [`RouteError::DeadlineExceeded`] overrun in tests and benches.
    Stall {
        /// How long to stall, in seconds.
        seconds: f64,
    },
    /// Corrupt the routed tree as it exists after the stage (the root
    /// wire becomes NaN), so the pipeline's output validation reports
    /// [`RouteError::MalformedOutput`]. Only the stages that have a tree
    /// — [`StageId::Embed`] and [`StageId::Repair`] — can corrupt; at
    /// other stages the fault is a no-op.
    Corrupt,
}

/// One injected fault: what happens, and after which pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// The stage after whose completion the fault fires.
    pub stage: StageId,
    /// What the fault does.
    pub kind: FaultKind,
}

/// A deterministic fault schedule for one batch or sweep: batch indices
/// mapped to the [`Fault`] injected into that instance's route. Instances
/// without an entry route normally.
///
/// ```
/// use astdme_core::fault::{Fault, FaultKind, FaultPlan};
/// use astdme_core::StageId;
///
/// let plan = FaultPlan::new()
///     .inject(3, Fault { stage: StageId::Merge, kind: FaultKind::Panic })
///     .inject(7, Fault { stage: StageId::Embed, kind: FaultKind::Corrupt });
/// assert_eq!(plan.len(), 2);
/// assert!(plan.get(3).is_some());
/// assert!(plan.get(4).is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, Fault>,
}

impl FaultPlan {
    /// An empty plan: nothing fails on purpose.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the fault injected into batch index `instance`;
    /// returns `self` for chaining.
    pub fn inject(mut self, instance: usize, fault: Fault) -> Self {
        self.faults.insert(instance, fault);
        self
    }

    /// The fault scheduled for batch index `instance`, if any.
    pub fn get(&self, instance: usize) -> Option<Fault> {
        self.faults.get(&instance).copied()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled `(instance, fault)` pairs, ascending by index.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Fault)> + '_ {
        self.faults.iter().map(|(&i, &f)| (i, f))
    }
}

/// The per-route context the fleet layer installs around one
/// `route_traced` call: identity for error attribution, the deadline
/// clock, and the fault scheduled for this instance.
#[derive(Debug, Clone)]
struct RouteCtx {
    /// Batch (or sweep variant) index, for error attribution.
    instance: usize,
    /// Wall-clock at installation — the deadline measures from here.
    started: Stopwatch,
    /// Per-instance budget in seconds, if any.
    deadline_seconds: Option<f64>,
    /// The fault injected into this instance, if any.
    fault: Option<Fault>,
    /// The batch's shared subtree cache, if the policy attached one. Read
    /// (via [`current_cache`]) only where a [`crate::ClockRouter`] enters
    /// the pipeline, which takes the cache as an explicit argument.
    cache: Option<SubtreeCache>,
}

thread_local! {
    /// The active route context of this thread. Each instance routes
    /// entirely on one thread (the fleet fans out whole instances, and a
    /// route never fans out itself), so one slot suffices.
    static CTX: RefCell<Option<RouteCtx>> = const { RefCell::new(None) };
}

/// RAII installation of a route context; restores the previous state on
/// drop — including during a panic unwind, so an injected [`Panic`]
/// fault cannot leave a stale context on a worker thread that will route
/// other instances next.
///
/// [`Panic`]: FaultKind::Panic
#[must_use = "dropping the guard immediately uninstalls the context"]
pub(crate) struct CtxGuard;

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.borrow_mut().take());
    }
}

/// Installs the route context for the current thread (the fleet layer
/// calls this just before `route_traced`). The deadline clock starts now.
pub(crate) fn install(
    instance: usize,
    deadline_seconds: Option<f64>,
    fault: Option<Fault>,
    cache: Option<SubtreeCache>,
) -> CtxGuard {
    CTX.with(|c| {
        *c.borrow_mut() = Some(RouteCtx {
            instance,
            started: Stopwatch::start(),
            deadline_seconds,
            fault,
            cache,
        });
    });
    CtxGuard
}

/// The cooperative checkpoint the pipeline polls after each stage: fires
/// any fault scheduled for `stage` (panic or stall — corruption is
/// handled by the pipeline via [`corrupt_requested`]), then tests the
/// deadline. A no-op without an installed context.
///
/// Order matters: the stall burns wall-clock *before* the deadline test,
/// so a stall longer than the budget deterministically produces
/// [`RouteError::DeadlineExceeded`] at this checkpoint.
pub(crate) fn checkpoint(stage: StageId) -> Result<(), RouteError> {
    let Some((instance, started, deadline_seconds, fault)) = CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (ctx.instance, ctx.started, ctx.deadline_seconds, ctx.fault))
    }) else {
        return Ok(());
    };
    if let Some(fault) = fault.filter(|f| f.stage == stage) {
        match fault.kind {
            FaultKind::Panic => panic!("injected fault: forced panic after the {stage} stage"),
            FaultKind::Stall { seconds } => {
                if seconds.is_finite() && seconds > 0.0 {
                    std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
                }
            }
            FaultKind::Corrupt => {}
        }
    }
    if let Some(budget) = deadline_seconds {
        let elapsed = started.seconds();
        if elapsed > budget {
            return Err(RouteError::DeadlineExceeded {
                instance,
                stage,
                budget_seconds: budget,
                elapsed_seconds: elapsed,
            });
        }
    }
    Ok(())
}

/// Whether a [`FaultKind::Corrupt`] fault is scheduled for `stage` on the
/// current route. The pipeline (which holds the tree) performs the actual
/// corruption.
pub(crate) fn corrupt_requested(stage: StageId) -> bool {
    CTX.with(|c| {
        c.borrow().as_ref().is_some_and(|ctx| {
            ctx.fault
                .is_some_and(|f| f.stage == stage && f.kind == FaultKind::Corrupt)
        })
    })
}

/// The batch index of the route currently executing on this thread, if a
/// context is installed — output validation uses it to attribute
/// [`RouteError::MalformedOutput`].
pub(crate) fn current_instance() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.instance))
}

/// The shared subtree cache of the batch currently routing on this
/// thread, if the batch policy attached one. A cheap `Arc` clone. The
/// routers pass it to [`crate::pipeline::run`]; nothing else reads it.
pub(crate) fn current_cache() -> Option<SubtreeCache> {
    CTX.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.cache.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_without_context_is_a_noop() {
        assert_eq!(checkpoint(StageId::Merge), Ok(()));
        assert!(!corrupt_requested(StageId::Embed));
        assert_eq!(current_instance(), None);
    }

    #[test]
    fn plan_builder_and_lookup() {
        let plan = FaultPlan::new()
            .inject(
                2,
                Fault {
                    stage: StageId::Merge,
                    kind: FaultKind::Panic,
                },
            )
            .inject(
                5,
                Fault {
                    stage: StageId::Embed,
                    kind: FaultKind::Stall { seconds: 0.5 },
                },
            );
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.get(2).unwrap().kind, FaultKind::Panic);
        assert!(plan.get(0).is_none());
        let indices: Vec<usize> = plan.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![2, 5]);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn guard_uninstalls_even_on_unwind() {
        let caught = std::panic::catch_unwind(|| {
            let _guard = install(
                9,
                None,
                Some(Fault {
                    stage: StageId::Group,
                    kind: FaultKind::Panic,
                }),
                None,
            );
            assert_eq!(current_instance(), Some(9));
            checkpoint(StageId::Group).unwrap();
        });
        assert!(caught.is_err(), "the injected panic must fire");
        assert_eq!(current_instance(), None, "context must not leak");
    }

    #[test]
    fn stall_burns_the_budget_deterministically() {
        let _guard = install(
            4,
            Some(0.005),
            Some(Fault {
                stage: StageId::Embed,
                kind: FaultKind::Stall { seconds: 0.02 },
            }),
            None,
        );
        // A checkpoint at a different stage passes (no stall, within
        // budget so far).
        assert_eq!(checkpoint(StageId::Group), Ok(()));
        // The stalling checkpoint overruns.
        match checkpoint(StageId::Embed) {
            Err(RouteError::DeadlineExceeded {
                instance,
                stage,
                budget_seconds,
                elapsed_seconds,
            }) => {
                assert_eq!(instance, 4);
                assert_eq!(stage, StageId::Embed);
                assert_eq!(budget_seconds, 0.005);
                assert!(elapsed_seconds >= 0.02);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_is_reported_not_executed_by_checkpoint() {
        let _guard = install(
            1,
            None,
            Some(Fault {
                stage: StageId::Repair,
                kind: FaultKind::Corrupt,
            }),
            None,
        );
        assert_eq!(checkpoint(StageId::Repair), Ok(()));
        assert!(corrupt_requested(StageId::Repair));
        assert!(!corrupt_requested(StageId::Embed));
    }
}
