//! Incremental ECO re-routing: the flush ≡ from-scratch invariant,
//! end-to-end.
//!
//! The contract of [`EcoSession::flush`]: after queueing any batch of
//! sink edits, the flushed outcome is **bit-identical to a from-scratch
//! route of the edited instance** under the session's plan — same tree,
//! same audit report — at every thread count, inside and outside a fleet
//! batch, across consecutive flushes (replay-of-replay),
//! for structural edits (insert/delete/RC retune, which fall back to a
//! full reroute), and for non-replayable plans. Net no-op batches
//! (move-then-move-back, insert-then-delete) return the standing tree
//! without routing.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    route_batch, AstDme, BatchPlan, BatchPolicy, ClockRouter, EcoEdit, EcoSession, Fault,
    FaultKind, FaultPlan, GroupId, Groups, Instance, Point, RouteError, RouteOutcome, Sink,
    StageId, StagePlan, StitchPerGroup, TopoConfig,
};
use proptest::prelude::*;

const BOUND: f64 = 10e-12;

/// The thread override is process-global; tests that set it serialize on
/// this lock and restore the previous value via
/// `astdme_par::override_guard`.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_lock() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn instance(n: usize, k: usize, seed: u64) -> Instance {
    let p = synthetic_instance(n, seed, "eco");
    let inst = partition::intermingled(&p, k, seed ^ 1).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(BOUND)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

/// The test's own mirror of the documented sequential edit semantics,
/// kept independent of the session's internals.
fn apply_expected(inst: &Instance, edits: &[EcoEdit]) -> Instance {
    let mut sinks = inst.sinks().to_vec();
    let mut assignment = inst.groups().assignment();
    let mut rc = *inst.rc();
    for edit in edits {
        match *edit {
            EcoEdit::Move { sink, to } => sinks[sink].pos = to,
            EcoEdit::Retune { sink, cap } => sinks[sink].cap = cap,
            EcoEdit::Insert { sink, group } => {
                sinks.push(sink);
                assignment.push(group.index());
            }
            EcoEdit::Delete { sink } => {
                sinks.remove(sink);
                assignment.remove(sink);
            }
            EcoEdit::RetuneRc(params) => rc = params,
        }
    }
    let groups = Groups::from_assignments(assignment, inst.groups().group_count())
        .expect("valid assignment")
        .with_bounds(inst.groups().bounds().to_vec())
        .expect("bounds carry over");
    Instance::new(sinks, groups, rc, inst.source()).expect("valid edited instance")
}

/// Three spread-out moves plus a load retune — small edit set on a
/// grid-regime instance, the replay's home turf.
fn sample_edits(inst: &Instance) -> Vec<EcoEdit> {
    let n = inst.sink_count();
    vec![
        EcoEdit::Move {
            sink: 5,
            to: Point::new(inst.sinks()[5].pos.x + 430.0, inst.sinks()[5].pos.y - 210.0),
        },
        EcoEdit::Move {
            sink: n / 2,
            to: Point::new(
                inst.sinks()[n / 2].pos.x - 125.0,
                inst.sinks()[n / 2].pos.y + 305.0,
            ),
        },
        EcoEdit::Retune {
            sink: n - 3,
            cap: 2.5e-14,
        },
    ]
}

/// The load-bearing invariant: a replayed flush is bit-identical to a
/// from-scratch route of the edited instance, at every thread count the
/// determinism suite sweeps — and it must actually *replay* (adopting
/// recorded merges), or the speedup claim is vacuous.
#[test]
fn flush_matches_from_scratch_across_thread_counts() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let inst = instance(120, 3, 7);
    let router = AstDme::new();
    let edits = sample_edits(&inst);
    let edited = apply_expected(&inst, &edits);
    let second_edit = vec![EcoEdit::Move {
        sink: 17,
        to: Point::new(
            edited.sinks()[17].pos.x + 260.0,
            edited.sinks()[17].pos.y + 90.0,
        ),
    }];
    let twice_edited = apply_expected(&edited, &second_edit);

    astdme_par::set_thread_override(NonZeroUsize::new(1));
    let want = router.route_traced(&edited).expect("routes");
    let want_twice = router.route_traced(&twice_edited).expect("routes");

    for threads in [1usize, 2, 3, 8] {
        astdme_par::set_thread_override(NonZeroUsize::new(threads));
        let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
        for edit in &edits {
            session.queue(*edit);
        }
        let out = session.flush().expect("flushes");
        assert_eq!(out.tree, want.tree, "threads={threads}: trees diverged");
        assert_eq!(
            out.report, want.report,
            "threads={threads}: reports diverged"
        );
        let fs = session.last_flush();
        assert!(
            !fs.full_reroute,
            "threads={threads}: must replay, not reroute"
        );
        assert!(
            fs.adopted_merges > fs.fresh_merges,
            "threads={threads}: a 3-sink edit must adopt most merges \
             (adopted {}, fresh {})",
            fs.adopted_merges,
            fs.fresh_merges
        );
        assert_eq!(fs.dirty_sinks, 3, "threads={threads}");
        assert!(fs.replayed_rounds > 0, "threads={threads}");

        // Second flush: the replay must have produced a valid recording
        // of its own (replay-of-replay).
        for edit in &second_edit {
            session.queue(*edit);
        }
        let out = session.flush().expect("flushes again");
        assert_eq!(out.tree, want_twice.tree, "threads={threads}: second flush");
        assert_eq!(out.report, want_twice.report, "threads={threads}");
        assert!(!session.last_flush().full_reroute, "threads={threads}");
    }
}

/// Structural edits (insert, delete, RC retune) and non-replayable plans
/// fall back to a full reroute — and still match from-scratch exactly.
#[test]
fn structural_edits_and_fallback_plans_match_from_scratch() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let inst = instance(60, 3, 23);

    // Insert + delete: net sink count unchanged but contents shifted.
    let router = AstDme::new();
    let structural = vec![
        EcoEdit::Insert {
            sink: Sink::new(Point::new(3100.0, 2200.0), 1.5e-14),
            group: GroupId(1),
        },
        EcoEdit::Delete { sink: 4 },
    ];
    let edited = apply_expected(&inst, &structural);
    let want = router.route_traced(&edited).expect("routes");
    let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
    for edit in &structural {
        session.queue(*edit);
    }
    let out = session.flush().expect("flushes");
    assert_eq!(out.tree, want.tree, "structural flush diverged");
    assert_eq!(out.report, want.report);
    assert!(session.last_flush().full_reroute);

    // Greedy merge order and the stitching script are not recorded;
    // every flush is a full reroute and must still be exact.
    let greedy = AstDme::new().with_topo(TopoConfig::greedy());
    let stitch = StitchPerGroup::new();
    let edits = vec![EcoEdit::Move {
        sink: 11,
        to: Point::new(inst.sinks()[11].pos.x + 240.0, inst.sinks()[11].pos.y),
    }];
    let edited = apply_expected(&inst, &edits);
    for (plan, want) in [
        (greedy.plan(), greedy.route_traced(&edited).expect("routes")),
        (stitch.plan(), stitch.route_traced(&edited).expect("routes")),
    ] {
        let mut session = EcoSession::new(&inst, plan).expect("routes");
        session.queue(edits[0]);
        let out = session.flush().expect("flushes");
        assert_eq!(out.tree, want.tree, "fallback plan diverged");
        assert_eq!(out.report, want.report);
        assert!(session.last_flush().full_reroute);
    }
}

/// Net no-op batches — empty, move-then-move-back, insert-then-delete —
/// return the standing tree without routing, and a bad edit discards the
/// batch leaving the standing route untouched.
#[test]
fn noop_batches_return_standing_tree_and_bad_edits_are_rejected() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let inst = instance(50, 2, 41);
    let mut session = EcoSession::new(&inst, AstDme::new().plan()).expect("routes");
    let before = session.outcome().clone();

    session.flush().expect("empty flush");
    assert!(session.last_flush().noop, "empty batch is a no-op");
    assert_eq!(session.last_flush().edits, 0);
    assert_eq!(session.outcome().tree, before.tree);

    let home = inst.sinks()[4].pos;
    session.queue(EcoEdit::Move {
        sink: 4,
        to: Point::new(home.x + 900.0, home.y - 500.0),
    });
    session.queue(EcoEdit::Move { sink: 4, to: home });
    session.flush().expect("cancelling moves");
    assert!(session.last_flush().noop, "move-then-back cancels out");
    assert_eq!(session.outcome().tree, before.tree);

    session.queue(EcoEdit::Insert {
        sink: Sink::new(Point::new(100.0, 100.0), 1e-14),
        group: GroupId(0),
    });
    session.queue(EcoEdit::Delete { sink: 50 });
    session.flush().expect("cancelling insert/delete");
    assert!(session.last_flush().noop, "insert-then-delete cancels out");
    assert_eq!(session.outcome().tree, before.tree);

    session.queue(EcoEdit::Move {
        sink: 999,
        to: Point::new(0.0, 0.0),
    });
    let err = session.flush().expect_err("out-of-range sink");
    assert!(matches!(err, RouteError::BadParameter(_)), "got {err:?}");
    assert!(session.pending().is_empty(), "failed flush discards batch");
    assert_eq!(session.outcome().tree, before.tree, "standing route intact");
}

/// A router that opens an uncached ECO session per instance under its
/// plan and returns the session's standing outcome.
struct SessionRouter(StagePlan);

impl ClockRouter for SessionRouter {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        Ok(EcoSession::new(inst, self.0)?.outcome().clone())
    }

    fn name(&self) -> &'static str {
        "eco-session"
    }
}

/// A session opened inside a fleet batch's worker routes exactly as one
/// opened outside any batch, and its route passes the batch's fault
/// checkpoints, so a fault injected at the merge stage fails its slot
/// and leaves the other slot unchanged. Both a non-replayable plan
/// (stitching) and a recording one (AST-DME) are checked.
#[test]
fn sessions_in_a_batch_route_as_outside_and_pass_checkpoints() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(2));
    let batch: Vec<Instance> = [31, 37].map(|seed| instance(40, 3, seed)).to_vec();
    let plan = BatchPlan::new(&batch);
    for router in [
        SessionRouter(StitchPerGroup::new().plan()),
        SessionRouter(AstDme::new().plan()),
    ] {
        let want: Vec<RouteOutcome> = batch
            .iter()
            .map(|inst| router.route_traced(inst).expect("routes"))
            .collect();

        for (got, want) in route_batch(&batch, &router).iter().zip(&want) {
            let got = got.as_ref().expect("routes");
            assert_eq!(got.tree, want.tree, "a session diverged inside the batch");
            assert_eq!(got.report, want.report);
        }

        let faults = FaultPlan::new().inject(
            0,
            Fault {
                stage: StageId::Merge,
                kind: FaultKind::Panic,
            },
        );
        let policy = BatchPolicy::new().with_faults(faults);
        let (out, _) = plan.route_with_policy(&batch, &router, &policy);
        assert!(
            matches!(out[0], Err(RouteError::Panicked { instance: 0, .. })),
            "got {:?}",
            out[0].as_ref().map(|o| &o.stats)
        );
        assert_eq!(out[1].as_ref().expect("survivor routes").tree, want[1].tree);
    }
}

fn arb_edit(n: usize) -> impl Strategy<Value = EcoEdit> {
    prop_oneof![
        (0..n, -900.0f64..900.0, -900.0f64..900.0).prop_map(|(s, dx, dy)| EcoEdit::Move {
            sink: s,
            to: Point::new(4000.0 + dx, 4000.0 + dy),
        }),
        (0..n, 5e-15f64..5e-14).prop_map(|(s, cap)| EcoEdit::Retune { sink: s, cap }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of queued edits — including several edits to the
    /// same sink, where only the last one survives — flushes to exactly
    /// the net edit set's from-scratch route; and splitting the same
    /// batch across two flushes (replaying a replay) converges to the
    /// same tree.
    #[test]
    fn random_batches_flush_to_the_net_reroute(
        seed in 0u64..500,
        edit_seed in any::<u64>(),
        count in 1usize..7,
        split in 0usize..7,
    ) {
        let _lock = override_lock();
        let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
        // The vendored proptest shim has no `collection::vec`; draw the
        // batch from a derived RNG instead.
        let mut erng = proptest::test_runner::TestRng::from_seed(edit_seed);
        let strat = arb_edit(48);
        let edits: Vec<EcoEdit> = (0..count).map(|_| strat.generate(&mut erng)).collect();
        let inst = instance(48, 3, seed);
        let router = AstDme::new();
        let edited = apply_expected(&inst, &edits);
        let want = router.route_traced(&edited).expect("routes");

        // One batch, one flush.
        let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
        for edit in &edits {
            session.queue(*edit);
        }
        let out = session.flush().expect("flushes");
        prop_assert_eq!(&out.tree, &want.tree, "single flush diverged");
        prop_assert_eq!(&out.report, &want.report);

        // Same edits split across two flushes.
        let cut = split.min(edits.len());
        let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
        for edit in &edits[..cut] {
            session.queue(*edit);
        }
        session.flush().expect("first half");
        for edit in &edits[cut..] {
            session.queue(*edit);
        }
        let out = session.flush().expect("second half");
        prop_assert_eq!(&out.tree, &want.tree, "split flush diverged");
        prop_assert_eq!(&out.report, &want.report);
    }
}
