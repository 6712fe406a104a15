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
use std::sync::Mutex;

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    route_batch, AstDme, BatchPlan, BatchPolicy, ClockRouter, EcoEdit, EcoSession, EcoStats, Fault,
    FaultKind, FaultPlan, GroupId, Groups, Instance, Point, RouteError, RouteOutcome, Sink,
    StageId, StagePlan, StitchPerGroup, TopoConfig,
};
use proptest::prelude::*;

const BOUND: f64 = 10e-12;

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
/// from-scratch route of the edited instance — and it must actually
/// *replay* (adopting recorded merges), or the speedup claim is vacuous.
/// A flush never fans out, so one run covers every thread count.
#[test]
fn flush_matches_from_scratch() {
    let inst = instance(120, 3, 7);
    let mut session = fresh_session(&inst);
    let fs = flush_checked(&mut session, &sample_edits(&inst));
    assert!(!fs.full_reroute, "must replay, not reroute");
    assert!(
        fs.adopted_merges > fs.fresh_merges,
        "a 3-sink edit must adopt most merges: {fs:?}"
    );
    assert_eq!(fs.dirty_sinks, 3);
    assert!(fs.replayed_rounds > 0 && fs.reused_nodes > 0, "{fs:?}");

    // Second flush: the replay must have produced a valid recording of
    // its own (replay-of-replay).
    let p = session.instance().sinks()[17].pos;
    let to = Point::new(p.x + 260.0, p.y + 90.0);
    let fs = flush_checked(&mut session, &[EcoEdit::Move { sink: 17, to }]);
    assert!(!fs.full_reroute, "{fs:?}");
}

/// A fresh AST-DME session over `inst`.
fn fresh_session(inst: &Instance) -> EcoSession {
    EcoSession::new(inst, AstDme::new().plan()).expect("routes")
}

/// Flushes `edits` on an AST-DME `session` and checks the result against
/// a from-scratch route of the edited instance; returns the flush's
/// stats.
fn flush_checked(session: &mut EcoSession, edits: &[EcoEdit]) -> EcoStats {
    let want = AstDme::new()
        .route_traced(&apply_expected(session.instance(), edits))
        .expect("routes");
    for edit in edits {
        session.queue(*edit);
    }
    let out = session.flush().expect("flushes");
    assert_eq!(out.tree, want.tree, "the flush diverged from the reroute");
    assert_eq!(out.report, want.report);
    session.last_flush()
}

/// A one-sink move whose dirty cone spreads through the whole tree (it
/// shifts a class fusion, so 998 of the 999 merges run fresh, and the
/// early rounds keep re-scanning stale neighbors) still replays: the
/// price a replay must stay under is a from-scratch route's, whatever
/// the edit count, and this flush's scans stay far below it. Its visit
/// count is deterministic and pinned, and so are the routed nodes its
/// embed copies from the standing tree: the one adopted merge's two
/// leaves.
#[test]
fn long_one_sink_replay_stays_under_the_price() {
    let inst = instance(1000, 3, 7);
    let from = inst.sinks()[130].pos;
    let edit = EcoEdit::Move {
        sink: 130,
        to: Point::new(from.x + 150.0, from.y - 90.0),
    };
    let fs = flush_checked(&mut fresh_session(&inst), &[edit]);
    assert!(!fs.full_reroute, "must replay: {fs:?}");
    assert_eq!(fs.dirty_sinks, 1);
    assert_eq!(fs.scan_visits, 77_921, "{fs:?}");
    assert_eq!(fs.reused_nodes, 2, "{fs:?}");
}

/// A 32-sink batch leaves the early replayed rounds dozens of subtrees
/// to re-scan, so those rounds answer their scans over a grid. The flush
/// still equals the reroute, and the whole flush makes fewer visits than
/// linear sweeps would in its first round alone (each of the 32 novel
/// subtrees sweeping once for its own neighbor and once for takeovers).
#[test]
fn batch_of_32_moves_scans_over_a_grid() {
    let n = 2000;
    let inst = instance(n, 3, 7);
    let edits: Vec<EcoEdit> = (0..32)
        .map(|i| {
            let sink = (i * 61 + 5) % n;
            let p = inst.sinks()[sink].pos;
            let (dx, dy) = if i % 2 == 0 {
                (48.0, -26.0)
            } else {
                (-34.0, 52.0)
            };
            EcoEdit::Move {
                sink,
                to: Point::new(p.x + dx, p.y + dy),
            }
        })
        .collect();
    let fs = flush_checked(&mut fresh_session(&inst), &edits);
    assert!(!fs.full_reroute, "must replay: {fs:?}");
    assert_eq!(fs.dirty_sinks, 32);
    assert!(fs.adopted_merges > 5 * fs.fresh_merges, "{fs:?}");
    assert!(fs.scan_visits < 2 * 32 * (n as u64 - 1), "{fs:?}");
}

/// An edit storm that piles most sinks onto one spot: every piled
/// subtree's neighbor scan meets the whole pile, so the replay's visits
/// pass the price of a from-scratch route in its first round. It
/// declines, and the flush falls back to the reroute, which it equals.
#[test]
fn edit_storm_past_the_price_falls_back_to_the_reroute() {
    let n = 2000;
    let inst = instance(n, 3, 13);
    let edits: Vec<EcoEdit> = (0..1900)
        .map(|i| EcoEdit::Move {
            sink: i,
            to: Point::new(
                5000.0 + (i % 50) as f64 * 0.01,
                5000.0 + (i / 50) as f64 * 0.01,
            ),
        })
        .collect();
    let fs = flush_checked(&mut fresh_session(&inst), &edits);
    assert!(fs.full_reroute, "must decline: {fs:?}");
    assert_eq!(fs.scan_visits, 3_615_979, "{fs:?}");
}

/// Sinks snapped to a 10 µm and to a 100 µm lattice meet many exact
/// distance ties, so recorded rounds carry tied neighbors and runs of
/// equal scores over distinct pairs, which a replay must re-derive under
/// the planner's tie rule in the new ids. A chain of move-away and
/// move-back flushes on the fused router (moves ten times larger on the
/// coarser lattice) must replay every flush, equal its from-scratch
/// routes, and restore the first tree on every move back.
#[test]
fn lattice_flush_chain_matches_from_scratch() {
    let n = 2000;
    let scattered = instance(n, 4, 29);
    for spacing in [10.0, 100.0] {
        let snap = |x: f64| (x / spacing).round() * spacing;
        let sinks: Vec<Sink> = scattered
            .sinks()
            .iter()
            .map(|s| Sink::new(Point::new(snap(s.pos.x), snap(s.pos.y)), s.cap))
            .collect();
        let inst = Instance::new(
            sinks,
            scattered.groups().clone(),
            *scattered.rc(),
            scattered.source(),
        )
        .expect("valid lattice instance");
        let router = AstDme::new();
        let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
        let base = session.outcome().clone();
        for cycle in 0..6 {
            let sink = (cycle * 331 + 17) % n;
            let home = inst.sinks()[sink].pos;
            let step = spacing * (2 + cycle) as f64;
            let away = Point::new(home.x + step, home.y - 2.0 * step);
            for (moved, to) in [(true, away), (false, home)] {
                session.queue(EcoEdit::Move { sink, to });
                let got = session.flush().expect("flushes").clone();
                let at = format!("{spacing} µm lattice, cycle {cycle}");
                if moved {
                    let want = router.route_traced(session.instance()).expect("routes");
                    assert_eq!(got.tree, want.tree, "{at}: tree");
                    assert_eq!(got.report, want.report, "{at}: report");
                } else {
                    assert_eq!(got.tree, base.tree, "{at}: move back");
                    assert_eq!(got.report, base.report, "{at}: move back");
                }
                let fs = session.last_flush();
                assert!(!fs.full_reroute, "{at}: must replay: {fs:?}");
            }
        }
    }
}

/// Structural edits (insert, delete, RC retune) and non-replayable plans
/// fall back to a full reroute — and still match from-scratch exactly.
#[test]
fn structural_edits_and_fallback_plans_match_from_scratch() {
    let inst = instance(60, 3, 23);

    // Insert + delete: net sink count unchanged but contents shifted.
    let structural = [
        EcoEdit::Insert {
            sink: Sink::new(Point::new(3100.0, 2200.0), 1.5e-14),
            group: GroupId(1),
        },
        EcoEdit::Delete { sink: 4 },
    ];
    assert!(flush_checked(&mut fresh_session(&inst), &structural).full_reroute);

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
    astdme_par::set_thread_override(NonZeroUsize::new(2));
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

/// A router over one standing session: each route queues `edit` and
/// flushes it, whatever the instance.
struct FlushRouter {
    session: Mutex<EcoSession>,
    edit: EcoEdit,
}

impl ClockRouter for FlushRouter {
    fn route_traced(&self, _: &Instance) -> Result<RouteOutcome, RouteError> {
        let mut session = self.session.lock().expect("no flush panics");
        session.queue(self.edit);
        session.flush().cloned()
    }

    fn name(&self) -> &'static str {
        "eco-flush"
    }
}

/// A flush takes the session's recording, and its replay moves candidate
/// lists out of it. When the flush then fails (here a corrupting fault
/// after the embed, so the replay has run), the session keeps its
/// outcome but no recording: the next flush reroutes from scratch and
/// records again, so the one after replays.
#[test]
fn a_flush_that_fails_after_its_replay_reroutes_next() {
    astdme_par::set_thread_override(NonZeroUsize::new(1));
    let inst = instance(200, 3, 41);
    let router = AstDme::new();
    let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
    let p = inst.sinks()[17].pos;
    let there = EcoEdit::Move {
        sink: 17,
        to: Point::new(p.x + 120.0, p.y - 80.0),
    };
    let back = EcoEdit::Move { sink: 17, to: p };
    session.queue(there);
    session.flush().expect("flushes");
    assert!(!session.last_flush().full_reroute, "must replay");
    let standing = session.outcome().clone();

    let flusher = FlushRouter {
        session: Mutex::new(session),
        edit: back,
    };
    let batch = vec![inst.clone()];
    let faults = FaultPlan::new().inject(
        0,
        Fault {
            stage: StageId::Embed,
            kind: FaultKind::Corrupt,
        },
    );
    let policy = BatchPolicy::new().with_faults(faults);
    let (out, _) = BatchPlan::new(&batch).route_with_policy(&batch, &flusher, &policy);
    assert!(
        matches!(out[0], Err(RouteError::MalformedOutput { .. })),
        "got {:?}",
        out[0].as_ref().map(|o| &o.stats)
    );
    let mut session = flusher.session.into_inner().expect("no flush panics");
    assert_eq!(
        session.outcome().tree,
        standing.tree,
        "standing route intact"
    );
    assert_eq!(session.outcome().report, standing.report);

    session.queue(back);
    let out = session.flush().expect("flushes").clone();
    assert!(
        session.last_flush().full_reroute,
        "{:?}",
        session.last_flush()
    );
    let want = router.route_traced(&inst).expect("routes");
    assert_eq!(out.tree, want.tree);
    assert_eq!(out.report, want.report);

    session.queue(there);
    session.flush().expect("flushes");
    let fs = session.last_flush();
    assert!(!fs.full_reroute && fs.adopted_merges > 0, "{fs:?}");
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
