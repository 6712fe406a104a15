//! Unit tests of the ECO session that read its recording.

use super::*;
use crate::drivers::RankedRow;
use crate::{AstDme, ClockRouter};
use astdme_engine::EngineConfig;

/// Sinks scattered by a multiplicative hash over `k` intermingled groups,
/// each with skew bound `bound`. Zero-skew groups have conflicting
/// windows that force offset adjustment once fusion is off.
fn scattered(n: usize, k: usize, bound: f64) -> Instance {
    let sinks: Vec<Sink> = (0..n as u64)
        .map(|i| {
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (x, y) = ((h >> 20) % 4000, (h >> 40) % 4000);
            Sink::new(Point::new(x as f64, y as f64), 1e-14)
        })
        .collect();
    let groups = Groups::from_assignments((0..n).map(|i| i % k).collect(), k)
        .and_then(|g| g.with_uniform_bound(bound))
        .expect("valid groups");
    Instance::new(sinks, groups, RcParams::default(), Point::new(0.0, 4500.0))
        .expect("valid instance")
}

/// Without group fusion, offset adjustment appends candidates to
/// descendants, so the replay re-appends recorded slices and copies
/// the creation prefix of every grown node. The flush must still equal
/// a from-scratch route, and moving the sink back must restore the
/// original tree.
#[test]
fn unfused_flush_with_appends_matches_from_scratch() {
    let inst = scattered(120, 3, 0.0);
    let plan = unfused().plan();
    let mut session = EcoSession::new(&inst, plan).expect("routes");
    let base = session.outcome().clone();
    let rec = session.rec.as_ref().expect("the plan records");
    assert!(
        rec.script
            .merges
            .logs()
            .iter()
            .any(|l| !l.appends.is_empty()),
        "the recording must carry offset-adjustment appends"
    );
    let from = inst.sinks()[5].pos;
    let to = Point::new(from.x + 300.0, from.y - 200.0);
    session.queue(EcoEdit::Move { sink: 5, to });
    let out = session.flush().expect("flushes").clone();
    let fs = session.last_flush();
    assert!(!fs.full_reroute, "must replay, not reroute");
    assert!(fs.adopted_merges > fs.fresh_merges, "{fs:?}");
    let edited = apply_edits(&inst, &[EcoEdit::Move { sink: 5, to }]).expect("valid");
    let want = pipeline::run(&edited, &plan).expect("routes");
    assert_eq!(out.tree, want.tree);
    assert_eq!(out.report, want.report);
    session.queue(EcoEdit::Move { sink: 5, to: from });
    let back = session.flush().expect("flushes back");
    assert_eq!(back.tree, base.tree);
    assert_eq!(back.report, base.report);
}

/// A one-sink move's flush takes its forest's leaves from the recording
/// it consumes and rebuilds only the moved sink's leaf, and so does the
/// move back, whose recording is the first flush's: a replay leaves its
/// leaves takeable. A structural edit reroutes and builds every leaf; a
/// net no-op builds none.
#[test]
fn a_one_sink_move_rebuilds_one_leaf() {
    let inst = scattered(300, 4, 10e-12);
    let mut session = EcoSession::new(&inst, AstDme::new().plan()).expect("routes");
    let from = inst.sinks()[17].pos;
    for to in [Point::new(from.x + 90.5, from.y - 60.25), from] {
        session.queue(EcoEdit::Move { sink: 17, to });
        session.flush().expect("flushes");
        let fs = session.last_flush();
        assert!(!fs.full_reroute, "must replay: {fs:?}");
        assert_eq!(fs.dirty_sinks, 1, "{fs:?}");
    }
    session.queue(EcoEdit::Retune {
        sink: 3,
        cap: 2e-14,
    });
    session.queue(EcoEdit::Retune {
        sink: 3,
        cap: 1e-14,
    });
    session.flush().expect("flushes");
    assert!(session.last_flush().noop);
    assert_eq!(session.last_flush().dirty_sinks, 0);
    session.queue(EcoEdit::Delete { sink: 8 });
    session.flush().expect("flushes");
    let fs = session.last_flush();
    assert!(fs.full_reroute, "{fs:?}");
    assert_eq!(fs.dirty_sinks, 299, "{fs:?}");
}

/// AST-DME with group fusion off: offset adjustment appends.
fn unfused() -> AstDme {
    AstDme::new().with_engine(EngineConfig {
        fuse_groups: false,
        ..EngineConfig::default()
    })
}

/// Chains 24 single-edit flushes on one session over `inst`: per cycle,
/// a sink moves away, another is retuned, the first moves back and the
/// load is restored. After every flush the standing outcome must equal a
/// from-scratch route of the session's instance, tree and audit, and the
/// flush must have replayed. Returns the nodes the flushes' embeds copied
/// from their standing trees.
fn chained_flushes_match_from_scratch(inst: &Instance, router: &AstDme) -> usize {
    let mut session = EcoSession::new(inst, router.plan()).expect("routes");
    let n = inst.sink_count();
    let mut reused = 0;
    for cycle in 0..6 {
        let (s, t) = ((cycle * 37 + 11) % n, (cycle * 53 + 29) % n);
        let (home, cap) = (inst.sinks()[s].pos, inst.sinks()[t].cap);
        let shift = 40.0 + 30.0 * cycle as f64;
        let away = Point::new(home.x + shift, home.y - 0.5 * shift);
        let steps = [
            EcoEdit::Move { sink: s, to: away },
            EcoEdit::Retune {
                sink: t,
                cap: 1.5 * cap,
            },
            EcoEdit::Move { sink: s, to: home },
            EcoEdit::Retune { sink: t, cap },
        ];
        for (step, edit) in steps.into_iter().enumerate() {
            session.queue(edit);
            let got = session.flush().expect("flushes").clone();
            let want = router.route_traced(session.instance()).expect("routes");
            assert_eq!(got.tree, want.tree, "cycle {cycle} step {step}: tree");
            assert_eq!(got.report, want.report, "cycle {cycle} step {step}");
            let fs = session.last_flush();
            assert!(
                !fs.full_reroute,
                "cycle {cycle} step {step}: must replay: {fs:?}"
            );
            reused += fs.reused_nodes;
        }
    }
    reused
}

/// A chain of flushes on a fused four-group 10 ps instance equals its
/// from-scratch routes after every flush, and its embeds copy standing
/// subtrees. The sinks sit off the integer lattice, so no two hull
/// distances tie.
#[test]
fn fused_flush_chain_copies_and_matches_from_scratch() {
    let mut inst = scattered(400, 4, 10e-12);
    let sinks: Vec<Sink> = inst
        .sinks()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let h = (i as u64 + 7).wrapping_mul(0xD1B5_4A32_D192_ED03);
            let (fx, fy) = ((h >> 11) % 997, (h >> 37) % 991);
            Sink::new(
                Point::new(s.pos.x + fx as f64 / 997.0, s.pos.y + fy as f64 / 991.0),
                s.cap,
            )
        })
        .collect();
    inst = Instance::new(sinks, inst.groups().clone(), *inst.rc(), inst.source()).expect("valid");
    let reused = chained_flushes_match_from_scratch(&inst, &AstDme::new());
    assert!(reused > 0, "the fused chain must copy standing subtrees");
}

/// The same chain on the unfused instance, whose offset adjustment
/// appends candidates during the flushes. Its integer sink coordinates
/// make exact distance ties, which the replay breaks as the planner does
/// (smallest key first), so every one of the 24 flushes replays.
#[test]
fn unfused_flush_chain_matches_from_scratch() {
    chained_flushes_match_from_scratch(&scattered(120, 3, 0.0), &unfused());
}

/// One proptest case of [`replay::merge_ranked`]: a recorded round of
/// `n` rows, rank-ordered in the standing ids, translated into new ids,
/// with some rows changed by the scans (new neighbor and score). The walk
/// over the unchanged rows and the sorted changed ones must lay out the
/// full sort of all the round's rows, from which `select_disjoint` must
/// take the pairs it takes from the planner's full sort and dedup, at
/// limits 1, n/4 and n/2. Returns how many adjacent unchanged rows the translation put out
/// of order (always within a run of equal scores).
fn merge_walk_matches_the_full_sort(seed: u64) -> usize {
    use astdme_topo::{score_bits, select_disjoint};
    use rand::seq::SliceRandom;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;

    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    let n: usize = rng.random_range(2..400);
    // Few distinct scores force exact ties; few neighbor choices force
    // hubs (most pairs share an endpoint with another).
    let scores: Vec<u64> = (0..rng.random_range(1..12))
        .map(|_| score_bits(rng.random_range(0.0..1e4)))
        .collect();
    let hubs = [1, 3, n][rng.random_range(0..3)].min(n - 1);
    let score = |rng: &mut rand_chacha::ChaCha12Rng| scores[rng.random_range(0..scores.len())];
    let row = |key: usize, nn: usize, score: u64| {
        RankedRow::new(key as u32, nn as u32, 0.0, score, false)
    };
    // One row per subtree; a third of them are mutual neighbors, whose
    // two rows share their key.
    let mut rows: Vec<Option<RankedRow>> = vec![None; n];
    for x in 0..n {
        if rows[x].is_some() {
            continue;
        }
        let v = (x + 1 + rng.random_range(0..hubs)) % n;
        let s = score(&mut rng);
        rows[x] = Some(row(x, v, s));
        if rows[v].is_none() && rng.random_range(0..3) == 0 {
            rows[v] = Some(row(v, x, s));
        }
    }
    let mut recorded: Vec<RankedRow> = rows.into_iter().flatten().collect();
    recorded.sort_unstable_by_key(RankedRow::rank);
    // The id translation: the identity, or any injection into 2n ids,
    // which flips `(lo, hi)` order inside equal-score runs.
    let mut ids: Vec<u32> = (0..2 * n as u32).collect();
    if rng.random_range(0..4) != 0 {
        ids.shuffle(&mut rng);
    }
    let translate = |r: &RankedRow| {
        RankedRow::new(ids[r.key as usize], ids[r.nn as usize], 0.0, r.score, false)
    };
    let mut kept = Vec::new();
    let mut changed = Vec::new();
    let share = rng.random_range(0..4);
    for r in &recorded {
        if rng.random_range(0..8) < share {
            let v = (r.key as usize + 1 + rng.random_range(0..hubs)) % n;
            changed.push(translate(&row(r.key as usize, v, score(&mut rng))));
        } else {
            kept.push(translate(r));
        }
    }
    let flips = kept
        .windows(2)
        .filter(|w| w[0].score == w[1].score && w[0].rank() > w[1].rank())
        .count();
    changed.sort_unstable_by_key(RankedRow::rank);
    // The planner's ranking: every row's `(score bits, lo, hi)` key, fully
    // sorted; the selection reads it deduplicated.
    let mut want: Vec<u128> = kept.iter().chain(&changed).map(RankedRow::rank).collect();
    want.sort_unstable();
    let mut distinct = want.clone();
    distinct.dedup();
    let key_pair = |k: &u128| ((*k >> 32) as u32 as usize, *k as u32 as usize);
    let mut next = Vec::new();
    replay::merge_ranked(kept.iter().copied(), &changed, &mut next);
    let ranks: Vec<u128> = next.iter().map(RankedRow::rank).collect();
    assert_eq!(ranks, want, "seed {seed}: the walk's order");
    for limit in [1, n.div_ceil(4), n / 2] {
        let limit = limit.max(1);
        let got = select_disjoint(next.iter().map(RankedRow::pair), limit);
        let want = select_disjoint(distinct.iter().map(key_pair), limit);
        assert_eq!(got, want, "seed {seed}, n {n}, limit {limit}");
    }
    flips
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(600))]

    /// The replay's merge walk orders and selects a round exactly as the
    /// planner's full sort and dedup does (see
    /// [`merge_walk_matches_the_full_sort`]).
    #[test]
    fn merge_walk_selects_as_the_full_sort_and_dedup(seed in proptest::prelude::any::<u64>()) {
        merge_walk_matches_the_full_sort(seed);
    }
}

/// The translations of [`merge_walk_matches_the_full_sort`] do put
/// equal-score runs out of order, so the walk's local re-sort is what the
/// proptest checks, not a no-op.
#[test]
fn merge_walk_cases_flip_equal_score_runs() {
    let flipped = (0..200u64)
        .filter(|&seed| merge_walk_matches_the_full_sort(seed) > 0)
        .count();
    assert!(flipped > 50, "only {flipped} of 200 cases flipped a run");
}
