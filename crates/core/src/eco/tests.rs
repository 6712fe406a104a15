//! Unit tests of the ECO session that read its recording.

use super::*;
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
/// from-scratch route of the session's instance, tree and audit. Returns
/// the nodes the flushes' embeds copied from their standing trees.
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
            reused += session.last_flush().reused_nodes;
        }
    }
    reused
}

/// A chain of flushes on a fused four-group 10 ps instance equals its
/// from-scratch routes after every flush, and its embeds copy standing
/// subtrees. The sinks sit off the integer lattice, so no two hull
/// distances tie and every flush replays.
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
/// make exact distance ties, on which the replay declines (see
/// `scan::RoundScan::tied`); declined or not, every flush must equal its
/// from-scratch route.
#[test]
fn unfused_flush_chain_matches_from_scratch() {
    chained_flushes_match_from_scratch(&scattered(120, 3, 0.0), &unfused());
}

/// The replay's pair selection, which sorts only a prefix of the packed
/// keys, takes exactly the pairs the planner's full sort + dedup takes:
/// over exact score ties, mutual neighbors ranked twice, limits 1, the
/// multi-merge quarter and n/2, and prefixes that run out before the
/// limit (hub neighbors, where most keys share an endpoint).
#[test]
fn select_ranked_matches_the_full_sort_and_dedup() {
    use astdme_topo::{score_bits, select_disjoint};
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;

    let (mut fell_back, mut stayed) = (0, 0);
    for seed in 0..600u64 {
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        let n = rng.random_range(2..400);
        // Few distinct scores force exact ties; few hubs force fallbacks.
        let scores: Vec<u64> = (0..rng.random_range(1..12))
            .map(|_| score_bits(rng.random_range(0.0..1e4)))
            .collect();
        let hubs = [1, 3, n][rng.random_range(0..3)].min(n - 1);
        let mut keys: Vec<(u64, u32, u32)> = Vec::new();
        for x in 0..n {
            let v = (x + 1 + rng.random_range(0..hubs)) % n;
            let (lo, hi) = (x.min(v) as u32, x.max(v) as u32);
            let score = scores[rng.random_range(0..scores.len())];
            keys.push((score, lo, hi));
            if rng.random_range(0..3) == 0 {
                keys.push((score, lo, hi));
            }
        }
        for limit in [1, n.div_ceil(4), n / 2] {
            let limit = limit.max(1);
            let mut want = keys.clone();
            want.sort_unstable();
            want.dedup();
            let want = select_disjoint(
                want.iter().map(|&(_, a, b)| (a as usize, b as usize)),
                limit,
            );
            let mut packed: Vec<u128> = keys
                .iter()
                .map(|&(s, lo, hi)| replay::rank_key(s, lo as usize, hi as usize))
                .collect();
            let got = replay::select_ranked(&mut packed, limit);
            assert_eq!(got, want, "seed {seed}, n {n}, limit {limit}");
            // Whether the sorted prefix alone ran out before the limit.
            let head = replay::prefix_len(limit);
            if head < keys.len() {
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                let prefix = sorted[..head]
                    .iter()
                    .map(|&(_, a, b)| (a as usize, b as usize));
                if select_disjoint(prefix, limit).len() < limit {
                    fell_back += 1;
                } else {
                    stayed += 1;
                }
            }
        }
    }
    assert!(
        fell_back > 20 && stayed > 20,
        "fallbacks {fell_back}, prefix-only {stayed}"
    );
}
