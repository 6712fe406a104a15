//! Unit tests of the ECO session that read its recording.

use super::*;
use crate::AstDme;
use astdme_engine::EngineConfig;

/// Sinks scattered by a multiplicative hash over three intermingled
/// zero-skew groups, whose conflicting windows force offset
/// adjustment once fusion is off.
fn scattered(n: usize) -> Instance {
    let sinks: Vec<Sink> = (0..n as u64)
        .map(|i| {
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (x, y) = ((h >> 20) % 4000, (h >> 40) % 4000);
            Sink::new(Point::new(x as f64, y as f64), 1e-14)
        })
        .collect();
    let groups = Groups::from_assignments((0..n).map(|i| i % 3).collect(), 3)
        .and_then(|g| g.with_uniform_bound(0.0))
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
    let inst = scattered(120);
    let plan = AstDme::new()
        .with_engine(EngineConfig {
            fuse_groups: false,
            ..EngineConfig::default()
        })
        .plan();
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
