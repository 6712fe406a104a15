//! `eco-k1`: one standing `EcoSession` on an intermingled 16 000-sink
//! instance, flushing batches that move one seeded-random sink, each
//! followed by a flush that moves it back. One thread.
//!
//! The design is the same whatever the seed; the workload seed draws the
//! edits. Flush cost depends on the placement enough that changing it
//! with the seed would hide a regression in the seed-to-seed spread.
//!
//! Every move-back flush must restore the session's original tree bit for
//! bit. The traced run also routes every flushed instance from scratch
//! and requires the flush to equal it.

use std::time::Instant;

use astdme_core::{AstDme, ClockRouter, EcoEdit, EcoSession, EcoStats, Instance, Point};
use astdme_instances::synthetic_instance;

use crate::harness::{
    closed_loop, mean, median, overhead_pct, pin_workers, since, within_bound, Metrics, Setup,
    Tally,
};
use crate::route::{intermingled, pipeline_metrics, wl_ratios};
use crate::trace::Spans;
use crate::{Args, Run};

const SINKS: usize = 16_000;
/// Seed of the session's placement and partition.
const DESIGN_SEED: u64 = 2006;
/// Largest displacement of a moved sink along each axis, in µm.
const MAX_SHIFT: f64 = 400.0;
/// Sinks moved per batch.
const MOVED: usize = 1;
/// Traced cycles whose counts are reported, so the counts do not depend
/// on how many cycles fit in the run.
const COUNTED_CYCLES: usize = 4;

/// SplitMix64: a small seeded generator for the edit schedule.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Cycle `cycle`'s edits: [`MOVED`] distinct sinks moved away, and the
/// edits that move them back.
fn cycle_edits(inst: &Instance, seed: u64, cycle: usize) -> (Vec<EcoEdit>, Vec<EcoEdit>) {
    let mut rng = SplitMix(seed ^ ((MOVED as u64) << 32) ^ cycle as u64);
    let mut sinks: Vec<usize> = Vec::with_capacity(MOVED);
    while sinks.len() < MOVED {
        let s = (rng.next() % inst.sink_count() as u64) as usize;
        if !sinks.contains(&s) {
            sinks.push(s);
        }
    }
    let away = sinks
        .iter()
        .map(|&s| {
            let p = inst.sinks()[s].pos;
            let to = Point::new(p.x + MAX_SHIFT * rng.unit(), p.y + MAX_SHIFT * rng.unit());
            EcoEdit::Move { sink: s, to }
        })
        .collect();
    let back = sinks
        .iter()
        .map(|&s| EcoEdit::Move {
            sink: s,
            to: inst.sinks()[s].pos,
        })
        .collect();
    (away, back)
}

/// Queues `edits` and flushes them, returning (queue, flush) seconds.
fn apply(session: &mut EcoSession, edits: &[EcoEdit], tally: &mut Tally) -> (f64, f64) {
    let t = Instant::now();
    for &e in edits {
        session.queue(e);
    }
    let queued = since(t);
    let t = Instant::now();
    let ok = match session.flush() {
        Ok(out) => within_bound(out.report.max_intra_group_skew()),
        Err(_) => false,
    };
    let flushed = since(t);
    tally.op(ok);
    (queued, flushed)
}

/// Runs the workload.
pub fn run(args: &Args, epoch: Instant) -> Run {
    pin_workers(1);
    let plan = AstDme::new().plan();
    let (mut setup, (placement, inst, mut session)) = Setup::new(|| {
        let p = synthetic_instance(SINKS, DESIGN_SEED ^ 0x0EC0, "eco-16k");
        let inst = intermingled(&p, DESIGN_SEED ^ 0x5EED);
        let session = EcoSession::new(&inst, plan).expect("the initial route succeeds");
        (p, inst, session)
    });
    let base = session.outcome().clone();
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let mut spans = Spans::new(epoch);
    tally.check(
        within_bound(base.report.max_intra_group_skew()),
        "initial route skew",
    );

    // Warm-up cycle: its moved tree's wirelength is the workload's quality
    // figure (deterministic: cycle 0's edits depend only on the seed).
    let (away, back) = cycle_edits(&inst, args.seed, 0);
    apply(&mut session, &away, &mut Tally::default());
    let moved_wl = session.outcome().report.wirelength();
    apply(&mut session, &back, &mut Tally::default());
    tally.check(
        session.outcome().tree == base.tree,
        "move-back restores the tree",
    );

    // Flush `i` of the loop: cycle `1 + i / 2`, away on even `i`.
    let mut edits = (Vec::new(), Vec::new());
    let mut next_edits = |i: usize| -> Vec<EcoEdit> {
        if i.is_multiple_of(2) {
            edits = cycle_edits(&inst, args.seed, 1 + i / 2);
            edits.0.clone()
        } else {
            edits.1.clone()
        }
    };
    if !args.trace {
        let mut flush_times = Vec::new();
        closed_loop(
            args.seconds,
            4,
            || setup.top_up(),
            |i| {
                let batch = next_edits(i);
                flush_times.push(apply(&mut session, &batch, &mut tally).1);
                if i % 2 == 1 {
                    tally.check(
                        session.outcome().tree == base.tree,
                        "move-back restores the tree",
                    );
                }
                1
            },
        );
        let (ri, rc) = wl_ratios(&placement, base.report.wirelength(), &mut tally);
        metrics.insert("op_s_p50", median(&flush_times));
        metrics.insert(
            "items_per_s",
            flush_times.len() as f64 / flush_times.iter().sum::<f64>(),
        );
        metrics.insert("wirelength_um", moved_wl);
        metrics.insert("wl_ratio_intermingled", ri);
        metrics.insert("wl_ratio_clustered", rc);
        metrics.insert("setup_s", setup.median());
    } else {
        // Cycles alternate: even cycles untraced, odd cycles traced.
        let router = AstDme::new();
        let (mut plain, mut traced, mut queue_s, mut scratch_s) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut counted, mut stats): (Vec<EcoStats>, Vec<_>) = (Vec::new(), Vec::new());
        closed_loop(
            args.seconds,
            4 * COUNTED_CYCLES,
            || {},
            |i| {
                let batch = next_edits(i);
                let cycle = i / 2;
                if cycle.is_multiple_of(2) {
                    let (q, f) = apply(&mut session, &batch, &mut tally);
                    plain.push(q + f);
                } else {
                    let t = Instant::now();
                    for &e in &batch {
                        session.queue(e);
                    }
                    queue_s.push(spans.close("queue", i, t));
                    let t = Instant::now();
                    let flushed = session
                        .flush()
                        .map(|o| within_bound(o.report.max_intra_group_skew()));
                    let f = spans.close("flush", i, t);
                    tally.op(flushed.unwrap_or(false));
                    traced.push(queue_s[queue_s.len() - 1] + f);
                    if cycle / 2 < COUNTED_CYCLES {
                        counted.push(session.last_flush());
                    }
                    stats.push(session.outcome().stats);
                    let t = Instant::now();
                    let scratch = router.route_traced(session.instance());
                    scratch_s.push(since(t));
                    tally.check(
                        scratch.is_ok_and(|s| {
                            s.tree == session.outcome().tree && s.report == session.outcome().report
                        }),
                        "flush equals the from-scratch route",
                    );
                }
                if i % 2 == 1 {
                    tally.check(
                        session.outcome().tree == base.tree,
                        "move-back restores the tree",
                    );
                }
                1
            },
        );
        let per_flush = |f: fn(&EcoStats) -> usize| {
            counted.iter().map(|s| f(s) as f64).sum::<f64>() / counted.len() as f64
        };
        let adopted = per_flush(|s| s.adopted_merges);
        let fresh = per_flush(|s| s.fresh_merges);
        metrics.insert("eco.queue_s", mean(&queue_s));
        metrics.insert("eco.adopted_merges", adopted);
        metrics.insert("eco.fresh_merges", fresh);
        metrics.insert("eco.adopt_ratio", adopted / (adopted + fresh).max(1.0));
        metrics.insert("eco.replayed_rounds", per_flush(|s| s.replayed_rounds));
        metrics.insert("eco.planned_rounds", per_flush(|s| s.planned_rounds));
        metrics.insert(
            "eco.full_reroutes",
            per_flush(|s| usize::from(s.full_reroute)),
        );
        let flush_p50 = median(&traced);
        metrics.insert("eco.scratch_route_s", median(&scratch_s));
        metrics.insert("eco.speedup_vs_scratch", median(&scratch_s) / flush_p50);
        pipeline_metrics(&stats, stats.len() as f64, &mut metrics);
        metrics.insert("trace.overhead_pct", overhead_pct(&traced, &plain));
    }
    Run {
        tally,
        metrics,
        spans,
        workers: 1,
    }
}
