//! `route-64k`: one intermingled 64 000-sink, 4-group, 10 ps instance
//! routed over and over by `AstDme::new().route_traced` on one thread.
//!
//! The traced run alternates library routes with the replica (see
//! [`crate::replica`]), after first checking the replica reproduces the
//! library's tree; it aborts otherwise.

use std::time::Instant;

use astdme_core::{AstDme, ClockRouter, ExtBst, Instance, RouteOutcome, RouteStats};
use astdme_instances::{partition, synthetic_instance, Placement};

use crate::harness::{
    closed_loop, median, overhead_pct, pin_workers, since, within_bound, Metrics, Setup, Tally,
    PAPER_BOUND,
};
use crate::replica::{self, require_same, Layers};
use crate::trace::Spans;
use crate::{Args, Run};

const SINKS: usize = 64_000;
const GROUPS: usize = 4;

/// Groups `inst` under the paper's uniform 10 ps bound.
pub fn bounded(inst: Instance) -> Instance {
    let groups = inst
        .groups()
        .clone()
        .with_uniform_bound(PAPER_BOUND)
        .expect("valid bound");
    inst.with_groups(groups).expect("valid regrouping")
}

/// The `GROUPS`-group intermingled instance over `p`.
pub fn intermingled(p: &Placement, seed: u64) -> Instance {
    bounded(partition::intermingled(p, GROUPS, seed).expect("valid partition"))
}

/// AST-DME over EXT-BST wirelength on placement `p` at the paper's bound:
/// `(intermingled, clustered)`, given the intermingled AST-DME
/// wirelength already routed. Routes the EXT-BST baseline and the
/// clustered partition; both are checked like timed routes.
pub fn wl_ratios(p: &Placement, intermingled_wl: f64, tally: &mut Tally) -> (f64, f64) {
    let single = partition::single(p).expect("valid partition");
    let bst = ExtBst::new(PAPER_BOUND).route_traced(&single);
    let clustered = bounded(partition::clustered(p, GROUPS, 0).expect("valid partition"));
    let ast = AstDme::new().route_traced(&clustered);
    match (bst, ast) {
        (Ok(bst), Ok(ast)) => {
            tally.check(
                within_bound(bst.report.global_skew()),
                "EXT-BST reference skew",
            );
            tally.check(
                within_bound(ast.report.max_intra_group_skew()),
                "clustered reference skew",
            );
            let base = bst.report.wirelength();
            (intermingled_wl / base, ast.report.wirelength() / base)
        }
        _ => {
            tally.check(false, "reference routes");
            (1.0, 1.0)
        }
    }
}

/// Whether a timed route succeeded within bound and matches the reference.
fn check_route(
    out: &Result<RouteOutcome, astdme_core::RouteError>,
    reference: &RouteOutcome,
    tally: &mut Tally,
) -> Option<RouteStats> {
    match out {
        Ok(o) => {
            tally.op(within_bound(o.report.max_intra_group_skew()));
            tally.check(o.tree == reference.tree, "route repeats bit-identically");
            Some(o.stats)
        }
        Err(_) => {
            tally.op(false);
            None
        }
    }
}

/// The pipeline-stage metrics, averaged over routes' returned stats.
pub fn pipeline_metrics(stats: &[RouteStats], per_op: f64, into: &mut Metrics) {
    let sum = |f: fn(&RouteStats) -> f64| stats.iter().map(f).sum::<f64>() / per_op;
    let merge = sum(|s| s.merge.seconds);
    let total = sum(|s| s.total_seconds());
    into.insert("pipeline.group_s", sum(|s| s.group.seconds));
    into.insert("pipeline.merge_s", merge);
    into.insert("pipeline.embed_s", sum(|s| s.embed.seconds));
    into.insert("pipeline.repair_s", sum(|s| s.repair.seconds));
    into.insert("pipeline.audit_s", sum(|s| s.audit.seconds));
    into.insert(
        "pipeline.merge_share",
        if total > 0.0 { merge / total } else { 0.0 },
    );
}

/// Runs the workload.
pub fn run(args: &Args, epoch: Instant) -> Run {
    pin_workers(1);
    let (mut setup, (placement, inst)) = Setup::new(|| {
        let p = synthetic_instance(SINKS, args.seed, "route-64k");
        let inst = intermingled(&p, args.seed ^ 0x5EED);
        (p, inst)
    });
    let router = AstDme::new();
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let mut spans = Spans::new(epoch);

    // Warm-up route: the reference every timed route must reproduce.
    let reference = router
        .route_traced(&inst)
        .expect("the reference route succeeds");
    tally.check(
        within_bound(reference.report.max_intra_group_skew()),
        "reference skew",
    );

    if !args.trace {
        let timings = closed_loop(
            args.seconds,
            3,
            || setup.top_up(),
            |_| {
                let out = router.route_traced(&inst);
                check_route(&out, &reference, &mut tally);
                1
            },
        );
        let (ri, rc) = wl_ratios(&placement, reference.report.wirelength(), &mut tally);
        metrics.insert("op_s_p50", median(&timings.ops));
        metrics.insert("items_per_s", timings.items_per_s());
        metrics.insert("wirelength_um", reference.report.wirelength());
        metrics.insert("wl_ratio_intermingled", ri);
        metrics.insert("wl_ratio_clustered", rc);
        metrics.insert("setup_s", setup.median());
    } else {
        let plan = router.plan();
        let mut layers = Layers::default();
        let first = replica::route(&inst, &plan, &mut layers, &mut spans, 0);
        require_same(&first, &reference, 0);
        let (mut plain, mut traced, mut stats) = (Vec::new(), Vec::new(), Vec::new());
        closed_loop(
            args.seconds,
            4,
            || {},
            |i| {
                let t = Instant::now();
                if i.is_multiple_of(2) {
                    let out = router.route_traced(&inst);
                    plain.push(since(t));
                    stats.extend(check_route(&out, &reference, &mut tally));
                } else {
                    let r = replica::route(&inst, &plan, &mut layers, &mut spans, i);
                    traced.push(since(t));
                    tally.op(within_bound(r.report.max_intra_group_skew()));
                    tally.check(r.tree == reference.tree, "replica repeats bit-identically");
                }
                1
            },
        );
        layers.report(layers.routes as f64, &mut metrics);
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
