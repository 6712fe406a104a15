//! `paper-tables`: the Table I + II portfolio, routed pass after pass.
//!
//! One pass is two `route_batch` calls with workers pinned to `nproc`:
//! the EXT-BST baseline of r1–r5, then AST-DME at 4/6/8/10 groups under
//! both the clustered (Table I) and intermingled (Table II) partitions —
//! 45 routes, built exactly as `astdme_bench::run_circuit` builds them.
//! Every pass must repeat the first bit for bit, and the first must equal
//! `run_table` (what `table1`/`table2 --json` print at seed 2006).

use std::time::Instant;

use astdme_bench::{run_table, PartitionMode, GROUP_COUNTS};
use astdme_core::{
    route_batch, AstDme, BatchPlan, ClockRouter, ExtBst, Instance, RouteError, RouteOutcome,
};
use astdme_instances::{partition, r_benchmark, RBench};

use crate::harness::{
    closed_loop, mean, median, nproc, overhead_pct, pin_workers, since, within_bound, Metrics,
    Setup, Tally, PAPER_BOUND,
};
use crate::replica::{self, require_same, Layers};
use crate::route::{bounded, pipeline_metrics};
use crate::trace::{fleet_metrics, SpanRouter, Spans};
use crate::{Args, Run};

const MODES: [PartitionMode; 2] = [PartitionMode::Clustered, PartitionMode::Intermingled];

/// The portfolio: one baseline per circuit, then AST-DME instances in
/// circuit-major, mode, group-count order.
struct Portfolio {
    baselines: Vec<Instance>,
    ast: Vec<Instance>,
}

impl Portfolio {
    fn new(seed: u64) -> Self {
        let mut baselines = Vec::new();
        let mut ast = Vec::new();
        for bench in RBench::ALL {
            let p = r_benchmark(bench, seed);
            baselines.push(partition::single(&p).expect("valid partition"));
            for mode in MODES {
                for k in GROUP_COUNTS {
                    let part_seed = seed.wrapping_add(k as u64);
                    ast.push(bounded(
                        match mode {
                            PartitionMode::Clustered => partition::clustered(&p, k, part_seed),
                            PartitionMode::Intermingled => {
                                partition::intermingled(&p, k, part_seed)
                            }
                        }
                        .expect("valid partition"),
                    ));
                }
            }
        }
        Self { baselines, ast }
    }

    /// Position in `ast` of circuit `c`, mode `m`, group-count index `g`.
    fn at(c: usize, m: usize, g: usize) -> usize {
        (c * MODES.len() + m) * GROUP_COUNTS.len() + g
    }
}

type Outcomes = Vec<Result<RouteOutcome, RouteError>>;

/// Wirelength of every route of a pass, checked against the bounds; a
/// failed route reads as NaN.
fn tally_pass(baselines: &Outcomes, ast: &Outcomes, tally: &mut Tally) -> Vec<f64> {
    let mut wl = Vec::with_capacity(baselines.len() + ast.len());
    for (outs, bst) in [(baselines, true), (ast, false)] {
        for out in outs {
            match out {
                Ok(o) => {
                    tally.op(if bst {
                        within_bound(o.report.global_skew())
                    } else {
                        within_bound(o.report.max_intra_group_skew())
                    });
                    wl.push(o.report.wirelength());
                }
                Err(_) => {
                    tally.op(false);
                    wl.push(f64::NAN);
                }
            }
        }
    }
    wl
}

fn bits(wl: &[f64]) -> Vec<u64> {
    wl.iter().map(|w| w.to_bits()).collect()
}

/// Checks a pass's wirelengths against `run_table` at the same seed, row
/// for row, in wirelength and reduction bits; returns the mean AST-DME ÷
/// EXT-BST wirelength per mode (1 − the mean Table I / II reduction).
fn check_tables(seed: u64, wl: &[f64], tally: &mut Tally) -> [f64; 2] {
    let circuits = RBench::ALL.len();
    let mut ratios = [0.0; 2];
    for (m, mode) in MODES.into_iter().enumerate() {
        let rows = run_table(mode, &RBench::ALL, seed);
        tally.check(
            rows.len() == circuits * (1 + GROUP_COUNTS.len()),
            "table row count",
        );
        for (c, chunk) in rows.chunks(1 + GROUP_COUNTS.len()).enumerate() {
            let base = wl[c];
            tally.check(
                chunk[0].wirelength.to_bits() == base.to_bits(),
                "EXT-BST row",
            );
            for (g, row) in chunk[1..].iter().enumerate() {
                let w = wl[circuits + Portfolio::at(c, m, g)];
                let reduction = 1.0 - w / base;
                tally.check(
                    row.wirelength.to_bits() == w.to_bits()
                        && row.reduction.to_bits() == reduction.to_bits(),
                    "AST-DME row equals run_table",
                );
                ratios[m] += w / base;
            }
        }
        ratios[m] /= (circuits * GROUP_COUNTS.len()) as f64;
    }
    ratios
}

/// One traced batch: `BatchPlan::new`, then the plan's fan-out through
/// the span-recording wrapper around `router`. Returns the outcomes and
/// the planning and routing wall times.
fn traced_batch<'a>(
    folio: &[Instance],
    router: &'a (dyn ClockRouter + Sync),
    spans: &mut SpanRouter<'a>,
    op: usize,
) -> (Outcomes, f64, f64) {
    let t = Instant::now();
    let plan = BatchPlan::new(folio);
    let planned = since(t);
    spans.begin(op, router, folio);
    let t = Instant::now();
    let outs = plan.route(folio, &*spans);
    (outs, planned, since(t))
}

/// Runs the workload.
pub fn run(args: &Args, epoch: Instant) -> Run {
    let workers = nproc();
    pin_workers(workers);
    let (mut setup, folio) = Setup::new(|| Portfolio::new(args.seed));
    let bst = ExtBst::new(PAPER_BOUND);
    let ast = AstDme::new();
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let mut spans = Spans::new(epoch);
    let items = folio.baselines.len() + folio.ast.len();

    // Warm-up pass: the reference every later pass must reproduce. Its
    // AST-DME batch runs first and twice as wide as the timed passes, so
    // the worker pool spawns every thread it will hold, and each of them
    // routes large instances, before timing starts. Otherwise a batch
    // started right after another can find no idle worker and spawn one
    // more (see `sweep.rs`), and peak memory would depend on that race.
    pin_workers(2 * workers);
    let wide = route_batch(&folio.ast, &ast);
    pin_workers(workers);
    let first = tally_pass(
        &route_batch(&folio.baselines, &bst),
        &wide,
        &mut Tally::default(),
    );
    let reference = bits(&first);
    let pass = |tally: &mut Tally| {
        let b = route_batch(&folio.baselines, &bst);
        let a = route_batch(&folio.ast, &ast);
        let wl = tally_pass(&b, &a, tally);
        tally.check(bits(&wl) == reference, "pass repeats bit-identically");
    };

    if !args.trace {
        let timings = closed_loop(
            args.seconds,
            3,
            || setup.top_up(),
            |_| {
                pass(&mut tally);
                items
            },
        );
        let ratios = check_tables(args.seed, &first, &mut tally);
        metrics.insert("op_s_p50", median(&timings.ops));
        metrics.insert("items_per_s", timings.items_per_s());
        metrics.insert(
            "wirelength_um",
            first[folio.baselines.len()..].iter().sum::<f64>(),
        );
        metrics.insert("wl_ratio_intermingled", ratios[1]);
        metrics.insert("wl_ratio_clustered", ratios[0]);
        metrics.insert("setup_s", setup.median());
    } else {
        let mut wrapped = SpanRouter::new(&ast, epoch);
        let (mut plain, mut traced, mut plan_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut fanouts, mut stats) = (Vec::new(), Vec::new());
        closed_loop(
            args.seconds,
            4,
            || {},
            |i| {
                let t = Instant::now();
                if i.is_multiple_of(2) {
                    pass(&mut tally);
                    plain.push(since(t));
                    return items;
                }
                let (b, plan_b, wall_b) = traced_batch(&folio.baselines, &bst, &mut wrapped, i);
                let (a, plan_a, wall_a) = traced_batch(&folio.ast, &ast, &mut wrapped, i);
                traced.push(since(t));
                let wl = tally_pass(&b, &a, &mut tally);
                tally.check(
                    bits(&wl) == reference,
                    "traced pass repeats bit-identically",
                );
                plan_s.push(plan_b + plan_a);
                let (routes, st) = wrapped.drain();
                fanouts.push((routes, wall_b + wall_a));
                stats.extend(st);
                items
            },
        );
        fleet_metrics(&fanouts, &mut metrics);
        metrics.insert("fleet.plan_s", mean(&plan_s));
        pipeline_metrics(&stats, traced.len() as f64, &mut metrics);
        metrics.insert("trace.overhead_pct", overhead_pct(&traced, &plain));
        spans.spans.extend(fanouts.into_iter().flat_map(|f| f.0));

        // Engine and planner split: one serial replica pass, each route
        // checked against the library's.
        pin_workers(1);
        let mut layers = Layers::default();
        let jobs = folio
            .baselines
            .iter()
            .map(|i| (i, bst.plan(), &bst as &dyn ClockRouter))
            .chain(
                folio
                    .ast
                    .iter()
                    .map(|i| (i, ast.plan(), &ast as &dyn ClockRouter)),
            );
        for (n, (inst, plan, router)) in jobs.enumerate() {
            let r = replica::route(inst, &plan, &mut layers, &mut spans, n);
            let library = router
                .route_traced(inst)
                .expect("portfolio instances route");
            require_same(&r, &library, n);
        }
        layers.report(1.0, &mut metrics);
    }
    Run {
        tally,
        metrics,
        spans,
        workers,
    }
}
