//! Ablations for the design choices of the AST-DME engine:
//!
//! 1. Ch. V.F enhancement 1 — simultaneous multi-merging vs plain greedy
//!    (runtime vs wirelength).
//! 2. Ch. V.F enhancement 2 — delay-target merging-order bias (snaking).
//! 3. Ch. III — the pathlength delay model does not control Elmore skew.
//! 4. Group fusion (Fig. 6 steps 6-7) vs the general per-subtree offset
//!    machinery (wirelength and stability).
//!
//! Each row's CPU column is the median routing time (group through
//! repair, `RouteStats::route_seconds`) over [`ROUTES_PER_ROW`] routes.
//!
//! Usage: `cargo run -p astdme_bench --release --bin ablation [--quick]`

use astdme_core::{
    audit, AstDme, ClockRouter, DelayModel, EngineConfig, Instance, MergeOrder, RouteOutcome,
    TopoConfig,
};
use astdme_instances::{partition, r_benchmark, RBench};

/// Routes per row: one route's time is too noisy to resolve a change in
/// a row that takes tens of milliseconds.
const ROUTES_PER_ROW: usize = 15;

fn route_stats(router: &AstDme, inst: &Instance, label: &str) {
    let model = DelayModel::elmore(*inst.rc());
    let outcomes: Vec<RouteOutcome> = (0..ROUTES_PER_ROW)
        .map(|_| router.route_traced(inst).expect("router succeeds"))
        .collect();
    let mut seconds: Vec<f64> = outcomes.iter().map(|o| o.stats.route_seconds()).collect();
    seconds.sort_by(f64::total_cmp);
    let cpu = seconds[ROUTES_PER_ROW / 2];
    let report = audit(&outcomes[0].tree, inst, &model);
    println!(
        "| {label} | {:.0} | {:.0} | {:.3e} | {:.4} |",
        report.wirelength(),
        report.snaking(),
        report.max_intra_group_skew(),
        cpu
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let bench = if quick { RBench::R1 } else { RBench::R3 };
    let placement = r_benchmark(bench, 2006);
    let inst = partition::intermingled(&placement, 6, 2012).expect("valid partition");
    let model = DelayModel::elmore(*inst.rc());

    println!(
        "Ablations on {} ({} sinks, 6 intermingled groups)\n",
        placement.name,
        inst.sink_count()
    );
    println!("| Configuration | Wirelen (um) | Snaking (um) | Intra skew (s) | CPU (s) |");
    println!("|---------------|--------------|--------------|----------------|---------|");

    // 1. Merging order: greedy single-pair vs multi-merge.
    route_stats(
        &AstDme::new().with_topo(TopoConfig::greedy()),
        &inst,
        "greedy nearest-pair (Fig. 6 base)",
    );
    route_stats(
        &AstDme::new().with_topo(TopoConfig {
            order: MergeOrder::MultiMerge { fraction: 0.25 },
            delay_weight: 0.0,
        }),
        &inst,
        "multi-merge 25% (Ch. V.F enh. 1)",
    );

    // 2. Delay-target bias.
    route_stats(
        &AstDme::new().with_topo(TopoConfig {
            order: MergeOrder::MultiMerge { fraction: 0.25 },
            delay_weight: 1e15, // 1 um per fs of accumulated delay
        }),
        &inst,
        "delay-target bias (Ch. V.F enh. 2)",
    );

    // 3. Group fusion vs general offset machinery.
    route_stats(&AstDme::new(), &inst, "group fusion ON (default)");
    route_stats(
        &AstDme::new().with_engine(EngineConfig {
            fuse_groups: false,
            ..EngineConfig::default()
        }),
        &inst,
        "group fusion OFF (per-subtree sneaking)",
    );

    // 4. Delay model: pathlength routing audited under Elmore.
    let tree = AstDme::new()
        .with_model(DelayModel::pathlength())
        .route(&inst)
        .expect("pathlength routes");
    let under_path = audit(&tree, &inst, &DelayModel::pathlength());
    let under_elmore = audit(&tree, &inst, &model);
    println!(
        "\nCh. III check — pathlength-balanced tree: pathlength skew = {:.3} um-equiv, \
         but audited Elmore intra-group skew = {:.1} ps (vs ~0 for Elmore-driven AST-DME): \
         the linear model does not control real skew.",
        under_path.max_intra_group_skew(),
        under_elmore.max_intra_group_skew() * 1e12
    );
}
