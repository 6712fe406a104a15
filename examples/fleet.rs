//! Fleet routing: a whole scenario portfolio through one batch call.
//!
//! The paper's evaluation routes every circuit × group count × router;
//! this example does the miniature version — one placement partitioned
//! five ways, routed by two routers via the fleet layer (the same code
//! path the bench tables drive). Each outcome carries the audit report
//! and per-stage stats, so the table below needs no external timers or
//! re-audits.
//!
//! The instances run through an explicit `BatchPlan` (what `route_batch`
//! builds internally), which schedules them largest-first by sink count
//! and group structure. The schedule is printed with each batch, and the
//! per-worker busy times after it.
//!
//! Run with: `cargo run --release --example fleet`

use astdme::instances::{partition, r_benchmark, RBench};
use astdme::{AstDme, GreedyDme};
use astdme::{BatchPlan, BatchPolicy, ClockRouter, Instance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let placement = r_benchmark(RBench::R1, 7);
    let mut instances: Vec<Instance> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for k in [4usize, 6, 8] {
        let inst = partition::intermingled(&placement, k, 13)?;
        instances.push(inst.with_groups(inst.groups().clone().with_uniform_bound(10e-12)?)?);
        labels.push(format!("intermingled k={k}"));
    }
    for k in [4usize, 8] {
        let inst = partition::clustered(&placement, k, 0)?;
        instances.push(inst.with_groups(inst.groups().clone().with_uniform_bound(10e-12)?)?);
        labels.push(format!("clustered    k={k}"));
    }

    let routers: Vec<Box<dyn ClockRouter + Sync>> =
        vec![Box::new(AstDme::new()), Box::new(GreedyDme::new())];
    let plan = BatchPlan::new(&instances);
    for router in &routers {
        println!(
            "router: {} ({} instances batched, schedule {:?})",
            router.name(),
            instances.len(),
            plan.order()
        );
        println!("| scenario | wirelen (um) | intra skew (ps) | rounds | merges | repair | merge (s) | total (s) |");
        println!("|----------|--------------|-----------------|--------|--------|--------|-----------|-----------|");
        let (outcomes, stats) =
            plan.route_with_policy(&instances, router.as_ref(), &BatchPolicy::default());
        for (label, out) in labels.iter().zip(outcomes) {
            let out = out?;
            println!(
                "| {label} | {:.0} | {:.4} | {} | {} | {} | {:.3} | {:.3} |",
                out.report.wirelength(),
                out.report.max_intra_group_skew() * 1e12,
                out.stats.merge.rounds,
                out.stats.merge.merges,
                out.stats.repair.repair_iterations,
                out.stats.merge.seconds,
                out.stats.total_seconds(),
            );
        }
        println!(
            "workers: {}  balance (max/min busy): {:.2}",
            stats.workers(),
            stats.balance()
        );
        println!();
    }
    println!("Outcomes are input-ordered and bit-identical to a sequential");
    println!("loop at every thread count; on multicore machines the fleet");
    println!("layer fans instances out costliest-first over work-stealing");
    println!("workers (inner engine expansion goes serial on them).");
    Ok(())
}
