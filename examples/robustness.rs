//! Monte Carlo robustness sweep over a clustered scenario.
//!
//! A clustered partition (each group a spatial cluster — think register
//! banks placed together) is the shape where associative skew wins most;
//! this example asks how stable that win is under manufacturing-style
//! noise: sink placements jittered, loads and RC parameters perturbed,
//! and a tail of sinks dropped entirely. One nominal instance fans out
//! into 400 seeded variants through the fleet layer, and the report
//! distills the skew and wirelength distributions — every number
//! reproducible from the seed at any thread count.
//!
//! The second sweep turns on the fleet's hardening: a per-variant
//! deadline plus deliberately injected faults (a forced panic and a
//! corrupted output), showing that failures are accounted per variant
//! while every survivor routes bit-identically.
//!
//! Run with: `cargo run --release --example robustness`

use astdme::instances::{partition, r_benchmark, RBench};
use astdme::robustness::{sweep, MetricSummary, PerturbationSpec, SweepConfig};
use astdme::{AstDme, EngineConfig, Fault, FaultKind, FaultPlan, StageId};

fn row(name: &str, m: &MetricSummary, scale: f64, unit: &str) {
    println!(
        "| {name:<16} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.3} | {:>9.3} | {unit} |",
        m.mean * scale,
        m.min * scale,
        m.p50 * scale,
        m.p90 * scale,
        m.p99 * scale,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The nominal instance: r1-derived placement, 4 clustered groups,
    // the paper's 10 ps intra-group bound.
    let placement = r_benchmark(RBench::R1, 7);
    let inst = partition::clustered(&placement, 4, 0)?;
    let inst = inst.with_groups(inst.groups().clone().with_uniform_bound(10e-12)?)?;

    let spec = PerturbationSpec::new(2006)
        .with_position_jitter(300.0) // ±300 µm placement noise
        .with_load_jitter(0.2) // ±20% sink load
        .with_rc_jitter(0.1) // ±10% unit R and C
        .with_drop_rate(0.05) // each sink lost with p = 5%
        .with_survival_floor(0.8); // but at least 80% survive

    let router = AstDme::new().with_engine(EngineConfig::fast());
    let sweep_started = std::time::Instant::now();
    let report = sweep(&inst, &spec, &SweepConfig::new(400), &router)?;
    let sweep_seconds = sweep_started.elapsed().as_secs_f64();

    println!(
        "clustered scenario, n={}, {} groups: {} variants, {} routed",
        inst.sink_count(),
        inst.groups().group_count(),
        report.variants,
        report.succeeded
    );
    // The sweep hands variants out one at a time on the claim loop, with
    // no chunk barriers — workers never idle waiting for a chunk's
    // straggler, so this throughput number is the honest per-core rate.
    println!(
        "barrier-free sweep throughput: {:.1} variants/s ({:.2} s wall)",
        report.variants as f64 / sweep_seconds,
        sweep_seconds
    );
    println!(
        "| metric           |      mean |       min |       p50 |       p90 |       p99 | unit |"
    );
    println!(
        "|------------------|-----------|-----------|-----------|-----------|-----------|------|"
    );
    row("global skew", &report.global_skew, 1e12, "ps");
    row("intra-group skew", &report.intra_group_skew, 1e12, "ps");
    row("wirelength", &report.wirelength, 1e-3, "mm");

    // Hardened sweep: injected faults fail their own variants only.
    let faults = FaultPlan::new()
        .inject(
            5,
            Fault {
                stage: StageId::Merge,
                kind: FaultKind::Panic,
            },
        )
        .inject(
            23,
            Fault {
                stage: StageId::Embed,
                kind: FaultKind::Corrupt,
            },
        );
    // The injected panic is caught per-instance by the fleet layer;
    // silence the default hook's backtrace for readable output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let hardened = sweep(
        &inst,
        &spec,
        &SweepConfig::new(64).with_deadline(30.0).with_faults(faults),
        &router,
    )?;
    std::panic::set_hook(hook);
    println!();
    println!(
        "hardened sweep: {} variants, {} routed, {} failed",
        hardened.variants,
        hardened.succeeded,
        hardened.failures.len()
    );
    for f in &hardened.failures {
        println!("  variant {:>3}  {:<17} {}", f.variant, f.kind, f.message);
    }
    Ok(())
}
