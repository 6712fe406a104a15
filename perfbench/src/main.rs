//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in a closed loop for `--seconds`, checks its outputs,
//! and prints a metadata line followed, as the last line, by one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` they are the per-layer set ([`PER_LAYER`]), measured by
//! timing the calls into each layer from this crate, and the spans are
//! written to `perfbench/out/`. See `perfbench/README.md` for what each
//! workload and metric means.

#![forbid(unsafe_code)]

mod eco;
mod harness;
mod replica;
mod route;
mod sweep;
mod tables;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use harness::{git_commit, nproc, peak_rss_mb, result_line, Metrics, RunInfo, Tally};
use trace::Spans;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_s_p50", "s"),
    ("items_per_s", "1/s"),
    ("wirelength_um", "um"),
    ("wl_ratio_intermingled", "ratio"),
    ("wl_ratio_clustered", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer the workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.merge_s", "s"),
    ("engine.merge_us_p50", "us"),
    ("engine.merge_us_p99", "us"),
    ("engine.candidates_per_node", "count"),
    ("engine.merges_same_group", "count"),
    ("engine.merges_cross_group", "count"),
    ("engine.merges_shared_group", "count"),
    ("engine.embed_s", "s"),
    ("engine.repair_s", "s"),
    ("engine.repair_iters", "count"),
    ("engine.audit_s", "s"),
    ("engine.residual_ps", "ps"),
    ("topo.planner_new_s", "s"),
    ("topo.plan_round_s", "s"),
    ("topo.apply_round_s", "s"),
    ("topo.rounds", "count"),
    ("topo.merges_per_round", "count"),
    ("pipeline.forest_build_s", "s"),
    ("pipeline.group_s", "s"),
    ("pipeline.merge_s", "s"),
    ("pipeline.embed_s", "s"),
    ("pipeline.repair_s", "s"),
    ("pipeline.audit_s", "s"),
    ("pipeline.merge_share", "ratio"),
    ("fleet.workers", "count"),
    ("fleet.plan_s", "s"),
    ("fleet.busy_s", "s"),
    ("fleet.wait_s", "s"),
    ("fleet.balance", "ratio"),
    ("fleet.route_ms_p50", "ms"),
    ("fleet.route_ms_p99", "ms"),
    ("robustness.derive_s", "s"),
    ("robustness.failures", "count"),
    ("eco.queue_s", "s"),
    ("eco.adopted_merges", "count"),
    ("eco.fresh_merges", "count"),
    ("eco.adopt_ratio", "ratio"),
    ("eco.replayed_rounds", "count"),
    ("eco.planned_rounds", "count"),
    ("eco.full_reroutes", "count"),
    ("eco.scratch_route_s", "s"),
    ("eco.speedup_vs_scratch", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, by name.
const WORKLOADS: &[&str] = &["route-64k", "paper-tables", "eco-k1", "mc-sweep"];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Seconds the closed loop measures for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload run hands back.
pub struct Run {
    /// Attempts, failures and the correctness verdict.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: Metrics,
    /// Spans recorded by a traced run.
    pub spans: Spans,
    /// Worker threads the workload was pinned to.
    pub workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let mut run = match args.workload.as_str() {
        "route-64k" => route::run(&args, epoch),
        "paper-tables" => tables::run(&args, epoch),
        "eco-k1" => eco::run(&args, epoch),
        "mc-sweep" => sweep::run(&args, epoch),
        _ => unreachable!("validated by parse_args"),
    };
    let info = RunInfo {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: nproc(),
        workers: run.workers,
        commit: git_commit(),
    };
    let catalogue = if args.trace {
        let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
        if let Err(e) = run.spans.write(&path, &info) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        PER_LAYER
    } else {
        run.metrics.insert("peak_rss_mb", peak_rss_mb());
        for (name, _) in END_TO_END {
            assert!(
                run.metrics.contains_key(name),
                "workload did not report {name}"
            );
        }
        END_TO_END
    };
    println!("# {}", info.fields().join(", "));
    println!("{}", result_line(&run.tally, catalogue, &run.metrics));
    ExitCode::SUCCESS
}
