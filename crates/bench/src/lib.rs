//! Benchmark harness regenerating every table and figure of Kim (2006),
//! plus the workspace's performance tracker.
//!
//! The binaries (`table1`, `table2`, `fig1`, `fig2`, `fig5`, `ablation`)
//! print the corresponding experiment as a markdown table. This library
//! holds the shared experiment runner.
//!
//! The **`scaling`** binary times the merge planners: it routes synthetic
//! intermingled instances at n ∈ {250, 1000, 4000} under both the
//! incremental `MergePlanner` driver and the from-scratch reference
//! driver (greedy and multi-merge orders), asserts both produce identical
//! wirelength, and writes `BENCH_scaling.json` (wall-clock, merges/sec,
//! wirelength, per-size speedups, and allocations per merge) at the repo
//! root. CI smoke-runs it at n = 250 (`--quick --alloc-budget 6.5`);
//! regenerate the full file with
//! `cargo run --release -p astdme_bench --bin scaling` after touching the
//! merge loop. End-to-end and per-layer timings are `perfbench`'s job.
//!
//! The experiment runner itself drives the instance portfolios through
//! the fleet layer (`route_batch`), so tables and examples share one code
//! path and take their timings from the pipeline's per-stage stats rather
//! than external stopwatches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The workspace's JSON helpers, re-exported for the harness binaries.
///
/// This used to be a second hand-rolled writer; it is now a thin alias of
/// [`astdme_json`], so the bench outputs inherit the same escaping and the
/// same `1e999` policy for infinite values as the instance files.
pub use astdme_json as json;

use astdme_core::{route_batch, AstDme, ExtBst, Instance, RouteOutcome};
use astdme_instances::{partition, r_benchmark, Placement, RBench};

/// The global / intra-group skew bound used throughout the paper's
/// evaluation (10 ps).
pub const PAPER_BOUND: f64 = 10e-12;

/// Group counts evaluated per circuit in Tables I and II.
pub const GROUP_COUNTS: [usize; 4] = [4, 6, 8, 10];

/// One row of Table I / Table II.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name (`r1` … `r5`).
    pub circuit: String,
    /// Number of sinks.
    pub sinks: usize,
    /// Number of sink groups (1 for the EXT-BST baseline row).
    pub groups: usize,
    /// Algorithm label.
    pub algorithm: String,
    /// Total routed wirelength (µm).
    pub wirelength: f64,
    /// Reduction vs. the circuit's EXT-BST baseline (fraction; negative
    /// means more wire).
    pub reduction: f64,
    /// Maximum skew over all sink pairs, in ps (the paper's by-product
    /// inter-group offsets for AST rows).
    pub max_skew_ps: f64,
    /// Wall-clock routing time in seconds: the pipeline's own per-stage
    /// accounting (group + merge + embed + repair, audit excluded). The
    /// group-count portfolio routes through `route_batch`, so on a
    /// multicore host rows of one circuit route concurrently and their
    /// wall-clocks include contention — treat this column as indicative;
    /// `perfbench` is the runtime measurement.
    pub cpu_s: f64,
}

/// Which partitioner a table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// Rectangle-box clusters (Table I).
    Clustered,
    /// Random intermingled assignment (Table II).
    Intermingled,
}

impl PartitionMode {
    fn apply(self, p: &Placement, k: usize, seed: u64) -> Instance {
        match self {
            PartitionMode::Clustered => partition::clustered(p, k, seed),
            PartitionMode::Intermingled => partition::intermingled(p, k, seed),
        }
        .expect("synthetic partitions are valid")
    }
}

/// Builds one [`Row`] from a traced routing outcome: wirelength, skew and
/// per-stage wall-clock all come from the pipeline's own accounting
/// instead of an external timer and a second audit.
fn row_from(
    p: &Placement,
    groups: usize,
    algorithm: &str,
    out: &RouteOutcome,
    baseline: f64,
) -> Row {
    Row {
        circuit: p.name.clone(),
        sinks: p.sinks.len(),
        groups,
        algorithm: algorithm.to_string(),
        wirelength: out.report.wirelength(),
        reduction: 1.0 - out.report.wirelength() / baseline,
        max_skew_ps: out.report.global_skew() * 1e12,
        cpu_s: out.stats.route_seconds(),
    }
}

/// Runs one circuit of a table: the EXT-BST baseline followed by AST-DME
/// at each group count, all over the same placement.
///
/// Following the paper's comparison, both algorithms operate at the same
/// 10 ps bound — EXT-BST globally, AST-DME per group (with inter-group
/// skew unconstrained). The group-count portfolio routes through the
/// fleet layer ([`route_batch`]) — the same code path `examples/fleet.rs`
/// drives — so timing comes from the
/// pipeline's per-stage stats, not a hand-held stopwatch.
pub fn run_circuit(bench: RBench, mode: PartitionMode, seed: u64) -> Vec<Row> {
    let placement = r_benchmark(bench, seed);
    let mut rows = Vec::new();

    let single = partition::single(&placement).expect("single partition valid");
    let baseline_out = route_batch(std::slice::from_ref(&single), &ExtBst::new(PAPER_BOUND))
        .pop()
        .expect("one outcome per instance")
        .expect("EXT-BST routes the baseline");
    let baseline = baseline_out.report.wirelength();
    rows.push(row_from(&placement, 1, "EXT-BST", &baseline_out, baseline));

    let instances: Vec<Instance> = GROUP_COUNTS
        .iter()
        .map(|&k| {
            let inst = mode.apply(&placement, k, seed.wrapping_add(k as u64));
            inst.with_groups(
                inst.groups()
                    .clone()
                    .with_uniform_bound(PAPER_BOUND)
                    .expect("bound is valid"),
            )
            .expect("regrouping is valid")
        })
        .collect();
    for (&k, out) in GROUP_COUNTS
        .iter()
        .zip(route_batch(&instances, &AstDme::new()))
    {
        let out = out.expect("AST-DME routes");
        assert!(
            out.report.max_intra_group_skew() <= PAPER_BOUND * (1.0 + 1e-6),
            "intra-group constraint violated: {}",
            out.report.max_intra_group_skew()
        );
        rows.push(row_from(&placement, k, "AST-DME", &out, baseline));
    }
    rows
}

/// Runs a full table over the given circuits.
pub fn run_table(mode: PartitionMode, benches: &[RBench], seed: u64) -> Vec<Row> {
    benches
        .iter()
        .flat_map(|&b| run_circuit(b, mode, seed))
        .collect()
}

/// Formats rows in the layout of the paper's tables (markdown).
pub fn to_markdown(rows: &[Row]) -> String {
    let mut out = String::from(
        "| Circuit | #groups | Algorithm | Wirelen (um) | Reduction | Max skew (ps) | CPU (s) |\n\
         |---------|---------|-----------|--------------|-----------|---------------|---------|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} ({} sinks) | {} | {} | {:.0} | {} | {:.1} | {:.2} |\n",
            r.circuit,
            r.sinks,
            r.groups,
            r.algorithm,
            r.wirelength,
            if r.algorithm == "EXT-BST" {
                "—".to_string()
            } else {
                format!("{:.2}%", r.reduction * 100.0)
            },
            r.max_skew_ps,
            r.cpu_s
        ));
    }
    out
}

/// Serializes rows as a JSON array for machine consumption.
pub fn to_json(rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            json::object(
                &[
                    json::field("circuit", json::quote(&r.circuit)),
                    json::field("sinks", format!("{}", r.sinks)),
                    json::field("groups", format!("{}", r.groups)),
                    json::field("algorithm", json::quote(&r.algorithm)),
                    json::field("wirelength_um", json::number(r.wirelength)),
                    json::field("reduction", json::number(r.reduction)),
                    json::field("max_skew_ps", json::number(r.max_skew_ps)),
                    json::field("cpu_s", json::number(r.cpu_s)),
                ],
                2,
            )
        })
        .collect();
    json::array(&items, 0)
}

/// Circuits to run given a `--quick` flag: r1–r3 quick, all five otherwise.
pub fn circuits(quick: bool) -> Vec<RBench> {
    if quick {
        vec![RBench::R1, RBench::R2, RBench::R3]
    } else {
        RBench::ALL.to_vec()
    }
}

/// Parses `--quick` / `--json` flags from argv.
pub fn flags() -> (bool, bool) {
    let args: Vec<String> = std::env::args().collect();
    (
        args.iter().any(|a| a == "--quick"),
        args.iter().any(|a| a == "--json"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_circuit_produces_baseline_plus_group_rows() {
        // Smallest circuit, clustered (cheapest) to keep the test fast.
        let rows = run_circuit(RBench::R1, PartitionMode::Clustered, 3);
        assert_eq!(rows.len(), 1 + GROUP_COUNTS.len());
        assert_eq!(rows[0].algorithm, "EXT-BST");
        assert_eq!(rows[0].reduction, 0.0);
        for r in &rows[1..] {
            assert_eq!(r.algorithm, "AST-DME");
            assert!(r.wirelength > 0.0);
        }
    }

    #[test]
    fn markdown_and_json_render() {
        let rows = vec![Row {
            circuit: "r1".into(),
            sinks: 267,
            groups: 4,
            algorithm: "AST-DME".into(),
            wirelength: 1_000_000.0,
            reduction: 0.05,
            max_skew_ps: 42.0,
            cpu_s: 1.5,
        }];
        let md = to_markdown(&rows);
        assert!(md.contains("| r1 (267 sinks) | 4 | AST-DME | 1000000 | 5.00% | 42.0 | 1.50 |"));
        let js = to_json(&rows);
        assert!(js.contains("\"reduction\": 0.05"));
    }

    #[test]
    fn circuit_selection() {
        assert_eq!(circuits(true).len(), 3);
        assert_eq!(circuits(false).len(), 5);
    }
}
