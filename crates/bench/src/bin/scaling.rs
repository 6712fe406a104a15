//! Scaling bench: incremental vs from-scratch merge planning.
//!
//! Routes synthetic intermingled instances at n ∈ {250, 1000, 4000} with
//! both drivers (`run_bottom_up` on the incremental `MergePlanner`,
//! `run_bottom_up_from_scratch` on the reference planner) under both merge
//! orders, asserts that both drivers route the same wirelength, and writes
//! `BENCH_scaling.json` at the repo root. Timings are recorded, never
//! asserted; end-to-end, fleet, ECO and sweep timings live in
//! `perfbench`.
//!
//! Usage: `scaling [--quick] [--out PATH] [--sizes a,b,c] [--alloc-budget N]`
//!
//! * `--quick` — n = 250 only (the CI smoke run);
//! * `--out`   — output path (default `BENCH_scaling.json`);
//! * `--sizes` — comma-separated instance sizes overriding the default;
//! * `--alloc-budget` — fail (exit 1) if any `allocs_per_merge`
//!   measurement exceeds `N`. Allocation counts are deterministic, so this
//!   is a CI-stable regression gate where timings would flake.
//!
//! The binary runs under a counting global allocator; every run emits an
//! `allocs_per_merge` section recording total allocations per merge for
//! the incremental planner under both merge orders (with the candidates
//! the finished forest retains), and a
//! `planner_counters` section with the merge stage's deterministic planner
//! counters (rounds, grid builds, grid neighbor queries) for the same
//! routes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::time::Instant;

use astdme_bench::{json, PAPER_BOUND};
use astdme_core::{
    run_bottom_up, run_bottom_up_from_scratch, AstDme, ClockRouter, DelayModel, EngineConfig,
    Instance, NodeId, StageStats, TopoConfig,
};
use astdme_instances::{partition, synthetic_instance};

/// Counting wrapper around the system allocator: every `alloc`/`realloc`
/// bumps the calling thread's [`astdme_core::allocmeter`] counter. Unlike
/// wall-clock timings, the counts are deterministic for a fixed code path,
/// which makes `allocs_per_merge` a regressable number — the witness that
/// the merge hot path performs O(1) amortized allocations per merge (no
/// per-pair scratch or delay-map allocations). Per-thread counting keeps
/// pool workers and other threads out of the measured deltas.
///
/// `tests/alloc_budget.rs` (repo root) carries a twin of this impl — the
/// library crates forbid `unsafe_code`, so the two binaries each host
/// their own copy; keep them counting the same events.
struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        astdme_core::allocmeter::on_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        astdme_core::allocmeter::on_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread has made (monotone; read deltas around a region).
fn alloc_count() -> u64 {
    astdme_core::allocmeter::current()
}

/// Default sink counts, straddling the paper's r1–r5 range (267–3101).
const DEFAULT_SIZES: [usize; 3] = [250, 1000, 4000];

/// Group count for the synthetic instances (intermingled, as in Table II).
const GROUPS: usize = 4;

const SEED: u64 = 2006;

#[derive(Debug, Clone)]
struct Measurement {
    n: usize,
    planner: &'static str,
    order: &'static str,
    seconds: f64,
    merges_per_sec: f64,
    wirelength_um: f64,
}

/// One allocation-count measurement (incremental planner, fast preset):
/// total allocations across the bottom-up merge loop, divided by the
/// `n - 1` merges it performs, and the candidates the finished forest
/// retains over all its nodes (a consumed node keeps only those its
/// parent references).
#[derive(Debug, Clone)]
struct AllocMeasurement {
    n: usize,
    order: &'static str,
    total_allocs: u64,
    allocs_per_merge: f64,
    retained_candidates: usize,
}

fn instance(n: usize) -> Instance {
    let p = synthetic_instance(n, SEED, &format!("s{n}"));
    let inst = partition::intermingled(&p, GROUPS, SEED ^ 0xBEEF).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(PAPER_BOUND)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

fn route(inst: &Instance, topo: &TopoConfig, from_scratch: bool) -> (f64, f64) {
    let model = DelayModel::elmore(*inst.rc());
    // The budget preset: the engine's per-merge work is identical for both
    // planners, so the cheaper it is, the more honestly the measurement
    // isolates planning cost — which is what this bench tracks.
    let engine = EngineConfig::fast();
    let t0 = Instant::now();
    let (forest, root) = if from_scratch {
        run_bottom_up_from_scratch(inst, model, engine, topo)
    } else {
        run_bottom_up(inst, model, engine, topo)
    };
    let secs = t0.elapsed().as_secs_f64();
    let tree = forest.embed(root, inst.source());
    (secs, tree.total_wirelength())
}

fn measure(n: usize, inst: &Instance) -> Vec<Measurement> {
    // Alternate the two planners and keep each one's best of [`REPS`]
    // runs: a single fixed-order sample bakes run-order bias (allocator /
    // page-cache warmth) into the recorded speedup. The from-scratch
    // planner is O(n²)+ in greedy order, so its rep count shrinks to one
    // once a single run is slow enough for noise not to matter.
    const REPS: usize = 5;
    const SINGLE_REP_ABOVE_SECS: f64 = 30.0;
    let mut out = Vec::new();
    for (order_name, topo) in [
        ("greedy", TopoConfig::greedy()),
        ("multi_merge", TopoConfig::default()),
    ] {
        let variants = [("incremental", false), ("from_scratch", true)];
        let mut best = [f64::INFINITY; 2];
        let mut wl = [0.0f64; 2];
        for rep in 0..REPS {
            for (slot, &(_, from_scratch)) in variants.iter().enumerate() {
                if rep > 0 && best[slot] > SINGLE_REP_ABOVE_SECS {
                    continue;
                }
                let (secs, w) = route(inst, &topo, from_scratch);
                best[slot] = best[slot].min(secs);
                wl[slot] = w;
            }
        }
        for (slot, &(planner, _)) in variants.iter().enumerate() {
            let (secs, wl) = (best[slot], wl[slot]);
            eprintln!(
                "n={n:>6} {order_name:<12} {planner:<13} {secs:>9.3}s  {:>12.0} merges/s  wl {wl:.0}",
                (n - 1) as f64 / secs
            );
            out.push(Measurement {
                n,
                planner,
                order: order_name,
                seconds: secs,
                merges_per_sec: (n - 1) as f64 / secs,
                wirelength_um: wl,
            });
        }
        // The planners must route the same tree: wirelength is the
        // end-to-end witness.
        let wls: Vec<f64> = out
            .iter()
            .filter(|m| m.n == n && m.order == order_name)
            .map(|m| m.wirelength_um)
            .collect();
        assert!(
            (wls[0] - wls[1]).abs() <= 1e-6 * wls[0].max(1.0),
            "planners diverged at n={n} {order_name}: {} vs {}",
            wls[0],
            wls[1]
        );
    }
    out
}

/// Counts allocations across one bottom-up route per merge order
/// (incremental planner, fast preset — the same configuration the timing
/// runs use). The count spans `run_bottom_up` only: leaf/planner setup
/// amortizes over the merges, embedding is excluded (it is not the merge
/// hot path). Deterministic for a fixed build, so the JSON section is a
/// regression baseline, not a wall-clock estimate.
fn measure_allocs(n: usize, inst: &Instance) -> Vec<AllocMeasurement> {
    let model = DelayModel::elmore(*inst.rc());
    let engine = EngineConfig::fast();
    let mut out = Vec::new();
    for (order_name, topo) in [
        ("greedy", TopoConfig::greedy()),
        ("multi_merge", TopoConfig::default()),
    ] {
        let a0 = alloc_count();
        let (forest, _root) = run_bottom_up(inst, model, engine, &topo);
        let total_allocs = alloc_count() - a0;
        let allocs_per_merge = total_allocs as f64 / (n - 1) as f64;
        let retained_candidates = (0..forest.node_count())
            .map(|i| forest.candidates(NodeId::from_index(i)).len())
            .sum();
        eprintln!(
            "n={n:>6} {order_name:<12} allocs/merge {allocs_per_merge:7.2}  ({total_allocs} total)  \
             {retained_candidates} candidates retained"
        );
        out.push(AllocMeasurement {
            n,
            order: order_name,
            total_allocs,
            allocs_per_merge,
            retained_candidates,
        });
    }
    out
}

/// The merge stage's planner counters for one route per merge order (the
/// configuration the timing and allocation runs use, routed through the
/// pipeline so the counters come from its merge-stage [`StageStats`]).
/// Deterministic for a fixed build, like the allocation counts.
fn measure_counters(n: usize, inst: &Instance) -> Vec<(usize, &'static str, StageStats)> {
    let mut out = Vec::new();
    for (order_name, topo) in [
        ("greedy", TopoConfig::greedy()),
        ("multi_merge", TopoConfig::default()),
    ] {
        let router = AstDme::new()
            .with_engine(EngineConfig::fast())
            .with_topo(topo);
        let m = router.route_traced(inst).expect("routes").stats.merge;
        eprintln!(
            "n={n:>6} {order_name:<12} rounds {:>6}  grid builds {:>5}  nn queries {:>8}",
            m.rounds, m.grid_builds, m.nn_queries
        );
        out.push((n, order_name, m));
    }
    out
}

fn to_json(
    measurements: &[Measurement],
    allocs: &[AllocMeasurement],
    counters: &[(usize, &'static str, StageStats)],
) -> String {
    let items: Vec<String> = measurements
        .iter()
        .map(|m| {
            json::object(
                &[
                    json::field("n", format!("{}", m.n)),
                    json::field("planner", json::quote(m.planner)),
                    json::field("order", json::quote(m.order)),
                    json::field("seconds", json::number(m.seconds)),
                    json::field("merges_per_sec", json::number(m.merges_per_sec)),
                    json::field("wirelength_um", json::number(m.wirelength_um)),
                ],
                4,
            )
        })
        .collect();
    // Summary: per (n, order) speedup of incremental over from-scratch.
    let mut summaries = Vec::new();
    let mut sizes: Vec<usize> = measurements.iter().map(|m| m.n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for &n in &sizes {
        for order in ["greedy", "multi_merge"] {
            let find = |planner: &str| {
                measurements
                    .iter()
                    .find(|m| m.n == n && m.order == order && m.planner == planner)
                    .map(|m| m.seconds)
            };
            if let (Some(inc), Some(scratch)) = (find("incremental"), find("from_scratch")) {
                summaries.push(json::object(
                    &[
                        json::field("n", format!("{n}")),
                        json::field("order", json::quote(order)),
                        json::field("speedup", json::number(scratch / inc)),
                    ],
                    4,
                ));
            }
        }
    }
    // Allocation counts: deterministic, CI-regressable.
    let alloc_items: Vec<String> = allocs
        .iter()
        .map(|m| {
            json::object(
                &[
                    json::field("n", format!("{}", m.n)),
                    json::field("planner", json::quote("incremental")),
                    json::field("order", json::quote(m.order)),
                    json::field("engine", json::quote("fast")),
                    json::field("total_allocs", format!("{}", m.total_allocs)),
                    json::field("allocs_per_merge", json::number(m.allocs_per_merge)),
                    json::field("retained_candidates", format!("{}", m.retained_candidates)),
                ],
                4,
            )
        })
        .collect();
    // Planner counters: deterministic, CI-regressable.
    let counter_items: Vec<String> = counters
        .iter()
        .map(|(n, order, m)| {
            json::object(
                &[
                    json::field("n", format!("{n}")),
                    json::field("order", json::quote(order)),
                    json::field("engine", json::quote("fast")),
                    json::field("rounds", format!("{}", m.rounds)),
                    json::field("merges", format!("{}", m.merges)),
                    json::field("grid_builds", format!("{}", m.grid_builds)),
                    json::field("nn_queries", format!("{}", m.nn_queries)),
                ],
                4,
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"scaling\",\n  \"groups\": {GROUPS},\n  \"seed\": {SEED},\n  \"measurements\": {},\n  \"speedups\": {},\n  \"allocs_per_merge\": {},\n  \"planner_counters\": {}\n}}\n",
        json::array(&items, 2),
        json::array(&summaries, 2),
        json::array(&alloc_items, 2),
        json::array(&counter_items, 2)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());
    let sizes: Vec<usize> = match args.iter().position(|a| a == "--sizes") {
        Some(i) => args
            .get(i + 1)
            .expect("--sizes needs a comma-separated list")
            .split(',')
            .map(|s| s.trim().parse().expect("size must be an integer"))
            .collect(),
        None if quick => vec![250],
        None => DEFAULT_SIZES.to_vec(),
    };
    let alloc_budget: Option<f64> = args.iter().position(|a| a == "--alloc-budget").map(|i| {
        args.get(i + 1)
            .expect("--alloc-budget needs a number")
            .parse()
            .expect("alloc budget must be a number")
    });

    let mut measurements = Vec::new();
    let mut alloc_measurements = Vec::new();
    let mut counters = Vec::new();
    for &n in &sizes {
        let inst = instance(n);
        measurements.extend(measure(n, &inst));
        alloc_measurements.extend(measure_allocs(n, &inst));
        counters.extend(measure_counters(n, &inst));
    }
    let doc = to_json(&measurements, &alloc_measurements, &counters);
    std::fs::write(&out_path, &doc).expect("write BENCH_scaling.json");
    eprintln!("wrote {out_path}");

    if let Some(budget) = alloc_budget {
        for m in &alloc_measurements {
            assert!(
                m.allocs_per_merge <= budget,
                "allocs/merge over budget at n={} {}: {:.2} > {budget}",
                m.n,
                m.order,
                m.allocs_per_merge
            );
        }
        eprintln!("alloc budget ok: all measurements <= {budget} allocs/merge");
    }

    // Human-readable summary on stdout.
    println!("| n | order | planner | seconds | merges/s | wirelength (um) |");
    println!("|---|-------|---------|---------|----------|-----------------|");
    for m in &measurements {
        println!(
            "| {} | {} | {} | {:.3} | {:.0} | {:.0} |",
            m.n, m.order, m.planner, m.seconds, m.merges_per_sec, m.wirelength_um
        );
    }
}
