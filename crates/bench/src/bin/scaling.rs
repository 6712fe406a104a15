//! Scaling bench: incremental vs from-scratch merge planning, and ECO
//! flushes against from-scratch routes.
//!
//! Routes synthetic intermingled instances at n ∈ {250, 1000, 4000} with
//! both drivers (`run_bottom_up` on the incremental `MergePlanner`,
//! `run_bottom_up_from_scratch` on the reference planner) under both merge
//! orders, asserts that both drivers route the same wirelength, and writes
//! `BENCH_scaling.json` at the repo root. Timings are recorded, never
//! asserted; end-to-end, fleet and sweep timings live in `perfbench`.
//!
//! The `eco` section opens an `EcoSession` on the design of perfbench's
//! `eco-k1` workload (n = 16 000) and flushes cycles of k ∈ {1, 8, 64}
//! seeded sink moves, each followed by the moves back. Per cycle it times
//! both flushes and a from-scratch route of the moved instance. Per k it
//! records the median flush time, the median from-scratch route time, the
//! median over the flushes of each flush's time over its own cycle's
//! route time (a ratio of timings taken moments apart, so a slow spell
//! of a shared host moves both), the flushes that fell back to a full
//! reroute, and the median `EcoStats::scan_visits` and
//! `EcoStats::reused_nodes` per flush. A last row runs the same design
//! with sinks and moves snapped to a 10 µm lattice, where exact distance
//! ties are routine, over 20 cycles of one move (8 under `--quick`); its
//! `lattice_um` is 10 where the other rows' is `null`. Every moved flush
//! is asserted equal to its from-scratch route, and every move back to
//! the session's first tree.
//!
//! Usage: `scaling [--quick] [--out PATH] [--sizes a,b,c] [--alloc-budget N]`
//!
//! * `--quick` — n = 250 only, and the ECO section at n = 2 000 over 8
//!   cycles instead of 24 (the CI smoke run);
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
    run_bottom_up, run_bottom_up_from_scratch, AstDme, ClockRouter, DelayModel, EcoEdit,
    EcoSession, EngineConfig, Instance, NodeId, Point, Sink, StageStats, TopoConfig,
};
use astdme_instances::{partition, synthetic_instance};

/// Counting wrapper around the system allocator: every `alloc`/`realloc`
/// bumps the calling thread's [`astdme_core::allocmeter`] counter. Unlike
/// wall-clock timings, the counts are deterministic for a fixed code path,
/// which makes `allocs_per_merge` a regressable number — the witness that
/// the merge hot path performs O(1) amortized allocations per merge (no
/// per-pair scratch or delay-map allocations). Per-thread counting keeps
/// claim-loop helpers and other threads out of the measured deltas.
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

/// One ECO row: [`ECO_CYCLES`] (or [`ECO_QUICK_CYCLES`]) cycles of `k`
/// seeded moves and the moves back on the `n`-sink design, or the
/// on-lattice row's [`ECO_LATTICE_CYCLES`].
#[derive(Debug, Clone)]
struct EcoMeasurement {
    n: usize,
    k: usize,
    /// The lattice sinks and moves are snapped to, in µm, if any.
    lattice_um: Option<f64>,
    flushes: usize,
    flush_s_p50: f64,
    scratch_s_p50: f64,
    /// Median of each flush's seconds over its cycle's from-scratch route.
    flush_over_scratch: f64,
    full_reroutes: usize,
    scan_visits_p50: u64,
    reused_nodes_p50: u64,
}

/// Sinks of the ECO section's design: perfbench's `eco-k1` size, and the
/// `--quick` size.
const ECO_SINKS: usize = 16_000;
const ECO_QUICK_SINKS: usize = 2_000;
/// Sinks moved per batch.
const ECO_KS: [usize; 3] = [1, 8, 64];
/// Move-away / move-back cycles per k, and under `--quick`.
const ECO_CYCLES: usize = 24;
const ECO_QUICK_CYCLES: usize = 8;
/// Largest displacement of a moved sink along each axis, in µm (as in
/// `eco-k1`).
const ECO_MAX_SHIFT: f64 = 400.0;
/// The on-lattice row's spacing (µm) and cycles of one move.
const ECO_LATTICE_UM: f64 = 10.0;
const ECO_LATTICE_CYCLES: usize = 20;

fn instance(n: usize) -> Instance {
    let p = synthetic_instance(n, SEED, &format!("s{n}"));
    bounded(partition::intermingled(&p, GROUPS, SEED ^ 0xBEEF).expect("valid partition"))
}

/// The ECO section's design: `eco-k1`'s placement and partition seeds.
fn eco_instance(n: usize) -> Instance {
    let p = synthetic_instance(n, SEED ^ 0x0EC0, "eco-16k");
    bounded(partition::intermingled(&p, GROUPS, SEED ^ 0x5EED).expect("valid partition"))
}

/// Groups `inst` under the paper's uniform bound.
fn bounded(inst: Instance) -> Instance {
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

/// SplitMix64 step: the ECO section's seeded edit schedule.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `x` on the `lattice` (µm), if any.
fn snap(x: f64, lattice: Option<f64>) -> f64 {
    lattice.map_or(x, |s| (x / s).round() * s)
}

/// Cycle `cycle`'s batch of `k` distinct seeded moves, and the batch
/// moving them back; with a `lattice`, each move lands on it.
fn eco_cycle(
    inst: &Instance,
    k: usize,
    cycle: usize,
    lattice: Option<f64>,
) -> (Vec<EcoEdit>, Vec<EcoEdit>) {
    let mut state = SEED ^ ((k as u64) << 32) ^ cycle as u64;
    let unit = |state: &mut u64| (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    let mut sinks: Vec<usize> = Vec::with_capacity(k);
    while sinks.len() < k {
        let s = (splitmix(&mut state) % inst.sink_count() as u64) as usize;
        if !sinks.contains(&s) {
            sinks.push(s);
        }
    }
    let away = sinks
        .iter()
        .map(|&s| {
            let p = inst.sinks()[s].pos;
            let dx = ECO_MAX_SHIFT * unit(&mut state);
            let dy = ECO_MAX_SHIFT * unit(&mut state);
            EcoEdit::Move {
                sink: s,
                to: Point::new(snap(p.x + dx, lattice), snap(p.y + dy, lattice)),
            }
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

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Flushes `cycles` cycles per k on one session each, then
/// `lattice_cycles` of one move on the design snapped to
/// [`ECO_LATTICE_UM`], timing every flush and a from-scratch route of
/// every moved instance. Panics if a flush diverges from its from-scratch
/// route or a move back does not restore the first tree.
fn measure_eco(n: usize, cycles: usize, lattice_cycles: usize) -> Vec<EcoMeasurement> {
    let inst = eco_instance(n);
    let grid = Some(ECO_LATTICE_UM);
    let on_grid = |p: Point| Point::new(snap(p.x, grid), snap(p.y, grid));
    let sinks = inst
        .sinks()
        .iter()
        .map(|s| Sink::new(on_grid(s.pos), s.cap));
    let (groups, rc, source) = (inst.groups().clone(), *inst.rc(), inst.source());
    let on_lattice = Instance::new(sinks.collect(), groups, rc, source).expect("valid lattice");
    let rows = ECO_KS.iter().map(|&k| (&inst, k, cycles, None));
    let router = AstDme::new();
    let mut out = Vec::new();
    for (inst, k, cycles, lattice) in rows.chain([(&on_lattice, 1, lattice_cycles, grid)]) {
        let mut session = EcoSession::new(inst, router.plan()).expect("routes");
        let base = session.outcome().tree.clone();
        let (mut flush_s, mut scratch_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        let (mut visits, mut reused) = (Vec::new(), Vec::new());
        let mut full_reroutes = 0;
        for cycle in 0..cycles {
            let (away, back) = eco_cycle(inst, k, cycle, lattice);
            let mut cycle_flush_s = Vec::with_capacity(2);
            for (moved, batch) in [(true, away), (false, back)] {
                for edit in batch {
                    session.queue(edit);
                }
                let t0 = Instant::now();
                session.flush().expect("flushes");
                cycle_flush_s.push(t0.elapsed().as_secs_f64());
                let stats = session.last_flush();
                full_reroutes += usize::from(stats.full_reroute);
                visits.push(stats.scan_visits as f64);
                reused.push(stats.reused_nodes as f64);
                if moved {
                    let t0 = Instant::now();
                    let want = router.route_traced(session.instance()).expect("routes");
                    scratch_s.push(t0.elapsed().as_secs_f64());
                    let got = session.outcome();
                    assert!(
                        got.tree == want.tree && got.report == want.report,
                        "eco flush diverged from the from-scratch route at n={n} k={k}"
                    );
                } else {
                    assert!(
                        session.outcome().tree == base,
                        "moving back did not restore the tree at n={n} k={k}"
                    );
                }
            }
            let scratch = *scratch_s.last().expect("the cycle routed from scratch");
            ratios.extend(cycle_flush_s.iter().map(|f| f / scratch));
            flush_s.extend(cycle_flush_s);
        }
        let m = EcoMeasurement {
            n,
            k,
            lattice_um: lattice,
            flushes: flush_s.len(),
            flush_s_p50: median(&mut flush_s),
            scratch_s_p50: median(&mut scratch_s),
            flush_over_scratch: median(&mut ratios),
            full_reroutes,
            scan_visits_p50: median(&mut visits) as u64,
            reused_nodes_p50: median(&mut reused) as u64,
        };
        eprintln!(
            "eco n={n:>6} k={k:>3}  flush {:>8.4}s  scratch {:>8.4}s  ({:.2}x)  {} full reroutes  {} visits  {} reused  lattice {:?}",
            m.flush_s_p50,
            m.scratch_s_p50,
            m.flush_over_scratch,
            m.full_reroutes,
            m.scan_visits_p50,
            m.reused_nodes_p50,
            m.lattice_um
        );
        out.push(m);
    }
    out
}

fn to_json(
    measurements: &[Measurement],
    allocs: &[AllocMeasurement],
    counters: &[(usize, &'static str, StageStats)],
    eco: &[EcoMeasurement],
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
    // ECO flushes against from-scratch routes: timings recorded, the
    // reroute, visit and reused-node counts deterministic.
    let eco_items: Vec<String> = eco
        .iter()
        .map(|m| {
            json::object(
                &[
                    json::field("n", format!("{}", m.n)),
                    json::field("k", format!("{}", m.k)),
                    json::field(
                        "lattice_um",
                        m.lattice_um.map_or("null".into(), json::number),
                    ),
                    json::field("flushes", format!("{}", m.flushes)),
                    json::field("flush_s_p50", json::number(m.flush_s_p50)),
                    json::field("scratch_s_p50", json::number(m.scratch_s_p50)),
                    json::field("flush_over_scratch", json::number(m.flush_over_scratch)),
                    json::field("full_reroutes", format!("{}", m.full_reroutes)),
                    json::field("scan_visits", format!("{}", m.scan_visits_p50)),
                    json::field("reused_nodes", format!("{}", m.reused_nodes_p50)),
                ],
                4,
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"scaling\",\n  \"groups\": {GROUPS},\n  \"seed\": {SEED},\n  \"measurements\": {},\n  \"speedups\": {},\n  \"allocs_per_merge\": {},\n  \"planner_counters\": {},\n  \"eco\": {}\n}}\n",
        json::array(&items, 2),
        json::array(&summaries, 2),
        json::array(&alloc_items, 2),
        json::array(&counter_items, 2),
        json::array(&eco_items, 2)
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
    let eco = if quick {
        measure_eco(ECO_QUICK_SINKS, ECO_QUICK_CYCLES, ECO_QUICK_CYCLES)
    } else {
        measure_eco(ECO_SINKS, ECO_CYCLES, ECO_LATTICE_CYCLES)
    };
    let doc = to_json(&measurements, &alloc_measurements, &counters, &eco);
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
