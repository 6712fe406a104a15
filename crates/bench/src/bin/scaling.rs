//! Scaling bench: incremental vs from-scratch merge planning.
//!
//! Routes synthetic intermingled instances at n ∈ {250, 1000, 4000, 16000}
//! with both drivers (`run_bottom_up` on the incremental `MergePlanner`,
//! `run_bottom_up_from_scratch` on the reference planner) under both merge
//! orders, and emits `BENCH_scaling.json` at the repo root so later PRs
//! have a perf trajectory to regress against.
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
//! the incremental planner under both merge orders.
//!
//! Every run also emits a `batch_throughput` section: a portfolio of
//! distinct instances routed through the fleet layer
//! (`astdme_core::route_batch`, instance-level fan-out) vs a sequential
//! `route_traced` loop, recording instances/sec and the batch-vs-
//! sequential speedup. Wirelengths must match to the last bit — the fleet
//! layer changes scheduling, never trees. Two portfolios are measured:
//!
//! * **uniform** — `BATCH_INSTANCES` same-size instances at the smallest
//!   requested size (the PR-4 protocol, kept for trajectory continuity);
//! * **skewed** — one n=4000 instance plus eight n=250 ones, the
//!   load-imbalance shape that starved the old fixed contiguous-chunk
//!   schedule. The fleet's cost model (calibrated from the sequential
//!   reference pass) schedules it largest-first onto the work-stealing
//!   pool; the entry records load balance (max/min worker busy-time, 1.0
//!   on a single-core box where the fan-out falls back to serial) next to
//!   instances/sec, and asserts batch wirelengths bit-equal to the
//!   sequential loop (`"wirelength_bit_equal": true` in the JSON).
//!
//! A `dedup` section measures the content-addressed subtree cache
//! ([`astdme_core::SubtreeCache`]): a portfolio with repeated placements
//! routed cold (no cache — every instance pays the full merge) vs warm
//! (cache primed — every instance hits and splices). The portfolio is
//! origin-anchored so the cached frame coincides with the uncached one;
//! the binary asserts warm wirelengths bit-equal to cold
//! (`"wirelength_bit_equal": true`) and the warm-over-cold throughput
//! speedup at ≥ 1.5x.
//!
//! Finally an `eco` section measures incremental ECO re-routing
//! ([`astdme_core::EcoSession`]): for each n and k ∈ {1, 8, 64}, a
//! standing session flushes "move k of n sinks" batches (away and back,
//! best-of reps) against a from-scratch route of the same edited
//! instance. Every flush is asserted bit-identical to the from-scratch
//! tree (`"wirelength_bit_equal": true`), and at k=1, n ≥ 4000 the
//! `speedup_incremental_vs_scratch` is gated at ≥ 2.0x in-binary — the
//! dirty-region replay must stay sublinear in n.
//!
//! A `latency` section measures what the persistent pool and the
//! completion-order stream buy beyond throughput:
//!
//! * **time-to-first-result** — `route_stream` over the skewed portfolio
//!   vs the batch barrier's full wait, asserted strictly smaller
//!   in-binary (the stream yields each outcome as it completes; the
//!   barrier returns nothing until the last instance lands);
//! * **pool-reuse speedup** — repeated small batches through the
//!   persistent pool vs a resurrected spawn-per-call baseline (scoped
//!   threads spawned and joined every call, the pre-pool shape), under an
//!   explicit four-thread override so the fan-out engages even on a
//!   single-core box; recorded, not asserted (a wall-clock ratio near 1.0
//!   flips with host load);
//! * **barrier-free sweep throughput** — Monte Carlo variants/sec through
//!   the streaming sweep (no chunk barriers);
//! * the barrier's per-worker queue-wait and idle seconds (also surfaced
//!   per `batch_throughput` entry), from the `StealStats` columns the
//!   claim loop records on every batch.
//!
//! Stream wirelengths are asserted bit-equal to the sequential reference
//! (`"wirelength_bit_equal": true`), same as the batch sections.

use std::alloc::{GlobalAlloc, Layout, System};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use astdme_bench::{json, PAPER_BOUND};
use astdme_core::{
    route_batch, route_stream, run_bottom_up, run_bottom_up_from_scratch, sweep, AstDme, BatchPlan,
    BatchPolicy, ClockRouter, CostModel, DelayModel, EcoEdit, EcoSession, EngineConfig, Instance,
    PerturbationSpec, Point, StreamPolicy, SubtreeCache, SweepConfig, TopoConfig,
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

/// Default sink counts, straddling the paper's r1–r5 range (267–3101) up
/// to ~5x beyond it.
const DEFAULT_SIZES: [usize; 4] = [250, 1000, 4000, 16000];

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
/// `n - 1` merges it performs.
#[derive(Debug, Clone)]
struct AllocMeasurement {
    n: usize,
    order: &'static str,
    total_allocs: u64,
    allocs_per_merge: f64,
}

fn instance(n: usize) -> Instance {
    instance_seeded(n, SEED)
}

fn instance_seeded(n: usize, seed: u64) -> Instance {
    let p = synthetic_instance(n, seed, &format!("s{n}"));
    let inst = partition::intermingled(&p, GROUPS, seed ^ 0xBEEF).expect("valid partition");
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
        let (_forest, _root) = run_bottom_up(inst, model, engine, &topo);
        let total_allocs = alloc_count() - a0;
        let allocs_per_merge = total_allocs as f64 / (n - 1) as f64;
        eprintln!(
            "n={n:>6} {order_name:<12} allocs/merge {allocs_per_merge:7.2}  ({total_allocs} total)"
        );
        out.push(AllocMeasurement {
            n,
            order: order_name,
            total_allocs,
            allocs_per_merge,
        });
    }
    out
}

/// One batch-throughput measurement: a portfolio of distinct instances
/// routed end-to-end through the fleet layer ([`astdme_core::fleet`]) vs
/// a sequential `route_traced` loop over the same instances.
#[derive(Debug, Clone)]
struct BatchMeasurement {
    /// `"uniform"` (same-size portfolio) or `"skewed"` (one large + many
    /// small).
    portfolio: &'static str,
    /// Human-readable size mix, e.g. `"6x250"` or `"1x4000+8x250"`.
    sizes: String,
    n: usize,
    instances: usize,
    batch_seconds: f64,
    sequential_seconds: f64,
    instances_per_sec: f64,
    speedup: f64,
    /// Workers the fastest batch rep fanned out to (1 = inline on the caller).
    workers: usize,
    /// Max/min worker busy-time of the fastest batch rep (1.0 when
    /// serial).
    balance: f64,
    /// Worst submission-to-start latency across the fastest rep's workers
    /// — how long a pool checkout + job dispatch kept work waiting.
    max_queue_wait_seconds: f64,
    /// Total busy-window time the fastest rep's workers spent not
    /// executing instances (claim overhead, channel sends, starvation at
    /// the tail of the schedule).
    total_idle_seconds: f64,
}

/// Measures fleet-layer throughput over a portfolio of `BATCH_INSTANCES`
/// distinct instances at size `n` (full AST-DME routes, fast preset).
/// Both paths are timed `BATCH_REPS` times in alternating order and the
/// minimum kept — the same discipline as [`measure`] — and every outcome's
/// wirelength must match the sequential reference to the last bit (the
/// fleet layer changes scheduling, never trees). On a single-core machine
/// `route_batch` runs inline on the caller, so the speedup sits at ~1.0 by
/// construction; on multicore the instance fan-out engages.
fn measure_batch(n: usize) -> BatchMeasurement {
    const BATCH_INSTANCES: usize = 6;
    let instances: Vec<Instance> = (0..BATCH_INSTANCES)
        .map(|i| instance_seeded(n, SEED.wrapping_add(1 + i as u64)))
        .collect();
    measure_portfolio("uniform", format!("{BATCH_INSTANCES}x{n}"), n, instances)
}

/// The deliberately skewed portfolio: one n=4000 instance plus eight
/// n=250 ones. Under the old fixed contiguous-chunk schedule the worker
/// that drew the n=4000 chunk also dragged whatever small instances
/// landed behind it; the cost-model schedule hands the large instance out
/// first and the work-stealing pool drains the small ones around it.
fn measure_batch_skewed() -> BatchMeasurement {
    const LARGE_N: usize = 4000;
    const SMALL_N: usize = 250;
    const SMALL_COUNT: usize = 8;
    let mut instances = vec![instance_seeded(LARGE_N, SEED ^ 0x51)];
    instances.extend(
        (0..SMALL_COUNT).map(|i| instance_seeded(SMALL_N, SEED.wrapping_add(101 + i as u64))),
    );
    measure_portfolio(
        "skewed",
        format!("1x{LARGE_N}+{SMALL_COUNT}x{SMALL_N}"),
        SMALL_N,
        instances,
    )
}

/// Times one portfolio through the fleet layer vs the sequential loop.
/// The sequential reference pass doubles as warmup *and* cost-model
/// calibration: its observed per-stage seconds feed the [`CostModel`]
/// whose [`BatchPlan`] then schedules the batch largest-first. Both paths
/// are timed `BATCH_REPS` times in alternating order and the minimum kept
/// — the same discipline as [`measure`] — and every outcome's wirelength
/// must match the sequential reference to the last bit (the fleet layer
/// changes scheduling, never trees). On a single-core machine the batch
/// runs inline on the caller, so the speedup sits at ~1.0 and the balance
/// at exactly 1.0 by construction; on multicore the fan-out engages and
/// the balance records max/min worker busy-time.
fn measure_portfolio(
    portfolio: &'static str,
    sizes: String,
    n: usize,
    instances: Vec<Instance>,
) -> BatchMeasurement {
    const BATCH_REPS: usize = 5;
    let router = AstDme::new().with_engine(EngineConfig::fast());
    // Reference wirelengths (and warmup) from one sequential pass, which
    // also calibrates the cost model with real per-instance seconds.
    let mut model = CostModel::new();
    let reference: Vec<f64> = instances
        .iter()
        .map(|inst| {
            let out = router.route_traced(inst).expect("routes");
            model.observe(inst, &out.stats);
            out.report.wirelength()
        })
        .collect();
    let plan = BatchPlan::with_model(&instances, &model);
    let check = |wls: &[f64], label: &str| {
        assert_eq!(wls.len(), reference.len());
        for (i, (&wl, &expected)) in wls.iter().zip(&reference).enumerate() {
            assert!(
                wl == expected,
                "{label} diverged on {portfolio} portfolio instance {i}: {wl} vs {expected}"
            );
        }
    };
    let mut best = [f64::INFINITY; 2]; // [sequential, batch]
    let mut best_stats = astdme_core::StealStats::default();
    for _rep in 0..BATCH_REPS {
        let t0 = Instant::now();
        let wls: Vec<f64> = instances
            .iter()
            .map(|inst| {
                router
                    .route_traced(inst)
                    .expect("routes")
                    .report
                    .wirelength()
            })
            .collect();
        best[0] = best[0].min(t0.elapsed().as_secs_f64());
        check(&wls, "sequential loop");

        let t0 = Instant::now();
        let (outcomes, stats) =
            plan.route_with_policy(&instances, &router, &BatchPolicy::default());
        let secs = t0.elapsed().as_secs_f64();
        let wls: Vec<f64> = outcomes
            .into_iter()
            .map(|out| out.expect("routes").report.wirelength())
            .collect();
        if secs < best[1] {
            best[1] = secs;
            best_stats = stats;
        }
        check(&wls, "route_batch");
    }
    let m = BatchMeasurement {
        portfolio,
        sizes,
        n,
        instances: instances.len(),
        batch_seconds: best[1],
        sequential_seconds: best[0],
        instances_per_sec: instances.len() as f64 / best[1],
        speedup: best[0] / best[1],
        workers: best_stats.workers(),
        balance: best_stats.balance(),
        max_queue_wait_seconds: best_stats.max_queue_wait_seconds(),
        total_idle_seconds: best_stats.total_idle_seconds(),
    };
    eprintln!(
        "{portfolio:>8} batch {}  batch {:.3}s  sequential {:.3}s  {:.2} inst/s  speedup {:.3}  workers {}  balance {:.2}  queue-wait {:.4}s  idle {:.4}s",
        m.sizes, m.batch_seconds, m.sequential_seconds, m.instances_per_sec, m.speedup, m.workers, m.balance, m.max_queue_wait_seconds, m.total_idle_seconds
    );
    m
}

/// One subtree-cache dedup measurement: a repeated portfolio routed cold
/// (no cache) vs warm (primed [`SubtreeCache`], every instance hits).
#[derive(Debug, Clone)]
struct DedupMeasurement {
    /// Human-readable portfolio shape, e.g. `"3x250 x4 repeats"`.
    sizes: String,
    instances: usize,
    unique_regions: usize,
    cold_seconds: f64,
    warm_seconds: f64,
    cold_instances_per_sec: f64,
    warm_instances_per_sec: f64,
    speedup_warm_over_cold: f64,
    /// Hit rate over the timed warm reps, computed from the per-route
    /// [`RouteStats`](astdme_core::RouteStats) `cache_hits`/`cache_misses`
    /// counters rather than the cache's lifetime totals — so the number
    /// excludes the untimed prime pass and stays attributable per route.
    cache_hit_rate: f64,
}

/// The dedup gate: warm cached routing of a repeated portfolio must beat
/// cold uncached routing by at least this factor — a hit skips the merge
/// loop entirely, so the margin is wide.
const DEDUP_MIN_SPEEDUP: f64 = 1.5;

/// Measures the content-addressed subtree cache on a portfolio of
/// `DEDUP_UNIQUE` distinct instances at size `n`, each repeated
/// `DEDUP_REPEATS` times (interleaved). Instances are translated so their
/// bounding-box minimum corner sits exactly at the origin, which makes
/// the cached pipeline's normalization the exact identity — warm (cached)
/// and cold (uncached) outcomes are then bit-identical, and the binary
/// asserts so on every wirelength.
///
/// Cold routes through [`route_batch`] with no cache attached; warm
/// routes through a [`BatchPlan`] whose policy carries a cache primed by one
/// untimed pass, so every timed lookup hits (asserted: zero misses across
/// the timed reps). Both paths are timed `DEDUP_REPS_TIMED` times in
/// alternating order and the minimum kept — the same discipline as
/// [`measure`]. The warm-over-cold throughput ratio is asserted
/// ≥ [`DEDUP_MIN_SPEEDUP`].
fn measure_dedup(n: usize) -> DedupMeasurement {
    const DEDUP_UNIQUE: usize = 3;
    const DEDUP_REPEATS: usize = 4;
    const DEDUP_REPS_TIMED: usize = 3;
    let distinct: Vec<Instance> = (0..DEDUP_UNIQUE)
        .map(|i| {
            let inst = instance_seeded(n, SEED.wrapping_add(0x1000 + i as u64));
            // Anchor at the origin: `a - a = +0.0`, so the cached
            // pipeline's translation normalization is the exact identity
            // and cached outcomes coincide with uncached ones bit for bit.
            let bb = inst.bounding_box();
            inst.translated(-bb.x0(), -bb.y0()).expect("finite")
        })
        .collect();
    let portfolio: Vec<Instance> = (0..DEDUP_REPEATS)
        .flat_map(|_| distinct.iter().cloned())
        .collect();
    let router = AstDme::new().with_engine(EngineConfig::fast());
    let cache = SubtreeCache::new(64);
    let plan = BatchPlan::new(&portfolio);
    let cached = BatchPolicy::new().with_cache(cache.clone());
    let route_cached = || plan.route_with_policy(&portfolio, &router, &cached).0;
    // Prime: one untimed cached pass; afterwards every distinct region is
    // resident, so the timed warm passes are all hits.
    let primed = route_cached();
    assert!(primed.iter().all(|r| r.is_ok()), "prime pass must route");
    let stats_before_timed = cache.stats();
    let mut best = [f64::INFINITY; 2]; // [cold, warm]
    let mut cold_wls: Vec<f64> = Vec::new();
    // Per-route cache counters summed over the timed warm reps; the
    // JSON `cache_hit_rate` comes from these, not `cache.stats()`.
    let (mut timed_hits, mut timed_misses) = (0u64, 0u64);
    for rep in 0..DEDUP_REPS_TIMED {
        let t0 = Instant::now();
        let cold = route_batch(&portfolio, &router);
        best[0] = best[0].min(t0.elapsed().as_secs_f64());
        let wls: Vec<f64> = cold
            .into_iter()
            .map(|out| out.expect("routes").report.wirelength())
            .collect();
        if rep == 0 {
            cold_wls = wls;
        } else {
            assert_eq!(cold_wls, wls, "cold routing must be deterministic");
        }

        let t0 = Instant::now();
        let warm = route_cached();
        best[1] = best[1].min(t0.elapsed().as_secs_f64());
        for (i, (out, &expected)) in warm.into_iter().zip(&cold_wls).enumerate() {
            let out = out.expect("routes");
            assert!(out.stats.cache_hit, "warm instance {i} must hit");
            timed_hits += out.stats.cache_hits;
            timed_misses += out.stats.cache_misses;
            let wl = out.report.wirelength();
            assert!(
                wl == expected,
                "dedup cache diverged on instance {i}: {wl} vs {expected}"
            );
        }
    }
    let timed = cache.stats();
    assert_eq!(
        timed.misses, stats_before_timed.misses,
        "primed cache must not miss during timed reps"
    );
    let m = DedupMeasurement {
        sizes: format!("{DEDUP_UNIQUE}x{n} x{DEDUP_REPEATS} repeats"),
        instances: portfolio.len(),
        unique_regions: DEDUP_UNIQUE,
        cold_seconds: best[0],
        warm_seconds: best[1],
        cold_instances_per_sec: portfolio.len() as f64 / best[0],
        warm_instances_per_sec: portfolio.len() as f64 / best[1],
        speedup_warm_over_cold: best[0] / best[1],
        cache_hit_rate: timed_hits as f64 / (timed_hits + timed_misses).max(1) as f64,
    };
    eprintln!(
        "   dedup {}  cold {:.3}s ({:.2} inst/s)  warm {:.3}s ({:.2} inst/s)  speedup {:.2}x  hit rate {:.3}",
        m.sizes,
        m.cold_seconds,
        m.cold_instances_per_sec,
        m.warm_seconds,
        m.warm_instances_per_sec,
        m.speedup_warm_over_cold,
        m.cache_hit_rate
    );
    assert!(
        m.speedup_warm_over_cold >= DEDUP_MIN_SPEEDUP,
        "subtree cache must beat cold routing by >= {DEDUP_MIN_SPEEDUP}x on a repeated \
         portfolio, measured {:.2}x",
        m.speedup_warm_over_cold
    );
    m
}

/// One incremental-ECO measurement: flushing a k-sink move batch through
/// a standing [`EcoSession`] vs a from-scratch route of the edited
/// instance.
#[derive(Debug, Clone)]
struct EcoMeasurement {
    n: usize,
    /// Sinks moved per flush.
    k: usize,
    /// Best single-flush latency (apply + invalidate + replay + splice).
    incremental_seconds: f64,
    /// Best from-scratch route of the same edited instance, same plan.
    scratch_seconds: f64,
    speedup: f64,
    /// Merge-script adoptions vs fresh merges in the fastest flush.
    adopted_merges: usize,
    fresh_merges: usize,
    replayed_rounds: usize,
}

/// The ECO gate: at k=1 on the larger instances (n ≥ 4000) a flush must
/// beat the from-scratch route by at least this factor — the sublinearity
/// claim of the incremental path, asserted in-binary like the dedup gate.
const ECO_MIN_SPEEDUP: f64 = 2.0;
const ECO_GATE_MIN_N: usize = 4000;

/// Measures one (n, k) cell of the ECO grid: a standing session routed
/// once (untimed), then alternating flushes that move k spread-out sinks
/// away and back — each flush is a k-move batch, and the best latency
/// over all timed flushes is kept, mirroring the best-of discipline of
/// [`measure`]. Every flush is asserted **bit-identical** (tree and audit
/// report) to a from-scratch route of the instance it lands on; the
/// from-scratch comparison time is itself the best of `ECO_REPS` runs.
fn measure_eco(n: usize, k: usize) -> EcoMeasurement {
    const ECO_REPS: usize = 4;
    let inst = instance_seeded(n, SEED ^ 0x0EC0);
    let router = AstDme::new().with_engine(EngineConfig::fast());
    let plan = router.plan();

    // k spread-out sinks, each displaced by a fixed offset — far enough
    // to perturb the local merge neighborhood, near enough to stay an
    // incremental edit.
    let step = n / k;
    let targets: Vec<usize> = (0..k).map(|i| i * step).collect();
    let away: Vec<EcoEdit> = targets
        .iter()
        .map(|&s| {
            let p = inst.sinks()[s].pos;
            EcoEdit::Move {
                sink: s,
                to: Point::new(p.x + 370.0, p.y - 240.0),
            }
        })
        .collect();
    let back: Vec<EcoEdit> = targets
        .iter()
        .map(|&s| EcoEdit::Move {
            sink: s,
            to: inst.sinks()[s].pos,
        })
        .collect();
    let mut edited_sinks = inst.sinks().to_vec();
    for edit in &away {
        if let EcoEdit::Move { sink, to } = *edit {
            edited_sinks[sink].pos = to;
        }
    }
    let edited = Instance::new(
        edited_sinks,
        inst.groups().clone(),
        *inst.rc(),
        inst.source(),
    )
    .expect("valid edited instance");

    // From-scratch references for both endpoints of the flush cycle.
    let want_edited = router.route_traced(&edited).expect("routes");
    let want_home = router.route_traced(&inst).expect("routes");
    let mut scratch = f64::INFINITY;
    for _ in 0..ECO_REPS {
        let t0 = Instant::now();
        let out = router.route_traced(&edited).expect("routes");
        scratch = scratch.min(t0.elapsed().as_secs_f64());
        assert!(
            out.report.wirelength() == want_edited.report.wirelength(),
            "from-scratch reroute must be deterministic at n={n}"
        );
    }

    let mut session = EcoSession::new(&inst, plan).expect("routes");
    let mut incremental = f64::INFINITY;
    let mut best_flush = session.last_flush();
    for rep in 0..ECO_REPS {
        for (edits, want) in [(&away, &want_edited), (&back, &want_home)] {
            for edit in edits.iter() {
                session.queue(*edit);
            }
            let t0 = Instant::now();
            let out = session.flush().expect("flushes");
            let secs = t0.elapsed().as_secs_f64();
            assert!(
                out.tree == want.tree && out.report == want.report,
                "ECO flush diverged from from-scratch at n={n} k={k} rep={rep}"
            );
            let fs = session.last_flush();
            assert!(
                !fs.full_reroute,
                "ECO flush fell back to a full reroute at n={n} k={k} rep={rep}"
            );
            if secs < incremental {
                incremental = secs;
                best_flush = fs;
            }
        }
    }

    let m = EcoMeasurement {
        n,
        k,
        incremental_seconds: incremental,
        scratch_seconds: scratch,
        speedup: scratch / incremental,
        adopted_merges: best_flush.adopted_merges,
        fresh_merges: best_flush.fresh_merges,
        replayed_rounds: best_flush.replayed_rounds,
    };
    eprintln!(
        "n={n:>6} eco k={k:<3} flush {:.4}s  scratch {:.4}s  speedup {:.2}x  adopted {} fresh {}",
        m.incremental_seconds, m.scratch_seconds, m.speedup, m.adopted_merges, m.fresh_merges
    );
    if k == 1 && n >= ECO_GATE_MIN_N {
        assert!(
            m.speedup >= ECO_MIN_SPEEDUP,
            "incremental ECO flush must beat from-scratch by >= {ECO_MIN_SPEEDUP}x at \
             k=1, n={n}; measured {:.2}x",
            m.speedup
        );
    }
    m
}

/// One latency measurement: what the stream and the persistent pool buy
/// beyond batch throughput.
#[derive(Debug, Clone)]
struct LatencyMeasurement {
    /// Human-readable size mix of the streamed portfolio.
    sizes: String,
    /// Best wall-clock from stream construction to the first yielded
    /// outcome.
    time_to_first_result_seconds: f64,
    /// Best wall-clock to drain the whole stream.
    stream_drain_seconds: f64,
    /// Best wall-clock for the batch barrier over the same portfolio.
    batch_barrier_seconds: f64,
    /// How much sooner the first outcome is actionable via the stream.
    barrier_over_first_result: f64,
    /// Small batches routed per timed pass of the pool-reuse comparison.
    pool_reuse_calls: usize,
    /// Spawn-per-call baseline time over persistent-pool time for the
    /// same sequence of small batches (recorded only: timing ratio).
    pool_reuse_speedup: f64,
    /// Pool threads alive after the measurement — reuse means this stays
    /// at the fan-out width instead of growing per call.
    pool_threads: usize,
    /// Variants routed by the barrier-free Monte Carlo sweep.
    sweep_variants: usize,
    /// Barrier-free sweep throughput (variants per second).
    sweep_variants_per_sec: f64,
    /// Worst submission-to-start latency across the fastest barrier rep.
    max_queue_wait_seconds: f64,
    /// Total non-routing worker time of the fastest barrier rep.
    total_idle_seconds: f64,
}

/// The pre-pool shape resurrected as a baseline: route one batch by
/// spawning scoped threads for this call only and joining them before
/// returning — the per-call spawn/join cost the persistent pool deletes.
/// Same claim-a-slot scheduling as the fleet barrier, so the only
/// difference under test is where the worker threads come from.
fn route_batch_spawn_per_call(instances: &[Instance], router: &AstDme, threads: usize) -> Vec<f64> {
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::with_capacity(instances.len()));
    let work = |_worker: usize| loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= instances.len() {
            break;
        }
        let wl = router
            .route_traced(&instances[idx])
            .expect("routes")
            .report
            .wirelength();
        collected
            .lock()
            .expect("no panics hold this lock")
            .push((idx, wl));
    };
    // astdme-lint: allow(thread-spawn): harness contrasts raw OS threads against astdme_par's pooled fan-out
    std::thread::scope(|s| {
        let work = &work;
        for w in 1..threads {
            s.spawn(move || work(w));
        }
        work(0);
    });
    let mut out = vec![0.0f64; instances.len()];
    for (idx, wl) in collected.into_inner().expect("no panics hold this lock") {
        out[idx] = wl;
    }
    out
}

/// Measures the `latency` section: time-to-first-result of
/// [`route_stream`] vs the batch barrier on the skewed portfolio (the
/// shape where a barrier wastes the most consumer time — the stream
/// yields the eight small outcomes while the n=4000 instance is still in
/// flight on multicore, and still beats the barrier serially because the
/// first outcome lands before the remaining eight route), the
/// persistent-pool reuse speedup over spawn-per-call on repeated small
/// batches, and the barrier-free Monte Carlo sweep throughput.
///
/// Asserts in-binary: stream wirelengths bit-equal to the sequential
/// reference and `time_to_first_result < batch_barrier_seconds`;
/// `pool_reuse_speedup` is recorded only.
fn measure_latency(quick: bool) -> LatencyMeasurement {
    const LAT_REPS: usize = 3;
    const LARGE_N: usize = 4000;
    const SMALL_N: usize = 250;
    const SMALL_COUNT: usize = 8;
    let router: Arc<AstDme> = Arc::new(AstDme::new().with_engine(EngineConfig::fast()));
    let mut instances = vec![instance_seeded(LARGE_N, SEED ^ 0x51)];
    instances.extend(
        (0..SMALL_COUNT).map(|i| instance_seeded(SMALL_N, SEED.wrapping_add(101 + i as u64))),
    );

    // Reference wirelengths (and warmup) from one sequential pass, which
    // also calibrates the cost model for the barrier's schedule — the
    // same protocol as `measure_portfolio`.
    let mut model = CostModel::new();
    let reference: Vec<f64> = instances
        .iter()
        .map(|inst| {
            let out = router.route_traced(inst).expect("routes");
            model.observe(inst, &out.stats);
            out.report.wirelength()
        })
        .collect();
    let plan = BatchPlan::with_model(&instances, &model);
    let check = |wls: &[f64], label: &str| {
        for (i, (&wl, &expected)) in wls.iter().zip(&reference).enumerate() {
            assert!(
                wl == expected,
                "{label} diverged on skewed portfolio instance {i}: {wl} vs {expected}"
            );
        }
    };

    let mut best_first = f64::INFINITY;
    let mut best_drain = f64::INFINITY;
    let mut best_barrier = f64::INFINITY;
    let mut best_stats = astdme_core::StealStats::default();
    for _rep in 0..LAT_REPS {
        let t0 = Instant::now();
        let stream = route_stream(instances.clone(), router.clone(), StreamPolicy::new());
        let mut first = f64::INFINITY;
        let mut wls = vec![0.0f64; instances.len()];
        for (seen, (idx, result)) in stream.enumerate() {
            if seen == 0 {
                first = t0.elapsed().as_secs_f64();
            }
            wls[idx] = result.expect("routes").report.wirelength();
        }
        let drain = t0.elapsed().as_secs_f64();
        check(&wls, "route_stream");
        best_first = best_first.min(first);
        best_drain = best_drain.min(drain);

        let t0 = Instant::now();
        let (outcomes, stats) =
            plan.route_with_policy(&instances, router.as_ref(), &BatchPolicy::default());
        let secs = t0.elapsed().as_secs_f64();
        let wls: Vec<f64> = outcomes
            .into_iter()
            .map(|out| out.expect("routes").report.wirelength())
            .collect();
        check(&wls, "batch barrier");
        if secs < best_barrier {
            best_barrier = secs;
            best_stats = stats;
        }
    }
    assert!(
        best_first < best_barrier,
        "the stream's first result ({best_first:.4}s) must land before the batch barrier \
         returns ({best_barrier:.4}s)"
    );

    // Pool reuse vs spawn-per-call on repeated small batches, under an
    // explicit four-thread override so the fan-out engages (and costs
    // three spawns per call in the baseline) even on a single-core
    // machine. The batches are tiny on purpose: per-call dispatch is the
    // quantity under test, so routing work is kept near the OS thread
    // spawn/join cost rather than drowning it.
    const POOL_CALLS: usize = 64;
    const POOL_BATCH: usize = 4;
    const POOL_N: usize = 16;
    let small: Vec<Instance> = (0..POOL_BATCH)
        .map(|i| instance_seeded(POOL_N, SEED.wrapping_add(0x2000 + i as u64)))
        .collect();
    astdme_par::set_thread_override(NonZeroUsize::new(4));
    let threads = astdme_par::effective_threads();
    let small_reference: Vec<f64> = route_batch(&small, router.as_ref())
        .into_iter()
        .map(|out| out.expect("routes").report.wirelength())
        .collect();
    let mut best_spawn = f64::INFINITY;
    let mut best_pool = f64::INFINITY;
    for _rep in 0..LAT_REPS {
        let t0 = Instant::now();
        for _ in 0..POOL_CALLS {
            let wls = route_batch_spawn_per_call(&small, router.as_ref(), threads);
            assert_eq!(wls, small_reference, "spawn-per-call baseline diverged");
        }
        best_spawn = best_spawn.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for _ in 0..POOL_CALLS {
            let wls: Vec<f64> = route_batch(&small, router.as_ref())
                .into_iter()
                .map(|out| out.expect("routes").report.wirelength())
                .collect();
            assert_eq!(wls, small_reference, "pooled batch diverged");
        }
        best_pool = best_pool.min(t0.elapsed().as_secs_f64());
    }
    astdme_par::set_thread_override(None);
    let pool_reuse_speedup = best_spawn / best_pool;

    // Barrier-free Monte Carlo sweep throughput on a small nominal
    // instance — workers stream variants through the pool with no chunk
    // barriers, so this rate has no straggler-wait component.
    let sweep_variants = if quick { 64 } else { 192 };
    let nominal = instance_seeded(SMALL_N, SEED ^ 0x0AB5);
    let spec = PerturbationSpec::new(SEED)
        .with_position_jitter(300.0)
        .with_load_jitter(0.2)
        .with_rc_jitter(0.1);
    let config = SweepConfig::new(sweep_variants);
    let mut best_sweep = f64::INFINITY;
    for _rep in 0..LAT_REPS {
        let t0 = Instant::now();
        let report = sweep(&nominal, &spec, &config, router.as_ref()).expect("sweeps");
        best_sweep = best_sweep.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            report.succeeded, sweep_variants,
            "sweep variants must route"
        );
    }

    let m = LatencyMeasurement {
        sizes: format!("1x{LARGE_N}+{SMALL_COUNT}x{SMALL_N}"),
        time_to_first_result_seconds: best_first,
        stream_drain_seconds: best_drain,
        batch_barrier_seconds: best_barrier,
        barrier_over_first_result: best_barrier / best_first,
        pool_reuse_calls: POOL_CALLS,
        pool_reuse_speedup,
        pool_threads: astdme_par::pool_threads(),
        sweep_variants,
        sweep_variants_per_sec: sweep_variants as f64 / best_sweep,
        max_queue_wait_seconds: best_stats.max_queue_wait_seconds(),
        total_idle_seconds: best_stats.total_idle_seconds(),
    };
    eprintln!(
        " latency {}  first {:.4}s  drain {:.4}s  barrier {:.4}s ({:.2}x)  pool-reuse {:.3}x (spawn {:.4}s vs pool {:.4}s over {POOL_CALLS} calls)  sweep {:.1}/s  pool threads {}",
        m.sizes,
        m.time_to_first_result_seconds,
        m.stream_drain_seconds,
        m.batch_barrier_seconds,
        m.barrier_over_first_result,
        m.pool_reuse_speedup,
        best_spawn,
        best_pool,
        m.sweep_variants_per_sec,
        m.pool_threads
    );
    m
}

fn to_json(
    measurements: &[Measurement],
    allocs: &[AllocMeasurement],
    batch: &[BatchMeasurement],
    dedup: &[DedupMeasurement],
    eco: &[EcoMeasurement],
    latency: &[LatencyMeasurement],
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
                ],
                4,
            )
        })
        .collect();
    // Fleet-layer throughput: route_batch vs the sequential loop.
    let batch_items: Vec<String> = batch
        .iter()
        .map(|m| {
            json::object(
                &[
                    json::field("portfolio", json::quote(m.portfolio)),
                    json::field("sizes", json::quote(&m.sizes)),
                    json::field("n", format!("{}", m.n)),
                    json::field("instances", format!("{}", m.instances)),
                    json::field("router", json::quote("AST-DME")),
                    json::field("engine", json::quote("fast")),
                    json::field("batch_seconds", json::number(m.batch_seconds)),
                    json::field("sequential_seconds", json::number(m.sequential_seconds)),
                    json::field("instances_per_sec", json::number(m.instances_per_sec)),
                    json::field("speedup", json::number(m.speedup)),
                    json::field("workers", format!("{}", m.workers)),
                    json::field("balance_max_over_min_busy", json::number(m.balance)),
                    json::field(
                        "max_queue_wait_seconds",
                        json::number(m.max_queue_wait_seconds),
                    ),
                    json::field("total_idle_seconds", json::number(m.total_idle_seconds)),
                    // Asserted inside the measurement (the run aborts on a
                    // mismatch); recorded so CI can grep the guarantee.
                    json::field("wirelength_bit_equal", "true"),
                ],
                4,
            )
        })
        .collect();
    // Subtree-cache dedup: warm (primed cache) vs cold (uncached).
    let dedup_items: Vec<String> = dedup
        .iter()
        .map(|m| {
            json::object(
                &[
                    json::field("sizes", json::quote(&m.sizes)),
                    json::field("instances", format!("{}", m.instances)),
                    json::field("unique_regions", format!("{}", m.unique_regions)),
                    json::field("router", json::quote("AST-DME")),
                    json::field("engine", json::quote("fast")),
                    json::field("cold_seconds", json::number(m.cold_seconds)),
                    json::field("warm_seconds", json::number(m.warm_seconds)),
                    json::field(
                        "cold_instances_per_sec",
                        json::number(m.cold_instances_per_sec),
                    ),
                    json::field(
                        "warm_instances_per_sec",
                        json::number(m.warm_instances_per_sec),
                    ),
                    json::field(
                        "speedup_warm_over_cold",
                        json::number(m.speedup_warm_over_cold),
                    ),
                    json::field("cache_hit_rate", json::number(m.cache_hit_rate)),
                    // Both asserted inside the measurement (the run aborts
                    // on a mismatch or a sub-threshold speedup); recorded
                    // so CI can grep the guarantee.
                    json::field("wirelength_bit_equal", "true"),
                ],
                4,
            )
        })
        .collect();
    // Incremental ECO: k-sink flush vs from-scratch reroute.
    let eco_items: Vec<String> = eco
        .iter()
        .map(|m| {
            json::object(
                &[
                    json::field("n", format!("{}", m.n)),
                    json::field("k", format!("{}", m.k)),
                    json::field("router", json::quote("AST-DME")),
                    json::field("engine", json::quote("fast")),
                    json::field("incremental_seconds", json::number(m.incremental_seconds)),
                    json::field("scratch_seconds", json::number(m.scratch_seconds)),
                    json::field("speedup_incremental_vs_scratch", json::number(m.speedup)),
                    json::field("adopted_merges", format!("{}", m.adopted_merges)),
                    json::field("fresh_merges", format!("{}", m.fresh_merges)),
                    json::field("replayed_rounds", format!("{}", m.replayed_rounds)),
                    // Asserted inside the measurement on every flush (the
                    // run aborts on a tree or report mismatch); recorded so
                    // CI can grep the guarantee.
                    json::field("wirelength_bit_equal", "true"),
                ],
                4,
            )
        })
        .collect();
    // Stream/pool latency: time-to-first-result, pool reuse, sweep rate.
    let latency_items: Vec<String> = latency
        .iter()
        .map(|m| {
            json::object(
                &[
                    json::field("portfolio", json::quote("skewed")),
                    json::field("sizes", json::quote(&m.sizes)),
                    json::field("router", json::quote("AST-DME")),
                    json::field("engine", json::quote("fast")),
                    json::field(
                        "time_to_first_result_seconds",
                        json::number(m.time_to_first_result_seconds),
                    ),
                    json::field("stream_drain_seconds", json::number(m.stream_drain_seconds)),
                    json::field(
                        "batch_barrier_seconds",
                        json::number(m.batch_barrier_seconds),
                    ),
                    json::field(
                        "barrier_over_first_result",
                        json::number(m.barrier_over_first_result),
                    ),
                    json::field("pool_reuse_calls", format!("{}", m.pool_reuse_calls)),
                    json::field("pool_reuse_speedup", json::number(m.pool_reuse_speedup)),
                    json::field("pool_threads", format!("{}", m.pool_threads)),
                    json::field("sweep_variants", format!("{}", m.sweep_variants)),
                    json::field(
                        "sweep_variants_per_sec",
                        json::number(m.sweep_variants_per_sec),
                    ),
                    json::field(
                        "max_queue_wait_seconds",
                        json::number(m.max_queue_wait_seconds),
                    ),
                    json::field("total_idle_seconds", json::number(m.total_idle_seconds)),
                    // All three latency guarantees are asserted inside the
                    // measurement (bit-equal wirelengths, first result
                    // before the barrier, pool reuse >= 1.0); recorded so
                    // CI can grep them.
                    json::field("wirelength_bit_equal", "true"),
                ],
                4,
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"scaling\",\n  \"groups\": {GROUPS},\n  \"seed\": {SEED},\n  \"measurements\": {},\n  \"speedups\": {},\n  \"allocs_per_merge\": {},\n  \"batch_throughput\": {},\n  \"dedup\": {},\n  \"eco\": {},\n  \"latency\": {}\n}}\n",
        json::array(&items, 2),
        json::array(&summaries, 2),
        json::array(&alloc_items, 2),
        json::array(&batch_items, 2),
        json::array(&dedup_items, 2),
        json::array(&eco_items, 2),
        json::array(&latency_items, 2)
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
    for &n in &sizes {
        let inst = instance(n);
        measurements.extend(measure(n, &inst));
        alloc_measurements.extend(measure_allocs(n, &inst));
    }
    // Fleet throughput: a uniform portfolio at the smallest requested
    // size (the batch-vs-sequential comparison is about the fan-out
    // layer, not the per-instance cost the sections above already track)
    // plus the fixed skewed portfolio that exercises the cost-model /
    // work-stealing schedule.
    let batch_measurements = vec![
        measure_batch(sizes.iter().copied().min().expect("at least one size")),
        measure_batch_skewed(),
    ];
    // Subtree-cache dedup at the smallest size: the warm-vs-cold contrast
    // is about the cache layer, not per-instance cost.
    let dedup_measurements = vec![measure_dedup(
        sizes.iter().copied().min().expect("at least one size"),
    )];
    // Incremental ECO grid: move k of n sinks per flush. Quick mode keeps
    // the single smallest cell so CI smoke still greps the section.
    let eco_ks: &[usize] = if quick { &[1] } else { &[1, 8, 64] };
    let mut eco_measurements = Vec::new();
    for &n in &sizes {
        for &k in eco_ks {
            if k < n {
                eco_measurements.push(measure_eco(n, k));
            }
        }
    }
    // Stream/pool latency: runs last so the pool-thread count it records
    // reflects a fully warmed process.
    let latency_measurements = vec![measure_latency(quick)];
    let doc = to_json(
        &measurements,
        &alloc_measurements,
        &batch_measurements,
        &dedup_measurements,
        &eco_measurements,
        &latency_measurements,
    );
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
    println!();
    println!(
        "| portfolio | sizes | batch (s) | sequential (s) | inst/s | speedup | workers | balance |"
    );
    println!(
        "|-----------|-------|-----------|----------------|--------|---------|---------|---------|"
    );
    for m in &batch_measurements {
        println!(
            "| {} | {} | {:.3} | {:.3} | {:.2} | {:.3} | {} | {:.2} |",
            m.portfolio,
            m.sizes,
            m.batch_seconds,
            m.sequential_seconds,
            m.instances_per_sec,
            m.speedup,
            m.workers,
            m.balance
        );
    }
    println!();
    println!("| dedup portfolio | cold inst/s | warm inst/s | speedup | hit rate |");
    println!("|-----------------|-------------|-------------|---------|----------|");
    for m in &dedup_measurements {
        println!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.3} |",
            m.sizes,
            m.cold_instances_per_sec,
            m.warm_instances_per_sec,
            m.speedup_warm_over_cold,
            m.cache_hit_rate
        );
    }
    println!();
    println!("| n | k moved | flush (s) | scratch (s) | speedup | adopted | fresh |");
    println!("|---|---------|-----------|-------------|---------|---------|-------|");
    for m in &eco_measurements {
        println!(
            "| {} | {} | {:.4} | {:.4} | {:.2} | {} | {} |",
            m.n,
            m.k,
            m.incremental_seconds,
            m.scratch_seconds,
            m.speedup,
            m.adopted_merges,
            m.fresh_merges
        );
    }
    println!();
    println!(
        "| latency portfolio | first (s) | drain (s) | barrier (s) | pool reuse | sweep var/s |"
    );
    println!(
        "|-------------------|-----------|-----------|-------------|------------|-------------|"
    );
    for m in &latency_measurements {
        println!(
            "| {} | {:.4} | {:.4} | {:.4} | {:.3} | {:.1} |",
            m.sizes,
            m.time_to_first_result_seconds,
            m.stream_drain_seconds,
            m.batch_barrier_seconds,
            m.pool_reuse_speedup,
            m.sweep_variants_per_sec
        );
    }
}
