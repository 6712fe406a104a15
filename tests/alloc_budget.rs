//! Deterministic allocation-budget regression test for the merge hot
//! path: the bottom-up merge loop (incremental planner + engine expansion)
//! must stay at O(1) amortized heap allocations per merge — no per-pair
//! `Scratch` or overlay hash maps. A candidate whose `DelayMap` holds more
//! than four groups does spill, once per built candidate, so the budget
//! is checked on a ten-group instance as well as a four-group one.
//!
//! Allocation *counts* are deterministic for a fixed build where timings
//! are not, so this is the CI-stable form of the `scaling` bench's
//! `allocs_per_merge` section (same counting-allocator technique).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    run_bottom_up, AstDme, Candidate, DelayModel, EcoEdit, EcoSession, EngineConfig, Instance,
    MergeForest, Point, TopoConfig,
};
use astdme_core::allocmeter;

mod common;
use common::{recorded_bottom_up, retained_candidates};

/// Twin of the counting allocator in `crates/bench/src/bin/scaling.rs` —
/// the library crates forbid `unsafe_code`, so each binary hosts its own
/// copy; keep them counting the same events. Counts go to the calling
/// thread's [`allocmeter`] counter, so a sibling test allocating
/// concurrently never lands in this test's budget. This copy also tracks
/// the thread's net live heap bytes.
struct CountingAlloc;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread. `const`-
    /// initialized with no destructor, so the allocator can touch it
    /// without allocating.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE_BYTES` since the last
    /// [`reset_peak`].
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    let live = LIVE_BYTES.with(|b| {
        b.set(b.get() + delta);
        b.get()
    });
    PEAK_BYTES.with(|p| p.set(p.get().max(live)));
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Restarts the high-water mark at the current live bytes.
fn reset_peak() {
    PEAK_BYTES.with(|p| p.set(live_bytes()));
}

fn peak_bytes() -> i64 {
    PEAK_BYTES.with(Cell::get)
}

// SAFETY: delegates directly to `System`; the counters have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocmeter::on_alloc();
        add_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocmeter::on_alloc();
        add_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Measured here (n = 500, fast preset): 3.13 allocs/merge greedy, 1.37
/// multi-merge with four groups; the `scaling` smoke measures 3.39 / 1.60
/// at n = 250. The engine itself allocates once per merge (the new node's
/// exact-size candidate list) plus one frozen-store chunk per 512
/// candidates the leaves and consumed nodes keep; the rest is planner
/// bookkeeping (the planner's region arena grows by doubling, a few
/// hundredths per merge). Before leaves lived in the frozen store, each
/// sink's own list added one more allocation per merge (4.08 / 2.34
/// here). With ten groups, spilled delay maps add one allocation per
/// *kept* candidate: 4.24 / 2.42 with the fast preset and 5.41 / 3.65
/// with the default one, which keeps more candidates. When every built
/// candidate got its map, including the ≈40% that pruning drops, they
/// read 4.70 / 2.88 and 7.24 / 5.46 (the default preset's greedy order
/// over budget); when each spilled map was built from two shifted copies
/// (up to three allocations) the fast preset read 6.52 / 4.63. A
/// reintroduced per-pair allocation adds at least one per merge and trips
/// the budget. CI's `scaling --alloc-budget` uses the same value.
const BUDGET_PER_MERGE: f64 = 6.5;

fn instance(n: usize) -> Instance {
    instance_with_groups(n, 4)
}

/// `n` sinks intermingled over `groups` groups, each bound to 10 ps.
fn instance_with_groups(n: usize, groups: usize) -> Instance {
    let p = synthetic_instance(n, 2006, &format!("a{n}"));
    let inst = partition::intermingled(&p, groups, 2006 ^ 0xBEEF).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(10e-12)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

/// With an instrumented allocator installed, the pipeline's per-stage
/// allocation deltas ([`astdme::StageStats::allocs`]) must be populated —
/// the merge stage dominates and can never be zero on a real instance.
#[test]
fn pipeline_surfaces_per_stage_alloc_counts() {
    use astdme::ClockRouter;
    let inst = instance(60);
    let out = astdme::AstDme::new().route_traced(&inst).expect("routes");
    assert!(
        out.stats.merge.allocs > 0,
        "merge stage must observe allocations: {:?}",
        out.stats
    );
    assert!(out.stats.total_allocs() >= out.stats.merge.allocs);
}

#[test]
fn merge_loop_allocations_stay_in_budget() {
    // Large enough to leave the planner's brute-force regime and trigger
    // multi-merge refresh sweeps; small enough for a debug-build test.
    let n = 500;
    // Four groups keep every delay map inline; with ten, the maps of
    // subtrees reaching more than four groups spill to the heap. The
    // default preset keeps more candidates per merge than the fast one,
    // so it spills more.
    for (preset, engine, groups) in [
        ("fast", EngineConfig::fast(), 4),
        ("fast", EngineConfig::fast(), 10),
        ("default", EngineConfig::default(), 10),
    ] {
        let inst = instance_with_groups(n, groups);
        let model = DelayModel::elmore(*inst.rc());
        let count = |topo: &TopoConfig| {
            let before = allocmeter::current();
            let (_forest, _root) = run_bottom_up(&inst, model, engine, topo);
            allocmeter::current() - before
        };
        for (name, topo) in [
            ("greedy", TopoConfig::greedy()),
            ("multi_merge", TopoConfig::default()),
        ] {
            let first = count(&topo);
            let second = count(&topo);
            // Counts are per thread and the routing is deterministic, so
            // two runs allocate exactly alike.
            assert_eq!(first, second, "{name}: allocation counts diverged");
            let per_merge = first as f64 / (n - 1) as f64;
            eprintln!("{preset}, {groups} groups, {name}: {per_merge:.2} allocs/merge");
            assert!(
                per_merge <= BUDGET_PER_MERGE,
                "{preset}, {groups} groups, {name}: {per_merge:.2} allocs/merge exceeds \
                 the {BUDGET_PER_MERGE} budget ({first} allocations over {} merges)",
                n - 1
            );
        }
    }
}

/// Heap a forest may hold per node beyond its candidates: the `nodes`
/// table entry, with headroom for the table's doubling growth.
const NODE_ALLOWANCE_BYTES: f64 = 256.0;

/// Every merge root stores its kept candidates in an exact-size list, and
/// every leaf and consumed node a run in fixed-size chunks, so the heap a
/// finished forest retains is its candidates' bytes plus a fixed per-node
/// allowance — not the capacity of the working lists the merges built
/// them in, nor the candidates no parent references. Measured here
/// (n = 4000, default preset): 2.22 MB retained for the 1.58 MB of its
/// 10 977 144 B candidates (the 72 B node table is most of the rest),
/// well inside the bound once the node allowance is added. Before
/// consumed nodes were compacted the same forest kept all 31 602
/// candidates and retained 5.27 MB.
#[test]
fn forest_retains_only_its_candidates() {
    let n = 4000;
    let inst = instance(n);
    let model = DelayModel::elmore(*inst.rc());
    let before = live_bytes();
    let (forest, _root) = run_bottom_up(
        &inst,
        model,
        EngineConfig::default(),
        &TopoConfig::default(),
    );
    let retained = (live_bytes() - before) as f64;
    let cands = retained_candidates(&forest);
    let cand_bytes = (cands * std::mem::size_of::<Candidate>()) as f64;
    let allowance = forest.node_count() as f64 * NODE_ALLOWANCE_BYTES;
    eprintln!(
        "retained {retained} B for {cands} candidates ({cand_bytes} B) over {} nodes",
        forest.node_count()
    );
    assert!(
        retained <= 1.15 * cand_bytes + allowance,
        "forest retains {retained} B; candidates need {cand_bytes} B \
         (+{allowance} B node allowance)"
    );
    drop::<MergeForest>(forest);
}

/// Measured here (n = 4000, one sink moved, default preset): the flush's
/// merge stage allocates 0.07 times per adopted merge (257 over 3946),
/// and the flush's peak adds 0.732 of the recorded forest's candidate
/// bytes (3 333 240 B against 4 550 688 B of 144 B candidates; the
/// flush's other buffers do not scale with the candidate size, so the
/// share grows as candidates shrink). An adopted merge allocates nothing,
/// because it shares the recorded node's candidate list, and the fresh
/// forest's leaves live in its frozen store's chunks, not one list per
/// sink; with a list per leaf the flush measured 1.08 allocations per
/// adopted merge and a share of 0.743. Cloning the adopted lists instead
/// measured 2.12 allocations per adopted merge and a peak of 1.50 of the
/// candidate bytes (with 192 B candidates), and fails both checks.
const ECO_BUDGET_PER_ADOPTED_MERGE: f64 = 1.5;
/// The share of the recorded forest's candidate bytes a flush may add to
/// the live heap at its peak.
const ECO_PEAK_SHARE: f64 = 0.8;

/// A one-sink ECO flush adopts almost every merge of the standing route;
/// adoption must share the recorded candidate lists, not copy them. The
/// standing forest stays alive through the flush, so copying would add
/// a second copy of its candidates to the heap.
#[test]
fn eco_flush_shares_adopted_candidate_lists() {
    let n = 4000;
    let inst = instance(n);
    let plan = AstDme::new().plan();
    let mut session = EcoSession::new(&inst, plan).expect("routes");
    let p = inst.sinks()[n / 2].pos;
    session.queue(EcoEdit::Move {
        sink: n / 2,
        to: Point::new(p.x + 150.0, p.y - 90.0),
    });
    let before = live_bytes();
    reset_peak();
    let allocs = session.flush().expect("flushes").stats.merge.allocs;
    let peak_added = (peak_bytes() - before) as f64;
    let fs = session.last_flush();
    assert!(!fs.full_reroute, "must replay: {fs:?}");
    assert!(fs.adopted_merges * 10 > 9 * (n - 1), "{fs:?}");

    // The standing route records its merges, so its forest keeps every
    // candidate list whole; a plain route's forest compacts consumed nodes
    // and would understate the recorded bytes about threefold.
    let (forest, _root, _rec) = recorded_bottom_up(
        &inst,
        DelayModel::elmore(*inst.rc()),
        plan.engine,
        &plan.topo,
    );
    let cands = retained_candidates(&forest);
    let cand_bytes = (cands * std::mem::size_of::<Candidate>()) as f64;
    let per_adopted = allocs as f64 / fs.adopted_merges as f64;
    eprintln!(
        "{allocs} merge-stage allocations over {} adopted merges ({per_adopted:.2} each); \
         peak added {peak_added} B against {cand_bytes} B of recorded candidates ({:.3})",
        fs.adopted_merges,
        peak_added / cand_bytes
    );
    assert!(
        per_adopted <= ECO_BUDGET_PER_ADOPTED_MERGE,
        "{per_adopted:.2} merge-stage allocations per adopted merge exceed the \
         {ECO_BUDGET_PER_ADOPTED_MERGE} budget"
    );
    assert!(
        peak_added <= ECO_PEAK_SHARE * cand_bytes,
        "the flush added {peak_added} B at its peak; the recorded candidates are {cand_bytes} B"
    );
}
