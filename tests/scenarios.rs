//! Golden scenario matrix: every router (plus AST-DME with group fusion
//! off) × {clustered, intermingled, single} × two seeds, each asserting
//! its skew discipline and a snapshotted wirelength.
//!
//! The engine is deterministic to the bit (the determinism suite pins
//! this across runs, thread counts and feature sets), so the wirelengths
//! are compared **exactly**. Any intentional change to merge ordering,
//! candidate generation or embedding shows up here as a diff; regenerate
//! the table with:
//!
//! ```sh
//! ASTDME_BLESS=1 cargo test --test scenarios -- --nocapture
//! ```
//!
//! and paste the printed rows over `GOLDEN` — after convincing yourself
//! the new numbers are an improvement (or a neutral reordering), not a
//! regression.

use astdme::instances::{partition, synthetic_instance, Placement};
use astdme::{AstDme, ClockRouter, EngineConfig, ExtBst, GreedyDme, Instance, StitchPerGroup};

/// The paper's 10 ps bound, used by the grouped scenarios and EXT-BST.
const BOUND: f64 = 10e-12;

/// Sinks per instance: above the planner's brute-force cutoff so the grid
/// regime is exercised, small enough for debug-mode test runs.
const N: usize = 48;

/// Groups for the partitioned scenarios.
const GROUPS: usize = 4;

const SEEDS: [u64; 2] = [11, 2006];

const SCENARIOS: [&str; 3] = ["clustered", "intermingled", "single"];

/// Snapshotted total wirelengths (µm): (router label, scenario, seed,
/// exact value). Regenerate with `ASTDME_BLESS=1` (see module docs).
const GOLDEN: [(&str, &str, u64, f64); 30] = [
    ("AST-DME", "clustered", 11, 802400.6127312368),
    ("AST-DME", "clustered", 2006, 753346.994098329),
    ("AST-DME", "intermingled", 11, 723659.520740885),
    ("AST-DME", "intermingled", 2006, 762473.3601707453),
    ("AST-DME", "single", 11, 805492.9124689212),
    ("AST-DME", "single", 2006, 779740.043175587),
    ("AST-DME unfused", "clustered", 11, 776436.3174702739),
    ("AST-DME unfused", "clustered", 2006, 779569.0232122929),
    ("AST-DME unfused", "intermingled", 11, 767047.6743810495),
    ("AST-DME unfused", "intermingled", 2006, 803333.06832374),
    ("AST-DME unfused", "single", 11, 805492.9124689212),
    ("AST-DME unfused", "single", 2006, 779740.043175587),
    ("EXT-BST", "clustered", 11, 767432.796871537),
    ("EXT-BST", "clustered", 2006, 756677.8228802826),
    ("EXT-BST", "intermingled", 11, 767432.796871537),
    ("EXT-BST", "intermingled", 2006, 756677.8228802826),
    ("EXT-BST", "single", 11, 767432.796871537),
    ("EXT-BST", "single", 2006, 756677.8228802826),
    ("greedy-DME", "clustered", 11, 805492.9124689212),
    ("greedy-DME", "clustered", 2006, 779740.043175587),
    ("greedy-DME", "intermingled", 11, 805492.9124689212),
    ("greedy-DME", "intermingled", 2006, 779740.043175587),
    ("greedy-DME", "single", 11, 805492.9124689212),
    ("greedy-DME", "single", 2006, 779740.043175587),
    ("stitch-per-group", "clustered", 11, 877855.6521875508),
    ("stitch-per-group", "clustered", 2006, 804737.6530861706),
    ("stitch-per-group", "intermingled", 11, 1360429.2990397168),
    ("stitch-per-group", "intermingled", 2006, 1443811.5838095949),
    ("stitch-per-group", "single", 11, 805492.9124689212),
    ("stitch-per-group", "single", 2006, 779740.043175587),
];

fn placement(seed: u64) -> Placement {
    synthetic_instance(N, seed, &format!("gold{seed}"))
}

fn scenario(kind: &str, seed: u64) -> Instance {
    let p = placement(seed);
    let bounded = |inst: Instance| {
        inst.with_groups(
            inst.groups()
                .clone()
                .with_uniform_bound(BOUND)
                .expect("bound ok"),
        )
        .expect("regroup ok")
    };
    match kind {
        "clustered" => bounded(partition::clustered(&p, GROUPS, seed).expect("valid")),
        "intermingled" => bounded(partition::intermingled(&p, GROUPS, seed ^ 1).expect("valid")),
        // One global zero-bound group: the strictest discipline.
        "single" => partition::single(&p).expect("valid"),
        _ => unreachable!("unknown scenario {kind}"),
    }
}

/// The routers of the matrix, each under its row label. "AST-DME
/// unfused" never fuses groups into classes, so its rows pin the
/// per-subtree offset-adjustment path's absolute bits.
fn routers() -> Vec<(&'static str, Box<dyn ClockRouter>)> {
    let unfused = EngineConfig {
        fuse_groups: false,
        ..EngineConfig::default()
    };
    vec![
        ("AST-DME", Box::new(AstDme::new())),
        (
            "AST-DME unfused",
            Box::new(AstDme::new().with_engine(unfused)),
        ),
        ("EXT-BST", Box::new(ExtBst::paper())),
        ("greedy-DME", Box::new(GreedyDme::new())),
        ("stitch-per-group", Box::new(StitchPerGroup::new())),
    ]
}

/// The intra-group skew each cell must satisfy: EXT-BST routes to its own
/// global 10 ps bound regardless of scenario; everyone else answers for
/// the scenario's bound (zero in the `single` scenario).
fn skew_tol(router: &str, kind: &str) -> f64 {
    if router == "EXT-BST" || kind != "single" {
        BOUND * (1.0 + 1e-9)
    } else {
        1e-15
    }
}

#[test]
fn golden_scenario_matrix() {
    let bless = std::env::var_os("ASTDME_BLESS").is_some();
    let mut failures = Vec::new();
    for (label, router) in routers() {
        for kind in SCENARIOS {
            for seed in SEEDS {
                let inst = scenario(kind, seed);
                let out = router.route_traced(&inst).expect("routes");
                assert_eq!(out.tree.sink_nodes().count(), N, "{label} {kind} {seed}");
                let skew = out.report.max_intra_group_skew();
                assert!(
                    skew <= skew_tol(router.name(), kind),
                    "{label} on {kind}/{seed}: intra-group skew {skew} over tolerance"
                );
                let wl = out.report.wirelength();
                if bless {
                    println!("    (\"{label}\", \"{kind}\", {seed}, {wl:?}),");
                    continue;
                }
                let expected = GOLDEN
                    .iter()
                    .find(|&&(r, s, sd, _)| r == label && s == kind && sd == seed)
                    .map(|&(_, _, _, w)| w)
                    .unwrap_or_else(|| panic!("no golden row for {label} {kind} {seed}"));
                if wl != expected {
                    failures.push(format!(
                        "{label} on {kind}/{seed}: wirelength {wl:?} != snapshot {expected:?}"
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "wirelength snapshots diverged (rerun with ASTDME_BLESS=1 to regenerate):\n{}",
        failures.join("\n")
    );
}

/// The matrix itself encodes the paper's qualitative claims; spot-check
/// two of them against the snapshot so a blind re-bless that silently
/// flips an inequality still fails loudly.
#[test]
fn golden_matrix_preserves_paper_orderings() {
    let wl = |router: &str, kind: &str, seed: u64| {
        GOLDEN
            .iter()
            .find(|&&(r, s, sd, _)| r == router && s == kind && sd == seed)
            .map(|&(_, _, _, w)| w)
            .expect("row exists")
    };
    for seed in SEEDS {
        // Fig. 2: stitching wastes wire on intermingled groups.
        assert!(wl("AST-DME", "intermingled", seed) < wl("stitch-per-group", "intermingled", seed));
        // Associative skew never spends more wire than zero-skew routing.
        assert!(wl("AST-DME", "intermingled", seed) <= wl("greedy-DME", "intermingled", seed));
    }
}
