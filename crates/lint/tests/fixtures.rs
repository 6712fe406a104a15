//! Fixture corpus: every rule has at least one fixture that demonstrably
//! fails the lint and one that passes. Fixtures live under
//! `tests/fixtures/` — a directory name the workspace walker skips, so
//! the deliberate violations never taint a live `--expect-clean` run.
//! The pretend `rel_path` given to `check_source` selects the scope a
//! fixture is judged under, which also lets the same bytes prove both a
//! rule (wrong scope → fires) and its allowlist (sanctioned scope →
//! silent).

use astdme_lint::{check_manifest, check_source, Diagnostic};

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

fn assert_only(diags: &[Diagnostic], rule: &str) {
    assert!(!diags.is_empty(), "expected `{rule}` diagnostics, got none");
    assert!(
        diags.iter().all(|d| d.rule == rule),
        "expected only `{rule}`, got {:?}",
        rules_of(diags)
    );
}

fn assert_clean(diags: &[Diagnostic]) {
    assert!(diags.is_empty(), "expected clean, got {diags:#?}");
}

#[test]
fn map_iter_fixture() {
    let fail = include_str!("fixtures/map_iter_fail.rs");
    let diags = check_source("crates/engine/src/fixture.rs", fail);
    assert_only(&diags, "map-iter");
    // keys(), for-in-&set, values(): three distinct iteration sites.
    assert_eq!(diags.len(), 3, "{diags:#?}");

    let pass = include_str!("fixtures/map_iter_pass.rs");
    assert_clean(&check_source("crates/engine/src/fixture.rs", pass));
    // Outside the deterministic crates the rule does not apply at all.
    assert_clean(&check_source("crates/instances/src/fixture.rs", fail));
}

#[test]
fn wall_clock_fixture() {
    let fail = include_str!("fixtures/wall_clock_fail.rs");
    let diags = check_source("crates/core/src/fixture.rs", fail);
    assert_only(&diags, "wall-clock");

    let pass = include_str!("fixtures/wall_clock_pass.rs");
    assert_clean(&check_source("crates/core/src/fixture.rs", pass));
    // The bench harness is a sanctioned timing module.
    assert_clean(&check_source("crates/bench/src/fixture.rs", fail));
}

#[test]
fn thread_spawn_fixture() {
    let fail = include_str!("fixtures/thread_spawn_fail.rs");
    let diags = check_source("src/fixture.rs", fail);
    assert_only(&diags, "thread-spawn");
    // spawn, scope, and Builder each fire.
    assert_eq!(diags.len(), 3, "{diags:#?}");

    let pass = include_str!("fixtures/thread_spawn_pass.rs");
    assert_clean(&check_source("src/fixture.rs", pass));
    // astdme_par is the one crate allowed to create threads.
    assert_clean(&check_source("crates/par/src/fixture.rs", fail));
}

#[test]
fn unsafe_fixture() {
    let fail = include_str!("fixtures/unsafe_fail.rs");
    let diags = check_source("crates/geom/src/fixture.rs", fail);
    assert_only(&diags, "unsafe-code");

    let pass = include_str!("fixtures/unsafe_pass.rs");
    assert_clean(&check_source("crates/geom/src/fixture.rs", pass));
    // astdme_par forbids `unsafe` like every library crate.
    assert_only(&check_source("crates/par/src/pool.rs", fail), "unsafe-code");
    // The audited allowlist is exact files, not directories.
    assert_clean(&check_source("tests/alloc_budget.rs", fail));
    assert_only(&check_source("tests/other.rs", fail), "unsafe-code");
}

#[test]
fn float_eq_fixture() {
    let fail = include_str!("fixtures/float_eq_fail.rs");
    let diags = check_source("crates/engine/src/fixture.rs", fail);
    assert_only(&diags, "float-eq");
    assert_eq!(diags.len(), 3, "{diags:#?}");

    let pass = include_str!("fixtures/float_eq_pass.rs");
    assert_clean(&check_source("crates/engine/src/fixture.rs", pass));
    // Ranking-path rule: scoped to engine/topo only.
    assert_clean(&check_source("crates/core/src/fixture.rs", fail));
}

#[test]
fn file_length_fixture() {
    let fail = include_str!("fixtures/file_length_fail.rs");
    assert!(fail.lines().count() > astdme_lint::FILE_LOC_CAP);
    let diags = check_source("crates/topo/src/fixture.rs", fail);
    assert_only(&diags, "file-length");
    assert_eq!(diags.len(), 1);

    let pass = include_str!("fixtures/file_length_pass.rs");
    assert_clean(&check_source("crates/topo/src/fixture.rs", pass));
    // The cap governs engine/topo; long files elsewhere are fine.
    assert_clean(&check_source("crates/core/src/fixture.rs", fail));
}

#[test]
fn test_mod_last_fixture() {
    let fail = include_str!("fixtures/test_mod_last_fail.rs");
    let diags = check_source("tests/fixture.rs", fail);
    assert_only(&diags, "test-mod-last");
    // One diagnostic, at the first item after `mod tests;`.
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].line, 11);

    let pass = include_str!("fixtures/test_mod_last_pass.rs");
    assert_clean(&check_source("tests/fixture.rs", pass));
    // The rule holds in every scope, library source included.
    assert_only(
        &check_source("crates/core/src/fixture.rs", fail),
        "test-mod-last",
    );
    // A braced `use` ends at its `;`, not at its `}`.
    let braced_use = "#[cfg(test)]\nuse std::collections::{BTreeMap, BTreeSet};\n";
    assert_clean(&check_source("tests/fixture.rs", braced_use));
}

#[test]
fn dep_audit_fixture() {
    let fail = include_str!("fixtures/dep_audit_fail.toml");
    let diags = check_manifest("crates/fixture/Cargo.toml", fail);
    assert_only(&diags, "dep-audit");
    // serde, rayon, [dependencies.tokio], git dep, [patch] header.
    assert_eq!(diags.len(), 5, "{diags:#?}");

    let pass = include_str!("fixtures/dep_audit_pass.toml");
    assert_clean(&check_manifest("crates/fixture/Cargo.toml", pass));
}

#[test]
fn pragma_fixture() {
    let fail = include_str!("fixtures/pragma_fail.rs");
    let diags = check_source("crates/core/src/fixture.rs", fail);
    // The empty-reason and unknown-rule pragmas are violations themselves,
    // and neither suppresses the wall-clock hit it sits next to.
    let rules = rules_of(&diags);
    assert!(rules.contains(&"pragma"), "{diags:#?}");
    assert!(rules.contains(&"wall-clock"), "{diags:#?}");

    let pass = include_str!("fixtures/pragma_pass.rs");
    assert_clean(&check_source("crates/core/src/fixture.rs", pass));
}
