//! The source-level rules and the pragma machinery.
//!
//! Each rule is a pure function over one lexed file plus its
//! workspace-relative path (scoping is path-based; see the crate docs for
//! the catalogue). Diagnostics carry the rule id, file, 1-indexed line
//! and a message; a well-formed pragma with a non-empty reason on the
//! violation's line (or the line directly above) suppresses it.

use crate::lexer::{lex, Lexed, Pragma, TokKind};
use crate::Diagnostic;

/// Rule ids, as used in pragmas and JSON output.
pub const RULE_IDS: &[&str] = &[
    "map-iter",
    "wall-clock",
    "thread-spawn",
    "unsafe-code",
    "float-eq",
    "file-length",
    "test-mod-last",
    "dep-audit",
    "pragma",
];

/// Crates whose routing logic must be bit-deterministic: rule `map-iter`
/// applies to their `src/` trees.
const DET_CRATES: &[&str] = &[
    "crates/engine/src/",
    "crates/topo/src/",
    "crates/core/src/",
    "crates/geom/src/",
    "crates/delay/src/",
];

/// The sanctioned timing modules: the bench harness (stopwatch-driven by
/// nature), `astdme_par`'s claim-loop timing, and the one wall-clock
/// wrapper the deterministic crates are allowed (`astdme_core::stopwatch`).
const WALL_CLOCK_ALLOW: &[&str] = &[
    "crates/bench/",
    "crates/par/src/lib.rs",
    "crates/core/src/stopwatch.rs",
];

/// The audited `unsafe` sites: the two counting `GlobalAlloc` shims
/// (library crates forbid `unsafe_code`, so each measuring binary hosts
/// its own).
const UNSAFE_ALLOW: &[&str] = &["crates/bench/src/bin/scaling.rs", "tests/alloc_budget.rs"];

/// Map/set methods whose visit order depends on the hasher.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "into_iter",
    "retain",
];

/// Maximum lines per file in `crates/engine` and `crates/topo` (the
/// PR 2/4 module-tree convention).
pub const FILE_LOC_CAP: usize = 500;

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Whether `path` is library source (a crate's `src/` tree or the root
/// facade), as opposed to tests, examples, or benches.
fn is_lib_src(path: &str) -> bool {
    path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"))
}

/// Runs every source rule on one file. `rel_path` must be
/// workspace-relative with forward slashes — scoping is path-prefix
/// based, and the fixture tests exercise rules by passing virtual paths.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let lx = lex(src);
    let mut diags = Vec::new();
    check_pragmas(rel_path, &lx, &mut diags);
    if in_any(rel_path, DET_CRATES) {
        map_iter(rel_path, &lx, &mut diags);
    }
    if is_lib_src(rel_path) && !in_any(rel_path, WALL_CLOCK_ALLOW) {
        wall_clock(rel_path, &lx, &mut diags);
    }
    if !rel_path.starts_with("crates/par/src/") {
        thread_spawn(rel_path, &lx, &mut diags);
    }
    if !UNSAFE_ALLOW.contains(&rel_path) {
        unsafe_code(rel_path, &lx, &mut diags);
    }
    if in_any(rel_path, &["crates/engine/src/", "crates/topo/src/"]) {
        float_eq(rel_path, &lx, &mut diags);
        file_length(rel_path, &lx, &mut diags);
    }
    test_mod_last(rel_path, &lx, &mut diags);
    apply_pragmas(&lx.pragmas, &mut diags);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

/// Every pragma must be well-formed, name a known rule, and justify
/// itself with a non-empty reason.
fn check_pragmas(path: &str, lx: &Lexed<'_>, diags: &mut Vec<Diagnostic>) {
    for p in &lx.pragmas {
        if !p.well_formed {
            diags.push(Diagnostic::new(
                "pragma",
                path,
                p.line,
                "malformed pragma: expected `astdme-lint: allow(<rule>): <reason>`".into(),
            ));
        } else if !RULE_IDS.contains(&p.rule.as_str()) {
            diags.push(Diagnostic::new(
                "pragma",
                path,
                p.line,
                format!("pragma names unknown rule `{}`", p.rule),
            ));
        } else if p.reason.is_empty() {
            diags.push(Diagnostic::new(
                "pragma",
                path,
                p.line,
                format!(
                    "pragma `allow({})` has no reason: justify the exemption after the colon",
                    p.rule
                ),
            ));
        }
    }
}

/// Removes diagnostics covered by a valid pragma on the same line or the
/// line directly above. Pragma-rule diagnostics are never suppressible.
fn apply_pragmas(pragmas: &[Pragma], diags: &mut Vec<Diagnostic>) {
    diags.retain(|d| {
        d.rule == "pragma"
            || !pragmas.iter().any(|p| {
                p.well_formed
                    && !p.reason.is_empty()
                    && p.rule == d.rule
                    && (p.line == d.line || p.line + 1 == d.line)
            })
    });
}

/// Rule `map-iter`: no iteration over `HashMap`/`HashSet` in the
/// deterministic crates. Bindings and fields whose declaration mentions
/// either type are tracked per file; calling an order-dependent method on
/// them, or driving a `for` loop from them, is a violation. Membership
/// (`contains`, `get`, `insert`, `remove`) stays fine — it is only the
/// hasher-dependent *visit order* that breaks bit-determinism.
fn map_iter(path: &str, lx: &Lexed<'_>, diags: &mut Vec<Diagnostic>) {
    let t = &lx.tokens;
    let mut names: Vec<&str> = Vec::new();
    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident || (t[i].text != "HashMap" && t[i].text != "HashSet") {
            continue;
        }
        // Walk back over the leading path (`std::collections::`).
        let mut j = i;
        while j >= 2 && t[j - 1].text == "::" && t[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if j == 0 {
            continue;
        }
        // `name: HashMap<…>` (field, param, or annotated let) or
        // `let [mut] name = HashMap::new()`.
        let name = match t[j - 1].text {
            ":" | "=" if j >= 2 && t[j - 2].kind == TokKind::Ident => t[j - 2].text,
            _ => continue,
        };
        if name != "mut" && name != "let" && !names.contains(&name) {
            names.push(name);
        }
    }
    for i in 0..t.len() {
        if t[i].kind != TokKind::Ident || !names.contains(&t[i].text) {
            continue;
        }
        // `map.iter()` and friends.
        if i + 2 < t.len()
            && t[i + 1].text == "."
            && ITER_METHODS.contains(&t[i + 2].text)
            && t.get(i + 3).is_some_and(|n| n.text == "(")
        {
            diags.push(Diagnostic::new(
                "map-iter",
                path,
                t[i + 2].line,
                format!(
                    "hash-order iteration `{}.{}()` in a deterministic crate: sort keys, use a \
                     dense table, or justify with a pragma",
                    t[i].text,
                    t[i + 2].text
                ),
            ));
        }
        // `for x in [&[mut]] map` — but not `map.something(…)`, where the
        // loop target is whatever the call returns (the iter-method branch
        // above owns the hash-ordered ones).
        if t.get(i + 1).is_some_and(|n| n.text == ".") {
            continue;
        }
        let mut j = i;
        while j >= 1 && (t[j - 1].text == "&" || t[j - 1].text == "mut") {
            j -= 1;
        }
        if j >= 1 && t[j - 1].kind == TokKind::Ident && t[j - 1].text == "in" {
            diags.push(Diagnostic::new(
                "map-iter",
                path,
                t[i].line,
                format!(
                    "hash-order iteration `for … in {}` in a deterministic crate: sort keys, use \
                     a dense table, or justify with a pragma",
                    t[i].text
                ),
            ));
        }
    }
}

/// Rule `wall-clock`: no `Instant`/`SystemTime` outside the timing
/// modules. Routing decisions must never read the clock; stage timing
/// goes through `astdme_core::stopwatch`.
fn wall_clock(path: &str, lx: &Lexed<'_>, diags: &mut Vec<Diagnostic>) {
    for t in &lx.tokens {
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            diags.push(Diagnostic::new(
                "wall-clock",
                path,
                t.line,
                format!(
                    "`{}` outside a timing module: route timing through \
                     astdme_core::stopwatch::Stopwatch",
                    t.text
                ),
            ));
        }
    }
}

/// Rule `thread-spawn`: thread creation belongs to `astdme_par` alone —
/// one claim loop, one nesting guard, one place the thread count is
/// decided.
fn thread_spawn(path: &str, lx: &Lexed<'_>, diags: &mut Vec<Diagnostic>) {
    let t = &lx.tokens;
    for i in 0..t.len().saturating_sub(2) {
        if t[i].kind == TokKind::Ident
            && t[i].text == "thread"
            && t[i + 1].text == "::"
            && matches!(t[i + 2].text, "spawn" | "Builder" | "scope")
        {
            diags.push(Diagnostic::new(
                "thread-spawn",
                path,
                t[i].line,
                format!(
                    "`thread::{}` outside crates/par: fan out through \
                     astdme_par::claim_loop",
                    t[i + 2].text
                ),
            ));
        }
    }
}

/// Rule `unsafe-code`: `unsafe` anywhere outside the audited allowlist
/// (the two counting allocators).
fn unsafe_code(path: &str, lx: &Lexed<'_>, diags: &mut Vec<Diagnostic>) {
    for t in &lx.tokens {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            diags.push(Diagnostic::new(
                "unsafe-code",
                path,
                t.line,
                "`unsafe` outside the audited allowlist (the counting allocators)".into(),
            ));
        }
    }
}

/// Rule `float-eq`: no raw `==`/`!=` against floating-point operands in
/// the planner/engine ranking paths — use `total_cmp` or `to_bits`.
/// Detection is lexical: a comparison is flagged when either adjacent
/// operand is a float literal or an `f32::`/`f64::` constant path.
fn float_eq(path: &str, lx: &Lexed<'_>, diags: &mut Vec<Diagnostic>) {
    let t = &lx.tokens;
    let floaty_at = |i: usize| -> bool {
        if t[i].kind == TokKind::Float {
            return true;
        }
        // `f64::NAN` / `f32::INFINITY` style paths, looking from either
        // the head (`f64`) or the tail (`NAN`) of the path.
        if t[i].text == "f64" || t[i].text == "f32" {
            return t.get(i + 1).is_some_and(|n| n.text == "::");
        }
        if i >= 2 && t[i - 1].text == "::" && (t[i - 2].text == "f64" || t[i - 2].text == "f32") {
            return true;
        }
        false
    };
    for i in 0..t.len() {
        if t[i].kind != TokKind::Punct || (t[i].text != "==" && t[i].text != "!=") {
            continue;
        }
        let prev_floaty = i > 0 && floaty_at(i - 1);
        // A float literal with a method call hanging off it (`1.5f64
        // .to_bits()`) is not a raw float operand — the call's result is.
        let next_floaty = i + 1 < t.len()
            && floaty_at(i + 1)
            && !(t[i + 1].kind == TokKind::Float && t.get(i + 2).is_some_and(|n| n.text == "."));
        if prev_floaty || next_floaty {
            diags.push(Diagnostic::new(
                "float-eq",
                path,
                t[i].line,
                format!(
                    "raw `{}` on a floating-point operand in a ranking path: use total_cmp, \
                     to_bits, or branch on the ordering directly",
                    t[i].text
                ),
            ));
        }
    }
}

/// Rule `file-length`: the PR 2/4 module-tree convention — no file in
/// `crates/engine` or `crates/topo` exceeds [`FILE_LOC_CAP`] lines.
fn file_length(path: &str, lx: &Lexed<'_>, diags: &mut Vec<Diagnostic>) {
    if lx.lines > FILE_LOC_CAP {
        diags.push(Diagnostic::new(
            "file-length",
            path,
            1,
            format!(
                "file is {} lines (cap {FILE_LOC_CAP}): split it into a module tree",
                lx.lines
            ),
        ));
    }
}

/// The tokens of a `#[cfg(test)]` attribute.
const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];

/// The token index of the file's first `#[cfg(test)]` attribute, if any
/// (comments and strings are not tokens, so they never match).
pub(crate) fn first_cfg_test(lx: &Lexed<'_>) -> Option<usize> {
    lx.tokens
        .windows(CFG_TEST.len())
        .position(|w| w.iter().map(|tok| tok.text).eq(CFG_TEST))
}

/// Rule `test-mod-last`: the first `#[cfg(test)]` item of a file is its
/// last item. Size counts treat everything from a file's first
/// `#[cfg(test)]` on as test code, so an item after it would be
/// misfiled. The attributed item ends at its first `;` outside any
/// bracket, or at the `}` closing its body (plus a trailing `;`, as in
/// `use a::{b, c};`); any token after that end is a violation.
fn test_mod_last(path: &str, lx: &Lexed<'_>, diags: &mut Vec<Diagnostic>) {
    let t = &lx.tokens;
    let Some(start) = first_cfg_test(lx) else {
        return;
    };
    let mut depth = 0usize;
    let mut end = t.len();
    for (i, tok) in t.iter().enumerate().skip(start + CFG_TEST.len()) {
        match tok.text {
            "(" | "[" | "{" => depth += 1,
            // A closer at depth 0 belongs to a block around the item.
            ")" | "]" | "}" if depth == 0 => {
                end = i;
                break;
            }
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    end = i + 1 + usize::from(t.get(i + 1).is_some_and(|n| n.text == ";"));
                    break;
                }
            }
            ";" if depth == 0 => {
                end = i + 1;
                break;
            }
            _ => {}
        }
    }
    if let Some(after) = t.get(end) {
        diags.push(Diagnostic::new(
            "test-mod-last",
            path,
            after.line,
            format!(
                "code after the `#[cfg(test)]` item of line {}: make that item the file's \
                 last, or size counts misfile this code as test",
                t[start].line
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_is_fine_iteration_is_not() {
        let src = "fn f() {\n    let mut used = std::collections::HashSet::new();\n    used.insert(1);\n    if used.contains(&1) {}\n}\n";
        assert!(check_source("crates/topo/src/x.rs", src).is_empty());
        let bad = "fn f() {\n    let mut m = std::collections::HashMap::new();\n    m.insert(1, 2);\n    for (k, v) in &m {\n        println!(\"{k}{v}\");\n    }\n}\n";
        let diags = check_source("crates/topo/src/x.rs", bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "map-iter");
        assert_eq!(diags[0].line, 4);
        // Same file outside the deterministic crates: no diagnostic.
        assert!(check_source("crates/instances/src/x.rs", bad).is_empty());
    }

    #[test]
    fn pragma_suppresses_with_reason_only() {
        let bad = "struct S { m: std::collections::HashMap<u32, u32> }\nimpl S {\n    fn f(&self) -> usize {\n        // astdme-lint: allow(map-iter): count is order-independent\n        self.m.keys().count()\n    }\n}\n";
        assert!(check_source("crates/engine/src/x.rs", bad).is_empty());
        let unreasoned = bad.replace(": count is order-independent", ":");
        let diags = check_source("crates/engine/src/x.rs", &unreasoned);
        assert_eq!(
            diags.len(),
            2,
            "empty reason keeps the violation and flags the pragma"
        );
        assert!(diags.iter().any(|d| d.rule == "pragma"));
        assert!(diags.iter().any(|d| d.rule == "map-iter"));
    }

    #[test]
    fn scoping_of_wall_clock_and_unsafe() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        assert_eq!(check_source("crates/core/src/x.rs", src).len(), 2);
        assert!(check_source("crates/core/src/stopwatch.rs", src).is_empty());
        assert!(check_source("crates/bench/src/bin/scaling.rs", src).is_empty());
        assert!(
            check_source("tests/x.rs", src).is_empty(),
            "tests are not lib src"
        );
        let u = "unsafe fn f() {}\n";
        assert_eq!(check_source("crates/geom/src/x.rs", u).len(), 1);
        assert_eq!(check_source("crates/par/src/pool.rs", u).len(), 1);
        assert!(check_source("tests/alloc_budget.rs", u).is_empty());
    }
}
