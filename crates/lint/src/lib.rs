//! `astdme_lint` — the workspace's determinism & soundness static-analysis
//! pass.
//!
//! Every invariant this reproduction lives by — batch ≡ sequential and
//! parallel ≡ serial **to the bit** at every thread count, wirelengths
//! bit-identical across refactors — is enforced dynamically by proptests
//! only *after* a violation is written. This pass catches the sources of
//! nondeterminism and unsoundness at the source level, before they reach
//! a test. It is a self-contained binary over a hand-rolled Rust lexer
//! ([`lexer`]) — no registry deps, consistent with the vendored-shims
//! policy — and runs in CI as `cargo run -p astdme_lint -- --expect-clean`.
//!
//! # Rule catalogue
//!
//! | id | scope | rule |
//! |---|---|---|
//! | `map-iter` | `src/` of the deterministic crates (`engine`, `topo`, `core`, `geom`, `delay`) | no `HashMap`/`HashSet` iteration (`iter`, `keys`, `values`, `drain`, `retain`, `for … in &map`, …): hasher order is not deterministic. Membership ops are fine. Sort keys or use a dense table; pragma only with a reason. |
//! | `wall-clock` | all library `src/` except the timing modules (`crates/bench`, `astdme_par`'s claim-loop timing, `astdme_core::stopwatch`) | no `Instant`/`SystemTime`: routing logic must not read the clock. Stage timing goes through [`Stopwatch`](../astdme_core/stopwatch/struct.Stopwatch.html). |
//! | `thread-spawn` | everywhere except `crates/par/src` | no `thread::spawn`/`thread::Builder`/`thread::scope`: one pool, one claim loop, one nesting guard, one place the thread count is decided (`astdme_par`). Fan out through `claim_loop` (scoped) or `claim_stream` (detached). |
//! | `unsafe-code` | everywhere except the audited allowlist | `unsafe` only in `par/src/pool.rs` (the `scope_with` lifetime erasure) and the counting `GlobalAlloc` shims (`bench/src/bin/scaling.rs`, `tests/alloc_budget.rs`). Crates redundantly `#![forbid(unsafe_code)]`. |
//! | `float-eq` | `crates/engine/src`, `crates/topo/src` | no raw `==`/`!=` with a float-literal or `f32::`/`f64::`-constant operand in ranking paths: use `total_cmp`/`to_bits` or branch on the ordering. (Lexical rule: comparisons of two float *variables* are not detectable without types — reviews still own those.) |
//! | `file-length` | `crates/engine/src`, `crates/topo/src` | files stay ≤ 500 lines (the PR 2/4 module-tree convention). |
//! | `dep-audit` | every `Cargo.toml` (including `vendor/`) | every dependency resolves by `path` (or `workspace = true` inheriting one); no registry versions, git URLs, or `[patch]` sections. |
//!
//! # Pragmas
//!
//! A violation is suppressed by a justification pragma in a line comment
//! on the same line or the line directly above:
//!
//! ```text
//! // astdme-lint: allow(map-iter): drained into a Vec and sorted below
//! for (k, v) in scratch.drain() { … }
//! ```
//!
//! The reason after the closing `):` is **required** — an empty reason is
//! itself a `pragma` violation, as is a malformed pragma or one naming an
//! unknown rule. `dep-audit` takes no pragmas (TOML has no sanctioned
//! comment syntax here and a network dependency has no good reason).
//!
//! # Output
//!
//! Human-readable `file:line: [rule] message` lines by default; `--json`
//! emits a machine-readable document (via `astdme_json`):
//!
//! ```text
//! {"clean": false, "files_scanned": 123, "diagnostics": [
//!   {"rule": "wall-clock", "file": "crates/core/src/eco.rs", "line": 97,
//!    "message": "…"}]}
//! ```
//!
//! `--expect-clean` exits nonzero when any diagnostic survives — the CI
//! gate. The walk skips `target/`, `.git/`, and `fixtures/` directories
//! and takes only the `Cargo.toml`s from `vendor/` (the shims document
//! upstream surfaces; their Rust sources are not held to workspace
//! rules, but their manifests must still be network-free).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
mod manifest;
mod rules;

pub use manifest::check_manifest;
pub use rules::{check_source, FILE_LOC_CAP, RULE_IDS};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (see [`RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(rule: &'static str, file: &str, line: usize, message: String) -> Self {
        Self {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files checked (sources and manifests).
    pub files_scanned: usize,
    /// All findings, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether the workspace is violation-free.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report as a JSON document (stable field order, sorted
    /// diagnostics — byte-identical for identical workspace states).
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                astdme_json::object(
                    &[
                        astdme_json::field("rule", astdme_json::quote(d.rule)),
                        astdme_json::field("file", astdme_json::quote(&d.file)),
                        astdme_json::field("line", (d.line as f64).to_string()),
                        astdme_json::field("message", astdme_json::quote(&d.message)),
                    ],
                    2,
                )
            })
            .collect();
        astdme_json::object(
            &[
                astdme_json::field("clean", if self.is_clean() { "true" } else { "false" }),
                astdme_json::field("files_scanned", (self.files_scanned as f64).to_string()),
                astdme_json::field("diagnostics", astdme_json::array(&diags, 1)),
            ],
            0,
        )
    }
}

/// Lints the workspace rooted at `root`: every tracked `.rs` file and
/// `Cargo.toml` (see the crate docs for what the walk includes). Results
/// are deterministic: files are visited in sorted path order.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in files {
        let abs = root.join(&rel);
        let Ok(src) = fs::read_to_string(&abs) else {
            continue; // non-UTF-8 or vanished mid-walk: nothing to lint
        };
        report.files_scanned += 1;
        let mut diags = if rel.ends_with("Cargo.toml") {
            check_manifest(&rel, &src)
        } else {
            check_source(&rel, &src)
        };
        report.diagnostics.append(&mut diags);
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures"];

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if name == "vendor" && path.parent() == Some(root) {
                // Shim manifests only: their sources mirror upstream
                // APIs and are not held to workspace source rules.
                for shim in fs::read_dir(&path)? {
                    let manifest = shim?.path().join("Cargo.toml");
                    if manifest.is_file() {
                        out.push(rel_of(root, &manifest));
                    }
                }
                continue;
            }
            collect(root, &path, out)?;
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            out.push(rel_of(root, &path));
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path
        .strip_prefix(root)
        .unwrap_or(path)
        .components()
        .collect();
    rel.to_string_lossy().replace('\\', "/")
}
