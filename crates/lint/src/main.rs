//! CLI for `astdme_lint`.
//!
//! ```text
//! astdme_lint [--root <dir>] [--json] [--expect-clean] [--size]
//! ```
//!
//! With no `--root`, walks up from the current directory to the nearest
//! `Cargo.toml` containing `[workspace]`. `--json` replaces the
//! `file:line: [rule] message` lines with the machine-readable report;
//! `--expect-clean` makes any diagnostic a nonzero exit (the CI gate).
//! `--size` prints the non-test and test lines per crate and in total
//! instead of linting (as JSON with `--json`).

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(src) = std::fs::read_to_string(&manifest) {
            if src.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut expect_clean = false;
    let mut size = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("astdme_lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--expect-clean" => expect_clean = true,
            "--size" => size = true,
            "--help" | "-h" => {
                println!("usage: astdme_lint [--root <dir>] [--json] [--expect-clean] [--size]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("astdme_lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("astdme_lint: no workspace root found (pass --root <dir>)");
        return ExitCode::from(2);
    };
    if size {
        let Ok(rows) = astdme_lint::size_workspace(&root) else {
            eprintln!("astdme_lint: failed to walk {}", root.display());
            return ExitCode::from(2);
        };
        print!("{}", astdme_lint::size_report(&rows, json));
        return ExitCode::SUCCESS;
    }
    let report = match astdme_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("astdme_lint: failed to walk {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", report.to_json());
    } else {
        for diag in &report.diagnostics {
            println!("{diag}");
        }
        eprintln!(
            "astdme_lint: {} file(s) scanned, {} violation(s)",
            report.files_scanned,
            report.diagnostics.len()
        );
    }
    if expect_clean && !report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
