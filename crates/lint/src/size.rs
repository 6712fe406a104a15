//! The workspace's size in lines, non-test and test code apart.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use astdme_json::{array, field, object, quote};

use crate::lexer::lex;
use crate::rules::first_cfg_test;

/// Per crate, its directory (`crates/<dir>`, or `.` for the root
/// package's `src/`, `tests/` and `examples/`) with its non-test and test
/// lines, sorted by directory. Every `.rs` file under `crates/`, `src/`,
/// `tests/` and `examples/` counts, lint fixtures excluded. A file in a
/// `tests/` directory or a `tests.rs` module is test code whole; any other
/// file is test code from its first `#[cfg(test)]` attribute on (rule
/// `test-mod-last` keeps that item last). Every line counts, blank or
/// comment alike.
pub fn size_workspace(root: &Path) -> io::Result<Vec<(String, usize, usize)>> {
    let mut sizes: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for rel in crate::walk(root)? {
        let dirs = ["crates/", "src/", "tests/", "examples/"];
        if !rel.ends_with(".rs") || !dirs.iter().any(|d| rel.starts_with(d)) {
            continue;
        }
        let Ok(src) = fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let krate = match rel.strip_prefix("crates/").map(|r| r.split('/').next()) {
            Some(Some(dir)) => format!("crates/{dir}"),
            _ => ".".to_string(),
        };
        let (non_test, test) = split_lines(&rel, &src);
        let row = sizes.entry(krate).or_default();
        *row = (row.0 + non_test, row.1 + test);
    }
    Ok(sizes.into_iter().map(|(k, (n, t))| (k, n, t)).collect())
}

/// The `(non-test, test)` lines of the file at `rel` with source `src`.
fn split_lines(rel: &str, src: &str) -> (usize, usize) {
    let lines = src.lines().count();
    let mut dirs = rel.split('/').rev();
    if dirs.next() == Some("tests.rs") || dirs.any(|d| d == "tests") {
        return (0, lines);
    }
    let lx = lex(src);
    let before = first_cfg_test(&lx).map_or(lines, |i| lx.tokens[i].line - 1);
    (before, lines - before)
}

/// Renders the [`size_workspace`] `rows` and their total as a text
/// table, or with `json` as a JSON document.
pub fn size_report(rows: &[(String, usize, usize)], json: bool) -> String {
    let total = (
        "total".to_string(),
        rows.iter().map(|r| r.1).sum(),
        rows.iter().map(|r| r.2).sum(),
    );
    if json {
        let obj = |first: String, (_, n, t): &(String, usize, usize), indent| {
            let (n, t) = (
                field("non_test", n.to_string()),
                field("test", t.to_string()),
            );
            object(&[first, n, t], indent)
        };
        let items: Vec<String> = rows
            .iter()
            .map(|r| obj(field("crate", quote(&r.0)), r, 2))
            .collect();
        return obj(field("crates", array(&items, 1)), &total, 0) + "\n";
    }
    let line = |(k, n, t): &(String, usize, usize)| format!("{k:<20} {n:>9} {t:>9}\n");
    let head = format!("{:<20} {:>9} {:>9}\n", "crate", "non-test", "test");
    head + &rows.iter().chain([&total]).map(line).collect::<String>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_code_starts_at_the_first_cfg_test_attribute() {
        let src = "fn a() {}\n// #[cfg(test)] in a comment\nfn b() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(split_lines("crates/topo/src/x.rs", src), (4, 4));
        assert_eq!(split_lines("crates/topo/src/y.rs", "fn a() {}\n"), (1, 0));
    }

    #[test]
    fn tests_dirs_and_tests_modules_are_test_code_whole() {
        let src = "fn a() {}\nfn b() {}\n";
        assert_eq!(split_lines("tests/eco.rs", src), (0, 2));
        assert_eq!(
            split_lines("crates/topo/tests/planner_equiv.rs", src),
            (0, 2)
        );
        assert_eq!(split_lines("crates/topo/src/grid/tests.rs", src), (0, 2));
        assert_eq!(split_lines("crates/topo/src/tests_util.rs", src), (2, 0));
    }

    #[test]
    fn the_text_and_json_carry_per_crate_rows_and_totals() {
        let rows = [(".".to_string(), 10, 5), ("crates/topo".to_string(), 7, 1)];
        let text = size_report(&rows, false);
        let last = text.lines().last().expect("a total line");
        assert_eq!(
            last.split_whitespace().collect::<Vec<_>>(),
            ["total", "17", "6"]
        );
        let json = size_report(&rows, true);
        assert!(json.contains("\"crate\": \"crates/topo\""), "{json}");
        assert!(json.contains("\"non_test\": 17"), "{json}");
    }
}
