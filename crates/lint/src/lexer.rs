//! A hand-rolled Rust lexer: just enough tokenization for the lint rules.
//!
//! The lexer produces identifier / literal / punctuation tokens with line
//! numbers, skipping whitespace, strings, and comments — so a rule that
//! looks for the `unsafe` keyword or an `Instant` path segment never fires
//! on a doc comment or a string literal that merely *mentions* them. Line
//! comments are additionally scanned for `astdme-lint:` pragmas (see
//! [`Pragma`]); block comments are not (pragmas anchor to a specific line,
//! and a block comment has no single one).
//!
//! Handled beyond the obvious: nested block comments, raw strings
//! (`r"…"`, `r#"…"#`, any guard depth, plus `b`/`br` prefixes), character
//! literals vs. lifetimes (`'a'` vs. `'a`), escapes inside string and
//! character literals, numeric literals with `_` separators, exponents
//! and `f32`/`f64` suffixes (classified [`TokKind::Float`] vs.
//! [`TokKind::Int`] — the float-eq rule keys on this), and max-munch
//! multi-character punctuation (`==`, `!=`, `::`, `..=`, `<<=`, …).

/// Token classification; the text itself lives in [`Tok::text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the lexer does not distinguish them).
    Ident,
    /// A lifetime such as `'a` (without the quote in `text`).
    Lifetime,
    /// Integer literal (including hex/octal/binary forms).
    Int,
    /// Floating-point literal (`1.0`, `1.`, `2e-9`, `0.5f64`, `1f32`).
    Float,
    /// String literal of any flavor (contents skipped).
    Str,
    /// Character or byte literal.
    Char,
    /// Punctuation, possibly multi-character (`==`, `::`, `->`, …).
    Punct,
}

/// One token: kind, verbatim text, and the 1-indexed line it starts on.
#[derive(Debug, Clone)]
pub struct Tok<'a> {
    /// Classification.
    pub kind: TokKind,
    /// The token text, borrowed from the source.
    pub text: &'a str,
    /// 1-indexed source line of the token's first character.
    pub line: usize,
}

/// A `// astdme-lint: allow(<rule>): <reason>` pragma found in a line
/// comment. An empty `reason` is itself a lint violation — justifications
/// are the whole point of the pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule id inside `allow(…)`.
    pub rule: String,
    /// The trimmed justification after the closing `):`; may be empty.
    pub reason: String,
    /// 1-indexed line the pragma comment starts on.
    pub line: usize,
    /// Whether the comment matched the `allow(<rule>)` shape at all; a
    /// malformed pragma (e.g. missing parentheses) reports as a violation
    /// rather than being silently ignored.
    pub well_formed: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// All tokens in source order.
    pub tokens: Vec<Tok<'a>>,
    /// All `astdme-lint:` pragmas, in source order.
    pub pragmas: Vec<Pragma>,
    /// Total number of source lines (for the file-length rule).
    pub lines: usize,
}

/// Lexes `src` into tokens and pragmas. Unterminated strings or comments
/// end the token stream at the offending point rather than erroring — a
/// lint must degrade gracefully on files the compiler would reject.
pub fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let mut out = Lexed {
        lines: src.lines().count(),
        ..Lexed::default()
    };
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                // `///` and `//!` are doc comments: prose, not pragmas —
                // docs may *mention* the pragma marker without enacting it.
                let doc = matches!(b.get(i + 2), Some(&b'/') | Some(&b'!'));
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                if !doc {
                    scan_pragma(&src[start..i], line, &mut out.pragmas);
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start = i;
                i = skip_string(b, i, &mut line);
                out.push(TokKind::Str, &src[start..i], line);
            }
            b'r' | b'b' if raw_guard(b, i).is_some() => {
                let (hashes, open) = raw_guard(b, i).expect("guard checked");
                let start = i;
                i = open + 1;
                // Scan for `"` followed by `hashes` `#`s.
                'raw: while i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    if b[i] == b'"' {
                        let mut k = 0;
                        while k < hashes && b.get(i + 1 + k) == Some(&b'#') {
                            k += 1;
                        }
                        if k == hashes {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
                out.push(TokKind::Str, &src[start..i], line);
            }
            b'b' if b.get(i + 1) == Some(&b'"') => {
                let start = i;
                i = skip_string(b, i + 1, &mut line);
                out.push(TokKind::Str, &src[start..i], line);
            }
            b'b' if b.get(i + 1) == Some(&b'\'') => {
                let start = i;
                i = skip_char(b, i + 1);
                out.push(TokKind::Char, &src[start..i], line);
            }
            b'\'' => {
                // Lifetime or character literal. `'` + identifier + `'` is
                // a char (`'a'`); `'` + identifier without a closing quote
                // is a lifetime (`'a`, `'static`); anything else (escape,
                // punctuation char) is a char literal.
                let start = i;
                let mut j = i + 1;
                if j < b.len() && (b[j].is_ascii_alphabetic() || b[j] == b'_') {
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    if b.get(j) == Some(&b'\'') {
                        i = j + 1;
                        out.push(TokKind::Char, &src[start..i], line);
                    } else {
                        i = j;
                        out.push(TokKind::Lifetime, &src[start + 1..i], line);
                    }
                } else {
                    i = skip_char(b, i);
                    out.push(TokKind::Char, &src[start..i], line);
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(TokKind::Ident, &src[start..i], line);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i = skip_number(b, i);
                let text = &src[start..i];
                let kind = if is_float(text) {
                    TokKind::Float
                } else {
                    TokKind::Int
                };
                out.push(kind, text, line);
            }
            _ => {
                let len = punct_len(&src[i..]);
                out.push(TokKind::Punct, &src[i..i + len], line);
                i += len;
            }
        }
    }
    out
}

impl<'a> Lexed<'a> {
    fn push(&mut self, kind: TokKind, text: &'a str, line: usize) {
        // Multi-line tokens (raw strings) report their *start* line; the
        // lexer's `line` counter has already advanced past their interior
        // newlines, so recover the start by subtracting them.
        let start_line = line - text.bytes().filter(|&c| c == b'\n').count();
        self.tokens.push(Tok {
            kind,
            text,
            line: start_line,
        });
    }
}

/// Skips a `"…"` literal starting at the opening quote; returns the index
/// just past the closing quote. Handles `\"` and `\\` escapes and counts
/// interior newlines, escaped ones (line continuations) included, into
/// `line`.
fn skip_string(b: &[u8], open: usize, line: &mut usize) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                *line += usize::from(b.get(i + 1) == Some(&b'\n'));
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a `'…'` literal starting at the opening quote; returns the index
/// just past the closing quote.
fn skip_char(b: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// If position `i` starts a raw-string guard (`r"`, `r#…#"`, `br"`, …),
/// returns `(hash_count, index_of_opening_quote)`.
fn raw_guard(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (b.get(j) == Some(&b'"')).then_some((hashes, j))
}

/// Skips a numeric literal starting at a digit; returns the end index.
fn skip_number(b: &[u8], start: usize) -> usize {
    let mut i = start;
    if b[i] == b'0' && matches!(b.get(i + 1), Some(b'x' | b'o' | b'b')) {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return i;
    }
    let digits = |b: &[u8], mut i: usize| {
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
        i
    };
    i = digits(b, i);
    // Fractional part: `.` followed by a digit, or a trailing `.` that is
    // neither a range (`..`) nor a method call / field access (`1.max(2)`).
    if b.get(i) == Some(&b'.') {
        match b.get(i + 1) {
            Some(c) if c.is_ascii_digit() => i = digits(b, i + 1),
            Some(c) if *c == b'.' || c.is_ascii_alphabetic() || *c == b'_' => {}
            _ => i += 1,
        }
    }
    // Exponent.
    if matches!(b.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(b.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if b.get(j).is_some_and(|c| c.is_ascii_digit()) {
            i = digits(b, j);
        }
    }
    // Type suffix (`f64`, `u32`, …).
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    i
}

/// Whether a lexed numeric literal is floating-point.
fn is_float(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0o") || text.starts_with("0b") {
        return false;
    }
    text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains('.')
        || (text.contains(['e', 'E']) && !text.contains(['u', 'i']))
}

/// Length of the punctuation token starting `s` (max munch, 1–3 bytes).
fn punct_len(s: &str) -> usize {
    const THREE: &[&str] = &["<<=", ">>=", "..=", "..."];
    const TWO: &[&str] = &[
        "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=", "-=", "*=", "/=", "%=",
        "^=", "&=", "|=", "<<", ">>",
    ];
    if THREE.iter().any(|p| s.starts_with(p)) {
        3
    } else if TWO.iter().any(|p| s.starts_with(p)) {
        2
    } else {
        s.chars().next().map_or(1, char::len_utf8)
    }
}

/// Scans one line comment for an `astdme-lint:` pragma.
fn scan_pragma(comment: &str, line: usize, out: &mut Vec<Pragma>) {
    const MARK: &str = "astdme-lint:";
    let Some(pos) = comment.find(MARK) else {
        return;
    };
    let rest = comment[pos + MARK.len()..].trim_start();
    let well_formed = rest.starts_with("allow(");
    let (rule, reason) = if well_formed {
        let body = &rest["allow(".len()..];
        match body.find(')') {
            Some(close) => {
                let rule = body[..close].trim().to_string();
                let after = body[close + 1..].trim_start();
                let reason = after.strip_prefix(':').unwrap_or("").trim().to_string();
                (rule, reason)
            }
            None => (String::new(), String::new()),
        }
    } else {
        (String::new(), String::new())
    };
    out.push(Pragma {
        well_formed: well_formed && !rule.is_empty(),
        rule,
        reason,
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .iter()
            .map(|t| (t.kind, t.text.to_string()))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"let x = "unsafe Instant"; // unsafe in a comment
/* Instant::now() in /* nested */ block */ let y = r#"thread::spawn"#;"##;
        let toks = kinds(src);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && (t == "unsafe" || t == "Instant")));
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            2,
            "both string flavors lex as single tokens"
        );
    }

    #[test]
    fn line_continuations_in_strings_count_their_newline() {
        let lx = lex("let s = \"a \\\n b\";\nlet t = 1;\n");
        let t = lx.tokens.iter().find(|t| t.text == "t").expect("lexed");
        assert_eq!(t.line, 3);
        assert_eq!(lx.tokens[3].line, 1, "the string reports its start line");
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds(r"fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
        let esc = kinds(r"let c = '\n'; let s = 'static;");
        assert!(esc.iter().any(|(k, _)| *k == TokKind::Char));
        assert!(esc
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "static"));
    }

    #[test]
    fn float_vs_int_and_method_calls() {
        let toks = kinds("let a = 1.0 + 2e-9 + 3f64 + 4 + 0x1f + 1.max(2) + x.0;");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(floats, vec!["1.0", "2e-9", "3f64"]);
        // `1.max(2)` lexes `1` as an int, `.` as punctuation.
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "1"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "0x1f"));
    }

    #[test]
    fn multibyte_punctuation_is_single_tokens() {
        let toks = kinds("a == b != c :: d ..= e");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "::", "..="]);
    }

    #[test]
    fn pragmas_parse_rule_and_reason() {
        let lx = lex("let x = 1; // astdme-lint: allow(map-iter): keys are dense\n// astdme-lint: allow(wall-clock):\n// astdme-lint: misspelled\n");
        assert_eq!(lx.pragmas.len(), 3);
        assert_eq!(lx.pragmas[0].rule, "map-iter");
        assert_eq!(lx.pragmas[0].reason, "keys are dense");
        assert_eq!(lx.pragmas[0].line, 1);
        assert!(lx.pragmas[0].well_formed);
        assert_eq!(lx.pragmas[1].reason, "");
        assert!(lx.pragmas[1].well_formed);
        assert!(!lx.pragmas[2].well_formed);
    }
}
