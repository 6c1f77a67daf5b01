//! Per-file source model built on top of the lexer: the token stream,
//! which tokens live inside test-only code, and the parsed
//! `bootscan-allow` escape-hatch directives.

use crate::lexer::{lex, Comment, Tok, TokKind};
use std::cell::Cell;

/// One parsed `// bootscan-allow(<rule>): <reason>` directive.
///
/// The directive suppresses findings of `rule` on the line it sits on
/// (trailing form) and on the first code line after it (preceding
/// form). An empty reason and an allow that suppresses nothing are
/// both reported as errors, so suppressions cannot rot (DESIGN.md §8).
#[derive(Debug)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    /// Line of the comment carrying the directive.
    pub line: u32,
    /// Lines this allow covers (the comment's own line and the first
    /// following line that holds any token).
    pub covers: Vec<u32>,
    /// Set when a finding was suppressed by this allow.
    pub used: Cell<bool>,
}

/// A lexed source file plus the derived structure the rules need.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub toks: Vec<Tok>,
    /// Parallel to `toks`: true when the token is inside a
    /// `#[cfg(test)]`-gated item or a `#[test]` function.
    pub in_test: Vec<bool>,
    pub allows: Vec<Allow>,
}

impl SourceFile {
    pub fn parse(rel: String, src: &str) -> SourceFile {
        let lexed = lex(src);
        let in_test = test_mask(&lexed.toks);
        let allows = parse_allows(&lexed.comments, &lexed.toks);
        SourceFile {
            rel,
            toks: lexed.toks,
            in_test,
            allows,
        }
    }
}

/// Mark every token covered by a `#[cfg(test)]` item or a `#[test]`
/// function. Works by brace matching from the attribute: the gated
/// item runs to its matching close brace (or to `;` for brace-less
/// items such as gated `use` declarations).
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).map(|t| t.text.as_str()) == Some("[") {
            let (attr_end, is_test) = scan_attr(toks, i);
            if is_test {
                let span_end = item_end(toks, attr_end);
                for m in mask.iter_mut().take(span_end.min(toks.len())).skip(i) {
                    *m = true;
                }
                i = span_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    mask
}

/// Scan the attribute starting at `#` (index `at`); return the index
/// one past its closing `]` and whether it gates test-only code
/// (`#[cfg(test)]`, `#[cfg(all(test, ...))]`, `#[test]`, ...).
fn scan_attr(toks: &[Tok], at: usize) -> (usize, bool) {
    // Skip `#` and an optional inner-attribute `!`.
    let mut j = at + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some("!") {
        j += 1;
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("[") {
        return (at + 1, false);
    }
    let mut depth = 0usize;
    let mut first_ident: Option<&str> = None;
    let mut saw_test = false;
    let mut saw_not = false;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            t => {
                if toks[j].kind == TokKind::Ident {
                    if first_ident.is_none() {
                        first_ident = Some(t);
                    }
                    match t {
                        "test" => saw_test = true,
                        // `#[cfg(not(test))]` gates *non*-test code.
                        "not" => saw_not = true,
                        _ => {}
                    }
                }
            }
        }
        j += 1;
    }
    let gated = matches!(first_ident, Some("cfg") | Some("test")) && saw_test && !saw_not;
    (j, gated)
}

/// Find the end (exclusive token index) of the item that starts after
/// an attribute: skip further attributes, then match braces — or stop
/// at a top-level `;` for brace-less items.
fn item_end(toks: &[Tok], mut j: usize) -> usize {
    // Skip any further attributes on the same item.
    while toks.get(j).map(|t| t.text.as_str()) == Some("#") {
        let (end, _) = scan_attr(toks, j);
        j = end;
    }
    let mut paren = 0isize;
    let mut brace = 0isize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace == 0 {
                    return j + 1;
                }
            }
            ";" if brace == 0 && paren == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Parse `bootscan-allow(<rule>): <reason>` directives out of the
/// comment list. Grammar is deliberately rigid — a malformed directive
/// (no parens, no colon) still parses, with an empty reason, so the
/// engine reports it instead of silently ignoring it.
fn parse_allows(comments: &[Comment], toks: &[Tok]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        // A directive must lead the comment (after the `//`/`///`/`/*`
        // markers); prose that merely *mentions* bootscan-allow — such
        // as this module's own documentation — is not a directive.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("bootscan-allow") {
            continue;
        }
        let rest = &body["bootscan-allow".len()..];
        let (rule, reason) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((rule, tail)) => {
                let reason = tail
                    .strip_prefix(':')
                    .map(|r| r.trim().to_string())
                    .unwrap_or_default();
                (rule.trim().to_string(), reason)
            }
            None => (String::new(), String::new()),
        };
        // Cover the comment's own line(s) and the next code line.
        let mut covers: Vec<u32> = (c.line..=c.end_line).collect();
        if let Some(next) = toks.iter().map(|t| t.line).find(|&l| l > c.end_line) {
            covers.push(next);
        }
        out.push(Allow {
            rule,
            reason,
            line: c.line,
            covers,
            used: Cell::new(false),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let sf = SourceFile::parse(
            "x.rs".into(),
            "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}",
        );
        let unwrap_idx = sf.toks.iter().position(|t| t.text == "unwrap").unwrap();
        assert!(sf.in_test[unwrap_idx]);
        let c_idx = sf.toks.iter().rposition(|t| t.text == "c").unwrap();
        assert!(!sf.in_test[c_idx]);
    }

    #[test]
    fn test_mask_covers_test_fn_and_braceless_item() {
        let sf = SourceFile::parse(
            "x.rs".into(),
            "#[cfg(test)]\nuse x::y;\n#[test]\nfn t() { a[0]; }\nfn live() { b; }",
        );
        let a = sf.toks.iter().position(|t| t.text == "a").unwrap();
        assert!(sf.in_test[a]);
        let b = sf.toks.iter().position(|t| t.text == "b").unwrap();
        assert!(!sf.in_test[b]);
        let y = sf.toks.iter().position(|t| t.text == "y").unwrap();
        assert!(sf.in_test[y]);
    }

    #[test]
    fn allow_parses_rule_reason_and_coverage() {
        let sf = SourceFile::parse(
            "x.rs".into(),
            "// bootscan-allow(T001): bounded draw\nfn f() {}\nlet x = 1; // bootscan-allow(D002): trailing\n",
        );
        assert_eq!(sf.allows.len(), 2);
        assert_eq!(sf.allows[0].rule, "T001");
        assert_eq!(sf.allows[0].reason, "bounded draw");
        assert!(sf.allows[0].covers.contains(&2));
        assert_eq!(sf.allows[1].rule, "D002");
        assert!(sf.allows[1].covers.contains(&3));
    }

    #[test]
    fn malformed_allow_has_empty_reason() {
        let sf = SourceFile::parse("x.rs".into(), "// bootscan-allow(D002)\nfn f() {}");
        assert_eq!(sf.allows[0].rule, "D002");
        assert!(sf.allows[0].reason.is_empty());
        let sf = SourceFile::parse("x.rs".into(), "// bootscan-allow(D002):   \nfn f() {}");
        assert!(sf.allows[0].reason.is_empty());
    }

    #[test]
    fn stacked_allows_cover_the_same_code_line() {
        let sf = SourceFile::parse(
            "x.rs".into(),
            "// bootscan-allow(L003): a\n// bootscan-allow(T002): b\ninsert_tagged(x.lock());",
        );
        assert!(sf.allows[0].covers.contains(&3));
        assert!(sf.allows[1].covers.contains(&3));
    }
}
