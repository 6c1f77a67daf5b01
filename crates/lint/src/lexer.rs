//! A minimal Rust lexer: just enough token structure for mechanical
//! invariant checks.
//!
//! This is deliberately *not* a full Rust parser. The invariants the
//! lint enforces (DESIGN.md §8, §12) are all expressible over a flat
//! token stream plus brace matching: "this identifier is iterated",
//! "this lock is held across that call". A token-level view is robust
//! against formatting, comments and string contents — the three things
//! that break naive `grep`-based enforcement — while staying a few
//! hundred lines of dependency-free code that cannot rot out from under
//! the build.
//!
//! What it gets right, because the rules need it:
//! * comments (line, nested block) are lexed out of the token stream
//!   and kept separately, with line spans, so escape-hatch directives
//!   can be matched to the code they cover;
//! * string/char/byte/raw-string literals are opaque single tokens —
//!   a `".lock()"` inside a log message is not a lock;
//! * lifetimes are distinguished from char literals;
//! * every token carries its 1-based source line for diagnostics.

/// Token classification. Coarse on purpose: rules match on text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the rules treat keywords by name).
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
    /// Any literal: string, raw string, byte string, char, number.
    Lit,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// One comment (line or block), removed from the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line where the comment starts.
    pub line: u32,
    /// 1-based line where the comment ends (block comments can span).
    pub end_line: u32,
    /// Full text including the `//` / `/* */` markers.
    pub text: String,
}

/// Lexer output: tokens plus the comments that were between them.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Tokenize `src`. Never fails: unexpected bytes become punct tokens,
/// and unterminated literals run to end of input — a linter must keep
/// going on malformed input rather than abort the whole check.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b' ' | b'\t' | b'\r' => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.cooked_string(),
                b'\'' => self.quote(),
                b'b' | b'r' if self.string_prefix() => self.prefixed_string(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident(),
                _ => {
                    self.push(TokKind::Punct, (c as char).to_string());
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String) {
        self.out.toks.push(Tok {
            kind,
            text,
            line: self.line,
        });
    }

    /// Does the `b`/`r` at the cursor start a string literal rather
    /// than an identifier? Handles `b"`, `b'`, `br"`, `r"`, `r#"`,
    /// `br#"`, and distinguishes the raw identifier `r#ident`.
    fn string_prefix(&self) -> bool {
        let mut j = self.i + 1;
        if self.b[self.i] == b'b' && self.peek(1) == Some(b'r') {
            j += 1;
        }
        // Skip raw-string hashes.
        let hashes_start = j;
        while self.b.get(j) == Some(&b'#') {
            j += 1;
        }
        match self.b.get(j) {
            Some(&b'"') => true,
            // `b'x'` byte char (no hashes allowed).
            Some(&b'\'') => self.b[self.i] == b'b' && hashes_start == j,
            _ => false,
        }
    }

    fn line_comment(&mut self) {
        let start = self.i;
        let line = self.line;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        self.out.comments.push(Comment {
            line,
            end_line: line,
            text: String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
        });
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let line = self.line;
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            match (self.b[self.i], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.i += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.i += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.out.comments.push(Comment {
            line,
            end_line: self.line,
            text: String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
        });
    }

    /// A `"..."` string with escapes. The cursor is on the `"`.
    fn cooked_string(&mut self) {
        let start = self.i;
        let line = self.line;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.out.toks.push(Tok {
            kind: TokKind::Lit,
            text: String::from_utf8_lossy(&self.b[start..self.i.min(self.b.len())]).into_owned(),
            line,
        });
    }

    /// `'` starts either a lifetime or a char literal.
    fn quote(&mut self) {
        let nxt = self.peek(1);
        if let Some(c) = nxt {
            if is_ident_start(c) {
                // Scan the identifier; a closing quote right after it
                // means a char literal like 'a', otherwise a lifetime.
                let mut j = self.i + 1;
                while self.b.get(j).copied().is_some_and(is_ident_continue) {
                    j += 1;
                }
                if self.b.get(j) != Some(&b'\'') {
                    let text = String::from_utf8_lossy(&self.b[self.i + 1..j]).into_owned();
                    self.push(TokKind::Lifetime, text);
                    self.i = j;
                    return;
                }
            }
        }
        // Char literal (possibly escaped).
        let start = self.i;
        let line = self.line;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    // Unterminated; stop at the line break.
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.out.toks.push(Tok {
            kind: TokKind::Lit,
            text: String::from_utf8_lossy(&self.b[start..self.i.min(self.b.len())]).into_owned(),
            line,
        });
    }

    /// `b"..."`, `br#"..."#`, `r"..."`, `r#"..."#`, `b'x'`, `r#ident`.
    fn prefixed_string(&mut self) {
        let start = self.i;
        let line = self.line;
        let mut j = self.i + 1;
        if self.b[self.i] == b'b' && self.b.get(j) == Some(&b'r') {
            j += 1;
        }
        let mut hashes = 0usize;
        while self.b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        match self.b.get(j) {
            Some(&b'"') => {
                // Raw (or cooked byte) string: raw iff `r` present.
                let raw = self.b[self.i] == b'r' || self.b.get(self.i + 1) == Some(&b'r');
                self.i = j + 1;
                if raw {
                    // Scan for `"` followed by `hashes` hashes.
                    while self.i < self.b.len() {
                        if self.b[self.i] == b'\n' {
                            self.line += 1;
                        }
                        if self.b[self.i] == b'"' {
                            let all = (1..=hashes).all(|k| self.b.get(self.i + k) == Some(&b'#'));
                            if all {
                                self.i += 1 + hashes;
                                break;
                            }
                        }
                        self.i += 1;
                    }
                } else {
                    while self.i < self.b.len() {
                        match self.b[self.i] {
                            b'\\' => self.i += 2,
                            b'"' => {
                                self.i += 1;
                                break;
                            }
                            b'\n' => {
                                self.line += 1;
                                self.i += 1;
                            }
                            _ => self.i += 1,
                        }
                    }
                }
                self.out.toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::from_utf8_lossy(&self.b[start..self.i.min(self.b.len())])
                        .into_owned(),
                    line,
                });
            }
            Some(&b'\'') => {
                // `b'x'` byte char.
                self.i = j;
                self.quote();
            }
            _ => {
                // `r#ident` raw identifier (or a stray prefix): fall
                // back to identifier lexing from the prefix letter.
                self.ident();
            }
        }
    }

    fn number(&mut self) {
        let start = self.i;
        while self.b.get(self.i).copied().is_some_and(is_ident_continue) {
            self.i += 1;
        }
        // Fractional part: `1.5` but not `1..2` or `1.max(..)`.
        if self.b.get(self.i) == Some(&b'.')
            && self
                .b
                .get(self.i + 1)
                .copied()
                .is_some_and(|c| c.is_ascii_digit())
        {
            self.i += 1;
            while self.b.get(self.i).copied().is_some_and(is_ident_continue) {
                self.i += 1;
            }
        }
        self.push(
            TokKind::Lit,
            String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
        );
    }

    fn ident(&mut self) {
        let start = self.i;
        // Raw identifier prefix.
        if self.b[self.i] == b'r' && self.peek(1) == Some(b'#') {
            self.i += 2;
        }
        while self.b.get(self.i).copied().is_some_and(is_ident_continue) {
            self.i += 1;
        }
        self.push(
            TokKind::Ident,
            String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_puncts_lines() {
        let l = lex("fn a() {\n  b.c();\n}");
        assert_eq!(
            l.toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            ["fn", "a", "(", ")", "{", "b", ".", "c", "(", ")", ";", "}"]
        );
        assert_eq!(l.toks[5].line, 2); // `b`
        assert_eq!(l.toks[11].line, 3); // `}`
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("a // hey\n/* b\nc */ d");
        assert_eq!(
            l.toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            ["a", "d"]
        );
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text, "// hey");
        assert_eq!(l.comments[1].line, 2);
        assert_eq!(l.comments[1].end_line, 3);
        assert_eq!(l.toks[1].line, 3);
    }

    #[test]
    fn strings_are_opaque() {
        // The panic! inside the string must not produce tokens.
        assert_eq!(
            texts(r#"x("panic!(a[0])")"#),
            ["x", "(", "\"panic!(a[0])\"", ")"]
        );
    }

    #[test]
    fn raw_and_byte_strings() {
        assert_eq!(texts(r###"r#"un"wrap"# b"by" br#"r"# rdata"###).len(), 4);
        let l = lex(r###"r#"un"wrap"#"###);
        assert_eq!(l.toks[0].kind, TokKind::Lit);
        // `rdata` must stay an identifier despite the r prefix.
        let l = lex("rdata");
        assert_eq!(l.toks[0].kind, TokKind::Ident);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let l = lex("&'a x '\\'' 'b'");
        assert_eq!(l.toks[1].kind, TokKind::Lifetime);
        assert_eq!(l.toks[1].text, "a");
        assert_eq!(l.toks[3].kind, TokKind::Lit);
        assert_eq!(l.toks[4].kind, TokKind::Lit);
        assert_eq!(l.toks[4].text, "'b'");
    }

    #[test]
    fn nested_block_comment() {
        let l = lex("/* a /* b */ c */ x");
        assert_eq!(l.toks.len(), 1);
        assert_eq!(l.toks[0].text, "x");
    }

    #[test]
    fn numbers() {
        assert_eq!(texts("1_000u64 0xff 1.5 1.max(2)").len(), 9);
        let l = lex("1.5e3");
        assert_eq!(l.toks[0].text, "1.5e3");
    }

    #[test]
    fn raw_identifier() {
        let l = lex("r#type");
        assert_eq!(l.toks.len(), 1);
        assert_eq!(l.toks[0].kind, TokKind::Ident);
    }
}
