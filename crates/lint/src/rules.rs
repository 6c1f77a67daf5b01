//! The invariant catalog (DESIGN.md §8): every rule the workspace
//! enforces on itself, as a mechanical check over the token stream.
//!
//! Rule families:
//! * **D — determinism.** The paper's tables are only trustworthy if a
//!   scan is a pure function of `(world seed, fault plan, policy)`;
//!   ambient time, ambient randomness and hash-iteration order are the
//!   three ways nondeterminism has actually crept in (PR 1 shipped a
//!   `HashMap`-iteration-order bug that survived review).
//! * **P — panic-safety.** Hostile wire bytes must degrade into typed
//!   errors, never abort the scanner: no `unwrap`/`panic!`/indexing in
//!   decode and response-acceptance paths.
//! * **E — error taxonomy.** Every `ScanError`/`HostileCause` variant
//!   must be explicitly reported in the degradation path; a wildcard
//!   arm is a silent fold.
//! * **U/J — hygiene.** `#![forbid(unsafe_code)]` on every crate;
//!   every `#[allow]` carries a human justification.

use crate::source::SourceFile;

/// One raw finding produced by a checker, before escape-hatch
/// resolution. `tok` indexes the token that triggered it (used to
/// drop findings inside test-only code).
#[derive(Debug)]
pub struct RawFinding {
    pub line: u32,
    pub msg: String,
    pub tok: usize,
}

/// A per-file rule: scope globs plus a token-level checker.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    /// Workspace-relative path globs the rule applies to.
    pub include: &'static [&'static str],
    pub exclude: &'static [&'static str],
    /// When true (the default for every rule), findings inside
    /// `#[cfg(test)]` items and `#[test]` fns are dropped.
    pub skip_tests: bool,
    pub check: fn(&SourceFile) -> Vec<RawFinding>,
}

/// Evidence-plane crates: everything whose output feeds the report.
/// scan-fabric is included whole: its merge path folds journal events
/// into the byte-compared report, so hash-order iteration or ambient
/// state anywhere in the crate can corrupt the determinism contract.
/// scan-epochs likewise: its carry ledger seeds scanner caches and its
/// report types serialize the per-epoch reports that must stay
/// byte-identical to cold scans.
/// scan-continuous sits on top of both — its admission decisions and
/// epoch folds feed the byte-compared time series, so the same
/// determinism contract applies.
const EVIDENCE_SRC: &[&str] = &[
    "crates/core/src/**",
    "crates/dns-resolver/src/**",
    "crates/dns-ecosystem/src/**",
    "crates/scan-journal/src/**",
    "crates/scan-fabric/src/**",
    "crates/scan-epochs/src/**",
    "crates/scan-continuous/src/**",
];

/// Decode paths (hostile bytes) and response-acceptance paths
/// (hostile answers): the scanner's entire untrusted-input surface.
const PANIC_SCOPE: &[&str] = &[
    "crates/dns-wire/src/**",
    "crates/dns-resolver/src/client.rs",
    "crates/dns-resolver/src/validate.rs",
    "crates/dns-resolver/src/iterate.rs",
    "crates/dns-resolver/src/hostile.rs",
    // The fabric's frame decoder. Off the fabric's path since workers
    // exchange typed channel values; kept (with this entry) only for the
    // frozen benchmark's frame probe until ROADMAP 2(b) removes both.
    "crates/scan-fabric/src/protocol.rs",
];

/// Files inside the dns-wire tree that never see network bytes:
/// `compress.rs` is the message *encoder* (it consumes only Name buffers
/// that the decode path already validated), and `presentation.rs` parses
/// operator-authored zone text, not hostile wire input.
const PANIC_SCOPE_EXCLUDE: &[&str] = &[
    "crates/dns-wire/src/compress.rs",
    "crates/dns-wire/src/presentation.rs",
];

/// The full per-file rule catalog, in rule-ID order.
pub fn catalog() -> Vec<Rule> {
    vec![
        Rule {
            id: "D001",
            summary: "ambient time/randomness (Instant::now, SystemTime::now, thread_rng, \
                      thread::sleep) outside crates/bench and the vendored shims",
            include: &["**"],
            exclude: &["crates/bench/**", "shims/**"],
            skip_tests: true,
            check: check_d001,
        },
        Rule {
            id: "D002",
            summary: "iteration over HashMap/HashSet in an evidence-plane crate \
                      (hash order is nondeterministic across processes)",
            include: EVIDENCE_SRC,
            exclude: &[],
            skip_tests: true,
            check: check_d002,
        },
        Rule {
            id: "D003",
            summary: "ambient process state (std::env) in evidence-plane code \
                      (configuration must flow through explicit arguments)",
            include: &[
                "crates/core/src/**",
                "crates/dns-resolver/src/**",
                "crates/dns-ecosystem/src/**",
                "crates/scan-journal/src/**",
                "crates/scan-fabric/src/**",
                "crates/scan-epochs/src/**",
                "crates/scan-continuous/src/**",
                "crates/dns-wire/src/**",
            ],
            exclude: &[],
            skip_tests: true,
            check: check_d003,
        },
        Rule {
            id: "P001",
            summary: "unwrap/expect/panic!/assert! in a decode or response-acceptance \
                      path (hostile input must degrade, never abort)",
            include: PANIC_SCOPE,
            exclude: PANIC_SCOPE_EXCLUDE,
            skip_tests: true,
            check: check_p001,
        },
        Rule {
            id: "P002",
            summary: "slice/array indexing in a decode or response-acceptance path \
                      (use checked access; indexing panics on hostile lengths)",
            include: PANIC_SCOPE,
            exclude: PANIC_SCOPE_EXCLUDE,
            skip_tests: true,
            check: check_p002,
        },
        Rule {
            id: "J001",
            summary: "#[allow(...)] without a justification comment on the line above",
            include: &["**"],
            exclude: &[],
            skip_tests: true,
            check: check_j001,
        },
    ]
}

/// Cross-file checks (E001 taxonomy exhaustiveness) configuration.
pub struct TaxonomyCheck {
    /// File declaring the enum, workspace-relative.
    pub enum_file: &'static str,
    pub enum_name: &'static str,
    /// File holding the degradation-reporting functions.
    pub report_file: &'static str,
    /// Functions that together must name every variant.
    pub report_fns: &'static [&'static str],
}

/// E001: the degradation-reporting path must match every failure
/// variant by name — no wildcard folds. A check is skipped when its
/// enum file is absent (fixture corpora carve out subsets).
pub fn taxonomy_checks() -> Vec<TaxonomyCheck> {
    vec![
        TaxonomyCheck {
            enum_file: "crates/core/src/error.rs",
            enum_name: "ScanError",
            report_file: "crates/core/src/error.rs",
            report_fns: &["record"],
        },
        TaxonomyCheck {
            enum_file: "crates/dns-resolver/src/hostile.rs",
            enum_name: "HostileCause",
            report_file: "crates/core/src/error.rs",
            report_fns: &["note_hostile"],
        },
    ]
}

/// U001: is `rel` a crate root that must carry `#![forbid(unsafe_code)]`?
pub fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(
        parts.as_slice(),
        ["crates", _, "src", "lib.rs"] | ["shims", _, "src", "lib.rs"]
    )
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

fn text(sf: &SourceFile, i: usize) -> &str {
    sf.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Does a `::`-separated path of identifiers start at token `i`?
/// `parts` lists just the identifiers: `["Instant", "now"]` matches
/// the token run `Instant : : now`.
fn path_at(sf: &SourceFile, i: usize, parts: &[&str]) -> bool {
    let mut j = i;
    for (n, part) in parts.iter().enumerate() {
        if text(sf, j) != *part {
            return false;
        }
        j += 1;
        if n + 1 < parts.len() {
            if text(sf, j) != ":" || text(sf, j + 1) != ":" {
                return false;
            }
            j += 2;
        }
    }
    true
}

/// Identifiers mentioned in the receiver chain feeding the method
/// call whose `.` sits at token `dot`. Walks backwards over balanced
/// `()`/`[]` groups (so `self.map.lock().iter()` yields
/// `[lock, map, self]`), stopping at statement boundaries or after
/// `limit` tokens.
pub(crate) fn receiver_idents(sf: &SourceFile, dot: usize, limit: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut j = dot;
    for _ in 0..limit {
        if j == 0 {
            break;
        }
        j -= 1;
        let t = text(sf, j);
        match t {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" | "{" | "}" | "=" | "," | "in" | "let" | "for" | "match" | "return" => {
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if depth == 0 && sf.toks[j].kind == crate::lexer::TokKind::Ident {
                    out.push(t.to_string());
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// D001 — ambient time & randomness
// ---------------------------------------------------------------------

fn check_d001(sf: &SourceFile) -> Vec<RawFinding> {
    const PATHS: &[&[&str]] = &[
        &["Instant", "now"],
        &["SystemTime", "now"],
        &["Utc", "now"],
        &["Local", "now"],
        &["thread", "sleep"],
    ];
    const BARE: &[&str] = &["thread_rng", "OsRng", "from_entropy", "getrandom"];
    let mut out = Vec::new();
    for i in 0..sf.toks.len() {
        for p in PATHS {
            if path_at(sf, i, p) {
                out.push(RawFinding {
                    line: sf.toks[i].line,
                    msg: format!(
                        "ambient `{}` breaks scan determinism; use the netsim virtual \
                         clock / seeded RNG",
                        p.join("::")
                    ),
                    tok: i,
                });
            }
        }
        if BARE.contains(&text(sf, i)) {
            out.push(RawFinding {
                line: sf.toks[i].line,
                msg: format!(
                    "ambient randomness `{}` breaks scan determinism; derive from the \
                     world seed",
                    text(sf, i)
                ),
                tok: i,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// D002 — hash-order iteration
// ---------------------------------------------------------------------

/// Methods whose results expose hash-iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers declared (anywhere in the file) with a HashMap/HashSet
/// type, via `name: HashMap<..>` annotations (fields, lets, params —
/// possibly wrapped in `&`/`Mutex<`/`Arc<`/`Vec<`…) or
/// `name = HashMap::new()` initializers.
fn hash_named_idents(sf: &SourceFile) -> Vec<String> {
    const WRAPPERS: &[&str] = &[
        "Mutex", "RwLock", "Arc", "Rc", "Box", "Option", "Vec", "mut",
    ];
    let mut names = Vec::new();
    for i in 0..sf.toks.len() {
        let t = text(sf, i);
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        // Walk back over wrapper idents and type punctuation to the
        // `:` or `=` that binds this type to a name.
        let mut j = i;
        while j > 0 {
            j -= 1;
            let b = text(sf, j);
            if b == "<" || b == "&" || b == "(" || WRAPPERS.contains(&b) {
                continue;
            }
            if (b == ":" && text(sf, j.wrapping_sub(1)) != ":" && text(sf, j + 1) != ":")
                || b == "="
            {
                if j == 0 {
                    break;
                }
                let name = text(sf, j - 1);
                if sf.toks[j - 1].kind == crate::lexer::TokKind::Ident
                    && !names.iter().any(|n| n == name)
                {
                    names.push(name.to_string());
                }
            }
            break;
        }
    }
    names
}

fn check_d002(sf: &SourceFile) -> Vec<RawFinding> {
    let names = hash_named_idents(sf);
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..sf.toks.len() {
        // `recv.iter()` / `recv.lock().values()` ...
        if text(sf, i) == "." && ITER_METHODS.contains(&text(sf, i + 1)) && text(sf, i + 2) == "(" {
            let recv = receiver_idents(sf, i, 16);
            if let Some(n) = recv.iter().find(|n| names.contains(n)) {
                out.push(RawFinding {
                    line: sf.toks[i + 1].line,
                    msg: format!(
                        "`.{}()` over hash-keyed `{n}` exposes nondeterministic order; \
                         use a BTree collection or sort before use",
                        text(sf, i + 1)
                    ),
                    tok: i + 1,
                });
            }
        }
        // `for x in &recv { .. }` (method-less form).
        if text(sf, i) == "in" {
            let mut j = i + 1;
            while matches!(text(sf, j), "&" | "mut") {
                j += 1;
            }
            let mut chain = Vec::new();
            while sf.toks.get(j).map(|t| t.kind) == Some(crate::lexer::TokKind::Ident)
                || text(sf, j) == "."
            {
                if text(sf, j) != "." {
                    chain.push(text(sf, j).to_string());
                }
                j += 1;
            }
            if text(sf, j) == "{" {
                if let Some(n) = chain.iter().find(|n| names.contains(n)) {
                    out.push(RawFinding {
                        line: sf.toks[i].line,
                        msg: format!(
                            "`for .. in` over hash-keyed `{n}` exposes nondeterministic \
                             order; use a BTree collection or sort before use"
                        ),
                        tok: i,
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// D003 — ambient process state
// ---------------------------------------------------------------------

fn check_d003(sf: &SourceFile) -> Vec<RawFinding> {
    const ENV_FNS: &[&str] = &["var", "vars", "var_os", "temp_dir"];
    let mut out = Vec::new();
    for i in 0..sf.toks.len() {
        for f in ENV_FNS {
            if path_at(sf, i, &["env", f]) {
                out.push(RawFinding {
                    line: sf.toks[i].line,
                    msg: format!(
                        "`env::{f}` reads ambient process state inside the evidence \
                         plane; thread configuration through explicit arguments"
                    ),
                    tok: i,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// P001 — panicking calls in hostile-input paths
// ---------------------------------------------------------------------

fn check_p001(sf: &SourceFile) -> Vec<RawFinding> {
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    let mut out = Vec::new();
    for i in 0..sf.toks.len() {
        if text(sf, i) == "."
            && matches!(text(sf, i + 1), "unwrap" | "expect")
            && text(sf, i + 2) == "("
        {
            out.push(RawFinding {
                line: sf.toks[i + 1].line,
                msg: format!(
                    "`.{}()` can abort on hostile input; return a typed error instead",
                    text(sf, i + 1)
                ),
                tok: i + 1,
            });
        }
        if PANIC_MACROS.contains(&text(sf, i)) && text(sf, i + 1) == "!" {
            out.push(RawFinding {
                line: sf.toks[i].line,
                msg: format!(
                    "`{}!` aborts on hostile input; decode paths must degrade into \
                     typed errors",
                    text(sf, i)
                ),
                tok: i,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// P002 — slice indexing in hostile-input paths
// ---------------------------------------------------------------------

/// Keywords that can directly precede `[` without forming an index
/// expression (`let [a, b] = ..`, `&mut [u8]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "as", "if", "else", "match", "return", "move", "dyn", "impl", "fn",
    "for", "while", "loop", "where", "pub", "use", "mod", "struct", "enum", "trait", "type",
    "const", "static", "unsafe", "box", "break", "continue", "crate", "super", "union",
];

fn check_p002(sf: &SourceFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 1..sf.toks.len() {
        if text(sf, i) != "[" {
            continue;
        }
        let prev = &sf.toks[i - 1];
        let indexes = match prev.kind {
            crate::lexer::TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
            crate::lexer::TokKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
            _ => false,
        };
        if indexes {
            out.push(RawFinding {
                line: sf.toks[i].line,
                msg: "slice indexing panics when hostile input lies about lengths; use \
                      `.get()`/`.get_mut()`/slice patterns"
                    .to_string(),
                tok: i,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// J001 — unjustified #[allow]
// ---------------------------------------------------------------------

fn check_j001(sf: &SourceFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for i in 0..sf.toks.len() {
        if text(sf, i) != "#" {
            continue;
        }
        let mut j = i + 1;
        if text(sf, j) == "!" {
            j += 1;
        }
        if text(sf, j) != "[" || text(sf, j + 1) != "allow" {
            continue;
        }
        let line = sf.toks[i].line;
        let justified = sf.justifying_comment_ending_at(line.saturating_sub(1))
            || sf.justifying_comment_ending_at(line);
        if !justified {
            out.push(RawFinding {
                line,
                msg: "#[allow(...)] without a justification comment on the preceding \
                      line; say why the suppression must exist"
                    .to_string(),
                tok: i,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// E001 / U001 helpers (driven by the engine)
// ---------------------------------------------------------------------

/// Extract the variant names of `enum name { .. }` from a file.
pub fn enum_variants(sf: &SourceFile, name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let Some(start) =
        (0..sf.toks.len()).find(|&i| text(sf, i) == "enum" && text(sf, i + 1) == name)
    else {
        return out;
    };
    // Find the opening brace, then collect depth-1 idents that start
    // a variant (previous significant token `{` or `,`).
    let mut j = start;
    while j < sf.toks.len() && text(sf, j) != "{" {
        j += 1;
    }
    let mut depth = 0isize;
    let mut prev_sig = String::new();
    while j < sf.toks.len() {
        let t = text(sf, j);
        match t {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if depth == 1
            && sf.toks[j].kind == crate::lexer::TokKind::Ident
            && t.starts_with(|c: char| c.is_ascii_uppercase())
            && (prev_sig == "{" || prev_sig == ",")
        {
            out.push(t.to_string());
        }
        if depth >= 1 {
            prev_sig = t.to_string();
        }
        j += 1;
    }
    out
}

/// The token index range (exclusive end) of `fn name`'s body braces.
pub fn fn_body(sf: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let start = (0..sf.toks.len()).find(|&i| text(sf, i) == "fn" && text(sf, i + 1) == name)?;
    let mut j = start;
    while j < sf.toks.len() && text(sf, j) != "{" {
        j += 1;
    }
    let open = j;
    let mut depth = 0isize;
    while j < sf.toks.len() {
        match text(sf, j) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, j + 1));
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Within a body range: does `Enum::Variant` appear?
pub fn body_names_variant(
    sf: &SourceFile,
    body: (usize, usize),
    enum_name: &str,
    variant: &str,
) -> bool {
    (body.0..body.1).any(|i| {
        text(sf, i) == enum_name
            && text(sf, i + 1) == ":"
            && text(sf, i + 2) == ":"
            && text(sf, i + 3) == variant
    })
}

/// Within a body range: the line of the first wildcard match arm
/// (`_ =>` or a bare lowercase binding arm), if any.
pub fn body_wildcard_arm(sf: &SourceFile, body: (usize, usize)) -> Option<u32> {
    (body.0 + 1..body.1).find_map(|i| {
        let t = &sf.toks[i];
        let bare = t.kind == crate::lexer::TokKind::Ident
            && (t.text == "_" || t.text.starts_with(|c: char| c.is_ascii_lowercase()));
        let arm_start = matches!(text(sf, i - 1), "{" | ",");
        let arrow = text(sf, i + 1) == "=" && text(sf, i + 2) == ">";
        (bare && arm_start && arrow).then_some(t.line)
    })
}

/// U001: does the file carry `#![forbid(unsafe_code)]`?
pub fn has_forbid_unsafe(sf: &SourceFile) -> bool {
    (0..sf.toks.len()).any(|i| {
        text(sf, i) == "forbid" && text(sf, i + 1) == "(" && text(sf, i + 2) == "unsafe_code"
    })
}
