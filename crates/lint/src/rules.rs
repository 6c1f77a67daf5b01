//! D002, the one per-file rule (DESIGN.md §8): no iteration over a
//! `HashMap`/`HashSet` in an evidence-plane crate.
//!
//! The paper's tables are only trustworthy if a scan is a pure function
//! of `(world seed, fault plan, policy)`, and hash-iteration order is
//! how nondeterminism has actually crept in (PR 1 shipped a
//! `HashMap`-iteration-order bug that survived review). Clippy's
//! `iter_over_hash_type` sees only `for` loops, not `.values()` chains,
//! so this rule stays here. The other per-file invariants are compiler
//! lints: see the table in DESIGN.md §8.

use crate::engine::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Evidence-plane crates: everything whose output feeds the report.
/// scan-fabric is included whole: its merge path folds journal events
/// into the byte-compared report, so hash-order iteration anywhere in
/// the crate can corrupt the determinism contract. scan-epochs likewise:
/// its carry ledger seeds scanner caches and its report types serialize
/// the per-epoch reports that must stay byte-identical to cold scans.
/// scan-continuous sits on top of both — its admission decisions and
/// epoch folds feed the byte-compared time series.
const EVIDENCE_CRATES: &[&str] = &[
    "core",
    "dns-resolver",
    "dns-ecosystem",
    "scan-journal",
    "scan-fabric",
    "scan-epochs",
    "scan-continuous",
];

/// Is `rel` library source of an evidence-plane crate
/// (`crates/<crate>/src/…`)?
fn in_evidence_plane(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some_and(|c| EVIDENCE_CRATES.contains(&c))
        && parts.next() == Some("src")
}

fn text(sf: &SourceFile, i: usize) -> &str {
    sf.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
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
                if depth == 0 && sf.toks[j].kind == TokKind::Ident {
                    out.push(t.to_string());
                }
            }
        }
    }
    out
}

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
                if sf.toks[j - 1].kind == TokKind::Ident && !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
            break;
        }
    }
    names
}

/// `(token, line, message)` for every hash-order iteration in `sf`.
fn hash_iterations(sf: &SourceFile) -> Vec<(usize, u32, String)> {
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
                out.push((
                    i + 1,
                    sf.toks[i + 1].line,
                    format!(
                        "`.{}()` over hash-keyed `{n}` exposes nondeterministic order; \
                         use a BTree collection or sort before use",
                        text(sf, i + 1)
                    ),
                ));
            }
        }
        // `for x in &recv { .. }` (method-less form).
        if text(sf, i) == "in" {
            let mut j = i + 1;
            while matches!(text(sf, j), "&" | "mut") {
                j += 1;
            }
            let mut chain = Vec::new();
            while sf.toks.get(j).map(|t| t.kind) == Some(TokKind::Ident) || text(sf, j) == "." {
                if text(sf, j) != "." {
                    chain.push(text(sf, j).to_string());
                }
                j += 1;
            }
            if text(sf, j) == "{" {
                if let Some(n) = chain.iter().find(|n| names.contains(n)) {
                    out.push((
                        i,
                        sf.toks[i].line,
                        format!(
                            "`for .. in` over hash-keyed `{n}` exposes nondeterministic \
                             order; use a BTree collection or sort before use"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// D002 over every evidence-plane file, test code excluded, before
/// escape-hatch resolution.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    files
        .iter()
        .filter(|sf| in_evidence_plane(&sf.rel))
        .flat_map(|sf| {
            hash_iterations(sf)
                .into_iter()
                .filter(|&(tok, _, _)| !sf.in_test[tok])
                .map(|(_, line, msg)| Finding {
                    rel: sf.rel.clone(),
                    line,
                    rule: "D002".to_string(),
                    msg,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_plane_is_library_source_of_the_listed_crates() {
        assert!(in_evidence_plane("crates/core/src/scanner.rs"));
        assert!(in_evidence_plane("crates/scan-fabric/src/a/b.rs"));
        assert!(!in_evidence_plane("crates/core/tests/x.rs"));
        assert!(!in_evidence_plane("crates/dns-wire/src/message.rs"));
        assert!(!in_evidence_plane("src/lib.rs"));
    }
}
