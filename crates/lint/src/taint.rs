//! T-series rules: cross-crate taint tracking for untrusted bytes.
//!
//! ## Model
//!
//! **Sources** are the functions where unvalidated bytes enter the
//! process: wire-message decode (netsim datagram payloads), the fabric
//! frame decoder (kept for the benchmark's frame probe), and every
//! journal / checkpoint / commit-marker read (disk bytes a crash or an
//! operator may have mangled). A source function is *tainted*; taint then propagates
//! over the approximate call graph in two directions that are
//! deliberately not symmetric:
//!
//! * **return flow** — a caller of a *return-tainted* function (a
//!   source, or a function whose return chains back to one) receives
//!   its unvalidated output, unless the callee *sanitizes*;
//! * **argument flow** — any tainted function hands its unvalidated
//!   data down into the workspace functions it calls.
//!
//! Argument taint does **not** flow back up: a decode helper that
//! receives untrusted bytes from one caller must not poison its other
//! callers — only the source's own call chain carries return taint.
//!
//! A function **sanitizes** when it is itself a named sanitizer or
//! directly calls one: the response-acceptance gate (which also scrubs
//! out-of-bailiwick records), the BSJ1 `crc32` validation (directly or
//! through `read_journal`, the one frame reader), or the commit-marker
//! epoch check. Taint never propagates out of a
//! sanitizing function — that is exactly the discipline the rules
//! enforce: every path from bytes to a trusted sink must cross one of
//! these gates.
//!
//! ## Rules
//!
//! * **T001** — a tainted function preallocates (`with_capacity`,
//!   `reserve`, `resize`) from an expression that uses a plain
//!   variable unbounded: hostile lengths become unbounded allocations.
//!   Bounded forms (`n.min(..)`, `.clamp(..)`, literal or ALL_CAPS
//!   constant capacities, `xs.len()`-style in-memory sizes) pass.
//! * **T002** — a tainted function reaches a provenance-tagged
//!   cache-write or classifier-state sink without sanitizing first.
//! * **T003** — a function in a state-root crate reads bytes from disk
//!   but never validates them against a named validator (`crc32`,
//!   header `from_bytes`, commit epoch check) in the same function.

use crate::callgraph::CallGraph;
use crate::engine::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::symbols::SymbolIndex;
use std::collections::BTreeMap;

/// Taint sources, pinned by (workspace-relative file, function name):
/// the full untrusted-byte entry surface of the scanner.
const SOURCES: &[(&str, &str)] = &[
    // Network datagram payloads entering wire decode.
    ("crates/dns-wire/src/message.rs", "from_bytes"),
    // Fabric frame decoder: off the fabric's path, kept for the frozen
    // benchmark's frame probe until ROADMAP 2(b) removes both.
    ("crates/scan-fabric/src/protocol.rs", "decode_payload"),
    // Journal / checkpoint / commit-marker bytes read back from disk.
    ("crates/scan-journal/src/journal.rs", "read_journal"),
    ("crates/scan-journal/src/checkpoint.rs", "read_checkpoint"),
    ("crates/scan-continuous/src/lib.rs", "read_commit"),
];

/// Named sanitizers: crossing one of these ends a taint path.
const SANITIZERS: &[&str] = &[
    // Response acceptance: ID/QNAME/rcode gate + bailiwick scrub.
    "accept_reply",
    // BSJ1 header and frame checksum validation, and the one frame
    // reader built on it: a checkpoint is read through `read_journal`,
    // so `read_checkpoint` stays a source that must keep crossing it.
    "crc32",
    "read_journal",
    // COMMIT-marker epoch identity check.
    "validate_commit_epoch",
];

/// The provenance-tagged cache write (`ProvenanceCache::insert_tagged`,
/// the only one there is) and the carry-ledger entry point (T002
/// sinks): tainted data must never reach these.
const CACHE_SINKS: &[&str] = &["insert_tagged", "seed_into"];

/// Disk reads must be validated in-function by one of these (T003).
const VALIDATORS: &[&str] = &["crc32", "from_bytes", "validate_commit_epoch"];

/// Crates whose on-disk state T003 polices.
const STATE_ROOT_CRATES: &[&str] = &["scan-journal", "scan-continuous"];

fn text(sf: &SourceFile, i: usize) -> &str {
    sf.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Is `name` a T002 sink? Exact names plus the `seed_*` wrapper family
/// (`seed_address`, `seed_referral`, `seed_effects`, ...).
fn is_cache_sink(name: &str) -> bool {
    // `seed_from_u64` is deterministic-simulation RNG seeding, not
    // scanner state — the one `seed_*` name that is not a sink.
    CACHE_SINKS.contains(&name) || (name.starts_with("seed_") && name != "seed_from_u64")
}

/// Per-function taint state: the call-graph predecessor that tainted
/// it (`None` for sources), for path traces.
pub struct Taint {
    tainted: BTreeMap<usize, Option<usize>>,
    sanitizing: Vec<bool>,
}

impl Taint {
    /// Propagate taint to a fixpoint over the call graph.
    pub fn analyze(files: &[SourceFile], index: &SymbolIndex, graph: &CallGraph) -> Taint {
        let sanitizing: Vec<bool> = (0..index.fns.len())
            .map(|f| {
                SANITIZERS.contains(&index.fns[f].name.as_str())
                    || SANITIZERS.iter().any(|s| graph.calls_name(f, s))
            })
            .collect();

        let mut tainted: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        // Return-tainted subset: sources and their transitive callers
        // — the only functions whose *output* is unvalidated.
        let mut ret: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut work: Vec<usize> = Vec::new();
        for (f, sym) in index.fns.iter().enumerate() {
            if sym.is_test {
                continue;
            }
            let rel = &files[sym.file].rel;
            if SOURCES
                .iter()
                .any(|(file, name)| rel == file && sym.name == *name)
            {
                tainted.insert(f, None);
                ret.insert(f);
                work.push(f);
            }
        }

        while let Some(f) = work.pop() {
            // Taint stops at a sanitizing function: unvalidated data
            // neither returns out of it nor flows on through it.
            if sanitizing[f] {
                continue;
            }
            // Return flow: callers receive f's unvalidated output —
            // only out of return-tainted functions. A helper that was
            // merely handed tainted arguments returns *its callers'*
            // data, not the source's.
            if ret.contains(&f) {
                if let Some(callers) = graph.redges.get(&f) {
                    for &g in callers {
                        if !index.fns[g].is_test && !tainted.contains_key(&g) {
                            tainted.insert(g, Some(f));
                            ret.insert(g);
                            work.push(g);
                        }
                    }
                }
            }
            // Argument flow: f hands unvalidated data to its callees
            // (sanitizers themselves are the gates, not carriers).
            if let Some(callees) = graph.edges.get(&f) {
                for &g in callees {
                    if !SANITIZERS.contains(&index.fns[g].name.as_str())
                        && !index.fns[g].is_test
                        && !tainted.contains_key(&g)
                    {
                        tainted.insert(g, Some(f));
                        work.push(g);
                    }
                }
            }
        }
        Taint {
            tainted,
            sanitizing,
        }
    }

    pub fn is_tainted(&self, f: usize) -> bool {
        self.tainted.contains_key(&f)
    }

    /// Render the source→`f` path as `file:line fn \`name\`` hops.
    fn trace(&self, files: &[SourceFile], index: &SymbolIndex, f: usize) -> String {
        let mut hops = Vec::new();
        let mut cur = Some(f);
        while let Some(c) = cur {
            let sym = &index.fns[c];
            hops.push(format!(
                "{}:{} fn `{}`",
                files[sym.file].rel, sym.line, sym.name
            ));
            cur = self.tainted.get(&c).copied().flatten();
        }
        hops.reverse();
        hops.join(" -> ")
    }
}

/// Capacity argument boundedness (T001): the token span of a
/// preallocation call's argument is *unbounded* when it uses a plain
/// lowercase identifier directly as a value — not as a method name,
/// not as the receiver of a `.len()`-style call (in-memory sizes are
/// already bounded by what was read), and with no `min`/`clamp` bound
/// or ALL_CAPS constant anywhere in the expression.
fn unbounded_capacity(sf: &SourceFile, args: (usize, usize)) -> bool {
    let (open, close) = args;
    let mut saw_bound = false;
    let mut saw_bare = false;
    for i in open + 1..close {
        let t = &sf.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "min" || t.text == "clamp" {
            saw_bound = true;
            continue;
        }
        if t.text.chars().all(|c| !c.is_ascii_lowercase()) {
            // ALL_CAPS constant bound (MAX_FRAME and friends).
            saw_bound = true;
            continue;
        }
        let method_name = text(sf, i.wrapping_sub(1)) == ".";
        let receiver = text(sf, i + 1) == ".";
        if !method_name && !receiver {
            saw_bare = true;
        }
    }
    saw_bare && !saw_bound
}

/// The balanced-paren argument span of the call whose name token is
/// `i` (expects `(` at `i + 1`); returns `(open, close)` indices.
fn arg_span(sf: &SourceFile, i: usize) -> Option<(usize, usize)> {
    if text(sf, i + 1) != "(" {
        return None;
    }
    let open = i + 1;
    let mut depth = 0isize;
    for j in open..sf.toks.len() {
        match text(sf, j) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, j));
                }
            }
            _ => {}
        }
    }
    None
}

/// Run T001/T002/T003 over the workspace. Findings are raw: the
/// engine applies test masking (already folded into propagation) and
/// `bootscan-allow` resolution.
pub fn check(
    files: &[SourceFile],
    index: &SymbolIndex,
    graph: &CallGraph,
    taint: &Taint,
) -> Vec<Finding> {
    let mut out = Vec::new();

    // T001 — unbounded preallocation in tainted functions. Sanitizing
    // functions are still checked: the allocation happens while the
    // bytes in hand are not yet validated.
    const PREALLOC: &[&str] = &["with_capacity", "reserve", "resize", "reserve_exact"];
    for &f in taint.tainted.keys() {
        let sym = &index.fns[f];
        let sf = &files[sym.file];
        let Some((start, end)) = sym.body else {
            continue;
        };
        for i in start..end {
            if sf.toks[i].kind != TokKind::Ident || !PREALLOC.contains(&text(sf, i)) {
                continue;
            }
            let Some(args) = arg_span(sf, i) else {
                continue;
            };
            if unbounded_capacity(sf, args) {
                out.push(Finding {
                    rel: sf.rel.clone(),
                    line: sf.toks[i].line,
                    rule: "T001".to_string(),
                    msg: format!(
                        "`{}` sized by an unvalidated value inside a taint path \
                         ({}); bound it (`.min(..)`, a constant cap, or an \
                         in-memory `.len()`) before allocating",
                        text(sf, i),
                        taint.trace(files, index, f)
                    ),
                });
            }
        }
    }

    // T002 — tainted function reaches a cache-write / classifier sink
    // without sanitizing.
    for &f in taint.tainted.keys() {
        if taint.sanitizing[f] {
            continue;
        }
        let sym = &index.fns[f];
        let sf = &files[sym.file];
        for site in graph.sites_from(f) {
            if !is_cache_sink(&site.name) {
                continue;
            }
            // Only sinks that resolve to a real workspace function
            // count — a local helper that happens to be called
            // `seed_rng` in a fixture shouldn't, unless it exists.
            if index.by_name(&site.name).is_empty() {
                continue;
            }
            out.push(Finding {
                rel: sf.rel.clone(),
                line: site.line,
                rule: "T002".to_string(),
                msg: format!(
                    "unvalidated bytes reach cache sink `{}` \
                     ({} -> sink); route through a sanitizer \
                     (accept_reply / crc32 / validate_commit_epoch) first",
                    site.name,
                    taint.trace(files, index, f)
                ),
            });
        }
    }

    // T003 — disk reads in state-root crates must validate in-function.
    for (f, sym) in index.fns.iter().enumerate() {
        if sym.is_test || !STATE_ROOT_CRATES.contains(&sym.krate.as_str()) {
            continue;
        }
        let sf = &files[sym.file];
        let mut read_site: Option<(u32, String)> = None;
        for site in graph.sites_from(f) {
            let disk_read = match site.name.as_str() {
                "read" | "read_to_string" => {
                    // `fs::read(..)` / `fs::read_to_string(..)` only;
                    // plain `.read()` is the RwLock (or io) method.
                    text(sf, site.tok.wrapping_sub(1)) == ":"
                        && text(sf, site.tok.wrapping_sub(3)) == "fs"
                }
                "read_to_end" => site.method,
                _ => false,
            };
            if disk_read && read_site.is_none() {
                read_site = Some((site.line, site.name.clone()));
            }
        }
        let Some((line, name)) = read_site else {
            continue;
        };
        let validated = VALIDATORS.iter().any(|v| graph.calls_name(f, v));
        if !validated {
            out.push(Finding {
                rel: sf.rel.clone(),
                line,
                rule: "T003".to_string(),
                msg: format!(
                    "fn `{}` reads state-root bytes (`{}`) but never validates \
                     them (crc32 / header from_bytes / validate_commit_epoch); \
                     corrupt state must be a detected error, never trusted",
                    sym.name, name
                ),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: Vec<(&str, &str)>) -> Vec<Finding> {
        let files: Vec<SourceFile> = files
            .into_iter()
            .map(|(rel, src)| SourceFile::parse(rel.to_string(), src))
            .collect();
        let index = SymbolIndex::build(&files);
        let graph = CallGraph::build(&files, &index);
        let taint = Taint::analyze(&files, &index, &graph);
        check(&files, &index, &graph, &taint)
    }

    #[test]
    fn source_propagates_to_caller_and_flags_unbounded_prealloc() {
        let findings = run(vec![(
            "crates/dns-wire/src/message.rs",
            "fn from_bytes(buf: &[u8]) -> Vec<u8> { let n = buf.len(); Vec::with_capacity(n) }",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "T001");
    }

    #[test]
    fn bounded_prealloc_is_clean() {
        let findings = run(vec![(
            "crates/dns-wire/src/message.rs",
            "fn from_bytes(n: usize, r: &R) -> V { Vec::with_capacity(n.min(r.remaining() / 5)) }",
        )]);
        assert!(findings.is_empty());
    }

    #[test]
    fn sanitizer_ends_the_path() {
        let findings = run(vec![
            (
                "crates/dns-wire/src/message.rs",
                "fn from_bytes(b: &[u8]) -> M { M }",
            ),
            (
                "crates/dns-resolver/src/client.rs",
                "fn accept_reply(q: &M, r: &mut M) -> Result<u32, ()> { Ok(0) }\n\
                 fn exchange_once(b: &[u8]) { let m = from_bytes(b); accept_reply(&m, &mut m); insert_tagged(m); }",
            ),
            (
                "crates/dns-resolver/src/cache.rs",
                "fn insert_tagged(m: M) {}",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unsanitized_path_to_cache_sink_is_t002() {
        let findings = run(vec![
            (
                "crates/dns-wire/src/message.rs",
                "fn from_bytes(b: &[u8]) -> M { M }",
            ),
            (
                "crates/dns-resolver/src/cache.rs",
                "fn insert_tagged(m: M) {}\n\
                 fn ingest(b: &[u8]) { let m = from_bytes(b); insert_tagged(m); }",
            ),
        ]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "T002");
        assert!(
            findings[0].msg.contains("from_bytes"),
            "{}",
            findings[0].msg
        );
    }

    #[test]
    fn unvalidated_disk_read_is_t003() {
        let findings = run(vec![(
            "crates/scan-journal/src/journal.rs",
            "fn read_sidecar(p: &Path) -> Vec<u8> { fs::read(p).unwrap() }",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "T003");
    }

    #[test]
    fn validated_disk_read_is_clean() {
        let findings = run(vec![(
            "crates/scan-journal/src/journal.rs",
            "fn crc32(b: &[u8]) -> u32 { 0 }\n\
             fn read_sidecar(p: &Path) -> Vec<u8> { let b = fs::read(p)?; crc32(&b); b }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
