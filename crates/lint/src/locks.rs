//! L-series rules: lock discipline for the concurrent scan fabric.
//!
//! ## Model
//!
//! **Lock classes** are discovered from type annotations: a binding
//! `name: Mutex<..>` / `name: RwLock<..>` (possibly wrapped in
//! `Arc<`/`Vec<`/…) declares class `(crate, name)`; a `Vec<Mutex<..>>`
//! wrapper marks the class *striped* (many independent locks under one
//! name — the 16-way caches). **Acquisition sites** are `.lock()` /
//! `.read()` / `.write()` calls whose receiver chain mentions a known
//! class name of the same crate. A guard's **scope** runs
//!
//! * to the end of the enclosing block for `let g = x.lock();`
//!   bindings, ended early by an explicit `drop(g)`;
//! * to the end of the statement for temporaries (`x.lock().push(..)`)
//!   — including `let v = x.lock().field.clone();`, where the binding
//!   holds the projected value and the guard dies at the semicolon.
//!
//! The fabric's fencing wrapper is modelled explicitly: a call to
//! `with_lease(..)` holds the fence's `revoked` lock for exactly the
//! span of its argument list, so closures executed under the fence are
//! analyzed as lock-holding regions.
//!
//! ## Rules
//!
//! * **L001** — the workspace-wide lock-order graph (class A's scope
//!   acquires class B, directly or through calls) contains a cycle:
//!   two threads taking the classes in opposite orders can deadlock.
//! * **L002** — two stripes of the same striped class are held at
//!   once without a canonical ordering (`min`/`max` or an explicit
//!   index comparison in scope): stripe i→j in one thread and j→i in
//!   another deadlocks rarely and unreproducibly.
//! * **L003** — a guard is held across blocking I/O: journal fsync or
//!   group commit (`sync_data`/`sync_all`/`sync`/`write_checkpoint`).
//!   Every other thread contending that class stalls behind a disk
//!   flush.

use crate::callgraph::CallGraph;
use crate::engine::Finding;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::symbols::{crate_of, SymbolIndex};
use std::collections::{BTreeMap, BTreeSet};

/// One discovered lock class.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockClass {
    pub krate: String,
    pub name: String,
}

impl std::fmt::Display for LockClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}", self.krate, self.name)
    }
}

/// One guard-holding region.
#[derive(Debug, Clone)]
struct Acquisition {
    class: usize,
    file: usize,
    /// Token index of the acquisition (`lock`/`read`/`write` name, or
    /// the `with_lease` call name).
    tok: usize,
    /// Exclusive token end of the guard's scope.
    end: usize,
    line: u32,
}

fn text(sf: &SourceFile, i: usize) -> &str {
    sf.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

/// Discover lock classes from `Mutex<` / `RwLock<` type annotations,
/// reusing the D002 back-walk: skip wrapper idents and type
/// punctuation to the `:`/`=` that binds the type to a name. Returns
/// (classes, striped flags).
fn discover_classes(files: &[SourceFile]) -> (Vec<LockClass>, Vec<bool>) {
    const WRAPPERS: &[&str] = &["Arc", "Rc", "Box", "Option", "Vec", "mut"];
    let mut classes: Vec<LockClass> = Vec::new();
    let mut striped: Vec<bool> = Vec::new();
    for sf in files {
        let krate = crate_of(&sf.rel);
        for i in 0..sf.toks.len() {
            let t = text(sf, i);
            if (t != "Mutex" && t != "RwLock") || text(sf, i + 1) != "<" {
                continue;
            }
            let mut is_striped = false;
            let mut j = i;
            while j > 0 {
                j -= 1;
                let b = text(sf, j);
                if b == "Vec" {
                    is_striped = true;
                }
                if b == "<" || b == "&" || b == "(" || WRAPPERS.contains(&b) {
                    continue;
                }
                if (b == ":" && text(sf, j.wrapping_sub(1)) != ":" && text(sf, j + 1) != ":")
                    || b == "="
                {
                    if j == 0 {
                        break;
                    }
                    if sf.toks[j - 1].kind == TokKind::Ident {
                        let class = LockClass {
                            krate: krate.clone(),
                            name: sf.toks[j - 1].text.clone(),
                        };
                        match classes.iter().position(|c| *c == class) {
                            Some(k) => striped[k] = striped[k] || is_striped,
                            None => {
                                classes.push(class);
                                striped.push(is_striped);
                            }
                        }
                    }
                }
                break;
            }
        }
    }
    (classes, striped)
}

/// The discovered lock classes as sorted `crate::field` strings — the
/// ledger `tests/self_check.rs` pins, so a new lock fails a test until
/// someone writes down who its second thread is.
pub fn class_ledger(files: &[SourceFile]) -> Vec<String> {
    let (classes, _) = discover_classes(files);
    let mut ledger: Vec<String> = classes.iter().map(LockClass::to_string).collect();
    ledger.sort();
    ledger
}

/// Exclusive token end of the enclosing block: forward from `i`,
/// stopping one past the `}` that closes the block `i` is inside.
fn enclosing_block_end(sf: &SourceFile, i: usize) -> usize {
    let mut depth = 0isize;
    for j in i..sf.toks.len() {
        match text(sf, j) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    sf.toks.len()
}

/// Exclusive token end of the statement containing `i`: the next `;`
/// at bracket depth ≤ 0, or the enclosing block end.
fn statement_end(sf: &SourceFile, i: usize) -> usize {
    let mut depth = 0isize;
    for j in i..sf.toks.len() {
        match text(sf, j) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return j + 1;
                }
            }
            ";" if depth <= 0 => return j + 1,
            _ => {}
        }
    }
    sf.toks.len()
}

/// If the statement containing the acquisition at `dot` is a
/// `let <name> = …` binding, the guard's name.
fn let_binding(sf: &SourceFile, dot: usize) -> Option<String> {
    let mut depth = 0isize;
    let mut j = dot;
    while j > 0 {
        j -= 1;
        match text(sf, j) {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth == 0 => break,
            _ => {}
        }
    }
    // `j` sits on the statement opener; scan forward for `let`.
    let start = j;
    for k in start..dot {
        if text(sf, k) == "let" {
            // Guard name: the identifier right before `=` (skip `mut`).
            for m in k + 1..dot {
                if text(sf, m) == "=" && m > 0 && sf.toks[m - 1].kind == TokKind::Ident {
                    return Some(sf.toks[m - 1].text.clone());
                }
            }
        }
        if text(sf, k) == "=" {
            break;
        }
    }
    None
}

/// Collect every acquisition region in the workspace.
fn acquisitions(files: &[SourceFile], classes: &[LockClass]) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for (file, sf) in files.iter().enumerate() {
        let krate = crate_of(&sf.rel);
        let names: Vec<(usize, &str)> = classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.krate == krate)
            .map(|(k, c)| (k, c.name.as_str()))
            .collect();
        for i in 0..sf.toks.len() {
            // `fence.with_lease(lease, || { .. })`: the fence's
            // `revoked` lock is held for the argument span.
            if text(sf, i) == "with_lease" && text(sf, i + 1) == "(" {
                if let Some(k) = names.iter().find(|(_, n)| *n == "revoked").map(|&(k, _)| k) {
                    let mut depth = 0isize;
                    let mut end = sf.toks.len();
                    for j in i + 1..sf.toks.len() {
                        match text(sf, j) {
                            "(" => depth += 1,
                            ")" => {
                                depth -= 1;
                                if depth == 0 {
                                    end = j + 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    out.push(Acquisition {
                        class: k,
                        file,
                        tok: i,
                        end,
                        line: sf.toks[i].line,
                    });
                }
                continue;
            }
            if text(sf, i) != "."
                || !matches!(text(sf, i + 1), "lock" | "read" | "write")
                || text(sf, i + 2) != "("
            {
                continue;
            }
            let recv = crate::rules::receiver_idents(sf, i, 24);
            let Some(class) = names
                .iter()
                .find(|(_, n)| recv.iter().any(|r| r == n))
                .map(|&(k, _)| k)
            else {
                continue;
            };
            // `x.lock().field.clone()` — the guard is dereferenced
            // right away, so even under a `let` the *binding* holds the
            // projected value, not the guard: the guard is a temporary
            // that dies at the statement's end.
            let deref_temporary = {
                let mut depth = 0isize;
                let mut after = sf.toks.len();
                for j in i + 2..sf.toks.len() {
                    match text(sf, j) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                after = j + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                text(sf, after) == "."
            };
            let end = match (deref_temporary, let_binding(sf, i)) {
                (true, _) | (false, None) => statement_end(sf, i),
                (false, Some(guard)) => {
                    let block_end = enclosing_block_end(sf, i);
                    // An explicit `drop(guard)` ends the scope early.
                    let mut end = block_end;
                    let mut j = i;
                    while j + 3 < block_end.min(sf.toks.len()) {
                        if text(sf, j) == "drop"
                            && text(sf, j + 1) == "("
                            && text(sf, j + 2) == guard
                            && text(sf, j + 3) == ")"
                        {
                            end = j;
                            break;
                        }
                        j += 1;
                    }
                    end
                }
            };
            out.push(Acquisition {
                class,
                file,
                tok: i + 1,
                end,
                line: sf.toks[i + 1].line,
            });
        }
    }
    out
}

/// L003 sink call sites: blocking I/O no guard should be held across.
fn is_io_sink(
    files: &[SourceFile],
    index: &SymbolIndex,
    site: &crate::callgraph::CallSite,
) -> bool {
    match site.name.as_str() {
        // fdatasync / fsync intrinsics, anywhere.
        "sync_data" | "sync_all" => true,
        // The journal's group commit — only when the name resolves to
        // the real journal writer (plenty of unrelated `sync`s exist).
        "sync" => index
            .by_name("sync")
            .iter()
            .any(|&f| files[index.fns[f].file].rel == "crates/scan-journal/src/journal.rs"),
        // Checkpoint rewrite: a full prefix rewrite to disk.
        "write_checkpoint" => true,
        _ => false,
    }
}

/// Run L001/L002/L003.
pub fn check(files: &[SourceFile], index: &SymbolIndex, graph: &CallGraph) -> Vec<Finding> {
    let (classes, striped) = discover_classes(files);
    let acqs = acquisitions(files, &classes);
    let mut out = Vec::new();

    // Per function: classes it acquires directly, and whether it
    // contains a direct I/O sink.
    let mut direct_acq: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for a in &acqs {
        if let Some(f) = index.enclosing(a.file, a.tok) {
            direct_acq.entry(f).or_default().insert(a.class);
        }
    }
    let mut sink_fns: BTreeSet<usize> = BTreeSet::new();
    for (f, sym) in index.fns.iter().enumerate() {
        if sym.is_test {
            continue;
        }
        if graph.sites_from(f).any(|s| is_io_sink(files, index, s)) {
            sink_fns.insert(f);
        }
    }
    // Functions from which an I/O sink is reachable.
    let sink_reaching = graph.reaching(&sink_fns);
    // Transitive acquisition sets: f acquires what its callees acquire.
    let trans_acq = transitive_acquisitions(&direct_acq, graph, index.fns.len());

    // Walk every acquisition's scope once, collecting nested
    // acquisitions (L001 edges, L002) and sink calls (L003).
    let mut order_edges: BTreeMap<(usize, usize), (usize, u32)> = BTreeMap::new();
    for a in &acqs {
        let sf = &files[a.file];
        if index
            .enclosing(a.file, a.tok)
            .is_none_or(|f| index.fns[f].is_test)
        {
            continue;
        }
        // Nested acquisitions in the same scope (same file, token
        // containment).
        for b in &acqs {
            if b.file == a.file && b.tok > a.tok && b.tok < a.end {
                if b.class != a.class {
                    order_edges
                        .entry((a.class, b.class))
                        .or_insert((a.file, a.line));
                } else if striped[a.class] && !scope_has_ordering(sf, a) {
                    out.push(Finding {
                        rel: sf.rel.clone(),
                        line: b.line,
                        rule: "L002".to_string(),
                        msg: format!(
                            "two stripes of striped lock `{}` held at once without a \
                             canonical order (guard from line {}); acquire stripes in \
                             index order (`min`/`max` the indices) or drop the first \
                             guard",
                            classes[a.class], a.line
                        ),
                    });
                }
            }
        }
        let mut sink_hit: Option<(u32, String, String)> = None;
        for (s, site) in sites_in_scope(graph, index, a) {
            // Direct sink call inside the guard scope.
            if is_io_sink(files, index, site) {
                sink_hit = Some((site.line, site.name.clone(), String::new()));
                break;
            }
            // A call that transitively reaches a sink.
            for &callee in &graph.resolved[s] {
                if index.fns[callee].is_test {
                    continue;
                }
                if sink_reaching.contains(&callee) {
                    sink_hit.get_or_insert((
                        site.line,
                        site.name.clone(),
                        format!(
                            " (via `{}` in {}:{})",
                            index.fns[callee].name,
                            files[index.fns[callee].file].rel,
                            index.fns[callee].line
                        ),
                    ));
                }
                // Interprocedural lock-order edges.
                if let Some(acquired) = trans_acq.get(&callee) {
                    for &c in acquired {
                        if c != a.class {
                            order_edges.entry((a.class, c)).or_insert((a.file, a.line));
                        }
                    }
                }
            }
        }
        if let Some((line, name, via)) = sink_hit {
            out.push(Finding {
                rel: sf.rel.clone(),
                line,
                rule: "L003".to_string(),
                msg: format!(
                    "guard on `{}` (line {}) held across blocking I/O `{}`{}; \
                     fsync/group-commit/checkpoint must run after the \
                     guard drops",
                    classes[a.class], a.line, name, via
                ),
            });
        }
    }

    // L001 — cycles in the class order graph.
    out.extend(order_cycles(&classes, &order_edges, files));
    out.sort();
    out.dedup();
    out
}

/// Call sites lexically inside acquisition `a`'s scope. Sites store
/// token indices within their own file, so membership is the caller
/// fn's file plus token containment.
fn sites_in_scope<'g>(
    graph: &'g CallGraph,
    index: &'g SymbolIndex,
    a: &Acquisition,
) -> impl Iterator<Item = (usize, &'g crate::callgraph::CallSite)> {
    let (file, start, end) = (a.file, a.tok, a.end);
    graph
        .sites
        .iter()
        .enumerate()
        .filter(move |(_, s)| index.fns[s.from].file == file && s.tok > start && s.tok < end)
}

/// Does the guard's statement (or the few tokens around it) impose a
/// canonical stripe order (`min`/`max` of indices, or an index
/// comparison)?
fn scope_has_ordering(sf: &SourceFile, a: &Acquisition) -> bool {
    let from = a.tok.saturating_sub(48);
    (from..a.end.min(a.tok + 48)).any(|i| matches!(text(sf, i), "min" | "max"))
}

/// Fixpoint of "acquires" over the call graph.
fn transitive_acquisitions(
    direct: &BTreeMap<usize, BTreeSet<usize>>,
    graph: &CallGraph,
    n_fns: usize,
) -> BTreeMap<usize, BTreeSet<usize>> {
    let mut acq = direct.clone();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < n_fns {
        changed = false;
        rounds += 1;
        let snapshot: Vec<(usize, BTreeSet<usize>)> =
            acq.iter().map(|(k, v)| (*k, v.clone())).collect();
        for (callee, classes) in snapshot {
            if let Some(callers) = graph.redges.get(&callee) {
                for &caller in callers {
                    let entry = acq.entry(caller).or_default();
                    let before = entry.len();
                    entry.extend(classes.iter().copied());
                    if entry.len() != before {
                        changed = true;
                    }
                }
            }
        }
    }
    acq
}

/// Detect cycles in the order graph and report one finding per cycle.
fn order_cycles(
    classes: &[LockClass],
    edges: &BTreeMap<(usize, usize), (usize, u32)>,
    files: &[SourceFile],
) -> Vec<Finding> {
    let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut out = Vec::new();
    // For every edge (a, b): if a is reachable from b, the edge closes
    // a cycle. Report at the edge's acquisition site.
    for (&(a, b), &(file, line)) in edges {
        let mut seen = BTreeSet::new();
        let mut stack = vec![b];
        let mut cyclic = false;
        while let Some(x) = stack.pop() {
            if x == a {
                cyclic = true;
                break;
            }
            if seen.insert(x) {
                if let Some(next) = adj.get(&x) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        if cyclic && a <= b {
            out.push(Finding {
                rel: files[file].rel.clone(),
                line,
                rule: "L001".to_string(),
                msg: format!(
                    "lock-order cycle: `{}` is taken while holding `{}` and vice \
                     versa (directly or through calls); pick one global order",
                    classes[b], classes[a]
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_locks(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("crates/demo/src/lib.rs".into(), src)];
        let idx = SymbolIndex::build(&files);
        let graph = CallGraph::build(&files, &idx);
        check(&files, &idx, &graph)
    }

    #[test]
    fn classes_and_stripes_are_discovered() {
        let files = vec![SourceFile::parse(
            "crates/demo/src/lib.rs".into(),
            "struct S { cache: Mutex<u32>, stripes: Vec<Mutex<u8>>, flag: bool }",
        )];
        let (classes, striped) = discover_classes(&files);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].name, "cache");
        assert!(!striped[0]);
        assert_eq!(classes[1].name, "stripes");
        assert!(striped[1]);
    }

    #[test]
    fn opposite_order_is_l001() {
        let findings = run_locks(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); drop(h); drop(g); }\n\
               fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); drop(h); drop(g); }\n\
             }",
        );
        assert!(
            findings.iter().any(|f| f.rule == "L001"),
            "expected L001, got {findings:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let findings = run_locks(
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl S {\n\
               fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); drop(h); drop(g); }\n\
               fn two(&self) { let g = self.a.lock(); let h = self.b.lock(); drop(h); drop(g); }\n\
             }",
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn two_unordered_stripes_are_l002() {
        let findings = run_locks(
            "struct S { stripes: Vec<Mutex<u32>> }\n\
             impl S {\n\
               fn merge(&self, i: usize, j: usize) {\n\
                 let g = self.stripes[i].lock();\n\
                 let h = self.stripes[j].lock();\n\
                 drop(h); drop(g);\n\
               }\n\
             }",
        );
        assert!(
            findings.iter().any(|f| f.rule == "L002"),
            "expected L002, got {findings:?}"
        );
    }

    #[test]
    fn min_max_ordered_stripes_are_clean() {
        let findings = run_locks(
            "struct S { stripes: Vec<Mutex<u32>> }\n\
             impl S {\n\
               fn merge(&self, i: usize, j: usize) {\n\
                 let lo = i.min(j);\n\
                 let hi = i.max(j);\n\
                 let g = self.stripes[lo].lock();\n\
                 let h = self.stripes[hi].lock();\n\
                 drop(h); drop(g);\n\
               }\n\
             }",
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn guard_across_fsync_is_l003() {
        let findings = run_locks(
            "struct S { state: Mutex<u32> }\n\
             impl S {\n\
               fn commit(&self, file: &File) {\n\
                 let g = self.state.lock();\n\
                 file.sync_data().unwrap();\n\
                 drop(g);\n\
               }\n\
             }",
        );
        assert!(
            findings.iter().any(|f| f.rule == "L003"),
            "expected L003, got {findings:?}"
        );
    }

    #[test]
    fn fsync_after_drop_is_clean() {
        let findings = run_locks(
            "struct S { state: Mutex<u32> }\n\
             impl S {\n\
               fn commit(&self, file: &File) {\n\
                 let g = self.state.lock();\n\
                 drop(g);\n\
                 file.sync_data().unwrap();\n\
               }\n\
             }",
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn deref_temporary_guard_dies_at_statement() {
        // `let entries = self.inner.lock().entries.clone();` binds the
        // clone, not the guard — the checkpoint on the next line runs
        // lock-free.
        let findings = run_locks(
            "struct S { inner: Mutex<St> }\n\
             impl S {\n\
               fn checkpoint_now(&self) {\n\
                 let entries = self.inner.lock().entries.clone();\n\
                 write_checkpoint(&entries).unwrap();\n\
               }\n\
             }",
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn trait_dispatch_reaches_cross_crate_sink() {
        // A guard held across a workspace-trait method call is flagged
        // when *any* implementor reaches blocking I/O — dynamic
        // dispatch means the receiver could be that implementor.
        let files = vec![
            SourceFile::parse(
                "crates/core/src/lib.rs".into(),
                "pub trait Sink { fn on_zone(&self); }",
            ),
            SourceFile::parse(
                "crates/fab/src/lib.rs".into(),
                "struct W { state: Mutex<u32>, inner: Box<dyn Sink> }\n\
                 impl W {\n\
                   fn drive(&self) {\n\
                     let g = self.state.lock();\n\
                     self.inner.on_zone();\n\
                     drop(g);\n\
                   }\n\
                 }",
            ),
            SourceFile::parse(
                "crates/journal/src/lib.rs".into(),
                "struct J { file: File }\n\
                 impl Sink for J {\n\
                   fn on_zone(&self) { self.file.sync_all().unwrap(); }\n\
                 }",
            ),
        ];
        let idx = SymbolIndex::build(&files);
        let graph = CallGraph::build(&files, &idx);
        let findings = check(&files, &idx, &graph);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "L003" && f.msg.contains("via `on_zone`")),
            "expected trait-dispatch L003, got {findings:?}"
        );
    }

    #[test]
    fn guard_across_transitive_fsync_is_l003() {
        let findings = run_locks(
            "struct S { state: Mutex<u32> }\n\
             fn persist(file: &File) { file.sync_all().unwrap(); }\n\
             impl S {\n\
               fn commit(&self, file: &File) {\n\
                 let g = self.state.lock();\n\
                 persist(file);\n\
                 drop(g);\n\
               }\n\
             }",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "L003" && f.msg.contains("via `persist`")),
            "expected transitive L003, got {findings:?}"
        );
    }
}
