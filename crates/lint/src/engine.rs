//! The scan driver: walks a workspace, applies the rule catalog under
//! each rule's path scope, resolves `bootscan-allow` escape hatches,
//! and runs the cross-file checks (U001 forbid-unsafe, E001 error
//! taxonomy, X001/X002 allow hygiene).

use crate::rules::{self, Rule};
use crate::source::SourceFile;
use std::fs;
use std::io;
use std::path::Path;

/// One confirmed violation, after test-masking and allow resolution.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub line: u32,
    pub rule: String,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.rule, self.msg
        )
    }
}

/// The result of scanning a workspace tree.
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Total lexed tokens across all scanned files — the analysis-cost
    /// currency the CI runtime guard budgets against.
    pub tokens_scanned: usize,
    /// Every `Mutex<`/`RwLock<` class the L-series discovered, as sorted
    /// `crate::field` strings.
    pub lock_classes: Vec<String>,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Match a workspace-relative path against a glob: `*` matches one
/// path segment, `**` matches any number (including zero).
pub fn glob_match(pattern: &str, path: &str) -> bool {
    fn seg_match(pat: &[&str], path: &[&str]) -> bool {
        match (pat.first(), path.first()) {
            (None, None) => true,
            (Some(&"**"), _) => {
                seg_match(&pat[1..], path) || (!path.is_empty() && seg_match(pat, &path[1..]))
            }
            (Some(&p), Some(&s)) if p == "*" || p == s => seg_match(&pat[1..], &path[1..]),
            _ => false,
        }
    }
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    seg_match(&pat, &segs)
}

fn in_scope(rule: &Rule, rel: &str) -> bool {
    rule.include.iter().any(|p| glob_match(p, rel))
        && !rule.exclude.iter().any(|p| glob_match(p, rel))
}

/// Directories never descended into: build output, VCS metadata, and
/// the lint crate's own fixture corpus (which contains violations by
/// construction).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let ty = e.file_type()?;
        let name = e.file_name();
        let name = name.to_string_lossy();
        if ty.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&e.path(), out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(e.path());
        }
    }
    Ok(())
}

/// If an allow for `rule` covers `line`, mark it used and suppress.
fn suppressed(sf: &SourceFile, rule: &str, line: u32) -> bool {
    let mut hit = false;
    for a in &sf.allows {
        if a.rule == rule && !a.reason.is_empty() && a.covers.contains(&line) {
            a.used.set(true);
            hit = true;
        }
    }
    hit
}

/// Scan the workspace rooted at `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;

    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(p)?;
        files.push(SourceFile::parse(rel, &src));
    }

    let catalog = rules::catalog();
    let mut findings = Vec::new();

    // Per-file rules under their path scopes.
    for sf in &files {
        for rule in &catalog {
            if !in_scope(rule, &sf.rel) {
                continue;
            }
            for raw in (rule.check)(sf) {
                if rule.skip_tests && sf.in_test.get(raw.tok).copied().unwrap_or(false) {
                    continue;
                }
                if suppressed(sf, rule.id, raw.line) {
                    continue;
                }
                findings.push(Finding {
                    rel: sf.rel.clone(),
                    line: raw.line,
                    rule: rule.id.to_string(),
                    msg: raw.msg,
                });
            }
        }
    }

    // U001: every crate root must forbid unsafe code.
    for sf in &files {
        if rules::is_crate_root(&sf.rel) && !rules::has_forbid_unsafe(sf) {
            if suppressed(sf, "U001", 1) {
                continue;
            }
            findings.push(Finding {
                rel: sf.rel.clone(),
                line: 1,
                rule: "U001".to_string(),
                msg: "crate root is missing `#![forbid(unsafe_code)]`; every workspace \
                      crate locks out unsafe code"
                    .to_string(),
            });
        }
    }

    // E001: degradation reporting must name every taxonomy variant.
    for check in rules::taxonomy_checks() {
        let Some(enum_sf) = files.iter().find(|f| f.rel == check.enum_file) else {
            continue;
        };
        let Some(report_sf) = files.iter().find(|f| f.rel == check.report_file) else {
            continue;
        };
        let variants = rules::enum_variants(enum_sf, check.enum_name);
        let bodies: Vec<(usize, usize)> = check
            .report_fns
            .iter()
            .filter_map(|f| rules::fn_body(report_sf, f))
            .collect();
        if variants.is_empty() || bodies.is_empty() {
            continue;
        }
        let fn_line = report_sf.toks[bodies[0].0].line;
        for v in &variants {
            let named = bodies
                .iter()
                .any(|&b| rules::body_names_variant(report_sf, b, check.enum_name, v));
            if !named && !suppressed(report_sf, "E001", fn_line) {
                findings.push(Finding {
                    rel: report_sf.rel.clone(),
                    line: fn_line,
                    rule: "E001".to_string(),
                    msg: format!(
                        "degradation reporting ({}) never names `{}::{v}`; every \
                         taxonomy variant must be matched explicitly",
                        check.report_fns.join("/"),
                        check.enum_name
                    ),
                });
            }
        }
        for &body in &bodies {
            if let Some(line) = rules::body_wildcard_arm(report_sf, body) {
                if !suppressed(report_sf, "E001", line) {
                    findings.push(Finding {
                        rel: report_sf.rel.clone(),
                        line,
                        rule: "E001".to_string(),
                        msg: "wildcard match arm in degradation reporting silently folds \
                              taxonomy variants; match each variant explicitly"
                            .to_string(),
                    });
                }
            }
        }
    }

    // Cross-crate passes: symbol index → call graph → taint (T-rules)
    // and lock discipline (L-rules). These run before the X checks so
    // their suppressions count as used.
    let index = crate::symbols::SymbolIndex::build(&files);
    let graph = crate::callgraph::CallGraph::build(&files, &index);
    let taint = crate::taint::Taint::analyze(&files, &index, &graph);
    let by_rel: std::collections::BTreeMap<&str, &SourceFile> =
        files.iter().map(|sf| (sf.rel.as_str(), sf)).collect();
    for finding in crate::taint::check(&files, &index, &graph, &taint)
        .into_iter()
        .chain(crate::locks::check(&files, &index, &graph))
    {
        if let Some(sf) = by_rel.get(finding.rel.as_str()) {
            if suppressed(sf, &finding.rule, finding.line) {
                continue;
            }
        }
        findings.push(finding);
    }

    // X002: allows must carry a reason. X001: allows must suppress
    // something. Both are unconditional — suppressions cannot rot.
    for sf in &files {
        for a in &sf.allows {
            if a.reason.is_empty() {
                findings.push(Finding {
                    rel: sf.rel.clone(),
                    line: a.line,
                    rule: "X002".to_string(),
                    msg: format!(
                        "bootscan-allow({}) has no reason; write \
                         `// bootscan-allow(<rule>): <why this exception is sound>`",
                        a.rule
                    ),
                });
            } else if !a.used.get() {
                findings.push(Finding {
                    rel: sf.rel.clone(),
                    line: a.line,
                    rule: "X001".to_string(),
                    msg: format!(
                        "unused bootscan-allow({}): nothing on its covered lines \
                         triggers the rule; delete the stale suppression",
                        a.rule
                    ),
                });
            }
        }
    }

    findings.sort();
    findings.dedup();
    Ok(Report {
        tokens_scanned: files.iter().map(|f| f.toks.len()).sum(),
        lock_classes: crate::locks::class_ledger(&files),
        findings,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_semantics() {
        assert!(glob_match("**", "a/b/c.rs"));
        assert!(glob_match("crates/*/src/**", "crates/core/src/a/b.rs"));
        assert!(glob_match("crates/core/src/**", "crates/core/src/lib.rs"));
        assert!(!glob_match("crates/core/src/**", "crates/core/tests/x.rs"));
        assert!(glob_match(
            "crates/dns-resolver/src/client.rs",
            "crates/dns-resolver/src/client.rs"
        ));
        assert!(!glob_match("crates/*/src/lib.rs", "crates/a/b/src/lib.rs"));
    }
}
