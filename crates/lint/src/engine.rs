//! The scan driver: walks a workspace, runs D002 and the cross-crate
//! T/L passes, resolves `bootscan-allow` escape hatches, and checks
//! their hygiene (X001/X002).

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

    // D002, then the cross-crate passes: symbol index → call graph →
    // taint (T-rules) and lock discipline (L-rules). These run before
    // the X checks so their suppressions count as used.
    let index = crate::symbols::SymbolIndex::build(&files);
    let graph = crate::callgraph::CallGraph::build(&files, &index);
    let taint = crate::taint::Taint::analyze(&files, &index, &graph);
    let by_rel: std::collections::BTreeMap<&str, &SourceFile> =
        files.iter().map(|sf| (sf.rel.as_str(), sf)).collect();
    let mut findings = Vec::new();
    for finding in crate::rules::check(&files)
        .into_iter()
        .chain(crate::taint::check(&files, &index, &graph, &taint))
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
