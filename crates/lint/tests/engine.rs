//! Integration tests over the fixture corpus: every rule must fire on
//! its true-positive fixture, and every justified suppression must
//! silence its finding.

use bootscan_lint::run;
use std::path::{Path, PathBuf};

fn fixture(tree: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(tree)
}

#[test]
fn violations_tree_trips_every_rule() {
    let report = run(&fixture("violations")).expect("scan fixture tree");
    let mut got: Vec<(String, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.rel.clone(), f.line))
        .collect();
    got.sort();
    let want: &[(&str, &str, u32)] = &[
        ("D002", "crates/core/src/lib.rs", 12),
        ("X002", "crates/core/src/lib.rs", 18),
        ("D002", "crates/core/src/lib.rs", 19),
        ("X001", "crates/core/src/lib.rs", 22),
        ("D002", "crates/scan-epochs/src/lib.rs", 10),
        ("D002", "crates/scan-continuous/src/lib.rs", 10),
        ("T001", "crates/dns-wire/src/message.rs", 7),
        ("T002", "crates/dns-resolver/src/cache.rs", 7),
        ("T003", "crates/scan-journal/src/recover.rs", 6),
        ("L001", "crates/scan-fabric/src/worker.rs", 15),
        ("L002", "crates/scan-fabric/src/worker.rs", 30),
        ("L003", "crates/scan-fabric/src/worker.rs", 37),
    ];
    let mut want: Vec<(String, String, u32)> = want
        .iter()
        .map(|&(r, p, l)| (r.to_string(), p.to_string(), l))
        .collect();
    want.sort();
    assert_eq!(
        got, want,
        "fixture findings drifted:\n{:#?}",
        report.findings
    );
}

#[test]
fn empty_reason_never_suppresses() {
    // The reason-less allow in core/src/lib.rs must yield BOTH the X002
    // hygiene finding and the underlying D002 it failed to suppress on
    // the line below it.
    let report = run(&fixture("violations")).expect("scan fixture tree");
    let in_core: Vec<(&str, u32)> = report
        .findings
        .iter()
        .filter(|f| f.rel == "crates/core/src/lib.rs")
        .map(|f| (f.rule.as_str(), f.line))
        .collect();
    assert!(in_core.contains(&("X002", 18)));
    assert!(in_core.contains(&("D002", 19)));
}

#[test]
fn allowed_tree_scans_clean() {
    let report = run(&fixture("allowed")).expect("scan fixture tree");
    assert!(
        report.clean(),
        "justified suppressions should silence every finding:\n{:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 7);
}

#[test]
fn findings_render_with_file_and_line() {
    let report = run(&fixture("violations")).expect("scan fixture tree");
    let first = report.findings.first().expect("at least one finding");
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("crates/core/src/lib.rs:12: [D002]"),
        "diagnostic format drifted: {rendered}"
    );
}
