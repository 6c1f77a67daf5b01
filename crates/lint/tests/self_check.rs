//! The live workspace must satisfy its own invariants: running the
//! lint over the repository root yields zero findings. This is the
//! test that keeps the codebase honest — any new hash iteration in the
//! evidence plane, unsanitized taint path, lock-discipline break, or
//! stale suppression fails the suite with a file:line diagnostic.

use bootscan_lint::run;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root")
}

#[test]
fn workspace_satisfies_all_invariants() {
    let root = workspace_root();
    let report = run(root).expect("scan workspace");
    assert!(
        report.clean(),
        "workspace invariant violations:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually saw the workspace, not an empty dir.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned",
        report.files_scanned
    );
}

/// The analysis-runtime guard: the cross-crate passes (symbol index,
/// call graph, taint fixpoint, lock-scope walks) must stay cheap
/// enough to run on every CI push. The budget is pinned at roughly 2×
/// the workspace's current size (150 files / ~278k tokens when set) —
/// organic growth fits, but an accidentally quadratic resolver or a
/// runaway fixture tree blows the ceiling and fails here instead of
/// silently doubling CI time.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the wall-clock ceiling times the lint itself; nothing here is scan evidence"
)]
fn workspace_scan_stays_within_budget() {
    let root = workspace_root();
    let started = std::time::Instant::now();
    let report = run(root).expect("scan workspace");
    let elapsed = started.elapsed();
    assert!(
        report.tokens_scanned <= 600_000,
        "workspace grew past the analysis token budget: {} tokens \
         (budget 600k); raise the budget deliberately or trim the scan",
        report.tokens_scanned
    );
    assert!(
        report.files_scanned <= 300,
        "workspace grew past the analysis file budget: {} files \
         (budget 300)",
        report.files_scanned
    );
    // Coarse wall-clock ceiling — generous enough for loaded CI
    // runners, tight enough to catch a superlinear blowup.
    assert!(
        elapsed.as_secs() < 60,
        "workspace scan took {elapsed:?}; the cross-crate passes must \
         stay far under a minute"
    );
}

/// U001 is `unsafe_code = "forbid"` in the root manifest's
/// `[workspace.lints.rust]`, and the `clippy` half of the catalog sits
/// beside it. Both reach a package only through its own `[lints]
/// workspace = true`, so a member that omits it silently opts out.
#[test]
fn every_member_inherits_the_workspace_lints() {
    fn inherits(manifest: &str) -> bool {
        let mut in_lints = false;
        manifest.lines().map(str::trim).any(|line| {
            if line.starts_with('[') {
                in_lints = line == "[lints]";
            }
            in_lints && line.replace(' ', "") == "workspace=true"
        })
    }
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("list members") {
            let manifest = entry.expect("member entry").path().join("Cargo.toml");
            if manifest.exists() {
                manifests.push(manifest);
            }
        }
    }
    assert!(manifests.len() > 15, "only {} manifests", manifests.len());
    let opted_out: Vec<String> = manifests
        .iter()
        .filter(|m| !inherits(&std::fs::read_to_string(m).expect("read manifest")))
        .map(|m| m.display().to_string())
        .collect();
    assert!(
        opted_out.is_empty(),
        "these manifests lack `[lints] workspace = true`: {opted_out:?}"
    );
}

/// The lock-class ledger: every `Mutex<`/`RwLock<` class the L-series
/// discovers, with who the second thread is. A new lock in the
/// workspace fails here until its reason is written down; a removed
/// one fails until its line is deleted.
#[test]
fn lock_classes_are_the_known_set() {
    const KNOWN: &[(&str, &str)] = &[
        (
            "core::zones",
            "threaded scan_all lanes push into one results vector",
        ),
        (
            "dns-resolver::stripes",
            "threaded scan_all lanes share every ProvenanceCache (16 stripes each)",
        ),
        (
            "dns-server::zones",
            "churn writes a store that every scan lane reads",
        ),
        (
            "netsim::faults",
            "tests swap the fault plan while scan lanes read it",
        ),
        (
            "netsim::inner",
            "bind/rebind writes the topology that every lane reads",
        ),
        (
            "netsim::per_dest",
            "bind registers a counter while snapshots read the map",
        ),
        (
            "scan-continuous::eco",
            "reconcile loop applies churn; workers build scanners",
        ),
        (
            "scan-continuous::state",
            "reconcile loop publishes the epoch; workers resolve it",
        ),
        (
            "scan-fabric::revoked",
            "coordinator revokes a lease its worker appends under",
        ),
    ];
    let root = workspace_root();
    let report = run(root).expect("scan workspace");
    let known: Vec<&str> = KNOWN.iter().map(|(class, _)| *class).collect();
    assert_eq!(
        report.lock_classes, known,
        "lock classes changed: add the new class to KNOWN with the reason a \
         second thread reaches it, or delete the line of a lock that left"
    );
}
