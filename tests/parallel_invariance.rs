//! Evidence-plane invariance across parallelism and cache temperature
//! (DESIGN.md §7).
//!
//! The shared delegation / address / validated-key caches are a *cost*
//! optimisation: they may change when — and whether — a datagram is
//! sent, never what the classifier concludes. Query IDs are derived
//! from stable per-query coordinates, so a cache hit elides whole
//! queries without renumbering the surviving ones, and every cache
//! value is a pure function of the world, so it does not matter which
//! zone's walk populated an entry first. These tests pin that contract:
//! the evidence plane of the reports (every observed and concluded field
//! of every zone, and the report artifacts) is identical across worker
//! counts 1/4/8 and
//! across cold vs pre-warmed caches, in both the benign and the
//! adversarial worlds. Cost counters (queries, elapsed, I/O stats) are
//! exactly what the caches exist to change, so they are excluded here
//! — and the warm-cache test asserts they actually *drop*.

#[expect(dead_code, reason = "each suite uses only some of the shared helpers")]
mod common;

use bootscan::report::{self, Figure1};
use bootscan::{DnssecClass, Evidence, ScanPolicy, ScanResults, Scanner};
use dns_ecosystem::{build, Ecosystem, EcosystemConfig};
use std::sync::Arc;

const ADV_PER_ARCHETYPE: usize = 2;

fn scanner_for(eco: &Ecosystem, parallelism: usize) -> Arc<Scanner> {
    let policy = ScanPolicy {
        parallelism,
        ..ScanPolicy::default()
    };
    Scanner::for_ecosystem(eco, policy)
}

/// One cold scan of a freshly built world at the given worker count.
fn cold_scan(cfg: EcosystemConfig, parallelism: usize) -> ScanResults {
    let eco = build(cfg);
    let scanner = scanner_for(&eco, parallelism);
    let seeds = eco.seeds.compile(&eco.psl);
    scanner.scan_all(&seeds)
}

/// The evidence plane of a scan: every zone's [`Evidence`], plus the
/// derived report artifacts. Two scans with equal evidence produce
/// identical reports everywhere the paper's analysis looks.
struct Plane {
    zones: Vec<Evidence>,
    figure1: Figure1,
    /// The degradation report's *population* (which zones, which class,
    /// and the degraded and indeterminate counts); its failure counters
    /// are I/O cost (a warm cache legitimately times out less before a
    /// budget cap bites).
    degraded: (u64, u64, Vec<(String, DnssecClass)>),
}

fn evidence(results: &ScanResults) -> Plane {
    let deg = report::degradation(results);
    Plane {
        zones: results.zones.iter().map(|z| z.evidence.clone()).collect(),
        figure1: report::figure1(results),
        degraded: (
            deg.degraded_zones,
            deg.indeterminate_zones,
            deg.zones.into_iter().map(|z| (z.name, z.class)).collect(),
        ),
    }
}

#[track_caller]
fn assert_same_evidence(expected: &Plane, got: &Plane, what: &str) {
    common::assert_same_zones(&expected.zones, &got.zones, what);
    assert_eq!(expected.figure1, got.figure1, "{what}: figure 1");
    assert_eq!(expected.degraded, got.degraded, "{what}: degradation");
}

#[test]
fn benign_evidence_is_invariant_across_parallelism() {
    let base = evidence(&cold_scan(EcosystemConfig::tiny(42), 1));
    for parallelism in [4, 8] {
        let got = evidence(&cold_scan(EcosystemConfig::tiny(42), parallelism));
        assert_same_evidence(
            &base,
            &got,
            &format!("evidence plane diverged at parallelism {parallelism}"),
        );
    }
}

#[test]
fn adversarial_evidence_is_invariant_across_parallelism() {
    let cfg = || EcosystemConfig::tiny(42).with_adversaries(ADV_PER_ARCHETYPE);
    let base = evidence(&cold_scan(cfg(), 1));
    for parallelism in [4, 8] {
        let got = evidence(&cold_scan(cfg(), parallelism));
        assert_same_evidence(
            &base,
            &got,
            &format!("adversarial evidence plane diverged at parallelism {parallelism}"),
        );
    }
}

#[test]
fn prewarmed_caches_change_cost_not_evidence() {
    // Same scanner, same seeds, scanned twice: the second scan runs
    // against fully warm delegation/address/key caches.
    let eco = build(EcosystemConfig::tiny(42));
    let scanner = scanner_for(&eco, 1);
    let seeds = eco.seeds.compile(&eco.psl);
    let cold = scanner.scan_all(&seeds);
    let warm = scanner.scan_all(&seeds);
    assert_same_evidence(
        &evidence(&cold),
        &evidence(&warm),
        "cache temperature leaked into the evidence plane",
    );
    // The caches must actually bite: a warm walk skips the whole
    // root-down descent, so the warm scan is strictly cheaper.
    assert!(
        warm.total_queries < cold.total_queries,
        "warm scan issued {} queries, cold {} — delegation cache never hit",
        warm.total_queries,
        cold.total_queries
    );
}

#[test]
fn prewarmed_caches_are_invariant_under_parallel_rescan() {
    // Cold at parallelism 1 is the reference; a warm scan at
    // parallelism 8 must still land on the same evidence.
    let reference = evidence(&cold_scan(EcosystemConfig::tiny(42), 1));
    let eco = build(EcosystemConfig::tiny(42));
    let scanner = scanner_for(&eco, 8);
    let seeds = eco.seeds.compile(&eco.psl);
    let _warmup = scanner.scan_all(&seeds);
    let warm = scanner.scan_all(&seeds);
    assert_same_evidence(
        &reference,
        &evidence(&warm),
        "warm parallel scan diverged from the cold sequential reference",
    );
}

#[test]
fn adversarial_prewarm_changes_cost_not_evidence() {
    let cfg = EcosystemConfig::tiny(42).with_adversaries(ADV_PER_ARCHETYPE);
    let eco = build(cfg);
    let scanner = scanner_for(&eco, 4);
    let seeds = eco.seeds.compile(&eco.psl);
    let cold = scanner.scan_all(&seeds);
    let warm = scanner.scan_all(&seeds);
    assert_same_evidence(
        &evidence(&cold),
        &evidence(&warm),
        "adversarial cache temperature leaked into the evidence plane",
    );
}
