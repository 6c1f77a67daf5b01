//! Headline robustness validation: under the standard chaos profile
//! (packet loss, flapping outages, SERVFAIL bursts, malformed replies,
//! latency spikes) the scanner must (a) still recover the planted ground
//! truth for the overwhelming majority of zones, (b) mark every casualty
//! with an *explicit* degraded classification instead of silently folding
//! it into Secured/Insecure/Invalid, and (c) stay byte-for-byte
//! deterministic: same world seed + same fault plan = identical reports.

#[expect(dead_code, reason = "each suite uses only some of the shared helpers")]
mod common;

use bootscan::report;
use bootscan::{DnssecClass, ScanPolicy, ScanResults, Scanner};
use dns_ecosystem::{build, Ecosystem, EcosystemConfig};
use netsim::{FaultKind, FaultPlan, FaultScope, FaultSpec, Window};

/// Build the tiny world, arm the standard chaos profile on every bound
/// address, and scan it with the default (retry + rescan) policy.
fn scan_under_chaos(world_seed: u64, chaos_seed: u64) -> (Ecosystem, ScanResults) {
    scan_under_plan(world_seed, |eco| {
        FaultPlan::standard_chaos(chaos_seed, &eco.net.bound_addrs())
    })
}

/// Build the tiny world, arm the fault plan `plan` draws for it, and
/// scan it with the default policy.
fn scan_under_plan(
    world_seed: u64,
    plan: impl FnOnce(&Ecosystem) -> FaultPlan,
) -> (Ecosystem, ScanResults) {
    let eco = build(EcosystemConfig::tiny(world_seed));
    eco.net.set_faults(plan(&eco));
    let scanner = Scanner::for_ecosystem(&eco, ScanPolicy::default());
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner.scan_all(&seeds);
    (eco, results)
}

#[test]
fn chaos_scan_recovers_planted_truth_within_tolerance() {
    let (eco, results) = scan_under_chaos(42, 0xc4a0);
    assert!(!results.zones.is_empty());

    let mut checked = 0u32;
    let mut matched = 0u32;
    for scan in &results.zones {
        let truth = eco.truth_of(&scan.name).expect("scanned zone has truth");
        // Legacy-NS zones are deliberately mis-classifiable even on a
        // clean network (their servers cannot answer DNSKEY); skip them
        // like the end-to-end suite does.
        if truth.legacy_ns {
            continue;
        }
        checked += 1;
        if scan.dnssec == common::expect_dnssec(truth) {
            matched += 1;
        } else {
            // Every casualty of the chaos must be *explicitly* degraded:
            // either an honest Indeterminate/Unresolvable, or a class the
            // evidence genuinely supports with non-trivial failure stats.
            let explicit = scan.dnssec == DnssecClass::Indeterminate
                || scan.dnssec == DnssecClass::Unresolvable
                || scan.degraded;
            assert!(
                explicit,
                "{}: planted {:?}, scanned {:?} with clean stats {:?} — silent misclassification",
                scan.name, truth.dnssec, scan.dnssec, scan.retry_stats
            );
        }
    }
    assert!(checked > 0);
    // Tolerance: the retry/rescan machinery must absorb the standard
    // chaos profile for at least 80 % of zones.
    assert!(
        matched * 5 >= checked * 4,
        "only {matched} of {checked} zones recovered under chaos"
    );
}

#[test]
fn chaos_casualties_carry_failure_evidence() {
    // Standard chaos alone leaves failures or retries at these seeds only
    // by chance; one NS address that never answers makes them certain.
    let dead = |eco: &Ecosystem| eco.operators[0].host_addrs[0][0];
    let (eco, results) = scan_under_plan(42, |eco| {
        FaultPlan::standard_chaos(0xc4a0, &eco.net.bound_addrs()).with(FaultSpec {
            scope: FaultScope::to_addr(dead(eco)),
            window: Window::Always,
            kind: FaultKind::BlackHole,
        })
    });
    let dead = dead(&eco);
    let sent = eco.net.stats().snapshot().per_dest.get(&dead).copied();
    assert!(sent.unwrap_or(0) > 0, "the scan never queried {dead:?}");
    // Chaos at these rates must leave *some* visible trace in the stats
    // (otherwise the taxonomy is not being threaded through).
    let total_failures: u32 = results.zones.iter().map(|z| z.retry_stats.failures).sum();
    let total_retries: u32 = results.zones.iter().map(|z| z.retry_stats.retries).sum();
    assert!(
        total_failures + total_retries > 0,
        "standard chaos produced no recorded failures or retries"
    );
    for z in &results.zones {
        if z.dnssec == DnssecClass::Indeterminate {
            assert!(
                z.degraded,
                "{}: Indeterminate must imply degraded evidence",
                z.name
            );
            assert!(
                z.retry_stats.degraded(),
                "{}: Indeterminate without degradation stats {:?}",
                z.name,
                z.retry_stats
            );
        }
    }
    // The degradation report enumerates exactly the degraded population.
    let deg = report::degradation(&results);
    assert_eq!(deg.total_zones as usize, results.zones.len());
    assert_eq!(
        deg.zones.len() as u64,
        results
            .zones
            .iter()
            .filter(|z| z.degraded || z.dnssec == DnssecClass::Indeterminate)
            .count() as u64
    );
}

#[test]
fn same_seed_and_fault_plan_yield_byte_identical_reports() {
    let run = || {
        let (_eco, results) = scan_under_chaos(7, 0xdead);
        let fig1 = report::figure1(&results);
        let deg = report::degradation(&results);
        (results.zones, fig1, deg)
    };
    let a = run();
    let b = run();
    common::assert_same_zones(
        &a.0,
        &b.0,
        "per-zone reports diverged across identical runs",
    );
    assert_eq!(a.1, b.1, "figure 1 diverged across identical runs");
    assert_eq!(
        a.2, b.2,
        "degradation report diverged across identical runs"
    );
}

#[test]
fn chaos_profile_is_strictly_costlier_than_clean() {
    // Same world, with and without faults: chaos may never make the scan
    // cheaper or faster, and the clean scan must stay undegraded.
    let clean_eco = build(EcosystemConfig::tiny(42));
    let scanner = Scanner::for_ecosystem(&clean_eco, ScanPolicy::default());
    let clean = scanner.scan_all(&clean_eco.seeds.compile(&clean_eco.psl));
    assert!(
        clean.zones.iter().all(|z| !z.degraded),
        "clean network must produce no degraded zones"
    );
    assert_eq!(
        clean
            .zones
            .iter()
            .filter(|z| z.dnssec == DnssecClass::Indeterminate)
            .count(),
        0
    );

    let (_eco, chaos) = scan_under_chaos(42, 0xc4a0);
    assert_eq!(clean.zones.len(), chaos.zones.len());
    assert!(
        chaos.simulated_duration >= clean.simulated_duration,
        "chaos ({}) finished faster than clean ({})",
        chaos.simulated_duration,
        clean.simulated_duration
    );
    assert!(chaos.total_queries >= clean.total_queries);
}
