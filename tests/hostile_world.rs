//! Headline adversarial-robustness validation (DESIGN.md §6c).
//!
//! A mixed world = the benign tiny world plus the full complement of
//! hostile-operator archetypes under the `zzadv` registry. Three
//! properties must hold:
//!
//! (a) **Benign invariance** — the scan report for the benign subset of a
//!     mixed world is identical, field for field, to the report of the
//!     same world built without adversaries. Hostile infrastructure must not
//!     perturb one bit of benign evidence.
//! (b) **Named degradation** — every adversarial zone lands in an
//!     explicit degraded class with its archetype's named cause counted
//!     in `RetryStats`, never silently misclassified (and never
//!     classified Secured).
//! (c) **Bounded amplification** — no adversarial response pattern makes
//!     one zone cost more than the per-zone budget or 3× the worst
//!     benign zone, verified both scanner-side (logical queries) and
//!     netsim-side (datagram accounting to the 10.200/16 hostile pool).

use bootscan::scanner::DEFAULT_ZONE_QUERY_BUDGET;
use bootscan::{DnssecClass, ScanPolicy, ScanResults, Scanner, ZoneScan};
use dns_ecosystem::{build, AdversaryArchetype, Ecosystem, EcosystemConfig};
use dns_wire::name::Name;
use netsim::Addr;
use std::collections::{HashMap, HashSet};

const ADV_PER_ARCHETYPE: usize = 2;

fn scan(cfg: EcosystemConfig) -> (Ecosystem, ScanResults) {
    let eco = build(cfg);
    let scanner = Scanner::for_ecosystem(&eco, ScanPolicy::default());
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner.scan_all(&seeds);
    (eco, results)
}

fn scans_by_name(results: &ScanResults) -> HashMap<&Name, &ZoneScan> {
    results.zones.iter().map(|z| (&z.name, z)).collect()
}

/// The cause counter each archetype must trip (the §6c mapping).
fn expected_cause_count(
    archetype: AdversaryArchetype,
    stats: &bootscan::RetryStats,
) -> (&'static str, u64) {
    match archetype {
        AdversaryArchetype::Lame => ("lame-delegation", stats.hostile_lame),
        AdversaryArchetype::ReferralLoop | AdversaryArchetype::SelfGlue => {
            ("referral-loop", stats.hostile_referral_loops)
        }
        AdversaryArchetype::OutOfBailiwick | AdversaryArchetype::OversizedReferral => {
            ("foreign-records", stats.hostile_foreign)
        }
        AdversaryArchetype::WrongQname | AdversaryArchetype::MismatchedId => {
            ("mismatched-reply", stats.hostile_mismatched)
        }
        AdversaryArchetype::NxnsFanout => ("wide-referral", stats.hostile_wide_referrals),
        AdversaryArchetype::SignalCnameLoop => ("alias-loop", stats.hostile_alias_loops),
    }
}

#[test]
fn hostile_world_properties() {
    let (_pure_eco, pure_res) = scan(EcosystemConfig::tiny(42));
    let (mix_eco, mix_res) = scan(EcosystemConfig::tiny(42).with_adversaries(ADV_PER_ARCHETYPE));

    let adv_truth: HashMap<Name, AdversaryArchetype> = mix_eco
        .truth
        .iter()
        .filter_map(|t| t.adversary.map(|a| (t.name.clone(), a)))
        .collect();
    let n_adv = AdversaryArchetype::ALL.len() * ADV_PER_ARCHETYPE;
    assert_eq!(adv_truth.len(), n_adv, "every adversarial zone has truth");

    // ---- (a) benign invariance -------------------------------------
    assert_eq!(
        mix_res.zones.len(),
        pure_res.zones.len() + n_adv,
        "mixed world scans exactly the benign seeds plus the hostile tier"
    );
    let mixed_by_name = scans_by_name(&mix_res);
    for z in &pure_res.zones {
        let mixed = mixed_by_name
            .get(&z.name)
            .unwrap_or_else(|| panic!("{} missing from mixed-world report", z.name));
        assert_eq!(
            z, *mixed,
            "{}: benign report differs between pure and mixed worlds",
            z.name
        );
    }

    // No cross-contamination: benign zones in the mixed world carry zero
    // hostile evidence.
    let adv_names: HashSet<&Name> = adv_truth.keys().collect();
    for z in &mix_res.zones {
        if !adv_names.contains(&z.name) {
            assert_eq!(
                z.retry_stats.hostile_events(),
                0,
                "{}: benign zone shows hostile evidence in mixed world",
                z.name
            );
        }
    }

    // ---- (b) named degradation -------------------------------------
    for z in &mix_res.zones {
        let Some(&archetype) = adv_truth.get(&z.name) else {
            continue;
        };
        assert!(
            z.degraded,
            "{}: adversarial zone ({archetype:?}) not marked degraded",
            z.name
        );
        let (label, count) = expected_cause_count(archetype, &z.retry_stats);
        assert!(
            count > 0,
            "{}: {archetype:?} must be attributed to '{label}', stats: {:?}",
            z.name,
            z.retry_stats
        );
        assert_ne!(
            z.dnssec,
            DnssecClass::Secured,
            "{}: hostile zone must never classify Secured",
            z.name
        );
    }

    // ---- (c) bounded amplification ---------------------------------
    let budget = DEFAULT_ZONE_QUERY_BUDGET;
    assert!(budget > 0, "default policy must cap per-zone queries");
    let max_benign = pure_res
        .zones
        .iter()
        .map(|z| z.retry_stats.logical_queries)
        .max()
        .unwrap();
    for z in &mix_res.zones {
        if !adv_names.contains(&z.name) {
            continue;
        }
        let q = z.retry_stats.logical_queries;
        assert!(
            q <= budget,
            "{}: {q} logical queries exceeds the {budget} budget",
            z.name
        );
        assert!(
            q <= 3 * max_benign,
            "{}: {q} logical queries exceeds 3× the worst benign zone ({max_benign})",
            z.name
        );
    }

    // Netsim-side accounting: all hostile infrastructure lives in
    // 10.200/16, so the network's own per-destination counters bound the
    // datagrams the adversaries ever extracted from the scanner.
    let snap = mix_eco.net.stats().snapshot();
    let attempts = 3u64; // netsim default per-exchange attempts
    let hostile_datagrams: u64 = snap
        .per_dest
        .iter()
        .filter_map(|(addr, n)| match addr {
            Addr::V4(a) if a.octets()[0] == 10 && a.octets()[1] == 200 => Some(*n),
            _ => None,
        })
        .sum();
    assert!(
        hostile_datagrams > 0,
        "the scan must actually have exercised hostile servers"
    );
    assert!(
        hostile_datagrams <= n_adv as u64 * budget * attempts,
        "hostile servers extracted {hostile_datagrams} datagrams from the scanner, \
         above the amplification cap ({n_adv} zones × {budget} × {attempts} attempts)"
    );
}
