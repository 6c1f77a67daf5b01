//! Cache-poisoning regression suite (DESIGN.md §6c).
//!
//! All three shared caches in the scanner stack are provenance-tagged:
//! the scanner's DNSKEY cache, the resolver's NS-address cache, and the
//! resolver's delegation cache. An entry may only be consulted for
//! owners *inside* its provenance (for referral data: cuts strictly
//! below it). These tests plant poisoned entries directly through the
//! test hooks and prove they are dead weight: lookups ignore them,
//! evidence is re-fetched from the network, and classifications match an
//! unpoisoned scan bit for bit. The scanner's memo of verified DS links
//! is keyed on the identity of the referral and the parent key set, not
//! on names: the last test plants in-bailiwick entries that differ from
//! a verified link in exactly one of the two.

use bootscan::{DnssecClass, ReferralData, ScanPolicy, Scanner};
use dns_ecosystem::{build, DnssecState, Ecosystem, EcosystemConfig};
use dns_wire::name::Name;
use dns_wire::rdata::DnskeyData;
use dns_wire::record::RecordType;
use netsim::{Addr, SimMicros};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn scanner_for(eco: &Ecosystem) -> Arc<Scanner> {
    Scanner::for_ecosystem(eco, ScanPolicy::default())
}

/// A secured, non-legacy zone from the tiny world (the class whose
/// classification depends on chain validation, i.e. on trusted keys).
fn secured_zone(eco: &Ecosystem) -> Name {
    eco.truth
        .iter()
        .find(|t| t.dnssec == DnssecState::Secured && !t.legacy_ns && !t.in_domain_ns)
        .map(|t| t.name.clone())
        .expect("tiny world plants secured zones")
}

fn garbage_keys() -> Vec<DnskeyData> {
    vec![DnskeyData {
        flags: 257,
        protocol: 3,
        algorithm: 13,
        public_key: vec![0xde; 64],
    }]
}

#[test]
fn poisoned_key_cache_entries_are_never_consulted() {
    let eco = build(EcosystemConfig::tiny(7));
    let zone = secured_zone(&eco);

    let clean = scanner_for(&eco).scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // Attacker-grade inserts: garbage key sets for the validation chain's
    // ancestors, tagged with a provenance that does not contain them.
    let scanner = scanner_for(&eco);
    let foreign = Name::parse("zzadv").unwrap();
    scanner.seed_validated_keys(
        Name::root(),
        garbage_keys(),
        Some(foreign.clone()),
        SimMicros::MAX,
    );
    scanner.seed_validated_keys(
        Name::parse("com").unwrap(),
        garbage_keys(),
        Some(foreign.clone()),
        SimMicros::MAX,
    );
    scanner.seed_validated_keys(
        zone.parent().unwrap(),
        garbage_keys(),
        Some(foreign.clone()),
        SimMicros::MAX,
    );
    scanner.seed_validated_keys(zone.clone(), garbage_keys(), Some(foreign), SimMicros::MAX);

    let poisoned = scanner.scan_all(std::slice::from_ref(&zone));
    assert_eq!(
        baseline, &poisoned.zones[0],
        "{zone}: poisoned key-cache entries changed the scan outcome"
    );
    assert!(
        !poisoned.zones[0].degraded,
        "{zone}: scan through a poisoned cache must stay clean, not degraded"
    );
}

#[test]
fn poisoned_address_cache_entries_are_never_consulted() {
    let eco = build(EcosystemConfig::tiny(7));
    let zone = secured_zone(&eco);
    let truth = eco.truth_of(&zone).unwrap();
    let op = &eco.operators[truth.operator];

    let clean = scanner_for(&eco).scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // Redirect every NS hostname of the zone's operator to an attacker
    // address — but with a provenance that does not contain the hostname.
    let attacker = Addr::V4(Ipv4Addr::new(10, 200, 0, 77));
    let scanner = scanner_for(&eco);
    for host in &op.hosts {
        scanner.resolver().seed_address(
            host.clone(),
            Arc::new(vec![attacker]),
            Some(Name::parse("zzadv").unwrap()),
            SimMicros::MAX,
        );
    }

    let poisoned = scanner.scan_all(std::slice::from_ref(&zone));
    assert_eq!(
        baseline, &poisoned.zones[0],
        "{zone}: poisoned address-cache entries changed the scan outcome"
    );
    // The attacker address must never have seen a single datagram.
    let snap = eco.net.stats().snapshot();
    assert_eq!(
        snap.per_dest.get(&attacker).copied().unwrap_or(0),
        0,
        "{zone}: scanner sent traffic to a poisoned (out-of-provenance) address"
    );
}

#[test]
fn poisoned_delegation_cache_entries_are_never_consulted() {
    let eco = build(EcosystemConfig::tiny(7));
    let zone = secured_zone(&eco);

    let clean = scanner_for(&eco).scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // Plant referral data redirecting the zone's cut — and its TLD's cut
    // — to an attacker server, tagged with an out-of-bailiwick
    // provenance. The delegation cache only serves a cut that is a
    // strict subdomain of the entry's provenance, so these must be dead
    // weight: the walk falls back to the root and re-derives the chain
    // from the network.
    let attacker = Addr::V4(Ipv4Addr::new(10, 200, 0, 88));
    let scanner = scanner_for(&eco);
    let foreign = Name::parse("zzadv").unwrap();
    for cut in [zone.clone(), zone.parent().unwrap()] {
        let parent = cut.parent().unwrap_or_else(Name::root);
        scanner.resolver().seed_referral(
            cut.clone(),
            Arc::new(ReferralData {
                parent_apex: parent,
                ns_names: vec![Name::parse("ns.zzadv").unwrap()],
                ds: None,
                ds_rrsigs: vec![],
                child_servers: vec![attacker],
                parent_servers: vec![attacker],
            }),
            Some(foreign.clone()),
            SimMicros::MAX,
        );
    }

    let poisoned = scanner.scan_all(std::slice::from_ref(&zone));
    assert_eq!(
        baseline, &poisoned.zones[0],
        "{zone}: poisoned delegation-cache entries changed the scan outcome"
    );
    assert!(
        !poisoned.zones[0].degraded,
        "{zone}: scan through a poisoned delegation cache must stay clean"
    );
    // The attacker server must never have seen a single datagram.
    let snap = eco.net.stats().snapshot();
    assert_eq!(
        snap.per_dest.get(&attacker).copied().unwrap_or(0),
        0,
        "{zone}: scanner followed a poisoned (out-of-provenance) referral"
    );
}

#[test]
fn verified_ds_links_are_reused_only_for_the_same_referral_and_keys() {
    let eco = build(EcosystemConfig::tiny(7));
    let zone = secured_zone(&eco);
    let scanner = scanner_for(&eco);
    let scan = |scanner: &Scanner| scanner.scan_all(std::slice::from_ref(&zone)).zones[0].dnssec;
    assert_eq!(scan(&scanner), DnssecClass::Secured, "{zone}: baseline");

    // The referral at the zone's cut, as the scan cached and verified it.
    let res = scanner.resolver().resolve(&zone, RecordType::Soa).unwrap();
    let verified = res.chain.last().expect("delegated zone").clone();
    assert_eq!(verified.child_apex, zone);
    assert!(!verified.ds_rrsigs.is_empty(), "{zone}: signed DS RRset");

    // Same cut, its own allocation, DS RRSIG corrupted — planted under
    // the parent's provenance, so the walk does take it.
    let mut forged = (*verified.data).clone();
    for sig in &mut forged.ds_rrsigs {
        for b in &mut sig.signature {
            *b ^= 0x5a;
        }
    }
    scanner
        .resolver()
        .seed_referral(zone.clone(), Arc::new(forged), None, SimMicros::MAX);
    assert_eq!(
        scan(&scanner),
        DnssecClass::Invalid,
        "{zone}: a forged referral for a verified cut was served the cut's verdict"
    );

    // The verified referral itself, under another parent key set: keys
    // that sign nothing, cached for the parent in its own bailiwick.
    scanner.resolver().seed_referral(
        zone.clone(),
        Arc::clone(&verified.data),
        None,
        SimMicros::MAX,
    );
    scanner.seed_validated_keys(
        verified.parent_apex.clone(),
        garbage_keys(),
        None,
        SimMicros::MAX,
    );
    assert_eq!(
        scan(&scanner),
        DnssecClass::Invalid,
        "{zone}: a verified referral kept its verdict under other parent keys"
    );
}
