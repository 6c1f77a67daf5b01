//! Cache-poisoning regression suite (DESIGN.md §6c).
//!
//! All four shared caches in the scanner stack are provenance-tagged:
//! the scanner's DNSKEY and zone-cut probe caches, the resolver's
//! NS-address cache, and the resolver's delegation cache. An entry may
//! only be consulted for owners *inside* its provenance (for referral
//! data: cuts strictly below it; for a zone-cut probe outcome: by a
//! probe answered by that very apex). These tests plant poisoned
//! entries directly through the test hooks (or, for zone-cut outcomes,
//! let a `zzadv` server leave one) and prove they are dead weight:
//! lookups ignore them, evidence is re-fetched from the network, and
//! classifications match an unpoisoned scan bit for bit. The scanner's memo of verified DS links
//! is keyed on the identity of the referral and the parent key set, not
//! on names: the last test plants in-bailiwick entries that differ from
//! a verified link in exactly one of the two.

#[expect(
    dead_code,
    reason = "the scenario space serves the RFC oracle suite too"
)]
mod scenario;

use bootscan::{DnssecClass, ReferralData, Scanner};
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::Record;
use dns_wire::record::RecordType;
use netsim::{Addr, ServerHandler, ServerResponse, SimMicros, Transport};
use scenario::Point;
use std::net::Ipv4Addr;
use std::sync::Arc;

#[test]
fn poisoned_key_cache_entries_are_never_consulted() {
    let point = Point::named("secured");
    let zone = point.zone.clone();

    let clean = point.scanner().scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // Attacker-grade inserts: garbage key sets for the validation chain's
    // ancestors, tagged with a provenance that does not contain them.
    let scanner = point.scanner();
    let foreign = Name::parse("zzadv").unwrap();
    scanner.seed_validated_keys(
        Name::root(),
        scenario::garbage_keys(),
        Some(foreign.clone()),
        SimMicros::MAX,
    );
    scanner.seed_validated_keys(
        zone.parent().unwrap(),
        scenario::garbage_keys(),
        Some(foreign.clone()),
        SimMicros::MAX,
    );
    scanner.seed_validated_keys(
        zone.clone(),
        scenario::garbage_keys(),
        Some(foreign),
        SimMicros::MAX,
    );

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
    let point = Point::named("secured");
    let zone = point.zone.clone();

    let clean = point.scanner().scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // Redirect every NS hostname of the zone's operator to an attacker
    // address — but with a provenance that does not contain the hostname.
    let attacker = Addr::V4(Ipv4Addr::new(10, 200, 0, 77));
    let scanner = point.scanner();
    for (host, _) in &point.hosts {
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
    let snap = point.world.net.stats().snapshot();
    assert_eq!(
        snap.per_dest.get(&attacker).copied().unwrap_or(0),
        0,
        "{zone}: scanner sent traffic to a poisoned (out-of-provenance) address"
    );
}

#[test]
fn poisoned_delegation_cache_entries_are_never_consulted() {
    let point = Point::named("secured");
    let zone = point.zone.clone();

    let clean = point.scanner().scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // Plant referral data redirecting the zone's cut — and its TLD's cut
    // — to an attacker server, tagged with an out-of-bailiwick
    // provenance. The delegation cache only serves a cut that is a
    // strict subdomain of the entry's provenance, so these must be dead
    // weight: the walk falls back to the root and re-derives the chain
    // from the network.
    let attacker = Addr::V4(Ipv4Addr::new(10, 200, 0, 88));
    let scanner = point.scanner();
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
    let snap = point.world.net.stats().snapshot();
    assert_eq!(
        snap.per_dest.get(&attacker).copied().unwrap_or(0),
        0,
        "{zone}: scanner followed a poisoned (out-of-provenance) referral"
    );
}

#[test]
fn verified_ds_links_are_reused_only_for_the_same_referral_and_keys() {
    let point = Point::named("secured");
    let zone = point.zone.clone();
    let scanner = point.scanner();
    let scan = |scanner: &Scanner| scanner.scan_all(std::slice::from_ref(&zone)).zones[0].dnssec;
    assert_eq!(scan(&scanner), DnssecClass::Secured, "{zone}: baseline");

    // The referral at the zone's cut, as the scan cached and verified it.
    let res = scanner
        .resolver()
        .resolve_at_with(None, 0, &zone, RecordType::Soa)
        .unwrap();
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
        scenario::garbage_keys(),
        None,
        SimMicros::MAX,
    );
    assert_eq!(
        scan(&scanner),
        DnssecClass::Invalid,
        "{zone}: a verified referral kept its verdict under other parent keys"
    );
}

/// A `zzadv` server claiming a zone: it answers every question
/// authoritatively and empty, except NS at `label`, which it says is a
/// zone cut.
struct NsAt {
    label: Name,
}

impl ServerHandler for NsAt {
    fn handle(&self, q: &[u8], _: Addr, _: Transport, _: u32, _: SimMicros) -> ServerResponse {
        let Ok(query) = Message::from_bytes(q) else {
            return ServerResponse::Drop;
        };
        let mut reply = Message::response_to(&query, Rcode::NoError);
        reply.header.flags.authoritative = true;
        let asked = query.questions.first();
        if asked.is_some_and(|q| q.name == self.label && q.rtype == RecordType::Ns) {
            let target = Name::parse("ns.zzadv").unwrap();
            let ns = Record::new(self.label.clone(), 300, RData::Ns(target));
            reply.answers.push(ns);
        }
        ServerResponse::Reply(reply.to_bytes())
    }
}

#[test]
fn zone_cut_outcomes_are_served_only_through_the_apex_that_answered() {
    let point = Point::named("secured");
    let zone = point.zone.clone();
    let scan = |scanner: &Scanner| scanner.scan_all(std::slice::from_ref(&zone)).zones[0].clone();
    let baseline = scan(&point.scanner()).evidence.clone();
    assert!(
        !baseline.signal_observations[0].zone_cut,
        "{zone}: baseline"
    );

    // The zone's signal path under its NS host: `op1.test` answers it,
    // and the shared label `test._signal.<host>` sits below
    // `_signal.<host>`, which a `zzadv` server claims as its own zone.
    let (base, labels) = point.shared_cut_labels();
    let (shared, signal_apex) = (labels[0].clone(), labels[1].clone());
    let adversary = Addr::V4(Ipv4Addr::new(10, 200, 0, 99));
    let net = &point.world.net;
    net.bind_simple(
        adversary,
        net.register(NsAt {
            label: shared.clone(),
        }),
    );
    let delegate = |scanner: &Scanner, expires_at| {
        let referral = ReferralData {
            parent_apex: base.clone(),
            ns_names: vec![Name::parse("ns.zzadv").unwrap()],
            ds: None,
            ds_rrsigs: vec![],
            child_servers: vec![adversary],
        };
        let (cut, referral) = (signal_apex.clone(), Arc::new(referral));
        scanner
            .resolver()
            .seed_referral(cut, referral, None, expires_at);
    };

    // A warm scan caches the walk down to `op1.test` and the shared
    // labels' outcomes under it, so a referral planted below it is
    // followed: the zzadv server then answers the signal name, its probe
    // must ask the shared label rather than read `op1.test`'s outcome,
    // and the NS it hears is cached under `_signal.<host>`.
    let scanner = point.scanner();
    assert_eq!(scan(&scanner).evidence, baseline, "{zone}: warm scan");
    delegate(&scanner, SimMicros::MAX);
    assert!(
        scan(&scanner).signal_observations[0].zone_cut,
        "{zone}: an outcome cached under op1.test was served to the zzadv zone's probe"
    );

    // With the referral gone, `op1.test` answers again, and the outcome
    // cached under `_signal.<host>` must not be served to its probe.
    delegate(&scanner, 0);
    let sent = |net: &netsim::Network| net.stats().snapshot().per_dest[&adversary];
    let before = sent(net);
    assert_eq!(
        scan(&scanner).evidence,
        baseline,
        "{zone}: a zone-cut outcome cached under another apex was served"
    );
    assert_eq!(
        sent(net),
        before,
        "{zone}: the zzadv server was asked again"
    );
}
