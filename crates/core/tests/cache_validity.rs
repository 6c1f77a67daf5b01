//! Cache TTL/validity regression suite (DESIGN.md §10).
//!
//! Every shared cache entry carries a virtual-time expiry. An expired
//! entry is *never consulted* — a lookup that finds one evicts it and
//! re-fetches from the network — so carrying a cache across longitudinal
//! epochs can change when datagrams are sent, never what the classifier
//! concludes. These tests plant garbage entries that are already expired
//! (with *valid* provenance, so only the expiry stamp protects the scan)
//! and prove the scan output stays byte-identical to a cold scan.

#[expect(
    dead_code,
    reason = "the scenario space serves the RFC oracle suite too"
)]
mod scenario;

use bootscan::{CacheInsert, CutOutcome, ReferralData, ZoneEffects};
use dns_wire::name::Name;
use netsim::Addr;
use scenario::Point;
use std::net::Ipv4Addr;
use std::sync::Arc;

#[test]
fn expired_key_cache_entries_are_never_consulted() {
    let point = Point::named("secured");
    let zone = point.zone.clone();

    let clean = point.scanner().scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // Garbage keys with *correct* provenance but expiry at virtual time
    // zero: every consult happens at clock >= 0, so only the validity
    // stamp stands between these keys and the validation chain.
    let scanner = point.scanner();
    for owner in [Name::root(), zone.parent().unwrap(), zone.clone()] {
        scanner.seed_validated_keys(owner, scenario::garbage_keys(), None, 0);
    }

    let rescanned = scanner.scan_all(std::slice::from_ref(&zone));
    assert_eq!(
        baseline, &rescanned.zones[0],
        "{zone}: an expired key-cache entry was consulted"
    );
    assert!(
        !rescanned.zones[0].degraded,
        "{zone}: scan across expired cache entries must stay clean"
    );
}

#[test]
fn unexpired_seeded_keys_are_consulted() {
    // The control for the test above: the same garbage keys with a
    // far-future expiry *are* consulted (and wreck validation), proving
    // the expired variant was rejected by its stamp, not by accident.
    let point = Point::named("secured");
    let zone = point.zone.clone();

    let clean = point.scanner().scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    let scanner = point.scanner();
    scanner.seed_validated_keys(
        Name::root(),
        scenario::garbage_keys(),
        None,
        netsim::SimMicros::MAX,
    );
    let rescanned = scanner.scan_all(std::slice::from_ref(&zone));
    assert_ne!(
        baseline, &rescanned.zones[0],
        "{zone}: a live seeded key set should have altered the outcome"
    );
}

#[test]
fn expired_address_cache_entries_are_refetched() {
    let point = Point::named("secured");
    let zone = point.zone.clone();

    let clean = point.scanner().scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // Black-hole addresses for every NS hostname of the zone's operator,
    // correct provenance, expired stamp. If any is consulted the zone's
    // servers all fail and the scan degrades.
    let scanner = point.scanner();
    let sinkhole = Arc::new(vec![Addr::V4(Ipv4Addr::new(192, 0, 2, 77))]);
    for (host, _) in &point.hosts {
        scanner
            .resolver()
            .seed_address(host.clone(), Arc::clone(&sinkhole), None, 0);
    }

    let rescanned = scanner.scan_all(std::slice::from_ref(&zone));
    assert_eq!(
        baseline, &rescanned.zones[0],
        "{zone}: an expired address-cache entry was consulted"
    );
    assert!(!rescanned.zones[0].degraded);
}

#[test]
fn expired_referral_entries_are_rewalked() {
    let point = Point::named("secured");
    let zone = point.zone.clone();

    let clean = point.scanner().scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // An expired referral entry for the zone's own cut pointing at a
    // black hole: consulted, it would strand the walk; expired, the walk
    // must ignore it, re-descend from the root, and overwrite it.
    let scanner = point.scanner();
    let bogus = ReferralData {
        parent_apex: zone.parent().unwrap(),
        ns_names: vec![Name::parse("ns.nowhere.invalid").unwrap()],
        ds: None,
        ds_rrsigs: Vec::new(),
        child_servers: vec![Addr::V4(Ipv4Addr::new(192, 0, 2, 78))],
    };
    scanner
        .resolver()
        .seed_referral(zone.clone(), Arc::new(bogus), None, 0);

    let rescanned = scanner.scan_all(std::slice::from_ref(&zone));
    assert_eq!(
        baseline, &rescanned.zones[0],
        "{zone}: an expired delegation-cache entry was consulted"
    );
    assert!(!rescanned.zones[0].degraded);
}

#[test]
fn expired_zone_cut_outcomes_are_reasked() {
    let point = Point::named("secured-signal");
    let zone = point.zone.clone();

    let clean = point.scanner().scan_all(std::slice::from_ref(&zone));
    let baseline = &clean.zones[0];

    // An NS answer at every shared label of the zone's signal path,
    // cached under the apex that does answer, expired: consulted, it
    // would report a zone cut; expired, every label must be asked again.
    let (apex, labels) = point.shared_cut_labels();
    let planted: ZoneEffects = labels
        .into_iter()
        .map(|l| {
            let outcome = CutOutcome {
                apex: apex.clone(),
                has_ns: true,
            };
            (l, CacheInsert::Cut(outcome))
        })
        .collect();
    let scanner = point.scanner();
    scanner.seed_effects(&planted, 0);

    let rescanned = scanner.scan_all(std::slice::from_ref(&zone));
    assert_eq!(
        baseline, &rescanned.zones[0],
        "{zone}: an expired zone-cut probe outcome was consulted"
    );
    assert!(!rescanned.zones[0].degraded);
}
