//! Resolver path tests: caching, out-of-bailiwick NS chasing, truncation
//! fallback through full resolution, referral-loop protection, and that a
//! failed address lookup is retried rather than cached. The worlds are
//! named points of the scenario space (`scenario/mod.rs`).

#[expect(
    dead_code,
    reason = "the scenario space serves the RFC oracle suite too"
)]
mod scenario;

use dns_resolver::{DnsClient, HostileCause, QueryMeter, Resolver, ResolverError, RootHints};
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::{Record, RecordType};
use netsim::{Addr, Network, ServerHandler, ServerResponse, SimMicros, Transport};
use scenario::Point;
use std::net::Ipv4Addr;
use std::sync::Arc;

#[test]
fn out_of_bailiwick_ns_resolved_recursively() {
    let point = Point::named("sibling-glueless");
    let resolver = point.world.resolver();
    let res = resolver
        .resolve_at_with(None, 0, &point.zone, RecordType::Soa)
        .expect("resolves despite glueless delegation");
    assert_eq!(res.rcode, Rcode::NoError);
    assert_eq!(res.answers.len(), 1);
    assert_eq!(res.zone_apex, point.zone);
}

#[test]
fn address_cache_prevents_re_resolution() {
    let point = Point::named("sibling-glueless");
    let resolver = point.world.resolver();
    let ns = &point.hosts[0].0;
    let first = resolver
        .addresses_of_at_with(&QueryMeter::new(0), 0, ns)
        .unwrap();
    let before = point.world.net.stats().snapshot().queries;
    let second = resolver
        .addresses_of_at_with(&QueryMeter::new(0), 0, ns)
        .unwrap();
    let after = point.world.net.stats().snapshot().queries;
    assert_eq!(first, second);
    assert_eq!(before, after, "cached lookup must not touch the network");
}

#[test]
fn a_failed_address_lookup_is_not_memoised() {
    // The NS hostname's first A query is answered with SERVFAIL.
    let point = Point::named("flaky-host");
    let resolver = point.world.resolver();
    let (ns, addr) = &point.hosts[0];
    let during = resolver
        .addresses_of_at_with(&QueryMeter::new(0), 0, ns)
        .unwrap();
    assert_eq!(*during, Vec::<Addr>::new());
    // Once the outage is over the hostname resolves: the failure above
    // must not have been cached as "no addresses".
    let after = resolver
        .addresses_of_at_with(&QueryMeter::new(0), 600_000_000, ns)
        .unwrap();
    assert_eq!(*after, vec![*addr]);
}

#[test]
fn seeded_addresses_bypass_resolution() {
    let resolver = Point::named("sibling-glueless").world.resolver();
    let fake = Addr::V4(Ipv4Addr::new(10, 9, 9, 9));
    resolver.seed_address(
        Name::parse("seeded.example").unwrap(),
        Arc::new(vec![fake]),
        None,
        SimMicros::MAX,
    );
    let got = resolver
        .addresses_of_at_with(
            &QueryMeter::new(0),
            0,
            &Name::parse("seeded.example").unwrap(),
        )
        .unwrap();
    assert_eq!(*got, vec![fake]);
}

/// A malicious/broken server that answers every query with a referral to
/// a *sibling* name (never descending) — the resolver must bail out
/// rather than loop.
struct SidewaysReferrer;
impl ServerHandler for SidewaysReferrer {
    fn handle(
        &self,
        q: &[u8],
        _d: Addr,
        _t: Transport,
        _b: u32,
        _now: SimMicros,
    ) -> ServerResponse {
        let Ok(parsed) = Message::from_bytes(q) else {
            return ServerResponse::Drop;
        };
        let mut resp = Message::response_to(&parsed, Rcode::NoError);
        // Referral for a name NOT below the current zone: bogus.
        resp.authorities.push(Record::new(
            Name::parse("elsewhere.example").unwrap(),
            300,
            RData::Ns(Name::parse("ns1.elsewhere.example").unwrap()),
        ));
        resp.additionals.push(Record::new(
            Name::parse("ns1.elsewhere.example").unwrap(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 99)),
        ));
        ServerResponse::Reply(resp.to_bytes())
    }
}

#[test]
fn sideways_referrals_do_not_loop() {
    let net = Arc::new(Network::new(1));
    let sid = net.register(SidewaysReferrer);
    let root_addr = Addr::V4(Ipv4Addr::new(198, 41, 0, 4));
    net.bind_simple(root_addr, sid);
    net.bind_simple(Addr::V4(Ipv4Addr::new(192, 0, 2, 99)), sid);
    let client = Arc::new(DnsClient::new(Arc::clone(&net)));
    let resolver = Resolver::new(
        client,
        RootHints {
            addrs: vec![root_addr],
        },
    );
    // Must terminate with a named cause, not hang.
    let res =
        resolver.resolve_at_with(None, 0, &Name::parse("victim.test").unwrap(), RecordType::A);
    assert_eq!(
        res.unwrap_err(),
        ResolverError::Hostile(HostileCause::ReferralLoop)
    );
}
