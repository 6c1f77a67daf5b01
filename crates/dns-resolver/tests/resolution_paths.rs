//! Resolver path tests: caching, out-of-bailiwick NS chasing, truncation
//! fallback through full resolution, referral-loop protection, and that a
//! failed address lookup is retried rather than cached.

use dns_resolver::{DnsClient, HostileCause, Resolver, ResolverError, RootHints};
use dns_server::{AuthServer, ZoneStore};
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::rdata::{RData, SoaData};
use dns_wire::record::{Record, RecordType};
use dns_zone::Zone;
use netsim::{
    Addr, FaultKind, FaultPlan, FaultScope, FaultSpec, Network, ServerHandler, ServerResponse,
    SimMicros, Transport, Window,
};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn soa(apex: &Name) -> Record {
    Record::new(
        apex.clone(),
        300,
        RData::Soa(SoaData {
            mname: Name::parse("ns.invalid").unwrap(),
            rname: Name::parse("h.invalid").unwrap(),
            serial: 1,
            refresh: 1,
            retry: 1,
            expire: 1,
            minimum: 300,
        }),
    )
}

/// Unsigned world: root → test → {leaf.test, otherhost.test}, where
/// leaf.test's NS hostname lives in otherhost.test (out of bailiwick, no
/// glue anywhere).
fn build_oob_world() -> (Arc<Network>, Vec<Addr>) {
    let net = Arc::new(Network::new(31));

    // otherhost.test hosts the NS hostname's address.
    let other_apex = Name::parse("otherhost.test").unwrap();
    let mut other = Zone::new(other_apex.clone());
    other.add(soa(&other_apex));
    other.add(Record::new(
        other_apex.clone(),
        300,
        RData::Ns(Name::parse("ns1.otherhost.test").unwrap()),
    ));
    let other_addr = Addr::V4(Ipv4Addr::new(192, 0, 2, 60));
    other.add(Record::new(
        Name::parse("ns1.otherhost.test").unwrap(),
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 60)),
    ));
    // The out-of-bailiwick NS hostname for leaf.test:
    other.add(Record::new(
        Name::parse("dns.otherhost.test").unwrap(),
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 61)),
    ));
    let other_store = Arc::new(ZoneStore::new());
    other_store.insert(other);
    let other_sid = net.register(AuthServer::new(other_store));
    net.bind_simple(other_addr, other_sid);

    // leaf.test served at dns.otherhost.test's address.
    let leaf_apex = Name::parse("leaf.test").unwrap();
    let mut leaf = Zone::new(leaf_apex.clone());
    leaf.add(soa(&leaf_apex));
    leaf.add(Record::new(
        leaf_apex.clone(),
        300,
        RData::Ns(Name::parse("dns.otherhost.test").unwrap()),
    ));
    leaf.add(Record::new(
        Name::parse("www.leaf.test").unwrap(),
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 80)),
    ));
    let leaf_store = Arc::new(ZoneStore::new());
    leaf_store.insert(leaf);
    let leaf_sid = net.register(AuthServer::new(leaf_store));
    net.bind_simple(Addr::V4(Ipv4Addr::new(192, 0, 2, 61)), leaf_sid);

    // TLD test: delegations WITHOUT glue for leaf.test (out of
    // bailiwick), WITH glue for otherhost.test.
    let tld_apex = Name::parse("test").unwrap();
    let mut tld = Zone::new(tld_apex.clone());
    tld.add(soa(&tld_apex));
    tld.add(Record::new(
        tld_apex.clone(),
        300,
        RData::Ns(Name::parse("ns1.nic.test").unwrap()),
    ));
    tld.add(Record::new(
        leaf_apex.clone(),
        300,
        RData::Ns(Name::parse("dns.otherhost.test").unwrap()),
    ));
    tld.add(Record::new(
        other_apex.clone(),
        300,
        RData::Ns(Name::parse("ns1.otherhost.test").unwrap()),
    ));
    tld.add(Record::new(
        Name::parse("ns1.otherhost.test").unwrap(),
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 60)),
    ));
    let tld_addr = Addr::V4(Ipv4Addr::new(192, 5, 6, 30));
    tld.add(Record::new(
        Name::parse("ns1.nic.test").unwrap(),
        300,
        RData::A(Ipv4Addr::new(192, 5, 6, 30)),
    ));
    let tld_store = Arc::new(ZoneStore::new());
    tld_store.insert(tld);
    let tld_sid = net.register(AuthServer::new(tld_store));
    net.bind_simple(tld_addr, tld_sid);

    // Root.
    let mut root = Zone::new(Name::root());
    root.add(soa(&Name::root()));
    root.add(Record::new(
        Name::root(),
        300,
        RData::Ns(Name::parse("a.root-servers.net").unwrap()),
    ));
    root.add(Record::new(
        tld_apex,
        300,
        RData::Ns(Name::parse("ns1.nic.test").unwrap()),
    ));
    root.add(Record::new(
        Name::parse("ns1.nic.test").unwrap(),
        300,
        RData::A(Ipv4Addr::new(192, 5, 6, 30)),
    ));
    let root_store = Arc::new(ZoneStore::new());
    root_store.insert(root);
    let root_sid = net.register(AuthServer::new(root_store));
    let root_addr = Addr::V4(Ipv4Addr::new(198, 41, 0, 4));
    net.bind_simple(root_addr, root_sid);

    (net, vec![root_addr])
}

#[test]
fn out_of_bailiwick_ns_resolved_recursively() {
    let (net, roots) = build_oob_world();
    let client = Arc::new(DnsClient::new(Arc::clone(&net)));
    let resolver = Resolver::new(client, RootHints { addrs: roots });
    let res = resolver
        .resolve(&Name::parse("www.leaf.test").unwrap(), RecordType::A)
        .expect("resolves despite glueless delegation");
    assert_eq!(res.rcode, Rcode::NoError);
    assert_eq!(res.answers.len(), 1);
    assert_eq!(res.zone_apex, Name::parse("leaf.test").unwrap());
}

#[test]
fn address_cache_prevents_re_resolution() {
    let (net, roots) = build_oob_world();
    let client = Arc::new(DnsClient::new(Arc::clone(&net)));
    let resolver = Resolver::new(client, RootHints { addrs: roots });
    let ns = Name::parse("dns.otherhost.test").unwrap();
    let first = resolver.addresses_of(&ns).unwrap();
    let before = net.stats().snapshot().queries;
    let second = resolver.addresses_of(&ns).unwrap();
    let after = net.stats().snapshot().queries;
    assert_eq!(first, second);
    assert_eq!(before, after, "cached lookup must not touch the network");
}

#[test]
fn a_failed_address_lookup_is_not_memoised() {
    let (net, roots) = build_oob_world();
    // otherhost.test's only server is dark for the first virtual minute.
    net.set_faults(FaultPlan::new(7).with(FaultSpec {
        scope: FaultScope::to_addr(Addr::V4(Ipv4Addr::new(192, 0, 2, 60))),
        window: Window::Interval {
            start: 0,
            end: 60_000_000,
        },
        kind: FaultKind::BlackHole,
    }));
    let client = Arc::new(DnsClient::new(Arc::clone(&net)));
    let resolver = Resolver::new(client, RootHints { addrs: roots });
    let ns = Name::parse("dns.otherhost.test").unwrap();
    let during = resolver.addresses_of_at_with(None, 0, &ns).unwrap();
    assert_eq!(*during, Vec::<Addr>::new());
    // Once the outage is over the hostname resolves: the failure above
    // must not have been cached as "no addresses".
    let after = resolver
        .addresses_of_at_with(None, 600_000_000, &ns)
        .unwrap();
    assert_eq!(*after, vec![Addr::V4(Ipv4Addr::new(192, 0, 2, 61))]);
}

#[test]
fn seeded_addresses_bypass_resolution() {
    let (net, roots) = build_oob_world();
    let client = Arc::new(DnsClient::new(Arc::clone(&net)));
    let resolver = Resolver::new(client, RootHints { addrs: roots });
    let fake = Addr::V4(Ipv4Addr::new(10, 9, 9, 9));
    resolver.seed_address(
        Name::parse("seeded.example").unwrap(),
        Arc::new(vec![fake]),
        None,
        SimMicros::MAX,
    );
    let got = resolver
        .addresses_of(&Name::parse("seeded.example").unwrap())
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
    let res = resolver.resolve(&Name::parse("victim.test").unwrap(), RecordType::A);
    assert_eq!(
        res.unwrap_err(),
        ResolverError::Hostile(HostileCause::ReferralLoop)
    );
}
