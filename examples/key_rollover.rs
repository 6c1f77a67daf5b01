//! CDS-driven KSK rollover, observed through a validating resolver.
//!
//! Paper §4.3: zones that are already secured "manage key rollovers with
//! in-zone CDS RRs only" (RFC 7344). This example builds a minimal signed
//! world (root → `ch` → `roll.ch`), then walks the three-phase rollover
//! while a validating resolver watches — the zone must stay `Secure` at
//! every step, and a deliberately mistimed retirement must go `Bogus`.
//!
//! ```sh
//! cargo run --release --example key_rollover
//! ```

use dns_crypto::{Algorithm, DigestType, KeyPair};
use dns_resolver::{validate_resolution, DnsClient, Resolver, RootHints, Security};
use dns_server::{AuthServer, ZoneStore};
use dns_wire::name::Name;
use dns_wire::rdata::{DsData, RData, SoaData};
use dns_wire::record::{Record, RecordType};
use dns_zone::rollover::{introduce_new_ksk, retire_old_ksk};
use dns_zone::signer::Denial;
use dns_zone::{CdsPublication, Zone, ZoneKeys, ZoneSigner};
use netsim::{Addr, Network, SimMicros};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;
use std::sync::Arc;

const NOW: u32 = 1_000_000;

fn soa(apex: &Name) -> Record {
    Record::new(
        apex.clone(),
        300,
        RData::Soa(SoaData {
            mname: Name::parse("ns.invalid").unwrap(),
            rname: Name::parse("h.invalid").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
    )
}

struct World {
    net: Arc<Network>,
    roots: Vec<Addr>,
    anchors: Vec<DsData>,
    zone_store: Arc<ZoneStore>,
    tld_store: Arc<ZoneStore>,
    tld_keys: ZoneKeys,
}

fn build_world(zone: Zone, zone_keys: &ZoneKeys) -> World {
    let mut rng = StdRng::seed_from_u64(0x0150);
    let net = Arc::new(Network::new(5));
    let apex = zone.apex().clone();

    // Leaf server.
    let zone_store = Arc::new(ZoneStore::new());
    zone_store.insert(zone);
    let leaf_sid = net.register(AuthServer::new(Arc::clone(&zone_store)));
    let leaf_addr = Addr::V4(Ipv4Addr::new(192, 0, 2, 53));
    net.bind_simple(leaf_addr, leaf_sid);

    // TLD "ch".
    let tld = Name::parse("ch").unwrap();
    let mut tldz = Zone::new(tld.clone());
    tldz.add(soa(&tld));
    let tld_ns = Name::parse("ns1.nic.ch").unwrap();
    let tld_addr = Addr::V4(Ipv4Addr::new(192, 5, 6, 30));
    tldz.add(Record::new(tld.clone(), 3600, RData::Ns(tld_ns.clone())));
    tldz.add(Record::new(
        tld_ns.clone(),
        3600,
        RData::A(Ipv4Addr::new(192, 5, 6, 30)),
    ));
    let leaf_ns = Name::parse("ns1.op.net").unwrap();
    tldz.add(Record::new(apex.clone(), 3600, RData::Ns(leaf_ns.clone())));
    for r in zone_keys.ds_records(&apex, 3600, DigestType::Sha256) {
        tldz.add(r);
    }
    let tld_keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
    ZoneSigner::new(NOW)
        .with_denial(Denial::None)
        .sign(&mut tldz, &tld_keys);
    let tld_store = Arc::new(ZoneStore::new());
    tld_store.insert(tldz);
    let tld_sid = net.register(AuthServer::new(Arc::clone(&tld_store)));
    net.bind_simple(tld_addr, tld_sid);

    // Root.
    let mut root = Zone::new(Name::root());
    root.add(soa(&Name::root()));
    root.add(Record::new(
        Name::root(),
        3600,
        RData::Ns(Name::parse("a.root-servers.net").unwrap()),
    ));
    root.add(Record::new(tld.clone(), 3600, RData::Ns(tld_ns)));
    root.add(Record::new(
        Name::parse("ns1.nic.ch").unwrap(),
        3600,
        RData::A(Ipv4Addr::new(192, 5, 6, 30)),
    ));
    for r in tld_keys.ds_records(&tld, 3600, DigestType::Sha256) {
        root.add(r);
    }
    let root_keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
    ZoneSigner::new(NOW)
        .with_denial(Denial::None)
        .sign(&mut root, &root_keys);
    let anchors = vec![root_keys.ds_data(&Name::root(), DigestType::Sha256)];
    let root_store = Arc::new(ZoneStore::new());
    root_store.insert(root);
    let root_sid = net.register(AuthServer::new(root_store));
    let root_addr = Addr::V4(Ipv4Addr::new(198, 41, 0, 4));
    net.bind_simple(root_addr, root_sid);

    World {
        net,
        roots: vec![root_addr],
        anchors,
        zone_store,
        tld_store,
        tld_keys,
    }
}

fn security_of(w: &World, name: &Name) -> Security {
    let client = Arc::new(DnsClient::new(Arc::clone(&w.net)));
    let resolver = Resolver::new(
        Arc::clone(&client),
        RootHints {
            addrs: w.roots.clone(),
        },
    );
    resolver.seed_address(
        Name::parse("ns1.op.net").unwrap(),
        Arc::new(vec![Addr::V4(Ipv4Addr::new(192, 0, 2, 53))]),
        None,
        SimMicros::MAX,
    );
    let res = resolver
        .resolve_at_with(None, 0, name, RecordType::A)
        .expect("resolves");
    validate_resolution(&client, &w.anchors, &w.roots, &res, NOW)
}

/// Registry side of phase 2: read CDS off the zone, swap the DS RRset.
fn registry_swaps_ds(w: &World, apex: &Name) {
    let zone = w.zone_store.get(apex).expect("zone hosted");
    let cds = zone
        .rrset(apex, RecordType::Cds)
        .expect("CDS present")
        .clone();
    let tld = apex.parent().unwrap();
    let old = w.tld_store.get(&tld).unwrap();
    let mut newz = (*old).clone();
    newz.remove_rrset(apex, RecordType::Ds);
    // Drop the stale RRSIG over the old DS.
    if let Some(sigs) = newz.remove_rrset(apex, RecordType::Rrsig) {
        for rec in sigs.records() {
            if let RData::Rrsig(s) = &rec.rdata {
                if s.type_covered != RecordType::Ds.code() {
                    newz.add(rec);
                }
            }
        }
    }
    for rd in &cds.rdatas {
        if let RData::Cds(d) = rd {
            newz.add(Record::new(apex.clone(), 3600, RData::Ds(d.clone())));
        }
    }
    let ds_set = newz.rrset(apex, RecordType::Ds).unwrap().clone();
    let sig = ZoneSigner::new(NOW).sign_rrset_record(&ds_set, &w.tld_keys, &tld);
    newz.add(sig);
    w.tld_store.insert(newz);
}

fn main() {
    let apex = Name::parse("roll.ch").unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let old_keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);

    let mut zone = Zone::new(apex.clone());
    zone.add(soa(&apex));
    zone.add(Record::new(
        apex.clone(),
        300,
        RData::Ns(Name::parse("ns1.op.net").unwrap()),
    ));
    zone.add(Record::new(
        Name::parse("www.roll.ch").unwrap(),
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 80)),
    ));
    for r in old_keys.cds_records(&apex, 300, CdsPublication::STANDARD) {
        zone.add(r);
    }
    ZoneSigner::new(NOW).sign(&mut zone, &old_keys);
    let w = build_world(zone, &old_keys);
    let www = Name::parse("www.roll.ch").unwrap();

    println!("phase 0 — steady state with KSK A");
    let s = security_of(&w, &www);
    println!("  resolver verdict: {s:?}");
    assert_eq!(s, Security::Secure);

    println!("phase 1 — operator introduces KSK B (double-signed DNSKEY, CDS → B)");
    let new_ksk = KeyPair::generate(&mut rng, Algorithm::EcdsaP256Sha256, 257);
    {
        let mut z = (*w.zone_store.get(&apex).unwrap()).clone();
        introduce_new_ksk(&mut z, &old_keys, &new_ksk, CdsPublication::STANDARD, NOW);
        w.zone_store.insert(z);
    }
    let s = security_of(&w, &www);
    println!("  resolver verdict (old DS still in parent): {s:?}");
    assert_eq!(s, Security::Secure);

    println!("phase 2 — registry observes CDS and swaps the DS RRset");
    registry_swaps_ds(&w, &apex);
    let s = security_of(&w, &www);
    println!("  resolver verdict (new DS, both KSKs live): {s:?}");
    assert_eq!(s, Security::Secure);

    println!("phase 3 — operator retires KSK A");
    {
        let mut z = (*w.zone_store.get(&apex).unwrap()).clone();
        retire_old_ksk(&mut z, &old_keys, &new_ksk, NOW);
        w.zone_store.insert(z);
    }
    let s = security_of(&w, &www);
    println!("  resolver verdict (KSK B only): {s:?}");
    assert_eq!(s, Security::Secure);

    println!("counter-example — retiring the OLD key BEFORE the DS swap breaks the zone");
    // Rebuild the phase-1 world and retire too early.
    let mut rng2 = StdRng::seed_from_u64(42);
    let old2 = ZoneKeys::generate(&mut rng2, Algorithm::EcdsaP256Sha256);
    let mut zone2 = Zone::new(apex.clone());
    zone2.add(soa(&apex));
    zone2.add(Record::new(
        apex.clone(),
        300,
        RData::Ns(Name::parse("ns1.op.net").unwrap()),
    ));
    zone2.add(Record::new(
        www.clone(),
        300,
        RData::A(Ipv4Addr::new(192, 0, 2, 80)),
    ));
    for r in old2.cds_records(&apex, 300, CdsPublication::STANDARD) {
        zone2.add(r);
    }
    ZoneSigner::new(NOW).sign(&mut zone2, &old2);
    let w2 = build_world(zone2, &old2);
    let new2 = KeyPair::generate(&mut rng2, Algorithm::EcdsaP256Sha256, 257);
    {
        let mut z = (*w2.zone_store.get(&apex).unwrap()).clone();
        introduce_new_ksk(&mut z, &old2, &new2, CdsPublication::STANDARD, NOW);
        retire_old_ksk(&mut z, &old2, &new2, NOW); // too early!
        w2.zone_store.insert(z);
    }
    let s = security_of(&w2, &www);
    println!("  resolver verdict: {s:?} (expected Bogus — the parent DS still names KSK A)");
    assert_eq!(s, Security::Bogus);

    println!("\nrollover choreography verified ✓ (RFC 7344 §4, paper §4.3)");
}
