//! The wire path renders the same decisions as the owned path: for every
//! zone of the tiny world, every owner name in it (plus a missing name
//! below the apex), every query type the scanner sends and the DO bit on
//! and off, `ServerHandler::handle`'s bytes are exactly
//! `AuthServer::answer(..).to_bytes()`. Those queries all have the one
//! shape scanners send (one question, a root-owned OPT); the second test
//! feeds `handle` every other shape.

use dns_ecosystem::{build, EcosystemConfig};
use dns_server::{AuthServer, Quirks, ZoneStore};
use dns_wire::message::{Message, Question};
use dns_wire::name::Name;
use dns_wire::rdata::{RData, SoaData};
use dns_wire::record::{Record, RecordType};
use dns_wire::{CLASSIC_UDP_PAYLOAD, EDNS_UDP_PAYLOAD};
use dns_zone::Zone;
use netsim::{Addr, ServerHandler, ServerResponse, Transport};
use std::net::Ipv4Addr;
use std::sync::Arc;

const QTYPES: [RecordType; 10] = [
    RecordType::A,
    RecordType::Aaaa,
    RecordType::Ns,
    RecordType::Cname,
    RecordType::Soa,
    RecordType::Dnskey,
    RecordType::Ds,
    RecordType::Cds,
    RecordType::Cdnskey,
    RecordType::Csync,
];

#[test]
fn handle_bytes_equal_answer_to_bytes_on_the_tiny_world() {
    let eco = build(EcosystemConfig::tiny(11));
    let mut stores: Vec<Arc<ZoneStore>> = eco.registry_stores.values().cloned().collect();
    stores.extend(eco.operator_stores.iter().flatten().cloned());
    let dst = Addr::V4(Ipv4Addr::new(192, 0, 2, 1));
    let (mut compared, mut truncated, mut id) = (0u32, 0u32, 0u16);
    for store in stores {
        let clean = AuthServer::new(Arc::clone(&store));
        let legacy = AuthServer::new(Arc::clone(&store)).with_quirks(Quirks {
            pre_rfc3597: true,
            ..Quirks::CLEAN
        });
        let mut apexes = store.apexes();
        apexes.sort();
        for apex in apexes {
            let zone = store.get(&apex).expect("listed apex is held");
            let mut names: Vec<Name> = zone.names().cloned().collect();
            names.push(apex.prepend_label(b"no-such-name").expect("short label"));
            for (qname, qtype, dnssec_ok) in names.iter().flat_map(|n| {
                QTYPES
                    .into_iter()
                    .flat_map(move |t| [(n, t, true), (n, t, false)])
            }) {
                id = id.wrapping_add(1);
                let query = Message::query(id, qname.clone(), qtype, dnssec_ok);
                let bytes = query.to_bytes();
                for server in [&clean, &legacy] {
                    let owned = server.answer(&query).to_bytes();
                    let tcp = server.handle(&bytes, dst, Transport::Tcp, 0, 0);
                    assert_eq!(
                        tcp,
                        ServerResponse::Reply(owned.clone()),
                        "{qname} {qtype:?} do={dnssec_ok}"
                    );
                    let ServerResponse::Reply(udp) =
                        server.handle(&bytes, dst, Transport::Udp, 0, 0)
                    else {
                        panic!("{qname} {qtype:?}: dropped");
                    };
                    if udp != owned {
                        let tc = Message::from_bytes(&udp).expect("TC reply decodes");
                        assert!(tc.header.flags.truncated && owned.len() > 1232);
                        truncated += 1;
                    }
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 10_000, "{compared} replies compared");
    assert!(truncated < compared / 10, "{truncated} truncated");
}

/// What `handle` must return for `query` by the owned path's rule:
/// `Drop` when `Message::from_bytes` fails, else `answer()`'s bytes — over
/// UDP cut to an empty TC=1 reply when they exceed the payload the query
/// advertised (512 octets without EDNS).
fn owned_path(server: &AuthServer, query: &[u8], transport: Transport) -> ServerResponse {
    let Ok(parsed) = Message::from_bytes(query) else {
        return ServerResponse::Drop;
    };
    let mut reply = server.answer(&parsed);
    let limit = parsed
        .edns
        .map(|e| e.udp_payload.clamp(CLASSIC_UDP_PAYLOAD, EDNS_UDP_PAYLOAD))
        .unwrap_or(CLASSIC_UDP_PAYLOAD) as usize;
    if transport == Transport::Udp && reply.to_bytes().len() > limit {
        reply.answers.clear();
        reply.authorities.clear();
        reply.additionals.clear();
        reply.header.flags.truncated = true;
    }
    ServerResponse::Reply(reply.to_bytes())
}

/// A zone whose TXT answer outgrows 512 octets, so that the shapes
/// advertising 512 (or no EDNS) meet the UDP truncation rule.
fn oversized_txt_store() -> (Arc<ZoneStore>, Name) {
    let apex = Name::parse("big.test").expect("literal name");
    let mut zone = Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        300,
        RData::Soa(SoaData {
            mname: apex.prepend_label(b"ns1").expect("short label"),
            rname: apex.prepend_label(b"h").expect("short label"),
            serial: 1,
            refresh: 1,
            retry: 1,
            expire: 1,
            minimum: 300,
        }),
    ));
    for i in 0..4u8 {
        zone.add(Record::new(
            apex.clone(),
            300,
            RData::Txt(vec![vec![b'a' + i; 200]]),
        ));
    }
    let store = Arc::new(ZoneStore::new());
    store.insert(zone);
    (store, apex)
}

#[test]
fn every_other_query_shape_gets_the_owned_paths_reply() {
    let eco = build(EcosystemConfig::tiny(11));
    let mut registries: Vec<Arc<ZoneStore>> = eco.registry_stores.values().cloned().collect();
    registries.sort_by_key(|s| s.apexes().into_iter().min());
    let signed = Arc::clone(&registries[0]);
    let tld = signed.apexes().into_iter().min().expect("a registry zone");
    let (big, big_apex) = oversized_txt_store();
    let cases = [
        (&signed, tld.clone(), RecordType::Dnskey),
        (&signed, tld.clone(), RecordType::Cds),
        (
            &signed,
            tld.prepend_label(b"no-such-name").expect("short label"),
            RecordType::A,
        ),
        (&big, big_apex.clone(), RecordType::Txt),
    ];
    let dst = Addr::V4(Ipv4Addr::new(192, 0, 2, 1));
    let a_record =
        |name: &Name| Record::new(name.clone(), 300, RData::A(Ipv4Addr::new(192, 0, 2, 9)));
    let (mut checked, mut dropped, mut truncated) = (0u32, 0u32, 0u32);
    for (store, qname, qtype) in cases {
        let clean = AuthServer::new(Arc::clone(store));
        let legacy = AuthServer::new(Arc::clone(store)).with_quirks(Quirks {
            pre_rfc3597: true,
            ..Quirks::CLEAN
        });
        let query = Message::query(77, qname.clone(), qtype, true);
        let valid = query.to_bytes();
        // The query's OPT: a root owner (one byte) and ten more.
        let opt_at = valid.len() - 11;
        assert_eq!(
            &valid[opt_at..opt_at + 3],
            &[0, 0, 41],
            "root-owned OPT last"
        );
        let mut shapes: Vec<(String, Vec<u8>)> =
            vec![("the scanners' shape".into(), valid.clone())];
        for len in 0..valid.len() {
            shapes.push((format!("truncated to {len} octets"), valid[..len].to_vec()));
        }
        let edited = |edit: &dyn Fn(&mut Message)| {
            let mut m = query.clone();
            edit(&mut m);
            m.to_bytes()
        };
        shapes.push(("qdcount 0".into(), edited(&|m| m.questions.clear())));
        shapes.push((
            "qdcount 2".into(),
            edited(&|m| {
                m.questions
                    .push(Question::new(qname.clone(), RecordType::Soa))
            }),
        ));
        shapes.push((
            "an answer record".into(),
            edited(&|m| m.answers.push(a_record(&qname))),
        ));
        shapes.push((
            "a non-OPT additional".into(),
            edited(&|m| m.additionals.push(a_record(&qname))),
        ));
        shapes.push(("no OPT".into(), edited(&|m| m.edns = None)));
        // The OPT owned by the question name (a pointer to offset 12),
        // 512 octets, DO set: still read as the query's EDNS.
        let mut foreign_owner = valid[..opt_at].to_vec();
        foreign_owner.extend_from_slice(&[0xc0, 12, 0, 41, 0x02, 0x00, 0, 0, 0x80, 0, 0, 0]);
        shapes.push(("an OPT under a non-root owner".into(), foreign_owner));
        // A second root OPT advertising 512 octets: the last one wins.
        let mut two_opts = valid.clone();
        two_opts[11] = 2;
        two_opts.extend_from_slice(&[0, 0, 41, 0x02, 0x00, 0, 0, 0x80, 0, 0, 0]);
        shapes.push(("two OPTs".into(), two_opts));

        for (shape, bytes) in &shapes {
            for server in [&clean, &legacy] {
                for transport in [Transport::Udp, Transport::Tcp] {
                    let want = owned_path(server, bytes, transport);
                    let got = server.handle(bytes, dst, transport, 0, 0);
                    assert_eq!(got, want, "{qname} {qtype:?}, {shape}, {transport:?}");
                    match got {
                        ServerResponse::Drop => dropped += 1,
                        ServerResponse::Reply(r) if transport == Transport::Udp => {
                            let flags =
                                Message::from_bytes(&r).expect("reply decodes").header.flags;
                            truncated += flags.truncated as u32;
                        }
                        ServerResponse::Reply(_) => {}
                    }
                    checked += 1;
                }
            }
        }
    }
    // Every truncation of a query is undecodable, and the oversized
    // answer is cut wherever 512 octets are advertised.
    assert!(dropped >= 4 * 4 * 30, "{dropped} of {checked} dropped");
    assert!(truncated >= 3, "{truncated} truncated UDP replies");
}
