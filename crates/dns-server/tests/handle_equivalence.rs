//! The wire path renders the same decisions as the owned path: for every
//! zone of the tiny world, every owner name in it (plus a missing name
//! below the apex), every query type the scanner sends and the DO bit on
//! and off, `ServerHandler::handle`'s bytes are exactly
//! `AuthServer::answer(..).to_bytes()`.

use dns_ecosystem::{build, EcosystemConfig};
use dns_server::{AuthServer, Quirks, ZoneStore};
use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_wire::record::RecordType;
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
