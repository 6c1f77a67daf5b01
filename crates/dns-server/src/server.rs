//! The authoritative server: query → response, per RFC 1034 §4.3.2 with
//! the DNSSEC additions of RFC 4035 §3.

use crate::quirks::Quirks;
use crate::store::ZoneStore;
use dns_wire::message::{Edns, Flags, Message, MessageEncoder, Rcode, Section};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::{Record, RecordType, RrSet};
use dns_wire::{CLASSIC_UDP_PAYLOAD, EDNS_UDP_PAYLOAD};
use dns_zone::{Zone, ZoneLookup};
use netsim::{Addr, ServerHandler, ServerResponse, SimMicros, Transport};
use std::sync::Arc;

/// Record types a never-updated-since-2002 server knows about. Everything
/// else triggers an error under [`Quirks::pre_rfc3597`].
const LEGACY_KNOWN_TYPES: &[RecordType] = &[
    RecordType::A,
    RecordType::Ns,
    RecordType::Cname,
    RecordType::Soa,
    RecordType::Mx,
    RecordType::Txt,
    RecordType::Aaaa,
];

/// A simulated authoritative nameserver over a [`ZoneStore`].
pub struct AuthServer {
    store: Arc<ZoneStore>,
    quirks: Quirks,
}

/// Receives the records [`AuthServer::respond`] selects, in wire order,
/// each with the RRset it belongs to: [`AuthServer::answer`] collects
/// them into an owned [`Message`], [`ServerHandler::handle`] streams them
/// into the wire encoder — one decision logic, two renderings.
type Sink<'a> = dyn FnMut(Section, &RrSet, &RData) + 'a;

fn reply_flags(rcode: Rcode, authoritative: bool) -> Flags {
    Flags {
        authoritative,
        ..Flags::response(rcode)
    }
}

impl AuthServer {
    pub fn new(store: Arc<ZoneStore>) -> Self {
        AuthServer {
            store,
            quirks: Quirks::CLEAN,
        }
    }

    pub fn with_quirks(mut self, quirks: Quirks) -> Self {
        self.quirks = quirks;
        self
    }

    /// The store this server answers from (shared with the operator model,
    /// which mutates zones between scans).
    pub fn store(&self) -> &Arc<ZoneStore> {
        &self.store
    }

    /// Answer a parsed query message. Exposed for in-process use by tests
    /// and the resolver fast path; the wire path goes through
    /// [`ServerHandler::handle`], which renders the same decisions
    /// straight to bytes.
    pub fn answer(&self, query: &Message) -> Message {
        let mut resp = Message::response_to(query, Rcode::NoError);
        resp.header.flags = self.respond(query, &mut |section, set, rdata| {
            let records = match section {
                Section::Answer => &mut resp.answers,
                Section::Authority => &mut resp.authorities,
                Section::Additional => &mut resp.additionals,
            };
            records.push(Record {
                name: set.name.clone(),
                class: set.class,
                ttl: set.ttl,
                rdata: rdata.clone(),
            });
        });
        resp
    }

    /// Select the records answering `query` into `out`, section by
    /// section in wire order; returns the response's header flags.
    fn respond(&self, query: &Message, out: &mut Sink) -> Flags {
        let Some(question) = query.questions.first() else {
            return reply_flags(Rcode::FormErr, false);
        };
        let qname = &question.name;
        let qtype = question.rtype;
        let dnssec_ok = query.dnssec_ok();

        if self.quirks.pre_rfc3597 && !LEGACY_KNOWN_TYPES.contains(&qtype) {
            // Old servers violate RFC 3597 §3 and error on unknown types.
            return reply_flags(Rcode::FormErr, false);
        }

        let Some(zone) = self.store.find(qname) else {
            return reply_flags(Rcode::Refused, false);
        };

        match zone.lookup(qname, qtype) {
            ZoneLookup::Answer(set) | ZoneLookup::Cname(set) => {
                push_set(out, Section::Answer, set);
                if dnssec_ok {
                    push_rrsigs(out, Section::Answer, &zone, qname, set.rtype);
                }
                reply_flags(Rcode::NoError, true)
            }
            ZoneLookup::NoData => {
                add_soa(out, &zone, dnssec_ok);
                if dnssec_ok {
                    add_nsec_at(out, &zone, qname);
                }
                reply_flags(Rcode::NoError, true)
            }
            ZoneLookup::NxDomain => {
                add_soa(out, &zone, dnssec_ok);
                if dnssec_ok {
                    if let Some(prev) = zone.nsec_predecessor(qname) {
                        add_nsec_at(out, &zone, prev);
                    }
                }
                reply_flags(Rcode::NxDomain, true)
            }
            ZoneLookup::Delegation { cut, ns, ds } => {
                // Referral: not authoritative; NS set in authority.
                push_set(out, Section::Authority, ns);
                if dnssec_ok {
                    match ds {
                        Some(ds_set) => {
                            push_set(out, Section::Authority, ds_set);
                            push_rrsigs(out, Section::Authority, &zone, cut, RecordType::Ds);
                        }
                        // Signed zone proves the delegation insecure
                        // with the NSEC at the cut.
                        None => add_nsec_at(out, &zone, cut),
                    }
                }
                for glue in zone.glue(ns) {
                    push_set(out, Section::Additional, glue);
                }
                reply_flags(Rcode::NoError, false)
            }
            // find() guarantees containment; treat defensively.
            ZoneLookup::OutOfZone => reply_flags(Rcode::Refused, false),
        }
    }
}

fn push_set(out: &mut Sink, section: Section, set: &RrSet) {
    for rdata in &set.rdatas {
        out(section, set, rdata);
    }
}

/// RRSIG records at `name` covering `covered`.
fn push_rrsigs(out: &mut Sink, section: Section, zone: &Zone, name: &Name, covered: RecordType) {
    let Some(sigs) = zone.rrset(name, RecordType::Rrsig) else {
        return;
    };
    for rdata in &sigs.rdatas {
        if matches!(rdata, RData::Rrsig(s) if s.type_covered == covered.code()) {
            out(section, sigs, rdata);
        }
    }
}

fn add_soa(out: &mut Sink, zone: &Zone, dnssec_ok: bool) {
    if let Some(soa) = zone.rrset(zone.apex(), RecordType::Soa) {
        push_set(out, Section::Authority, soa);
        if dnssec_ok {
            push_rrsigs(out, Section::Authority, zone, zone.apex(), RecordType::Soa);
        }
    }
}

fn add_nsec_at(out: &mut Sink, zone: &Zone, name: &Name) {
    if let Some(nsec) = zone.rrset(name, RecordType::Nsec) {
        push_set(out, Section::Authority, nsec);
        push_rrsigs(out, Section::Authority, zone, name, RecordType::Nsec);
    }
}

/// Flip signature bytes in every RRSIG of a message (transient-badsig
/// quirk). Operates on the parsed form before re-encoding.
fn corrupt_signatures(msg: &mut Message) {
    for rec in msg
        .answers
        .iter_mut()
        .chain(msg.authorities.iter_mut())
        .chain(msg.additionals.iter_mut())
    {
        if let RData::Rrsig(sig) = &mut rec.rdata {
            for b in sig.signature.iter_mut() {
                *b ^= 0xa5;
            }
        }
    }
}

impl ServerHandler for AuthServer {
    fn handle(
        &self,
        query: &[u8],
        _dst: Addr,
        transport: Transport,
        backend: u32,
        _now: SimMicros,
    ) -> ServerResponse {
        let Ok(parsed) = Message::from_bytes(query) else {
            // Can't even recover an ID — drop, as real servers often do
            // with garbage.
            return ServerResponse::Drop;
        };
        let badsig = parsed
            .questions
            .first()
            .is_some_and(|q| self.quirks.draw_badsig(&q.name, q.rtype, backend));
        let (bytes, flags) = if badsig {
            // The rare corrupted reply is edited in owned form.
            let mut resp = self.answer(&parsed);
            corrupt_signatures(&mut resp);
            (resp.to_bytes(), resp.header.flags)
        } else {
            let mut enc = MessageEncoder::new(parsed.header.id, &parsed.questions);
            let flags = self.respond(&parsed, &mut |section, set, rdata| {
                enc.record(section, &set.name, set.class, set.ttl, rdata)
            });
            let edns = parsed.edns.map(|_| Edns::default());
            (enc.finish(flags, edns), flags)
        };
        if transport == Transport::Udp {
            let limit = parsed
                .edns
                .map(|e| e.udp_payload.clamp(CLASSIC_UDP_PAYLOAD, EDNS_UDP_PAYLOAD))
                .unwrap_or(CLASSIC_UDP_PAYLOAD) as usize;
            if bytes.len() > limit {
                // Truncate: TC=1 and empty sections; client retries TCP.
                let mut tc = Message::response_to(&parsed, Rcode::NoError);
                tc.header.flags = Flags {
                    truncated: true,
                    ..flags
                };
                return ServerResponse::Reply(tc.to_bytes());
            }
        }
        ServerResponse::Reply(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_crypto::Algorithm;
    use dns_wire::name;
    use dns_wire::rdata::SoaData;
    use dns_zone::{ZoneKeys, ZoneSigner};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    const NOW: u32 = 1_000_000;

    fn signed_store() -> (Arc<ZoneStore>, ZoneKeys) {
        let apex = name!("example.ch");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            300,
            RData::Soa(SoaData {
                mname: name!("ns1.example.ch"),
                rname: name!("hostmaster.example.ch"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        ));
        z.add(Record::new(
            apex.clone(),
            300,
            RData::Ns(name!("ns1.example.ch")),
        ));
        z.add(Record::new(
            name!("ns1.example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        z.add(Record::new(
            name!("www.example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        z.add(Record::new(
            name!("unsigned-del.example.ch"),
            300,
            RData::Ns(name!("ns.elsewhere.net")),
        ));
        let mut rng = StdRng::seed_from_u64(5);
        let keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        let store = Arc::new(ZoneStore::new());
        store.insert(z);
        (store, keys)
    }

    fn ask(server: &AuthServer, name: &str, rtype: RecordType, dnssec: bool) -> Message {
        let q = Message::query(1, name!(name), rtype, dnssec);
        server.answer(&q)
    }

    #[test]
    fn positive_answer_with_rrsig() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let resp = ask(&s, "www.example.ch", RecordType::A, true);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.header.flags.authoritative);
        assert_eq!(resp.answers_of(RecordType::A).len(), 1);
        assert_eq!(resp.answers_of(RecordType::Rrsig).len(), 1);
    }

    #[test]
    fn positive_answer_without_do_has_no_rrsig() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let resp = ask(&s, "www.example.ch", RecordType::A, false);
        assert_eq!(resp.answers_of(RecordType::A).len(), 1);
        assert!(resp.answers_of(RecordType::Rrsig).is_empty());
    }

    #[test]
    fn nodata_carries_soa_and_nsec() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let resp = ask(&s, "www.example.ch", RecordType::Mx, true);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.answers.is_empty());
        let types: Vec<RecordType> = resp.authorities.iter().map(|r| r.rtype()).collect();
        assert!(types.contains(&RecordType::Soa));
        assert!(types.contains(&RecordType::Nsec));
        assert!(types.contains(&RecordType::Rrsig));
    }

    #[test]
    fn nxdomain_carries_covering_nsec() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let resp = ask(&s, "nope.example.ch", RecordType::A, true);
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        let nsecs: Vec<&Record> = resp
            .authorities
            .iter()
            .filter(|r| r.rtype() == RecordType::Nsec)
            .collect();
        assert_eq!(nsecs.len(), 1);
        // The covering NSEC's owner precedes the qname canonically.
        assert_eq!(
            nsecs[0].name.canonical_cmp(&name!("nope.example.ch")),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn refused_outside_authority() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let resp = ask(&s, "example.org", RecordType::A, true);
        assert_eq!(resp.rcode(), Rcode::Refused);
    }

    #[test]
    fn cds_query_on_clean_server_is_nodata() {
        // RFC 3597-compliant servers answer NODATA for unknown-to-them
        // types that have no RRset.
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let resp = ask(&s, "www.example.ch", RecordType::Cds, true);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn pre_rfc3597_quirk_errors_on_cds() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store).with_quirks(Quirks {
            pre_rfc3597: true,
            ..Quirks::CLEAN
        });
        let resp = ask(&s, "www.example.ch", RecordType::Cds, true);
        assert!(resp.rcode().is_error());
        // But ordinary types still work.
        let resp = ask(&s, "www.example.ch", RecordType::A, true);
        assert_eq!(resp.rcode(), Rcode::NoError);
    }

    #[test]
    fn unsigned_delegation_refers_with_nsec_proof() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let resp = ask(&s, "deep.unsigned-del.example.ch", RecordType::A, true);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(!resp.header.flags.authoritative);
        let types: Vec<RecordType> = resp.authorities.iter().map(|r| r.rtype()).collect();
        assert!(types.contains(&RecordType::Ns));
        assert!(types.contains(&RecordType::Nsec), "insecurity proof");
        assert!(!types.contains(&RecordType::Ds));
    }

    #[test]
    fn ds_query_at_cut_answered_by_parent() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let resp = ask(&s, "unsigned-del.example.ch", RecordType::Ds, true);
        // No DS → authoritative NODATA from the parent.
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.header.flags.authoritative);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn wire_path_roundtrip() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let q = Message::query(7, name!("www.example.ch"), RecordType::A, true);
        let out = s.handle(
            &q.to_bytes(),
            Addr::V4(Ipv4Addr::new(192, 0, 2, 1)),
            Transport::Udp,
            0,
            0,
        );
        match out {
            ServerResponse::Reply(bytes) => {
                let resp = Message::from_bytes(&bytes).unwrap();
                assert_eq!(resp.header.id, 7);
                assert_eq!(resp.answers_of(RecordType::A).len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_datagram_dropped() {
        let (store, _) = signed_store();
        let s = AuthServer::new(store);
        let out = s.handle(
            &[1, 2, 3],
            Addr::V4(Ipv4Addr::new(1, 1, 1, 1)),
            Transport::Udp,
            0,
            0,
        );
        assert_eq!(out, ServerResponse::Drop);
    }

    #[test]
    fn truncation_sets_tc_and_tcp_carries_full_answer() {
        // Build a zone with a huge TXT RRset to exceed 1232 bytes.
        let apex = name!("big.test");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            300,
            RData::Soa(SoaData {
                mname: name!("ns1.big.test"),
                rname: name!("h.big.test"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 300,
            }),
        ));
        for i in 0..20 {
            z.add(Record::new(
                apex.clone(),
                300,
                RData::Txt(vec![vec![b'a' + (i % 26) as u8; 200]]),
            ));
        }
        let store = Arc::new(ZoneStore::new());
        store.insert(z);
        let s = AuthServer::new(store);
        let q = Message::query(9, name!("big.test"), RecordType::Txt, true);
        let udp = match s.handle(
            &q.to_bytes(),
            Addr::V4(Ipv4Addr::new(1, 1, 1, 1)),
            Transport::Udp,
            0,
            0,
        ) {
            ServerResponse::Reply(b) => Message::from_bytes(&b).unwrap(),
            _ => panic!(),
        };
        assert!(udp.header.flags.truncated);
        assert!(udp.answers.is_empty());
        let tcp = match s.handle(
            &q.to_bytes(),
            Addr::V4(Ipv4Addr::new(1, 1, 1, 1)),
            Transport::Tcp,
            0,
            0,
        ) {
            ServerResponse::Reply(b) => Message::from_bytes(&b).unwrap(),
            _ => panic!(),
        };
        assert!(!tcp.header.flags.truncated);
        assert_eq!(tcp.answers_of(RecordType::Txt).len(), 20);
    }

    #[test]
    fn transient_badsig_corrupts_signatures() {
        let (store, keys) = signed_store();
        let s = AuthServer::new(Arc::clone(&store)).with_quirks(Quirks {
            transient_badsig: 1.0,
            seed: 11,
            ..Quirks::CLEAN
        });
        let q = Message::query(3, name!("www.example.ch"), RecordType::A, true);
        let resp = match s.handle(
            &q.to_bytes(),
            Addr::V4(Ipv4Addr::new(1, 1, 1, 1)),
            Transport::Udp,
            0,
            0,
        ) {
            ServerResponse::Reply(b) => Message::from_bytes(&b).unwrap(),
            _ => panic!(),
        };
        // The RRSIG present must NOT verify.
        let zone = store.get(&name!("example.ch")).unwrap();
        let set = zone.rrset(&name!("www.example.ch"), RecordType::A).unwrap();
        let sigs: Vec<_> = resp
            .answers
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Rrsig(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(!sigs.is_empty());
        let dnskeys: Vec<_> = keys
            .dnskey_records(&name!("example.ch"), 300)
            .into_iter()
            .map(|r| match r.rdata {
                RData::Dnskey(d) => d,
                _ => panic!(),
            })
            .collect();
        assert!(dns_zone::signer::verify_rrset_with_keys(set, &sigs, &dnskeys, NOW).is_err());
    }
}
