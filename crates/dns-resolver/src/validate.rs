//! RFC 4035 chain validation over a recorded [`Resolution`].

// P001/P002 (DESIGN.md §8): a hostile reply degrades into a typed error
// and never aborts the scanner, so nothing here unwraps, panics or indexes.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::indexing_slicing
)]

use crate::client::{DnsClient, QueryMeter};
use crate::iterate::{ChainLink, Resolution};
use dns_crypto::UnixTime;
use dns_crypto::{ds_digest, DigestType};
use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RData, RrsigData};
use dns_wire::record::{Record, RecordClass, RecordType, RrSet};
use dns_zone::signer::verify_rrset_with_keys;
use netsim::Addr;

/// DNSSEC security status of a resolution (RFC 4035 §4.3 terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Security {
    /// Every link from the trust anchor validated.
    Secure,
    /// A proven-unsigned delegation was crossed; data is unauthenticated
    /// but not suspect.
    Insecure,
    /// Validation failed: wrong DS, bad signature, expired signature...
    Bogus,
    /// Could not be determined (servers unreachable or erroring).
    Indeterminate,
}

/// Validate a completed resolution.
///
/// * `trust_anchors` — DS-form anchors for the root zone.
/// * `roots` — root server addresses (to fetch the root DNSKEY).
/// * `now` — virtual validation time.
///
/// Negative responses (empty answer section) validate the chain only; we
/// do not check NSEC proofs of nonexistence (the scanner checks the
/// records it *got*, as the paper's pipeline does). The DNSKEY queries go
/// out under a meter of the call's own.
pub fn validate_resolution(
    client: &DnsClient,
    trust_anchors: &[DsData],
    roots: &[Addr],
    res: &Resolution,
    now: UnixTime,
) -> Security {
    let meter = QueryMeter::detached();
    let fetch = |zone: &Name, servers: &[Addr], ds: &[DsData]| {
        fetch_and_verify_keys(client, &meter, zone, servers, ds, now)
    };
    // 1. Root keys.
    let mut current_keys = match fetch(&Name::root(), roots, trust_anchors) {
        Ok(k) => k,
        Err(s) => return s,
    };

    // 2. Walk each recorded cut.
    for link in &res.chain {
        let Some(ds_set) = &link.ds else {
            // Insecure delegation: everything below is unsigned territory.
            return Security::Insecure;
        };
        // The DS RRset itself must be signed by the parent.
        if !ds_link_verifies(link, &current_keys, now) {
            return Security::Bogus;
        }
        // Child DNSKEYs must chain from the DS.
        current_keys = match fetch(&link.child_apex, &link.child_servers, ds_set) {
            Ok(k) => k,
            Err(s) => return s,
        };
    }

    // 3. Verify the answer RRsets with the answering zone's keys.
    if answer_sets_verify(&res.answers, |_| true, &current_keys, now) {
        Security::Secure
    } else {
        Security::Bogus
    }
}

/// The RFC 4035 §5.3 answer step, stated once for the validator and the
/// scanner's CDS and signal checks: every RRset in `answers` whose type
/// `checked` accepts verifies under `keys` at `now` with one of the
/// RRSIGs `answers` carries. Records group into RRsets by owner, class
/// and type ([`RrSet::group`]); RRSIGs are never a checked set, and an
/// answer with no checked set verifies.
pub fn answer_sets_verify(
    answers: &[Record],
    checked: impl Fn(RecordType) -> bool,
    keys: &[DnskeyData],
    now: UnixTime,
) -> bool {
    let rrsigs: Vec<RrsigData> = answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Rrsig(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    RrSet::group(answers)
        .iter()
        .filter(|set| set.rtype != RecordType::Rrsig && checked(set.rtype))
        .all(|set| verify_rrset_with_keys(set, &rrsigs, keys, now).is_ok())
}

/// Fetch the DNSKEY RRset of `zone` from `servers` and check it against
/// `ds` (the parent's DS set, or the DS-form trust anchors at the root).
fn fetch_and_verify_keys(
    client: &DnsClient,
    meter: &QueryMeter,
    zone: &Name,
    servers: &[Addr],
    ds: &[DsData],
    now: UnixTime,
) -> Result<Vec<DnskeyData>, Security> {
    let msg = query_any(client, meter, servers, zone, RecordType::Dnskey)
        .ok_or(Security::Indeterminate)?;
    // A DS (or anchor) exists, so a reply that fails the rule is bogus.
    verified_dnskeys(&msg, zone, ds, now).ok_or(Security::Bogus)
}

/// The RFC 4035 §5.2 DNSKEY step, stated once for both validators: the
/// [self-signed](self_signed_dnskeys) DNSKEY records `reply` carries at
/// `zone`, provided at least one of them matches a record in `ds`
/// (parent DS set or DS-form trust anchors). `None` when the reply has
/// no key at the owner, the signature fails, or no key is anchored —
/// which of the three is the caller's to map.
pub fn verified_dnskeys(
    reply: &Message,
    zone: &Name,
    ds: &[DsData],
    now: UnixTime,
) -> Option<Vec<DnskeyData>> {
    let keys = self_signed_dnskeys(reply, zone, now)?;
    let anchored = keys
        .iter()
        .any(|k| ds.iter().any(|d| ds_matches_key(zone, DsForm::Ds(d), k)));
    anchored.then_some(keys)
}

/// The DNSKEY records `reply` carries at `zone`, provided the RRset's
/// self-signature verifies at `now` under those same keys — all an
/// island, which no DS vouches for, can show.
pub fn self_signed_dnskeys(reply: &Message, zone: &Name, now: UnixTime) -> Option<Vec<DnskeyData>> {
    let keys: Vec<DnskeyData> = reply
        .answers
        .iter()
        .filter_map(|r| match &r.rdata {
            RData::Dnskey(d) if r.name == *zone => Some(d.clone()),
            _ => None,
        })
        .collect();
    let is_dnskey = |rtype| rtype == RecordType::Dnskey;
    let signed = !keys.is_empty() && answer_sets_verify(&reply.answers, is_dnskey, &keys, now);
    signed.then_some(keys)
}

/// Is the DS RRset recorded on `link` signed by `parent_keys`? `false`
/// for a link without DS (an insecure delegation has nothing to verify).
pub fn ds_link_verifies(link: &ChainLink, parent_keys: &[DnskeyData], now: UnixTime) -> bool {
    let Some(ds) = &link.ds else {
        return false;
    };
    let set = RrSet {
        name: link.child_apex.clone(),
        class: RecordClass::In,
        rtype: RecordType::Ds,
        ttl: 0,
        rdatas: ds.iter().cloned().map(RData::Ds).collect(),
    };
    verify_rrset_with_keys(&set, &link.ds_rrsigs, parent_keys, now).is_ok()
}

/// A record that names one DNSKEY: a DS or CDS by the key's digest, or a
/// CDNSKEY by being the key (RFC 7344 §3.2 gives it the DNSKEY format).
#[derive(Debug, Clone, Copy)]
pub enum DsForm<'a> {
    Ds(&'a DsData),
    Cdnskey(&'a DnskeyData),
}

/// Does `ds` name `key`, a DNSKEY at `owner`? The one rule for a parent
/// DS and a child's CDS or CDNSKEY alike. A digest matches by key tag and
/// algorithm first, so a record of another key is never hashed, then by
/// the digest of `owner ‖ DNSKEY RDATA` (RFC 4034 §5.1.4, RFC 4035 §5.2).
/// A CDNSKEY matches the key with its flags, protocol, algorithm and
/// public key: the DS a parent builds from it digests the flags and the
/// protocol too, so one that differs there names no DNSKEY.
pub fn ds_matches_key(owner: &Name, ds: DsForm<'_>, key: &DnskeyData) -> bool {
    match ds {
        DsForm::Cdnskey(cdnskey) => cdnskey == key,
        DsForm::Ds(ds) => {
            if key.algorithm != ds.algorithm
                || dns_crypto::key_tag(key.flags, key.protocol, key.algorithm, &key.public_key)
                    != ds.key_tag
            {
                return false;
            }
            let mut rdata = Vec::with_capacity(4 + key.public_key.len());
            rdata.extend_from_slice(&key.flags.to_be_bytes());
            rdata.push(key.protocol);
            rdata.push(key.algorithm);
            rdata.extend_from_slice(&key.public_key);
            ds_digest(
                DigestType::from_code(ds.digest_type),
                owner.wire_bytes(),
                &rdata,
            )
            .is_some_and(|d| d == ds.digest)
        }
    }
}

fn query_any(
    client: &DnsClient,
    meter: &QueryMeter,
    servers: &[Addr],
    qname: &Name,
    qtype: RecordType,
) -> Option<Message> {
    for &addr in servers {
        if let Ok(ex) = client.query_at_with(meter, 0, addr, qname, qtype, true) {
            if !ex.message.rcode().is_error() {
                return Some(ex.message);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachelog::CacheInsert;
    use crate::iterate::{Resolver, RootHints};
    use dns_crypto::Algorithm;
    use dns_server::{AuthServer, ZoneStore};
    use dns_wire::name;
    use dns_wire::rdata::SoaData;
    use dns_zone::{CdsPublication, Corruption, Zone, ZoneKeys, ZoneSigner};
    use netsim::{Network, ServerHandler, ServerResponse, SimMicros, Transport};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;
    use std::sync::{mpsc, Arc};

    const NOW: UnixTime = 1_000_000;

    /// A miniature Internet: signed root → signed "test" TLD → leaf zones
    /// in various DNSSEC states.
    struct MiniNet {
        net: Arc<Network>,
        roots: Vec<Addr>,
        anchors: Vec<DsData>,
        /// secure.test's DNSKEYs, which sign its CDS and CDNSKEY.
        secure_keys: Vec<DnskeyData>,
    }

    fn soa(apex: &Name) -> Record {
        Record::new(
            apex.clone(),
            300,
            RData::Soa(SoaData {
                mname: name!("ns.invalid"),
                rname: name!("h.invalid"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 300,
            }),
        )
    }

    fn a(n: &Name, last: u8) -> Record {
        Record::new(n.clone(), 300, RData::A(Ipv4Addr::new(192, 0, 2, last)))
    }

    fn build() -> MiniNet {
        let mut rng = StdRng::seed_from_u64(77);
        let net = Arc::new(Network::new(9));
        let signer = ZoneSigner::new(NOW);

        // Leaf zones.
        let mk_leaf = |apex: &Name, rng: &mut StdRng| -> (Zone, ZoneKeys) {
            let mut z = Zone::new(apex.clone());
            z.add(soa(apex));
            z.add(Record::new(
                apex.clone(),
                300,
                RData::Ns(name!("ns1.leafhost.test")),
            ));
            z.add(a(&apex.prepend_label(b"www").unwrap(), 80));
            let keys = ZoneKeys::generate(rng, Algorithm::EcdsaP256Sha256);
            (z, keys)
        };

        // secure.test — signed, DS in parent, two CDS and a CDNSKEY.
        let (mut secure, secure_keys) = mk_leaf(&name!("secure.test"), &mut rng);
        for r in secure_keys.cds_records(&name!("secure.test"), 300, CdsPublication::DESEC) {
            secure.add(r);
        }
        signer.sign(&mut secure, &secure_keys);
        // insecure.test — unsigned, no DS.
        let (insecure, _) = mk_leaf(&name!("insecure.test"), &mut rng);
        // bogus.test — signed with garbage signatures, DS in parent.
        let (mut bogus, bogus_keys) = mk_leaf(&name!("bogus.test"), &mut rng);
        signer
            .clone()
            .with_corruption(Corruption {
                garbage_signatures: true,
                expired: false,
                only_types: &[],
            })
            .sign(&mut bogus, &bogus_keys);
        // island.test — signed but NO DS in parent.
        let (mut island, island_keys) = mk_leaf(&name!("island.test"), &mut rng);
        signer.sign(&mut island, &island_keys);
        // leafhost.test — unsigned, hosts the shared NS hostname.
        let leafhost_apex = name!("leafhost.test");
        let mut leafhost = Zone::new(leafhost_apex.clone());
        leafhost.add(soa(&leafhost_apex));
        leafhost.add(Record::new(
            leafhost_apex.clone(),
            300,
            RData::Ns(name!("ns1.leafhost.test")),
        ));
        leafhost.add(a(&name!("ns1.leafhost.test"), 53));

        // TLD "test": delegations + DS where appropriate.
        let tld_apex = name!("test");
        let mut tld = Zone::new(tld_apex.clone());
        tld.add(soa(&tld_apex));
        tld.add(Record::new(
            tld_apex.clone(),
            300,
            RData::Ns(name!("ns1.tld-servers.net")),
        ));
        let tld_keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        for (apex, keys, with_ds) in [
            (name!("secure.test"), Some(&secure_keys), true),
            (name!("insecure.test"), None, false),
            (name!("bogus.test"), Some(&bogus_keys), true),
            (name!("island.test"), Some(&island_keys), false), // island!
            (name!("leafhost.test"), None, false),
        ] {
            tld.add(Record::new(
                apex.clone(),
                300,
                RData::Ns(name!("ns1.leafhost.test")),
            ));
            if with_ds {
                for r in keys.unwrap().ds_records(&apex, 300, DigestType::Sha256) {
                    tld.add(r);
                }
            }
        }
        signer.sign(&mut tld, &tld_keys);

        // Root zone.
        let mut root = Zone::new(Name::root());
        root.add(soa(&Name::root()));
        root.add(Record::new(
            Name::root(),
            300,
            RData::Ns(name!("a.root-servers.net")),
        ));
        root.add(Record::new(
            tld_apex.clone(),
            300,
            RData::Ns(name!("ns1.tld-servers.net")),
        ));
        for r in tld_keys.ds_records(&tld_apex, 300, DigestType::Sha256) {
            root.add(r);
        }
        let root_keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        signer.sign(&mut root, &root_keys);
        let anchors = vec![root_keys.ds_data(&Name::root(), DigestType::Sha256)];

        // Wire up servers.
        let root_store = Arc::new(ZoneStore::new());
        root_store.insert(root);
        let root_sid = net.register(AuthServer::new(root_store));
        let root_addr = Addr::V4(Ipv4Addr::new(198, 41, 0, 4));
        net.bind_simple(root_addr, root_sid);

        let tld_store = Arc::new(ZoneStore::new());
        tld_store.insert(tld);
        let tld_sid = net.register(AuthServer::new(tld_store));
        let tld_addr = Addr::V4(Ipv4Addr::new(192, 5, 6, 30));
        net.bind_simple(tld_addr, tld_sid);

        let leaf_store = Arc::new(ZoneStore::new());
        for z in [secure, insecure, bogus, island, leafhost] {
            leaf_store.insert(z);
        }
        let leaf_sid = net.register(AuthServer::new(leaf_store));
        let leaf_addr = Addr::V4(Ipv4Addr::new(192, 0, 2, 53));
        net.bind_simple(leaf_addr, leaf_sid);

        let secure_keys = secure_keys
            .dnskey_records(&name!("secure.test"), 300)
            .into_iter()
            .filter_map(|r| match r.rdata {
                RData::Dnskey(k) => Some(k),
                _ => None,
            })
            .collect();
        // Glue: the TLD and root refer by name; our referral glue comes
        // from the zones' additionals only when in-bailiwick, so seed the
        // resolver address cache instead (the ecosystem does the same).
        MiniNet {
            net,
            roots: vec![root_addr],
            anchors,
            secure_keys,
        }
    }

    fn resolver(m: &MiniNet) -> Resolver {
        resolver_over(m, Arc::new(DnsClient::new(Arc::clone(&m.net))))
    }

    /// A cold resolver over `client`, with the NS addresses seeded.
    fn resolver_over(m: &MiniNet, client: Arc<DnsClient>) -> Resolver {
        let r = Resolver::new(
            client,
            RootHints {
                addrs: m.roots.clone(),
            },
        );
        r.seed_address(
            name!("ns1.tld-servers.net"),
            Arc::new(vec![Addr::V4(Ipv4Addr::new(192, 5, 6, 30))]),
            None,
            SimMicros::MAX,
        );
        r.seed_address(
            name!("ns1.leafhost.test"),
            Arc::new(vec![Addr::V4(Ipv4Addr::new(192, 0, 2, 53))]),
            None,
            SimMicros::MAX,
        );
        r.seed_address(
            name!("a.root-servers.net"),
            Arc::new(vec![Addr::V4(Ipv4Addr::new(198, 41, 0, 4))]),
            None,
            SimMicros::MAX,
        );
        r
    }

    fn status(m: &MiniNet, r: &Resolver, qname: &str) -> (Resolution, Security) {
        let res = r
            .resolve_at_with(None, 0, &name!(qname), RecordType::A)
            .unwrap();
        let sec = validate_resolution(r.client(), &m.anchors, &m.roots, &res, NOW);
        (res, sec)
    }

    #[test]
    fn secure_zone_validates() {
        let m = build();
        let r = resolver(&m);
        let (res, sec) = status(&m, &r, "www.secure.test");
        assert_eq!(res.rcode, Rcode::NoError);
        assert!(!res.answers.is_empty());
        assert_eq!(sec, Security::Secure);
        assert_eq!(res.chain.len(), 2); // root→test, test→secure.test
        assert!(res.chain[1].ds.is_some());
    }

    use dns_wire::message::Rcode;

    #[test]
    fn insecure_zone_is_insecure_not_bogus() {
        let m = build();
        let r = resolver(&m);
        let (res, sec) = status(&m, &r, "www.insecure.test");
        assert_eq!(sec, Security::Insecure);
        assert!(res.chain[1].ds.is_none());
    }

    #[test]
    fn bogus_zone_detected() {
        let m = build();
        let r = resolver(&m);
        let (_, sec) = status(&m, &r, "www.bogus.test");
        assert_eq!(sec, Security::Bogus);
    }

    #[test]
    fn island_is_insecure_from_resolver_view() {
        // Paper §2: "secure islands are to be treated as unsigned zones by
        // DNSSEC validating resolvers".
        let m = build();
        let r = resolver(&m);
        let (res, sec) = status(&m, &r, "www.island.test");
        assert_eq!(sec, Security::Insecure);
        assert!(res.chain[1].ds.is_none());
    }

    #[test]
    fn nxdomain_resolves_with_chain() {
        let m = build();
        let r = resolver(&m);
        let res = r
            .resolve_at_with(None, 0, &name!("nope.secure.test"), RecordType::A)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NxDomain);
        let sec = validate_resolution(r.client(), &m.anchors, &m.roots, &res, NOW);
        assert_eq!(sec, Security::Secure);
    }

    #[test]
    fn wrong_anchor_makes_everything_bogus() {
        let m = build();
        let r = resolver(&m);
        let res = r
            .resolve_at_with(None, 0, &name!("www.secure.test"), RecordType::A)
            .unwrap();
        let bad_anchor = vec![DsData {
            key_tag: 1,
            algorithm: 13,
            digest_type: 2,
            digest: vec![0; 32],
        }];
        let sec = validate_resolution(r.client(), &bad_anchor, &m.roots, &res, NOW);
        assert_eq!(sec, Security::Bogus);
    }

    #[test]
    fn expired_view_is_bogus() {
        // Validating far in the future, after signature expiry.
        let m = build();
        let r = resolver(&m);
        let res = r
            .resolve_at_with(None, 0, &name!("www.secure.test"), RecordType::A)
            .unwrap();
        let future = NOW + 40 * 24 * 3600;
        let sec = validate_resolution(r.client(), &m.anchors, &m.roots, &res, future);
        assert_eq!(sec, Security::Bogus);
    }

    #[test]
    fn chain_records_ns_names_and_servers() {
        let m = build();
        let r = resolver(&m);
        let (res, _) = status(&m, &r, "www.secure.test");
        assert_eq!(res.chain[0].child_apex, name!("test"));
        assert_eq!(res.chain[0].parent_apex, Name::root());
        assert!(!res.chain[0].ns_names.is_empty());
        assert!(!res.chain[1].child_servers.is_empty());
        assert_eq!(res.zone_apex, name!("secure.test"));
    }

    #[test]
    fn chain_links_share_the_cached_referral() {
        let m = build();
        let r = resolver(&m);
        let meter = crate::QueryMeter::new(7);
        let qname = name!("www.secure.test");
        let cold = r
            .resolve_at_with(Some(&meter), 0, &qname, RecordType::A)
            .unwrap();
        let warm = r.resolve_at_with(None, 0, &qname, RecordType::A).unwrap();
        assert_eq!(warm.queries, 1, "the warm walk asks only the leaf");
        let logged: Vec<_> = meter
            .take_cache_log()
            .into_iter()
            .filter_map(|(cut, insert)| match insert {
                CacheInsert::Referral(data) => Some((cut, data)),
                _ => None,
            })
            .collect();
        assert_eq!(logged.len(), cold.chain.len());
        for ((cold, warm), (cut, data)) in cold.chain.iter().zip(&warm.chain).zip(&logged) {
            assert_eq!(cold.child_apex, warm.child_apex);
            assert_eq!(cold.child_apex, *cut);
            assert!(Arc::ptr_eq(&cold.data, &warm.data));
            assert!(Arc::ptr_eq(&cold.data, data));
        }
    }

    #[test]
    fn ds_matches_key_by_digest_and_by_value() {
        let keys = ZoneKeys::generate(&mut StdRng::seed_from_u64(5), Algorithm::EcdsaP256Sha256);
        let owner = name!("example.ch");
        let ds = keys.ds_data(&owner, DigestType::Sha256);
        let ksk = keys.dnskey_records(&owner, 300).remove(0);
        let RData::Dnskey(ksk) = ksk.rdata else {
            panic!("the KSK is the first DNSKEY");
        };
        assert!(ds_matches_key(&owner, DsForm::Ds(&ds), &ksk));
        // The digest covers the owner, and a wrong digest with the right
        // tag and algorithm names no key.
        assert!(!ds_matches_key(&name!("other.ch"), DsForm::Ds(&ds), &ksk));
        let mut wrong = ds.clone();
        wrong.digest[0] ^= 0xff;
        assert!(!ds_matches_key(&owner, DsForm::Ds(&wrong), &ksk));
        // A CDNSKEY is the key itself, flags and protocol included.
        let names_ksk = |flags, protocol| {
            let cdnskey = DnskeyData {
                flags,
                protocol,
                ..ksk.clone()
            };
            ds_matches_key(&owner, DsForm::Cdnskey(&cdnskey), &ksk)
        };
        assert!(names_ksk(257, 3));
        assert!(!names_ksk(256, 3));
        assert!(!names_ksk(257, 2));
    }

    /// Whether `answers` pass the CDS check under secure.test's keys.
    fn cds_verifies(m: &MiniNet, answers: &[Record]) -> bool {
        answer_sets_verify(answers, |t| t == RecordType::Cds, &m.secure_keys, NOW)
    }

    /// secure.test's CDS answer as the resolver records it (two CDS
    /// records and their RRSIG), and its copy with `edit` applied to
    /// every record.
    fn cds_answer(m: &MiniNet, edit: impl Fn(&mut Vec<Record>)) -> (Vec<Record>, Vec<Record>) {
        let qname = name!("secure.test");
        let res = resolver(m)
            .resolve_at_with(None, 0, &qname, RecordType::Cds)
            .unwrap();
        let types: Vec<RecordType> = res.answers.iter().map(Record::rtype).collect();
        assert_eq!(types, [RecordType::Cds, RecordType::Cds, RecordType::Rrsig]);
        let mut edited = res.answers.clone();
        edit(&mut edited);
        (res.answers, edited)
    }

    #[test]
    fn signed_answer_verifies_and_loses_its_signature() {
        let m = build();
        let (answers, unsigned) = cds_answer(&m, |v| v.retain(|r| r.rtype() != RecordType::Rrsig));
        assert!(cds_verifies(&m, &answers));
        assert!(!cds_verifies(&m, &unsigned));
        let (_, flipped) = cds_answer(&m, |v| {
            for r in v {
                if let RData::Rrsig(sig) = &mut r.rdata {
                    sig.signature[7] ^= 0x01;
                }
            }
        });
        assert!(!cds_verifies(&m, &flipped));
        let expired = NOW + 40 * 24 * 3600;
        assert!(!answer_sets_verify(
            &answers,
            |_| true,
            &m.secure_keys,
            expired
        ));
    }

    #[test]
    fn uncovered_type_is_ignored_and_duplicates_are_one_set() {
        let m = build();
        // An unsigned A in a CDS answer: the CDS check ignores it, the
        // validator's answer step (every type) does not.
        let (_, with_a) = cds_answer(&m, |v| v.push(a(&name!("secure.test"), 9)));
        assert!(cds_verifies(&m, &with_a));
        assert!(!answer_sets_verify(&with_a, |_| true, &m.secure_keys, NOW));
        let (_, doubled) = cds_answer(&m, |v| v.insert(0, v[1].clone()));
        assert!(cds_verifies(&m, &doubled));
    }

    #[test]
    fn elapsed_and_queries_accumulate() {
        let m = build();
        let r = resolver(&m);
        let (res, _) = status(&m, &r, "www.secure.test");
        assert!(res.queries >= 3, "{}", res.queries);
        assert!(res.elapsed > 0);
    }

    /// Passes every datagram a server receives, with its destination, to
    /// `received` before answering it.
    struct Recorder {
        inner: Arc<dyn ServerHandler>,
        received: mpsc::Sender<(Addr, Vec<u8>)>,
    }

    impl ServerHandler for Recorder {
        fn handle(
            &self,
            q: &[u8],
            dst: Addr,
            t: Transport,
            b: u32,
            now: SimMicros,
        ) -> ServerResponse {
            self.received.send((dst, q.to_vec())).unwrap();
            self.inner.handle(q, dst, t, b, now)
        }
    }

    /// The calls that bring no meter send the same datagrams every time:
    /// their query IDs come from a meter of the call's own, never from
    /// what the shared client sent before.
    #[test]
    fn meterless_calls_send_the_same_datagrams_every_time() {
        let m = build();
        let (tx, rx) = mpsc::channel();
        m.net.wrap_handlers(|inner| {
            Arc::new(Recorder {
                inner,
                received: tx.clone(),
            })
        });
        let sent = |call: &dyn Fn()| {
            call();
            rx.try_iter().collect::<Vec<_>>()
        };
        // Two cold resolvers over one client: same walk, same bytes.
        let first = resolver(&m);
        let second = resolver_over(&m, Arc::clone(first.client()));
        let qname = name!("www.secure.test");
        let resolve = |r: &Resolver| r.resolve_at_with(None, 0, &qname, RecordType::A).unwrap();
        let walk = sent(&|| drop(resolve(&first)));
        assert!(walk.len() >= 3, "{}", walk.len());
        assert_eq!(walk, sent(&|| drop(resolve(&second))));
        // Two validations of one resolution: same DNSKEY queries.
        let res = resolve(&first);
        rx.try_iter().for_each(drop);
        let validate = || {
            let sec = validate_resolution(first.client(), &m.anchors, &m.roots, &res, NOW);
            assert_eq!(sec, Security::Secure);
        };
        let keys = sent(&validate);
        assert_eq!(keys.len(), 3, "root, test and secure.test DNSKEY");
        assert_eq!(keys, sent(&validate));
    }
}
