//! Property-based tests over zone signing: every signed RRset verifies,
//! NSEC chains are closed loops over exactly the authoritative names, and
//! signed zones survive a zone-file round trip. The zone's hashed and
//! ordered indexes are checked against a naive reference over a sorted
//! `Vec`.

use dns_crypto::Algorithm;
use dns_wire::name::Name;
use dns_wire::rdata::{RData, SoaData};
use dns_wire::record::{Record, RecordType};
use dns_zone::signer::verify_rrset_with_keys;
use dns_zone::{Zone, ZoneKeys, ZoneLookup, ZoneSigner};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::net::{Ipv4Addr, Ipv6Addr};

const NOW: u32 = 1_000_000;

/// Strategy: a short alphanumeric label.
fn label() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,12}"
}

/// Build a zone with arbitrary host names under the apex.
fn arb_zone() -> impl Strategy<Value = Zone> {
    proptest::collection::btree_set(label(), 0..=12).prop_map(|hosts| {
        let apex = Name::parse("example.ch").unwrap();
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            300,
            RData::Soa(SoaData {
                mname: Name::parse("ns1.example.ch").unwrap(),
                rname: Name::parse("h.example.ch").unwrap(),
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
            RData::Ns(Name::parse("ns1.example.ch").unwrap()),
        ));
        for (i, h) in hosts.iter().enumerate() {
            z.add(Record::new(
                Name::parse(&format!("{h}.example.ch")).unwrap(),
                300,
                RData::A(Ipv4Addr::new(192, 0, 2, (i % 250) as u8)),
            ));
        }
        z
    })
}

/// A name under `example.ch` from a tiny label alphabet, so random names
/// collide, nest and occlude each other.
fn arb_path() -> impl Strategy<Value = Name> {
    proptest::collection::vec(0usize..3, 0..=4).prop_map(|path| {
        let mut labels: Vec<&str> = path.iter().map(|&i| ["a", "b", "ns"][i]).collect();
        labels.extend(["example", "ch"]);
        Name::from_labels(labels).unwrap()
    })
}

/// (owner, kind) pairs: address, delegation NS, CNAME, DS, or TXT records.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec((arb_path(), arb_path(), 0u8..8), 1..=32).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(owner, target, kind)| {
                let rdata = match kind {
                    0 => RData::A(Ipv4Addr::new(192, 0, 2, 1)),
                    1 => RData::Aaaa(Ipv6Addr::LOCALHOST),
                    2 | 3 => RData::Ns(target),
                    4 => RData::Cname(target),
                    5 => RData::Ds(dns_wire::rdata::DsData::delete_sentinel()),
                    _ => RData::Txt(vec![b"x".to_vec()]),
                };
                Record::new(owner, 300, rdata)
            })
            .collect()
    })
}

/// The naive reference: owner names with their type codes, sorted by
/// reversed label sequence (RFC 4034 §6.1 spelled out), queried by
/// linear scans only.
struct Reference {
    apex: Name,
    nodes: Vec<(Name, BTreeSet<u16>)>,
}

fn sort_key(name: &Name) -> Vec<Vec<u8>> {
    let mut labels: Vec<Vec<u8>> = name.labels().map(|l| l.to_vec()).collect();
    labels.reverse();
    labels
}

impl Reference {
    fn of(apex: &Name, records: &[Record]) -> Self {
        let mut reference = Reference {
            apex: apex.clone(),
            nodes: Vec::new(),
        };
        records.iter().for_each(|r| reference.add(r));
        reference
    }

    fn add(&mut self, r: &Record) {
        if !sort_key(&r.name).starts_with(&sort_key(&self.apex)) {
            return;
        }
        match self.nodes.iter_mut().find(|(n, _)| n == &r.name) {
            Some((_, types)) => types.insert(r.rtype().code()),
            None => {
                let types = BTreeSet::from([r.rtype().code()]);
                self.nodes.push((r.name.clone(), types));
                true
            }
        };
        self.nodes.sort_by_key(|(n, _)| sort_key(n));
    }

    /// Drop one type at `name`, and the node with its last type.
    fn remove(&mut self, name: &Name, rtype: RecordType) -> bool {
        let removed = self
            .nodes
            .iter_mut()
            .any(|(n, types)| n == name && types.remove(&rtype.code()));
        self.nodes.retain(|(_, types)| !types.is_empty());
        removed
    }

    fn has(&self, name: &Name, rtype: RecordType) -> bool {
        self.nodes
            .iter()
            .any(|(n, t)| n == name && t.contains(&rtype.code()))
    }

    /// Suffixes of `name` strictly between the apex and `name`, top down.
    fn covering_cut(&self, name: &Name) -> Option<Name> {
        let labels: Vec<&[u8]> = name.labels().collect();
        let depth = labels.len().checked_sub(self.apex.label_count())?;
        (1..depth)
            .map(|k| Name::from_labels(&labels[depth - k..]).unwrap())
            .find(|anc| self.has(anc, RecordType::Ns))
    }

    fn is_delegation(&self, name: &Name) -> bool {
        name != &self.apex && self.has(name, RecordType::Ns)
    }

    fn predecessor(&self, name: &Name) -> Option<&Name> {
        let mut at_or_before = self
            .nodes
            .iter()
            .filter(|(n, _)| sort_key(n) <= sort_key(name));
        at_or_before
            .next_back()
            .or(self.nodes.last())
            .map(|(n, _)| n)
    }
}

fn dnskeys_of(zone: &Zone) -> Vec<dns_wire::rdata::DnskeyData> {
    zone.rrset(zone.apex(), RecordType::Dnskey)
        .unwrap()
        .rdatas
        .iter()
        .map(|rd| match rd {
            RData::Dnskey(d) => d.clone(),
            _ => unreachable!(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lookups, cuts, NSEC predecessors and iteration order agree with
    /// the naive reference on zones full of delegations, occluded names,
    /// glue, CNAMEs and empty non-terminals, built by interleaved adds
    /// and RRset removals.
    #[test]
    fn indexes_agree_with_naive_reference(
        records in arb_records(),
        removals in proptest::collection::vec((0usize..32, any::<bool>()), 0..=12),
        probes in proptest::collection::vec(arb_path(), 0..=12),
    ) {
        // Churn's shape: build, drop whole RRsets (some absent), add more,
        // drop again — the reference mirrors every mutation.
        let apex = Name::parse("example.ch").unwrap();
        let (first, second) = records.split_at(records.len() / 2);
        let mut zone = Zone::new(apex.clone());
        zone.add_all(first.to_vec());
        let mut reference = Reference::of(&apex, first);
        for late in [false, true] {
            for (i, _) in removals.iter().filter(|(_, when)| *when == late) {
                let r = &records[i % records.len()];
                let gone = zone.remove_rrset(&r.name, r.rtype());
                prop_assert_eq!(gone.is_some(), reference.remove(&r.name, r.rtype()));
            }
            if !late {
                zone.add_all(second.to_vec());
                second.iter().for_each(|r| reference.add(r));
            }
        }

        let order: Vec<&Name> = reference.nodes.iter().map(|(n, _)| n).collect();
        prop_assert_eq!(zone.names().collect::<Vec<_>>(), order.clone());
        prop_assert_eq!(zone.nodes().map(|(n, _)| n).collect::<Vec<_>>(), order);

        let mut names: Vec<Name> = reference.nodes.iter().map(|(n, _)| n.clone()).collect();
        names.extend(probes);
        // Outside the zone: before the apex (NSEC wrap-around), above it, beside it.
        names.extend(["example.ca", "ch", "a.example.org"].map(|s| Name::parse(s).unwrap()));
        for name in &names {
            let in_zone = sort_key(name).starts_with(&sort_key(&apex));
            let cut = reference.covering_cut(name).filter(|_| in_zone);
            prop_assert_eq!(zone.covering_cut(name), cut.as_ref(), "covering_cut {}", name);
            prop_assert_eq!(zone.is_delegation(name), reference.is_delegation(name));
            prop_assert_eq!(zone.nsec_predecessor(name), reference.predecessor(name), "pred {}", name);
            let exists = reference.nodes.iter().any(|(n, _)| n == name);
            prop_assert_eq!(zone.node(name).is_some(), exists);
            for qtype in [RecordType::A, RecordType::Ns, RecordType::Ds, RecordType::Cname, RecordType::Mx] {
                let got = zone.lookup(name, qtype);
                let at_cut = reference.is_delegation(name) && qtype != RecordType::Ds;
                match (in_zone, cut.clone().or(at_cut.then(|| name.clone()))) {
                    (false, _) => prop_assert_eq!(got, ZoneLookup::OutOfZone),
                    (true, Some(want)) => match got {
                        ZoneLookup::Delegation { cut, ns, ds } => {
                            prop_assert_eq!(cut, &want);
                            prop_assert_eq!((&ns.name, ns.rtype), (&want, RecordType::Ns));
                            prop_assert_eq!(ds.is_some(), reference.has(&want, RecordType::Ds));
                            let glue: Vec<(Name, RecordType)> =
                                zone.glue(ns).map(|s| (s.name.clone(), s.rtype)).collect();
                            let mut expect = Vec::new();
                            for rd in &ns.rdatas {
                                let RData::Ns(target) = rd else { unreachable!() };
                                for t in [RecordType::A, RecordType::Aaaa] {
                                    if reference.has(target, t) {
                                        expect.push((target.clone(), t));
                                    }
                                }
                            }
                            prop_assert_eq!(glue, expect);
                        }
                        other => prop_assert!(false, "{} {:?}: {:?}", name, qtype, other),
                    },
                    (true, None) if reference.has(name, qtype) => match got {
                        ZoneLookup::Answer(set) => prop_assert_eq!((&set.name, set.rtype), (name, qtype)),
                        other => prop_assert!(false, "{} {:?}: {:?}", name, qtype, other),
                    },
                    (true, None) if reference.has(name, RecordType::Cname) => match got {
                        ZoneLookup::Cname(set) => {
                            prop_assert_eq!((&set.name, set.rtype), (name, RecordType::Cname))
                        }
                        other => prop_assert!(false, "{} {:?}: {:?}", name, qtype, other),
                    },
                    (true, None) if exists => prop_assert_eq!(got, ZoneLookup::NoData),
                    (true, None) => prop_assert_eq!(got, ZoneLookup::NxDomain),
                }
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After signing, every authoritative RRset has a verifying RRSIG.
    #[test]
    fn all_rrsets_verify_after_signing(zone in arb_zone(), seed in any::<u64>()) {
        let mut zone = zone;
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        ZoneSigner::new(NOW).sign(&mut zone, &keys);
        let dnskeys = dnskeys_of(&zone);
        let mut verified = 0;
        let nodes: Vec<(Name, Vec<RecordType>)> = zone
            .nodes()
            .map(|(n, node)| (n.clone(), node.types().collect()))
            .collect();
        for (name, types) in nodes {
            let rrsigs: Vec<_> = zone
                .rrset(&name, RecordType::Rrsig)
                .map(|s| {
                    s.rdatas
                        .iter()
                        .filter_map(|rd| match rd {
                            RData::Rrsig(sig) => Some(sig.clone()),
                            _ => None,
                        })
                        .collect()
                })
                .unwrap_or_default();
            for t in types {
                if t == RecordType::Rrsig {
                    continue;
                }
                let set = zone.rrset(&name, t).unwrap().clone();
                verify_rrset_with_keys(&set, &rrsigs, &dnskeys, NOW)
                    .unwrap_or_else(|e| panic!("{name} {t:?}: {e}"));
                verified += 1;
            }
        }
        prop_assert!(verified >= 3);
    }

    /// The NSEC chain visits every authoritative name exactly once and
    /// returns to the apex.
    #[test]
    fn nsec_chain_is_a_closed_loop(zone in arb_zone(), seed in any::<u64>()) {
        let mut zone = zone;
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        ZoneSigner::new(NOW).sign(&mut zone, &keys);
        let auth_count = zone.names().filter(|n| zone.is_authoritative(n)).count();
        let apex = zone.apex().clone();
        let mut cur = apex.clone();
        let mut visited = std::collections::HashSet::new();
        loop {
            prop_assert!(visited.insert(cur.clone()), "revisited {cur}");
            let set = zone.rrset(&cur, RecordType::Nsec).expect("NSEC at every auth name");
            let next = match &set.rdatas[0] {
                RData::Nsec(n) => n.next_name.clone(),
                _ => unreachable!(),
            };
            if next == apex {
                break;
            }
            cur = next;
            prop_assert!(visited.len() <= auth_count, "chain longer than zone");
        }
        prop_assert_eq!(visited.len(), auth_count);
    }

    /// Signing is idempotent on record count for the same key set.
    #[test]
    fn signed_zone_roundtrips_through_zone_file(zone in arb_zone(), seed in any::<u64>()) {
        let mut zone = zone;
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        ZoneSigner::new(NOW).sign(&mut zone, &keys);
        let text = zone.to_zone_file();
        let back = Zone::from_zone_file(zone.apex().clone(), &text).unwrap();
        prop_assert_eq!(back.record_count(), zone.record_count());
        // And the reparsed zone still verifies.
        let dnskeys = dnskeys_of(&back);
        let set = back.rrset(back.apex(), RecordType::Soa).unwrap().clone();
        let rrsigs: Vec<_> = back
            .rrset(back.apex(), RecordType::Rrsig)
            .unwrap()
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Rrsig(sig) => Some(sig.clone()),
                _ => None,
            })
            .collect();
        prop_assert!(verify_rrset_with_keys(&set, &rrsigs, &dnskeys, NOW).is_ok());
    }

    /// The DS digest of the zone's KSK always matches a published DNSKEY
    /// (CDS↔DNSKEY correspondence used by bootstrap decisions).
    #[test]
    fn cds_always_matches_a_dnskey(seed in any::<u64>()) {
        let apex = Name::parse("x.ch").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        let cds = keys.ds_data(&apex, dns_crypto::DigestType::Sha256);
        let dnskey_rdata = keys.ksk.dnskey_rdata();
        let digest = dns_crypto::ds_digest(
            dns_crypto::DigestType::Sha256,
            &apex.to_wire(),
            &dnskey_rdata,
        )
        .unwrap();
        prop_assert_eq!(cds.digest, digest);
        prop_assert_eq!(cds.key_tag, keys.ksk.key_tag());
    }
}
