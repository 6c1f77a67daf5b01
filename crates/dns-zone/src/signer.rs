//! DNSSEC zone signing: RRSIGs over every authoritative RRset, an NSEC
//! chain (or NSEC3), and DNSKEY publication — with deliberate corruption
//! modes so the ecosystem can plant exactly the misconfigurations the
//! paper's §4 catalogues.

use crate::keys::ZoneKeys;
use crate::zone::{CanonicalName, Node, Zone};
use dns_crypto::sign::{sign_rrset, ValidityWindow};
use dns_crypto::UnixTime;
use dns_wire::canonical::canonical_rrset_wire;
use dns_wire::name::Name;
use dns_wire::rdata::{Nsec3Data, Nsec3ParamData, NsecData, RData, RrsigData};
use dns_wire::record::{Record, RecordClass, RecordType, RrSet};
use dns_wire::typebitmap::TypeBitmap;
use std::collections::BTreeSet;

/// Deliberate signing defects, planted by the ecosystem generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Corruption {
    /// Produce syntactically valid but cryptographically wrong signatures
    /// ("640 k that even fail validation", §1).
    pub garbage_signatures: bool,
    /// Sign with an already-expired validity window ("the signatures in
    /// the signal zones had expired", §4.4).
    pub expired: bool,
    /// Restrict corruption to RRSIGs covering these types; empty = all.
    pub only_types: &'static [RecordType],
}

impl Corruption {
    /// No corruption.
    pub const NONE: Corruption = Corruption {
        garbage_signatures: false,
        expired: false,
        only_types: &[],
    };

    fn applies_to(&self, rtype: RecordType) -> bool {
        (self.garbage_signatures || self.expired)
            && (self.only_types.is_empty() || self.only_types.contains(&rtype))
    }
}

/// Denial-of-existence flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Denial {
    Nsec,
    /// NSEC3 with the given iterations and salt.
    Nsec3 {
        iterations: u16,
        salt: [u8; 4],
    },
    /// No denial chain. Large registry zones in the ecosystem use this to
    /// bound memory: the measurement pipeline validates positive records
    /// and DS presence, never negative proofs.
    None,
}

/// Zone signer configuration.
#[derive(Debug, Clone)]
pub struct ZoneSigner {
    pub window: ValidityWindow,
    pub denial: Denial,
    pub corruption: Corruption,
}

impl ZoneSigner {
    /// A signer with sane defaults: NSEC, a month of validity around `now`.
    pub fn new(now: UnixTime) -> Self {
        ZoneSigner {
            window: ValidityWindow::around(now, 3600, 30 * 24 * 3600),
            denial: Denial::Nsec,
            corruption: Corruption::NONE,
        }
    }

    pub fn with_denial(mut self, denial: Denial) -> Self {
        self.denial = denial;
        self
    }

    pub fn with_corruption(mut self, corruption: Corruption) -> Self {
        self.corruption = corruption;
        self
    }

    /// Sign `zone` in place with `keys`:
    ///
    /// 1. publish the DNSKEY RRset at the apex (and, for NSEC3, build the
    ///    hashed chain),
    /// 2. at every authoritative name, in canonical order, take the
    ///    per-owner step: link the owner's NSEC to its successor, then add
    ///    one RRSIG per authoritative RRset there — DNSKEY RRsets signed
    ///    by the KSK, everything else by the ZSK; delegation NS RRsets and
    ///    glue are *not* signed (they are not authoritative data).
    pub fn sign(&self, zone: &mut Zone, keys: &ZoneKeys) {
        let apex = zone.apex().clone();
        for set in RrSet::group(&keys.dnskey_records(&apex, 3600)) {
            zone.add_rrset(set);
        }
        if let Denial::Nsec3 { iterations, salt } = self.denial {
            self.add_nsec3_chain(zone, iterations, salt);
        }
        // Authoritative names in canonical order (zone iterates that way).
        let names: Vec<Name> = zone
            .names()
            .filter(|n| zone.is_authoritative(n))
            .cloned()
            .collect();
        let nsec_ttl = soa_minimum(zone);
        for (i, owner) in names.iter().enumerate() {
            let next = &names[(i + 1) % names.len()];
            self.sign_owner(zone, keys, owner, next, nsec_ttl);
        }
    }

    /// Bring a zone this signer signed before back to exactly what
    /// [`ZoneSigner::sign`] would make of its present content, after the
    /// unsigned RRsets at the `changed` owners were added, replaced or
    /// removed — at a cost proportional to `changed`, not to the zone.
    ///
    /// The NSEC and RRSIG sets at each changed owner go (an owner left
    /// with nothing else leaves the chain with them); then every surviving
    /// changed owner and, under NSEC, each changed owner's authoritative
    /// predecessor — the one name whose NSEC pointed at or past it — takes
    /// the same per-owner step `sign` takes. Signatures are deterministic,
    /// so with the same keys and window the result equals the full re-sign
    /// record for record. Returns the re-signed owners in canonical order:
    /// a caller that alters RRSIGs after signing must redo that there and
    /// nowhere else.
    ///
    /// The edit may not add or remove a delegation (that moves names in
    /// and out of the chain wholesale), and NSEC3 zones, whose chain order
    /// is not the name order, are signed whole.
    pub fn resign_owners<'a>(
        &self,
        zone: &mut Zone,
        keys: &ZoneKeys,
        changed: impl IntoIterator<Item = &'a Name>,
    ) -> Vec<Name> {
        assert!(
            !matches!(self.denial, Denial::Nsec3 { .. }),
            "NSEC3 zones are re-signed whole"
        );
        let changed: Vec<&Name> = changed.into_iter().collect();
        for owner in &changed {
            strip_denial_and_sigs(zone, owner);
        }
        // The final name order decides who is dirty: an emptied owner is
        // already out of it, so its predecessor links past it.
        let mut dirty = BTreeSet::new();
        for owner in changed {
            if zone.node_exists(owner) && zone.is_authoritative(owner) {
                dirty.insert(CanonicalName(owner.clone()));
            }
            if self.denial == Denial::Nsec {
                if let Some(prev) = authoritative_neighbour(zone, owner, Zone::name_before) {
                    dirty.insert(CanonicalName(prev));
                }
            }
        }
        let dirty: Vec<Name> = dirty.into_iter().map(|k| k.0).collect();
        let nsec_ttl = soa_minimum(zone);
        for owner in &dirty {
            strip_denial_and_sigs(zone, owner);
            let next = authoritative_neighbour(zone, owner, Zone::name_after)
                .expect("a dirty owner is in the zone");
            self.sign_owner(zone, keys, owner, &next, nsec_ttl);
        }
        dirty
    }

    /// The per-owner signing step: under [`Denial::Nsec`] the owner's NSEC
    /// (types at the node, next = `next`), then one RRSIG per
    /// authoritative RRset at the node, in type-code order.
    fn sign_owner(
        &self,
        zone: &mut Zone,
        keys: &ZoneKeys,
        owner: &Name,
        next: &Name,
        nsec_ttl: u32,
    ) {
        if self.denial == Denial::Nsec {
            let mut types: Vec<RecordType> = zone
                .node(owner)
                .map(|node| node.types().collect())
                .unwrap_or_default();
            types.push(RecordType::Nsec);
            types.push(RecordType::Rrsig);
            zone.add(Record::new(
                owner.clone(),
                nsec_ttl,
                RData::Nsec(NsecData {
                    next_name: next.clone(),
                    types: TypeBitmap::from_types(types),
                }),
            ));
        }
        // At a cut, only DS and NSEC are authoritative.
        let is_cut = zone.is_delegation(owner);
        let apex = zone.apex();
        let sigs: Vec<Record> = zone
            .node(owner)
            .into_iter()
            .flat_map(Node::rrsets)
            .filter(|set| !is_cut || matches!(set.rtype, RecordType::Ds | RecordType::Nsec))
            .map(|set| self.sign_rrset_record(set, keys, apex))
            .collect();
        // One body for the owner's RRSIGs (one per covered type, so no
        // two alike): added one at a time, each would re-copy the
        // signatures before it.
        let Some(ttl) = sigs.iter().map(|r| r.ttl).min() else {
            return;
        };
        zone.add_rrset(RrSet {
            name: owner.clone(),
            class: RecordClass::In,
            rtype: RecordType::Rrsig,
            ttl,
            rdatas: sigs.into_iter().map(|r| r.rdata).collect(),
        });
    }

    /// Produce the RRSIG record for one RRset.
    pub fn sign_rrset_record(&self, set: &RrSet, keys: &ZoneKeys, apex: &Name) -> Record {
        let key = if set.rtype == RecordType::Dnskey {
            &keys.ksk
        } else {
            &keys.zsk
        };
        let window = if self.corruption.applies_to(set.rtype) && self.corruption.expired {
            // Expired a day before the scan epoch.
            ValidityWindow {
                inception: 0,
                expiration: self.window.inception.saturating_sub(86_400).max(1),
            }
        } else {
            self.window
        };
        let mut rrsig = RrsigData {
            type_covered: set.rtype.code(),
            algorithm: key.algorithm.code(),
            labels: set.name.label_count() as u8,
            original_ttl: set.ttl,
            expiration: window.expiration,
            inception: window.inception,
            key_tag: key.key_tag(),
            signer_name: apex.clone(),
            signature: Vec::new(),
        };
        let mut message = rrsig.signed_prefix();
        message.extend_from_slice(&canonical_rrset_wire(
            &set.name,
            set.class,
            set.ttl,
            &set.rdatas,
        ));
        let mut signature = sign_rrset(key, &message);
        if self.corruption.applies_to(set.rtype) && self.corruption.garbage_signatures {
            // Flip bytes: stays well-formed, fails verification.
            for b in signature.iter_mut() {
                *b ^= 0x5a;
            }
        }
        rrsig.signature = signature;
        Record::new(set.name.clone(), set.ttl, RData::Rrsig(rrsig))
    }

    fn add_nsec3_chain(&self, zone: &mut Zone, iterations: u16, salt: [u8; 4]) {
        let apex = zone.apex().clone();
        let soa_min = 300;
        zone.add(Record::new(
            apex.clone(),
            0,
            RData::Nsec3param(Nsec3ParamData {
                hash_algorithm: 1,
                flags: 0,
                iterations,
                salt: salt.to_vec(),
            }),
        ));
        // Hash every authoritative name; chain in hash order.
        let mut hashed: Vec<([u8; 20], Vec<RecordType>)> = zone
            .nodes()
            .filter(|(n, _)| zone.is_authoritative(n))
            .map(|(n, node)| {
                let h = dns_crypto::sha1::nsec3_hash(&n.to_wire(), &salt, iterations);
                let mut types: Vec<RecordType> = node.types().collect();
                types.push(RecordType::Rrsig);
                if *n == apex {
                    types.push(RecordType::Nsec3param);
                }
                (h, types)
            })
            .collect();
        hashed.sort_by_key(|a| a.0);
        let n = hashed.len();
        let mut additions = Vec::new();
        for i in 0..n {
            let (h, types) = &hashed[i];
            let next = hashed[(i + 1) % n].0;
            let owner_label = dns_crypto::sha1::base32hex(h);
            let owner = apex
                .prepend_label(owner_label.as_bytes())
                .expect("base32hex label fits");
            additions.push(Record::new(
                owner,
                soa_min,
                RData::Nsec3(Nsec3Data {
                    hash_algorithm: 1,
                    flags: 0,
                    iterations,
                    salt: salt.to_vec(),
                    next_hashed: next.to_vec(),
                    types: TypeBitmap::from_types(types.clone()),
                }),
            ));
        }
        zone.add_all(additions);
    }
}

/// The NSEC TTL: the SOA minimum (RFC 4034 §4), 300 without an SOA.
fn soa_minimum(zone: &Zone) -> u32 {
    zone.rrset(zone.apex(), RecordType::Soa)
        .map(|s| match &s.rdatas[0] {
            RData::Soa(soa) => soa.minimum,
            _ => 300,
        })
        .unwrap_or(300)
}

/// Drop the NSEC and RRSIG sets at `owner`; a node holding nothing else
/// leaves the zone.
fn strip_denial_and_sigs(zone: &mut Zone, owner: &Name) {
    zone.remove_rrset(owner, RecordType::Nsec);
    zone.remove_rrset(owner, RecordType::Rrsig);
}

/// The nearest authoritative name strictly before or after `from`
/// (`step` is [`Zone::name_before`] or [`Zone::name_after`]), wrapping:
/// glue below a cut is in the zone's name order but not in its chain.
fn authoritative_neighbour(
    zone: &Zone,
    from: &Name,
    step: for<'z> fn(&'z Zone, &Name) -> Option<&'z Name>,
) -> Option<Name> {
    let mut cur = step(zone, from)?;
    while !zone.is_authoritative(cur) {
        cur = step(zone, cur)?;
    }
    Some(cur.clone())
}

/// Verify one RRset's RRSIG against a DNSKEY RRset (helper shared by the
/// resolver and the scanner's correctness checks).
///
/// Returns `Ok(())` when *any* (rrsig, dnskey) pairing with matching key
/// tag + algorithm verifies within its window at `now`.
pub fn verify_rrset_with_keys(
    set: &RrSet,
    rrsigs: &[RrsigData],
    dnskeys: &[dns_wire::rdata::DnskeyData],
    now: UnixTime,
) -> Result<(), dns_crypto::SignatureError> {
    use dns_crypto::{verify_rrset, Algorithm};
    let mut last_err = dns_crypto::SignatureError::BadSignature;
    for sig in rrsigs {
        if sig.type_covered != set.rtype.code() {
            continue;
        }
        let mut message = sig.signed_prefix();
        message.extend_from_slice(&canonical_rrset_wire(
            &set.name,
            set.class,
            sig.original_ttl,
            &set.rdatas,
        ));
        for key in dnskeys {
            if key.algorithm != sig.algorithm
                || dns_crypto::key_tag(key.flags, key.protocol, key.algorithm, &key.public_key)
                    != sig.key_tag
            {
                continue;
            }
            match verify_rrset(
                Algorithm::from_code(sig.algorithm),
                &key.public_key,
                &message,
                &sig.signature,
                ValidityWindow {
                    inception: sig.inception,
                    expiration: sig.expiration,
                },
                now,
            ) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = e,
            }
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_crypto::Algorithm;
    use dns_wire::name;
    use dns_wire::rdata::SoaData;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    const NOW: UnixTime = 1_000_000;

    fn build_zone() -> (Zone, ZoneKeys) {
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
        let mut rng = StdRng::seed_from_u64(7);
        let keys = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        (z, keys)
    }

    fn dnskeys_of(zone: &Zone) -> Vec<dns_wire::rdata::DnskeyData> {
        zone.rrset(zone.apex(), RecordType::Dnskey)
            .unwrap()
            .rdatas
            .iter()
            .map(|rd| match rd {
                RData::Dnskey(d) => d.clone(),
                _ => panic!(),
            })
            .collect()
    }

    fn rrsigs_at(zone: &Zone, name: &Name, covered: RecordType) -> Vec<RrsigData> {
        zone.rrset(name, RecordType::Rrsig)
            .map(|s| {
                s.rdatas
                    .iter()
                    .filter_map(|rd| match rd {
                        RData::Rrsig(sig) if sig.type_covered == covered.code() => {
                            Some(sig.clone())
                        }
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn signing_adds_dnskey_nsec_rrsig() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        assert!(z.rrset(&name!("example.ch"), RecordType::Dnskey).is_some());
        assert!(z.rrset(&name!("example.ch"), RecordType::Nsec).is_some());
        assert!(z.rrset(&name!("example.ch"), RecordType::Rrsig).is_some());
        assert!(z
            .rrset(&name!("www.example.ch"), RecordType::Rrsig)
            .is_some());
    }

    #[test]
    fn signed_rrsets_verify() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        let dnskeys = dnskeys_of(&z);
        for (name, covered) in [
            (name!("example.ch"), RecordType::Soa),
            (name!("example.ch"), RecordType::Ns),
            (name!("example.ch"), RecordType::Dnskey),
            (name!("www.example.ch"), RecordType::A),
            (name!("example.ch"), RecordType::Nsec),
        ] {
            let set = z.rrset(&name, covered).unwrap().clone();
            let sigs = rrsigs_at(&z, &name, covered);
            assert_eq!(sigs.len(), 1, "{name} {covered:?}");
            verify_rrset_with_keys(&set, &sigs, &dnskeys, NOW)
                .unwrap_or_else(|e| panic!("{name} {covered:?}: {e}"));
        }
    }

    #[test]
    fn dnskey_signed_by_ksk_others_by_zsk() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        let dnskey_sig = &rrsigs_at(&z, &name!("example.ch"), RecordType::Dnskey)[0];
        assert_eq!(dnskey_sig.key_tag, keys.ksk.key_tag());
        let soa_sig = &rrsigs_at(&z, &name!("example.ch"), RecordType::Soa)[0];
        assert_eq!(soa_sig.key_tag, keys.zsk.key_tag());
    }

    #[test]
    fn nsec_chain_loops_in_canonical_order() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        // Follow the chain from the apex until it loops; must visit every
        // authoritative name exactly once.
        let mut seen = Vec::new();
        let mut cur = name!("example.ch");
        loop {
            seen.push(cur.clone());
            let set = z.rrset(&cur, RecordType::Nsec).unwrap();
            let next = match &set.rdatas[0] {
                RData::Nsec(n) => n.next_name.clone(),
                _ => panic!(),
            };
            if next == name!("example.ch") {
                break;
            }
            cur = next;
            assert!(seen.len() <= 10, "chain does not loop");
        }
        assert_eq!(seen.len(), 3); // apex, ns1, www
    }

    #[test]
    fn nsec_bitmap_reflects_node_types() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        let set = z.rrset(&name!("www.example.ch"), RecordType::Nsec).unwrap();
        match &set.rdatas[0] {
            RData::Nsec(n) => {
                assert!(n.types.contains(RecordType::A));
                assert!(n.types.contains(RecordType::Rrsig));
                assert!(n.types.contains(RecordType::Nsec));
                assert!(!n.types.contains(RecordType::Mx));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn garbage_corruption_fails_verification() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW)
            .with_corruption(Corruption {
                garbage_signatures: true,
                expired: false,
                only_types: &[],
            })
            .sign(&mut z, &keys);
        let dnskeys = dnskeys_of(&z);
        let set = z
            .rrset(&name!("www.example.ch"), RecordType::A)
            .unwrap()
            .clone();
        let sigs = rrsigs_at(&z, &name!("www.example.ch"), RecordType::A);
        assert_eq!(
            verify_rrset_with_keys(&set, &sigs, &dnskeys, NOW),
            Err(dns_crypto::SignatureError::BadSignature)
        );
    }

    #[test]
    fn expired_corruption_fails_with_expired() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW)
            .with_corruption(Corruption {
                garbage_signatures: false,
                expired: true,
                only_types: &[],
            })
            .sign(&mut z, &keys);
        let dnskeys = dnskeys_of(&z);
        let set = z
            .rrset(&name!("www.example.ch"), RecordType::A)
            .unwrap()
            .clone();
        let sigs = rrsigs_at(&z, &name!("www.example.ch"), RecordType::A);
        assert_eq!(
            verify_rrset_with_keys(&set, &sigs, &dnskeys, NOW),
            Err(dns_crypto::SignatureError::Expired)
        );
    }

    #[test]
    fn targeted_corruption_spares_other_types() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW)
            .with_corruption(Corruption {
                garbage_signatures: true,
                expired: false,
                only_types: &[RecordType::Cds],
            })
            .sign(&mut z, &keys);
        let dnskeys = dnskeys_of(&z);
        let set = z
            .rrset(&name!("www.example.ch"), RecordType::A)
            .unwrap()
            .clone();
        let sigs = rrsigs_at(&z, &name!("www.example.ch"), RecordType::A);
        assert!(verify_rrset_with_keys(&set, &sigs, &dnskeys, NOW).is_ok());
    }

    #[test]
    fn delegation_ns_not_signed_but_ds_is() {
        let (mut z, keys) = build_zone();
        z.add(Record::new(
            name!("sub.example.ch"),
            300,
            RData::Ns(name!("ns1.other.net")),
        ));
        z.add(Record::new(
            name!("sub.example.ch"),
            300,
            RData::Ds(dns_wire::rdata::DsData {
                key_tag: 1,
                algorithm: 13,
                digest_type: 2,
                digest: vec![1; 32],
            }),
        ));
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        let sigs_ns = rrsigs_at(&z, &name!("sub.example.ch"), RecordType::Ns);
        assert!(sigs_ns.is_empty(), "delegation NS must not be signed");
        let sigs_ds = rrsigs_at(&z, &name!("sub.example.ch"), RecordType::Ds);
        assert_eq!(sigs_ds.len(), 1, "delegation DS must be signed");
    }

    #[test]
    fn glue_not_signed_and_not_in_nsec_chain() {
        let (mut z, keys) = build_zone();
        z.add(Record::new(
            name!("sub.example.ch"),
            300,
            RData::Ns(name!("ns1.sub.example.ch")),
        ));
        z.add(Record::new(
            name!("ns1.sub.example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 99)),
        ));
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        assert!(rrsigs_at(&z, &name!("ns1.sub.example.ch"), RecordType::A).is_empty());
        assert!(z
            .rrset(&name!("ns1.sub.example.ch"), RecordType::Nsec)
            .is_none());
    }

    fn a(owner: &str, last: u8) -> Record {
        Record::new(
            Name::parse(owner).unwrap(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, last)),
        )
    }

    fn cds(owner: &str, tag: u16) -> Record {
        Record::new(
            Name::parse(owner).unwrap(),
            300,
            RData::Cds(dns_wire::rdata::DsData {
                key_tag: tag,
                algorithm: 13,
                digest_type: 2,
                digest: vec![tag as u8; 32],
            }),
        )
    }

    /// Sign `build_zone()` plus two signal-style owners, apply `edit`,
    /// re-sign at `changed`: the zone must equal a fresh `sign` of the
    /// same edited content, and at most the changed owners and one
    /// predecessor each were re-signed.
    fn assert_resign_equals_sign(denial: Denial, edit: impl Fn(&mut Zone), changed: &[&str]) {
        let (mut unsigned, keys) = build_zone();
        unsigned.add(cds("_dsboot.b._signal.ns1.example.ch", 1));
        unsigned.add(cds("_dsboot.d._signal.ns1.example.ch", 2));
        unsigned.add(a("_dsboot.d._signal.ns1.example.ch", 7));
        let signer = ZoneSigner::new(NOW).with_denial(denial);

        let mut incremental = unsigned.clone();
        signer.sign(&mut incremental, &keys);
        edit(&mut incremental);
        let changed: Vec<Name> = changed.iter().map(|n| Name::parse(n).unwrap()).collect();
        let resigned = signer.resign_owners(&mut incremental, &keys, &changed);

        let mut full = unsigned;
        edit(&mut full);
        signer.sign(&mut full, &keys);
        assert_eq!(incremental.records(), full.records());
        assert!(
            resigned.len() <= 2 * changed.len(),
            "{} owners re-signed for {} changed",
            resigned.len(),
            changed.len()
        );
        assert!(resigned
            .windows(2)
            .all(|w| w[0].canonical_cmp(&w[1]).is_lt()));
    }

    #[test]
    fn resign_after_adding_an_owner_in_the_middle() {
        let owner = "_dsboot.c._signal.ns1.example.ch";
        assert_resign_equals_sign(
            Denial::Nsec,
            |z| {
                z.add(cds(owner, 9));
            },
            &[owner],
        );
    }

    #[test]
    fn resign_after_adding_the_first_name_after_the_apex() {
        // `*` sorts before every letter and `_`: the apex is its predecessor.
        let owner = "*.example.ch";
        assert_resign_equals_sign(
            Denial::Nsec,
            |z| {
                z.add(a(owner, 9));
            },
            &[owner],
        );
    }

    #[test]
    fn resign_after_adding_the_last_name_wraps_to_the_apex() {
        let owner = "zzz.example.ch";
        assert_resign_equals_sign(
            Denial::Nsec,
            |z| {
                z.add(a(owner, 9));
            },
            &[owner],
        );
    }

    #[test]
    fn resign_after_removing_owners() {
        // One with an address, one holding only signal types, and the
        // zone's last name (its predecessor then wraps to the apex).
        for owner in [
            "_dsboot.d._signal.ns1.example.ch",
            "_dsboot.b._signal.ns1.example.ch",
            "www.example.ch",
        ] {
            assert_resign_equals_sign(
                Denial::Nsec,
                |z| {
                    let name = Name::parse(owner).unwrap();
                    for rt in [RecordType::A, RecordType::Cds] {
                        z.remove_rrset(&name, rt);
                    }
                },
                &[owner],
            );
        }
    }

    #[test]
    fn resign_after_changing_an_owners_type_set_or_content() {
        let owner = "_dsboot.d._signal.ns1.example.ch";
        assert_resign_equals_sign(
            Denial::Nsec,
            |z| {
                z.remove_rrset(&Name::parse(owner).unwrap(), RecordType::A);
            },
            &[owner],
        );
        assert_resign_equals_sign(
            Denial::Nsec,
            |z| {
                z.remove_rrset(&Name::parse(owner).unwrap(), RecordType::Cds);
                z.add(cds(owner, 77));
            },
            &[owner],
        );
    }

    #[test]
    fn resign_of_adjacent_and_repeated_changes_at_once() {
        // A withdrawn owner next to a published one next to a replaced
        // one: predecessors overlap with changed owners and each other.
        assert_resign_equals_sign(
            Denial::Nsec,
            |z| {
                z.remove_rrset(&name!("_dsboot.b._signal.ns1.example.ch"), RecordType::Cds);
                z.add(cds("_dsboot.c._signal.ns1.example.ch", 9));
                z.add(cds("_dsboot.d._signal.ns1.example.ch", 10));
            },
            &[
                "_dsboot.b._signal.ns1.example.ch",
                "_dsboot.c._signal.ns1.example.ch",
                "_dsboot.d._signal.ns1.example.ch",
                "_dsboot.c._signal.ns1.example.ch",
            ],
        );
    }

    #[test]
    fn resign_links_past_glue_to_the_cut_above_it() {
        // `t` sorts right after the glue `ns1.sub`; glue is in the name
        // order but not in the chain, so the cut `sub` is the predecessor.
        let with_cut = |z: &mut Zone| {
            z.add(Record::new(
                name!("sub.example.ch"),
                300,
                RData::Ns(name!("ns1.sub.example.ch")),
            ));
            z.add(a("ns1.sub.example.ch", 99));
        };
        let (mut z, keys) = build_zone();
        with_cut(&mut z);
        let signer = ZoneSigner::new(NOW);
        let mut full = z.clone();
        signer.sign(&mut z, &keys);
        z.add(a("t.example.ch", 9));
        let resigned = signer.resign_owners(&mut z, &keys, [&name!("t.example.ch")]);
        assert_eq!(resigned, [name!("sub.example.ch"), name!("t.example.ch")]);
        full.add(a("t.example.ch", 9));
        signer.sign(&mut full, &keys);
        assert_eq!(z.records(), full.records());
    }

    #[test]
    fn resign_without_a_denial_chain_touches_the_changed_owner_only() {
        let owner = "_dsboot.c._signal.ns1.example.ch";
        assert_resign_equals_sign(
            Denial::None,
            |z| {
                z.add(cds(owner, 9));
            },
            &[owner],
        );
        let (mut z, keys) = build_zone();
        let signer = ZoneSigner::new(NOW).with_denial(Denial::None);
        signer.sign(&mut z, &keys);
        z.add(cds(owner, 9));
        let resigned = signer.resign_owners(&mut z, &keys, [&Name::parse(owner).unwrap()]);
        assert_eq!(resigned, [Name::parse(owner).unwrap()]);
    }

    #[test]
    fn nsec3_chain_built_and_loops() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW)
            .with_denial(Denial::Nsec3 {
                iterations: 0,
                salt: [0xde, 0xad, 0xbe, 0xef],
            })
            .sign(&mut z, &keys);
        assert!(z
            .rrset(&name!("example.ch"), RecordType::Nsec3param)
            .is_some());
        // Three authoritative names → three NSEC3 records whose next-hash
        // pointers form a single cycle.
        let nsec3s: Vec<(Vec<u8>, Vec<u8>)> = z
            .records()
            .into_iter()
            .filter_map(|r| match r.rdata {
                RData::Nsec3(n) => {
                    let label = r.name.first_label().unwrap().to_vec();
                    Some((label, n.next_hashed))
                }
                _ => None,
            })
            .collect();
        assert_eq!(nsec3s.len(), 3);
        for (_, next) in &nsec3s {
            let next_label = dns_crypto::sha1::base32hex(next);
            assert!(
                nsec3s.iter().any(|(l, _)| l == next_label.as_bytes()),
                "next pointer targets an existing NSEC3 owner"
            );
        }
        // NSEC3 RRsets are themselves signed.
        let nsec3_owner = z
            .records()
            .into_iter()
            .find(|r| matches!(r.rdata, RData::Nsec3(_)))
            .unwrap()
            .name;
        assert!(!rrsigs_at(&z, &nsec3_owner, RecordType::Nsec3).is_empty());
    }

    #[test]
    fn verify_fails_when_rrset_tampered() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        let dnskeys = dnskeys_of(&z);
        let mut set = z
            .rrset(&name!("www.example.ch"), RecordType::A)
            .unwrap()
            .clone();
        set.rdatas = vec![RData::A(Ipv4Addr::new(10, 0, 0, 1))].into();
        let sigs = rrsigs_at(&z, &name!("www.example.ch"), RecordType::A);
        assert!(verify_rrset_with_keys(&set, &sigs, &dnskeys, NOW).is_err());
    }

    #[test]
    fn verify_fails_with_foreign_keys() {
        let (mut z, keys) = build_zone();
        ZoneSigner::new(NOW).sign(&mut z, &keys);
        let mut rng = StdRng::seed_from_u64(999);
        let other = ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
        let foreign: Vec<_> = other
            .dnskey_records(&name!("example.ch"), 300)
            .into_iter()
            .map(|r| match r.rdata {
                RData::Dnskey(d) => d,
                _ => panic!(),
            })
            .collect();
        let set = z
            .rrset(&name!("www.example.ch"), RecordType::A)
            .unwrap()
            .clone();
        let sigs = rrsigs_at(&z, &name!("www.example.ch"), RecordType::A);
        assert!(verify_rrset_with_keys(&set, &sigs, &foreign, NOW).is_err());
    }
}
