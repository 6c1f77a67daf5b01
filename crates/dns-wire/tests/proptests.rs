//! Property-based tests over the wire format: round-trip invariants for
//! names, messages, type bitmaps and canonical ordering, plus the
//! byte-identity oracles for code that was rewritten for speed: a
//! test-local reference writer (the hash-map algorithm the linear
//! compression table replaced), golden replies captured from the
//! previous encoder, and the sort-by-rendering canonical RRset form that
//! the render-once one replaced.

use dns_wire::canonical::{canonical_rdata, canonical_rrset_wire};
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::rdata::{
    CsyncData, DnskeyData, DsData, Nsec3Data, Nsec3ParamData, NsecData, RData, RrsigData, SoaData,
};
use dns_wire::record::{Record, RecordClass, RecordType};
use dns_wire::typebitmap::TypeBitmap;
use dns_wire::{WireReader, WireWriter};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: a valid DNS label (1..=15 bytes, arbitrary octets).
fn label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..=15)
}

/// Strategy: a valid name of 0..=5 labels.
fn name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(label(), 0..=5)
        .prop_map(|labels| Name::from_labels(labels).expect("short labels fit"))
}

/// Strategy: assorted RDATA values.
fn rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(o.into())),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(o.into())),
        name().prop_map(RData::Ns),
        name().prop_map(RData::Cname),
        (any::<u16>(), name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=30), 0..=3)
            .prop_map(RData::Txt),
        (
            name(),
            name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            }),
        (
            any::<u16>(),
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 1..=64)
        )
            .prop_map(|(flags, algorithm, public_key)| RData::Dnskey(DnskeyData {
                flags,
                protocol: 3,
                algorithm,
                public_key,
            })),
        (
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 1..=48)
        )
            .prop_map(
                |(key_tag, algorithm, digest_type, digest)| RData::Cds(DsData {
                    key_tag,
                    algorithm,
                    digest_type,
                    digest,
                })
            ),
        (
            any::<u16>(),
            any::<u8>(),
            any::<u32>(),
            name(),
            proptest::collection::vec(any::<u8>(), 0..=64)
        )
            .prop_map(|(type_covered, algorithm, times, signer_name, signature)| {
                RData::Rrsig(RrsigData {
                    type_covered,
                    algorithm,
                    labels: 2,
                    original_ttl: times,
                    expiration: times.wrapping_add(1000),
                    inception: times,
                    key_tag: 7,
                    signer_name,
                    signature,
                })
            }),
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..=40)).prop_map(|(rtype, data)| {
            // Avoid colliding with implemented types: offset into
            // unassigned space.
            RData::Unknown {
                rtype: 20_000 + (rtype % 10_000),
                data,
            }
        }),
    ]
}

/// A type bitmap of up to eight types from a few windows.
fn bitmap() -> impl Strategy<Value = TypeBitmap> {
    proptest::collection::vec(prop_oneof![0u16..64, 250u16..300, 1200u16..1300], 0..=8)
        .prop_map(|codes| TypeBitmap::from_types(codes.into_iter().map(RecordType::from_code)))
}

/// Strategy: every `RData` variant, including the ones `rdata()` leaves
/// out because they do not survive a message or zone-file round trip.
fn any_variant_rdata() -> impl Strategy<Value = RData> {
    let blob = |max| proptest::collection::vec(any::<u8>(), 0..=max);
    prop_oneof![
        rdata(),
        (any::<u16>(), any::<u8>(), any::<u8>(), blob(24)).prop_map(
            |(key_tag, algorithm, digest_type, digest)| RData::Ds(DsData {
                key_tag,
                algorithm,
                digest_type,
                digest,
            })
        ),
        (any::<u16>(), any::<u8>(), blob(24)).prop_map(|(flags, algorithm, public_key)| {
            RData::Cdnskey(DnskeyData {
                flags,
                protocol: 3,
                algorithm,
                public_key,
            })
        }),
        (name(), bitmap())
            .prop_map(|(next_name, types)| RData::Nsec(NsecData { next_name, types })),
        (any::<u8>(), any::<u16>(), blob(8), blob(20), bitmap()).prop_map(
            |(flags, iterations, salt, next_hashed, types)| RData::Nsec3(Nsec3Data {
                hash_algorithm: 1,
                flags,
                iterations,
                salt,
                next_hashed,
                types,
            })
        ),
        (any::<u8>(), any::<u16>(), blob(8)).prop_map(|(flags, iterations, salt)| {
            RData::Nsec3param(Nsec3ParamData {
                hash_algorithm: 1,
                flags,
                iterations,
                salt,
            })
        }),
        (any::<u32>(), any::<u16>(), bitmap()).prop_map(|(serial, flags, types)| RData::Csync(
            CsyncData {
                serial,
                flags,
                types
            }
        )),
        blob(12).prop_map(RData::Opt),
        // Narrow values, so that equal prefixes and duplicates are common.
        (0u8..3).prop_map(|b| RData::A([192, 0, 2, b].into())),
        (0u8..3).prop_map(|b| RData::Txt(vec![vec![b'x'; b as usize]])),
    ]
}

/// The canonical RRset form before each RDATA was rendered once: sort
/// the RDATA by rendering both sides of every comparison, dedup the same
/// way, then render each record whole.
fn sort_by_rendering(owner: &Name, class: RecordClass, ttl: u32, rdatas: &[RData]) -> Vec<u8> {
    let mut sorted: Vec<&RData> = rdatas.iter().collect();
    sorted.sort_by_key(|a| canonical_rdata(a));
    sorted.dedup_by(|a, b| canonical_rdata(a) == canonical_rdata(b));
    let mut out = Vec::new();
    for rd in sorted {
        let rdata = canonical_rdata(rd);
        owner.write_uncompressed(&mut out);
        out.extend_from_slice(&rd.rtype().code().to_be_bytes());
        out.extend_from_slice(&class.code().to_be_bytes());
        out.extend_from_slice(&ttl.to_be_bytes());
        out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        out.extend_from_slice(&rdata);
    }
    out
}

/// The compression algorithm `WireWriter` replaced, kept here as the
/// oracle: every written suffix keyed by its wire bytes in a hash map,
/// first writer wins, offsets ≥ 0x4000 never recorded.
#[derive(Default)]
struct ReferenceWriter {
    buf: Vec<u8>,
    offsets: HashMap<Vec<u8>, usize>,
}

impl ReferenceWriter {
    fn write_name(&mut self, name: &Name, compress: bool) {
        let wire = name.wire_bytes();
        if !compress {
            self.buf.extend_from_slice(wire);
            return;
        }
        let mut starts = Vec::new();
        let mut pos = 0;
        while wire[pos] != 0 {
            starts.push(pos);
            pos += wire[pos] as usize + 1;
        }
        let known = starts
            .iter()
            .position(|&s| self.offsets.contains_key(&wire[s..]));
        for &s in &starts[..known.unwrap_or(starts.len())] {
            let here = self.buf.len();
            if here < 0x4000 {
                self.offsets.entry(wire[s..].to_vec()).or_insert(here);
            }
            self.buf
                .extend_from_slice(&wire[s..s + wire[s] as usize + 1]);
        }
        match known {
            Some(k) => {
                let off = self.offsets[&wire[starts[k]..]] as u16;
                self.buf.extend_from_slice(&(0xc000 | off).to_be_bytes());
            }
            None => self.buf.push(0),
        }
    }
}

/// Names that share suffixes, from labels that include length-byte and
/// root-byte look-alikes (suffix matches must land on label boundaries).
fn related_name() -> impl Strategy<Value = Name> {
    const POOL: [&[u8]; 8] = [
        b"a", b"b", b"\x01a", b"a\x01b", b"\x00", b"\x01", b"example", b"com",
    ];
    proptest::collection::vec(0usize..POOL.len(), 0..=5)
        .prop_map(|ix| Name::from_labels(ix.into_iter().map(|i| POOL[i])).unwrap())
}

/// One step of a writer session: a name (compressed or, as inside RRSIG
/// and NSEC RDATA, not), or filler bytes that move later offsets — far
/// enough, sometimes, to cross the 14-bit pointer limit.
#[derive(Debug, Clone)]
enum Op {
    Name(Name, bool),
    Filler(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (related_name(), any::<bool>()).prop_map(|(n, c)| Op::Name(n, c)),
        (related_name(), any::<bool>()).prop_map(|(n, c)| Op::Name(n, c)),
        (name(), any::<bool>()).prop_map(|(n, c)| Op::Name(n, c)),
        (0usize..6000).prop_map(Op::Filler),
    ]
}

/// Every golden reply decodes and re-encodes to exactly its own bytes:
/// the encoder still is the one that produced them (same compression
/// pointers, same lengths).
#[test]
fn golden_replies_reencode_byte_identically() {
    let golden = include_str!("golden_replies.hex");
    let mut labels = Vec::new();
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let (label, hex) = line.split_once(' ').expect("label and hex");
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
            .collect();
        let msg = Message::from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(msg.to_bytes(), bytes, "{label}");
        labels.push(label);
    }
    assert!(labels.len() >= 32, "{} vectors", labels.len());
    for required in [
        "referral-ds",
        "referral-nsec",
        "nodata-",
        "nxdomain-",
        "answer-dnskey",
        "answer-cds",
        "answer-cdnskey",
        "handbuilt-tc",
        "longsignal-",
    ] {
        assert!(
            labels.iter().any(|l| l.contains(required)),
            "no {required} vector"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compression_matches_reference_writer(
        ops in proptest::collection::vec(op(), 1..=24),
        near_limit in any::<bool>(),
        slack in 0usize..48,
    ) {
        let mut w = WireWriter::new();
        let mut reference = ReferenceWriter::default();
        // Half the sessions start just short of the 14-bit pointer limit,
        // so suffixes get written on both sides of it.
        let lead = Op::Filler(if near_limit { 0x4000 - slack } else { 0 });
        for op in std::iter::once(&lead).chain(&ops) {
            match op {
                Op::Name(n, true) => {
                    w.write_name(n);
                    reference.write_name(n, true);
                }
                Op::Name(n, false) => {
                    w.without_compression(|w| w.write_name(n));
                    reference.write_name(n, false);
                }
                Op::Filler(len) => {
                    // 0xc0 bytes: filler that looks like pointers if a
                    // walk ever strays into it.
                    w.write_bytes(&vec![0xc0; *len]);
                    reference.buf.extend(std::iter::repeat_n(0xc0, *len));
                }
            }
        }
        prop_assert_eq!(w.into_bytes(), reference.buf);
    }

    #[test]
    fn canonical_rrset_matches_sort_by_rendering(
        owner in name(),
        ttl in any::<u32>(),
        rdatas in proptest::collection::vec(any_variant_rdata(), 0..=8),
        repeats in proptest::collection::vec(any::<usize>(), 0..=4),
    ) {
        // Duplicates: copies of members, appended after the originals.
        let mut set = rdatas.clone();
        if !rdatas.is_empty() {
            set.extend(repeats.iter().map(|i| rdatas[i % rdatas.len()].clone()));
        }
        for class in [RecordClass::In, RecordClass::Ch] {
            prop_assert_eq!(
                canonical_rrset_wire(&owner, class, ttl, &set),
                sort_by_rendering(&owner, class, ttl, &set)
            );
        }
    }

    #[test]
    fn name_wire_roundtrip(n in name()) {
        let mut w = WireWriter::new();
        w.write_name(&n);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        prop_assert_eq!(r.read_name().unwrap(), n);
    }

    #[test]
    fn name_display_roundtrip(n in name()) {
        let again = Name::parse(&n.to_string_fqdn()).unwrap();
        prop_assert_eq!(again, n);
    }

    #[test]
    fn names_compress_no_worse_than_uncompressed(ns in proptest::collection::vec(name(), 1..=6)) {
        let mut w = WireWriter::new();
        for n in &ns {
            w.write_name(n);
        }
        let compressed = w.into_bytes().len();
        let plain: usize = ns.iter().map(|n| n.wire_len()).sum();
        prop_assert!(compressed <= plain);
        // And everything still decodes in order.
        let mut w = WireWriter::new();
        for n in &ns {
            w.write_name(n);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for n in &ns {
            prop_assert_eq!(&r.read_name().unwrap(), n);
        }
    }

    #[test]
    fn canonical_cmp_is_total_order(a in name(), b in name(), c in name()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.canonical_cmp(&b), b.canonical_cmp(&a).reverse());
        // Reflexivity.
        prop_assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
        // Transitivity (on the ≤ relation).
        if a.canonical_cmp(&b) != Ordering::Greater && b.canonical_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.canonical_cmp(&c), Ordering::Greater);
        }
    }

    #[test]
    fn subdomain_iff_strip_suffix(a in name(), b in name()) {
        prop_assert_eq!(a.is_subdomain_of(&b), a.strip_suffix(&b).is_some());
    }

    #[test]
    fn record_wire_roundtrip(n in name(), ttl in any::<u32>(), rd in rdata()) {
        let rec = Record::new(n, ttl, rd);
        let mut w = WireWriter::new();
        rec.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = Record::read(&mut r).unwrap();
        prop_assert_eq!(back, rec);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn message_wire_roundtrip(
        id in any::<u16>(),
        qname in name(),
        records in proptest::collection::vec((name(), any::<u32>(), rdata()), 0..=6),
        dnssec_ok in any::<bool>(),
    ) {
        let q = Message::query(id, qname, RecordType::Cds, dnssec_ok);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        for (i, (n, ttl, rd)) in records.into_iter().enumerate() {
            let rec = Record::new(n, ttl, rd);
            match i % 3 {
                0 => resp.answers.push(rec),
                1 => resp.authorities.push(rec),
                _ => resp.additionals.push(rec),
            }
        }
        let bytes = resp.to_bytes();
        let back = Message::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..=512)) {
        // Must return Ok or Err, never panic or loop.
        let _ = Message::from_bytes(&bytes);
    }

    #[test]
    fn type_bitmap_roundtrip(codes in proptest::collection::btree_set(any::<u16>(), 0..=40)) {
        let bm = TypeBitmap::from_types(codes.iter().map(|&c| RecordType::from_code(c)));
        let mut out = Vec::new();
        bm.write(&mut out);
        let back = TypeBitmap::read(&out).unwrap();
        prop_assert_eq!(back, bm);
    }

    #[test]
    fn zone_file_roundtrip(
        records in proptest::collection::vec((name(), 1u32..1_000_000, rdata()), 1..=10)
    ) {
        // OPT never appears in zone files; our generator cannot produce
        // it, but Unknown types exercise the \# path.
        let recs: Vec<Record> = records
            .into_iter()
            .map(|(n, ttl, rd)| Record::new(n, ttl, rd))
            .collect();
        let origin = Name::root();
        let text = dns_wire::presentation::to_zone_file(&origin, &recs);
        let back = dns_wire::presentation::parse_zone_file(&text, &origin).unwrap();
        prop_assert_eq!(back, recs);
    }
}
