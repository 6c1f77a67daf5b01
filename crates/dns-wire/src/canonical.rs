//! Canonical form and ordering of RRs (RFC 4034 §6) — the input to DNSSEC
//! signing and verification.
//!
//! Canonical form of an RR: owner name lowercased and uncompressed, TTL set
//! to the RRSIG's Original TTL, names inside RDATA (for the RFC 3597 §4
//! "well-known" types) lowercased and uncompressed. Canonical ordering of an
//! RRset sorts RRs by their canonical RDATA treated as an octet string.

use crate::name::Name;
use crate::rdata::RData;
use crate::record::RecordClass;
use crate::wire::WireWriter;

/// Canonical RDATA octets for an RDATA value: uncompressed, names already
/// lowercase (enforced by [`Name`]'s construction).
pub fn canonical_rdata(rdata: &RData) -> Vec<u8> {
    let mut w = WireWriter::new();
    // Compression never applies outside a full message; `WireWriter` only
    // compresses against names previously written to the *same* buffer, and
    // each RDATA is rendered into a fresh writer, so the output here is
    // uncompressed as required.
    w.without_compression(|w| rdata.write(w));
    w.into_bytes()
}

/// Serialise a full RRset in canonical order with the RRSIG original TTL,
/// concatenating the canonical wire form of each RR
/// (owner | type | class | TTL | RDLENGTH | RDATA). This is the exact byte
/// string that RFC 4034 §3.1.8.1 appends after the RRSIG RDATA prefix when
/// computing a signature.
///
/// Each RDATA is rendered once, back to back into one buffer; the sort
/// (stable, so of equal RDATAs the first given survives the dedup)
/// compares spans of that buffer.
pub fn canonical_rrset_wire(
    owner: &Name,
    class: RecordClass,
    original_ttl: u32,
    rdatas: &[RData],
) -> Vec<u8> {
    let mut w = WireWriter::new();
    // (start, end, type code) of each RDATA's canonical octets in `w`.
    let mut spans: Vec<(usize, usize, u16)> = Vec::with_capacity(rdatas.len());
    w.without_compression(|w| {
        for rd in rdatas {
            let start = w.len();
            rd.write(w);
            spans.push((start, w.len(), rd.rtype().code()));
        }
    });
    let rendered = w.into_bytes();
    let octets = |&(start, end, _): &(usize, usize, u16)| rendered.get(start..end).unwrap_or(&[]);
    spans.sort_by(|a, b| octets(a).cmp(octets(b)));
    spans.dedup_by(|a, b| octets(a) == octets(b));

    let owner = owner.wire_bytes();
    let rdata_len: usize = spans.iter().map(|s| octets(s).len()).sum();
    let mut out = Vec::with_capacity(spans.len() * (owner.len() + 10) + rdata_len);
    for span in &spans {
        let rdata = octets(span);
        out.extend_from_slice(owner);
        out.extend_from_slice(&span.2.to_be_bytes());
        out.extend_from_slice(&class.code().to_be_bytes());
        out.extend_from_slice(&original_ttl.to_be_bytes());
        out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
        out.extend_from_slice(rdata);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name;
    use std::net::Ipv4Addr;

    #[test]
    fn canonical_wire_is_order_independent() {
        let owner = name!("example.com");
        let a = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        let b = RData::A(Ipv4Addr::new(192, 0, 2, 2));
        let w1 = canonical_rrset_wire(&owner, RecordClass::In, 300, &[a.clone(), b.clone()]);
        let w2 = canonical_rrset_wire(&owner, RecordClass::In, 300, &[b, a]);
        assert_eq!(w1, w2);
    }

    #[test]
    fn canonical_wire_dedupes() {
        let owner = name!("example.com");
        let a = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        let w1 = canonical_rrset_wire(&owner, RecordClass::In, 300, &[a.clone(), a.clone()]);
        let w2 = canonical_rrset_wire(&owner, RecordClass::In, 300, &[a]);
        assert_eq!(w1, w2);
    }

    #[test]
    fn ttl_override_changes_bytes() {
        let owner = name!("example.com");
        let a = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        let w1 = canonical_rrset_wire(&owner, RecordClass::In, 300, std::slice::from_ref(&a));
        let w2 = canonical_rrset_wire(&owner, RecordClass::In, 600, &[a]);
        assert_ne!(w1, w2);
    }

    #[test]
    fn rdata_names_uncompressed_and_lowercase() {
        let rd = RData::Ns(name!("NS1.Example.COM"));
        let bytes = canonical_rdata(&rd);
        assert_eq!(bytes, b"\x03ns1\x07example\x03com\x00".to_vec());
    }

    #[test]
    fn rdata_ordering_is_bytewise() {
        // 10.0.0.1 sorts before 192.0.2.1 whatever the input order.
        let a = RData::A(Ipv4Addr::new(10, 0, 0, 1));
        let b = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        let w = canonical_rrset_wire(&name!("x"), RecordClass::In, 0, &[b, a]);
        assert_eq!(&w[13..17], &[10, 0, 0, 1]);
        assert_eq!(&w[30..34], &[192, 0, 2, 1]);
    }

    #[test]
    fn canonical_record_layout() {
        let a = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        let w = canonical_rrset_wire(&name!("a.example"), RecordClass::In, 300, &[a]);
        // owner (11) + type(2)+class(2)+ttl(4)+rdlen(2)+rdata(4)
        assert_eq!(w.len(), 11 + 10 + 4);
        // TTL replaced by original TTL 300.
        assert_eq!(&w[15..19], &300u32.to_be_bytes());
        // RDLENGTH = 4.
        assert_eq!(&w[19..21], &4u16.to_be_bytes());
    }
}
