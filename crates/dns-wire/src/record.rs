//! Resource records, record types/classes, and RRsets.

use crate::name::Name;
use crate::rdata::RData;
use crate::wire::{WireError, WireReader, WireWriter};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// DNS record types. Values per the IANA registry; unknown values are
/// carried verbatim (RFC 3597).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    A,
    Ns,
    Cname,
    Soa,
    Mx,
    Txt,
    Aaaa,
    Opt,
    Ds,
    Rrsig,
    Nsec,
    Dnskey,
    Nsec3,
    Nsec3param,
    Cds,
    Cdnskey,
    /// CSYNC (RFC 7477) — the child-to-parent synchronisation record the
    /// paper's conclusion names as future work.
    Csync,
    /// Any other type, carried by value.
    Unknown(u16),
}

impl RecordType {
    /// Numeric type code.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Opt => 41,
            RecordType::Ds => 43,
            RecordType::Rrsig => 46,
            RecordType::Nsec => 47,
            RecordType::Dnskey => 48,
            RecordType::Nsec3 => 50,
            RecordType::Nsec3param => 51,
            RecordType::Cds => 59,
            RecordType::Cdnskey => 60,
            RecordType::Csync => 62,
            RecordType::Unknown(v) => v,
        }
    }

    /// From a numeric type code.
    pub fn from_code(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            41 => RecordType::Opt,
            43 => RecordType::Ds,
            46 => RecordType::Rrsig,
            47 => RecordType::Nsec,
            48 => RecordType::Dnskey,
            50 => RecordType::Nsec3,
            51 => RecordType::Nsec3param,
            59 => RecordType::Cds,
            60 => RecordType::Cdnskey,
            62 => RecordType::Csync,
            other => RecordType::Unknown(other),
        }
    }

    /// Mnemonic for presentation format; unknown types use the RFC 3597
    /// `TYPE12345` form.
    pub fn mnemonic(self) -> String {
        match self {
            RecordType::A => "A".into(),
            RecordType::Ns => "NS".into(),
            RecordType::Cname => "CNAME".into(),
            RecordType::Soa => "SOA".into(),
            RecordType::Mx => "MX".into(),
            RecordType::Txt => "TXT".into(),
            RecordType::Aaaa => "AAAA".into(),
            RecordType::Opt => "OPT".into(),
            RecordType::Ds => "DS".into(),
            RecordType::Rrsig => "RRSIG".into(),
            RecordType::Nsec => "NSEC".into(),
            RecordType::Dnskey => "DNSKEY".into(),
            RecordType::Nsec3 => "NSEC3".into(),
            RecordType::Nsec3param => "NSEC3PARAM".into(),
            RecordType::Cds => "CDS".into(),
            RecordType::Cdnskey => "CDNSKEY".into(),
            RecordType::Csync => "CSYNC".into(),
            RecordType::Unknown(v) => format!("TYPE{v}"),
        }
    }

    /// Parse a presentation-format mnemonic (including `TYPEnnn`).
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        let up = s.to_ascii_uppercase();
        Some(match up.as_str() {
            "A" => RecordType::A,
            "NS" => RecordType::Ns,
            "CNAME" => RecordType::Cname,
            "SOA" => RecordType::Soa,
            "MX" => RecordType::Mx,
            "TXT" => RecordType::Txt,
            "AAAA" => RecordType::Aaaa,
            "OPT" => RecordType::Opt,
            "DS" => RecordType::Ds,
            "RRSIG" => RecordType::Rrsig,
            "NSEC" => RecordType::Nsec,
            "DNSKEY" => RecordType::Dnskey,
            "NSEC3" => RecordType::Nsec3,
            "NSEC3PARAM" => RecordType::Nsec3param,
            "CDS" => RecordType::Cds,
            "CDNSKEY" => RecordType::Cdnskey,
            "CSYNC" => RecordType::Csync,
            _ => {
                let n = up.strip_prefix("TYPE")?.parse::<u16>().ok()?;
                RecordType::from_code(n)
            }
        })
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// DNS classes. Only `IN` matters for this work; others are carried by
/// value for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    In,
    Ch,
    Hs,
    Any,
    Unknown(u16),
}

impl RecordClass {
    pub fn code(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Ch => 3,
            RecordClass::Hs => 4,
            RecordClass::Any => 255,
            RecordClass::Unknown(v) => v,
        }
    }

    pub fn from_code(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            3 => RecordClass::Ch,
            4 => RecordClass::Hs,
            255 => RecordClass::Any,
            other => RecordClass::Unknown(other),
        }
    }
}

impl fmt::Display for RecordClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordClass::In => write!(f, "IN"),
            RecordClass::Ch => write!(f, "CH"),
            RecordClass::Hs => write!(f, "HS"),
            RecordClass::Any => write!(f, "ANY"),
            RecordClass::Unknown(v) => write!(f, "CLASS{v}"),
        }
    }
}

/// A single resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub name: Name,
    pub class: RecordClass,
    pub ttl: u32,
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor for class `IN`.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: RecordClass::In,
            ttl,
            rdata,
        }
    }

    /// The record's type, derived from its RDATA.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }

    /// Encode into `w`, including the RDLENGTH backpatch.
    pub fn write(&self, w: &mut WireWriter) {
        write_record(w, &self.name, self.class, self.ttl, &self.rdata);
    }

    /// Decode a record at the reader's cursor.
    pub fn read(r: &mut WireReader) -> Result<Record, WireError> {
        let name = r.read_name()?;
        let rtype = RecordType::from_code(r.read_u16()?);
        let class = RecordClass::from_code(r.read_u16()?);
        let ttl = r.read_u32()?;
        let rdlen = r.read_u16()? as usize;
        let end = r.position() + rdlen;
        if end > r.position() + r.remaining() {
            return Err(WireError::Truncated);
        }
        let rdata = RData::read(r, rtype, rdlen)?;
        if r.position() != end {
            return Err(WireError::RdataLength {
                expected: rdlen,
                actual: r.position() + rdlen - end,
            });
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }
}

/// Encode one record from borrowed parts (an RRset member needs no owned
/// [`Record`] to go on the wire), including the RDLENGTH backpatch.
pub fn write_record(w: &mut WireWriter, name: &Name, class: RecordClass, ttl: u32, rdata: &RData) {
    w.write_name(name);
    w.write_u16(rdata.rtype().code());
    w.write_u16(class.code());
    w.write_u32(ttl);
    let len_at = w.len();
    w.write_u16(0);
    let start = w.len();
    rdata.write(w);
    let rdlen = w.len() - start;
    w.patch_u16(len_at, rdlen as u16);
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name,
            self.ttl,
            self.class,
            self.rtype().mnemonic(),
            self.rdata.presentation()
        )
    }
}

/// An RRset's RDATAs: an immutable body, allocated once at its final
/// size and shared by every RRset with the same contents (every zone's
/// SOA, an operator's NS pair at each apex and at its delegation, a
/// zone's CDS in its signal records). Editing a set builds a new body;
/// other holders of the old one never see the edit.
#[derive(Clone, PartialEq, Eq)]
pub struct Rdatas(Arc<[RData]>);

impl Rdatas {
    /// Whether `a` and `b` are one allocation, not merely equal.
    pub fn ptr_eq(a: &Rdatas, b: &Rdatas) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The body's address: one key per allocation, for counting shared
    /// bodies once.
    pub fn as_ptr(&self) -> *const RData {
        self.0.as_ptr()
    }
}

impl Deref for Rdatas {
    type Target = [RData];

    fn deref(&self) -> &[RData] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Rdatas {
    type Item = &'a RData;
    type IntoIter = std::slice::Iter<'a, RData>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl From<Vec<RData>> for Rdatas {
    fn from(v: Vec<RData>) -> Self {
        Rdatas(v.into())
    }
}

impl FromIterator<RData> for Rdatas {
    fn from_iter<I: IntoIterator<Item = RData>>(iter: I) -> Self {
        Rdatas(iter.into_iter().collect())
    }
}

impl fmt::Debug for Rdatas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An RRset: all records sharing (name, class, type). DNSSEC signs RRsets,
/// not individual records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrSet {
    pub name: Name,
    pub class: RecordClass,
    pub rtype: RecordType,
    pub ttl: u32,
    pub rdatas: Rdatas,
}

impl RrSet {
    /// Group records into RRsets, preserving first-seen order of sets.
    /// Each set's RDATAs are collected first and then get their body in
    /// one allocation.
    pub fn group(records: &[Record]) -> Vec<RrSet> {
        // (first record of the set, min TTL, RDATAs)
        let mut sets: Vec<(&Record, u32, Vec<RData>)> = Vec::new();
        for rec in records {
            let same = |first: &&Record| {
                first.name == rec.name && first.class == rec.class && first.rtype() == rec.rtype()
            };
            match sets.iter_mut().find(|(first, ..)| same(first)) {
                Some((_, ttl, rdatas)) => {
                    *ttl = (*ttl).min(rec.ttl);
                    if !rdatas.contains(&rec.rdata) {
                        rdatas.push(rec.rdata.clone());
                    }
                }
                None => sets.push((rec, rec.ttl, vec![rec.rdata.clone()])),
            }
        }
        sets.into_iter()
            .map(|(first, ttl, rdatas)| RrSet {
                name: first.name.clone(),
                class: first.class,
                rtype: first.rtype(),
                ttl,
                rdatas: rdatas.into(),
            })
            .collect()
    }

    /// Expand back into individual records.
    pub fn records(&self) -> Vec<Record> {
        self.rdatas
            .iter()
            .map(|rd| Record {
                name: self.name.clone(),
                class: self.class,
                ttl: self.ttl,
                rdata: rd.clone(),
            })
            .collect()
    }

    /// Set-equality of RDATA contents, ignoring order and TTL. This is the
    /// comparison the paper's consistency checks use: "all NSes return the
    /// same CDS RRs".
    pub fn same_rdatas(&self, other: &RrSet) -> bool {
        if self.rtype != other.rtype || self.rdatas.len() != other.rdatas.len() {
            return false;
        }
        self.rdatas.iter().all(|r| other.rdatas.contains(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name;
    use std::net::Ipv4Addr;

    #[test]
    fn type_codes_roundtrip() {
        for code in [
            1u16, 2, 5, 6, 15, 16, 28, 41, 43, 46, 47, 48, 50, 51, 59, 60, 61, 62, 9999,
        ] {
            assert_eq!(RecordType::from_code(code).code(), code);
        }
    }

    #[test]
    fn cds_and_cdnskey_codes() {
        // RFC 7344 assignments, load-bearing for this paper.
        assert_eq!(RecordType::Cds.code(), 59);
        assert_eq!(RecordType::Cdnskey.code(), 60);
    }

    #[test]
    fn mnemonic_roundtrip() {
        for t in [
            RecordType::A,
            RecordType::Ns,
            RecordType::Soa,
            RecordType::Dnskey,
            RecordType::Rrsig,
            RecordType::Nsec,
            RecordType::Nsec3,
            RecordType::Cds,
            RecordType::Cdnskey,
            RecordType::Unknown(4242),
        ] {
            assert_eq!(RecordType::from_mnemonic(&t.mnemonic()), Some(t));
        }
        assert_eq!(RecordType::from_mnemonic("bogus"), None);
    }

    #[test]
    fn record_wire_roundtrip() {
        let rec = Record::new(
            name!("www.example.com"),
            3600,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        );
        let mut w = WireWriter::new();
        rec.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = Record::read(&mut r).unwrap();
        assert_eq!(back, rec);
        assert!(r.is_empty());
    }

    #[test]
    fn rrset_grouping_and_equality() {
        let a = Record::new(name!("x.test"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        let b = Record::new(name!("x.test"), 200, RData::A(Ipv4Addr::new(192, 0, 2, 2)));
        let c = Record::new(name!("x.test"), 300, RData::Ns(name!("ns.test")));
        let sets = RrSet::group(&[a, b, c]);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].rdatas.len(), 2);
        assert_eq!(sets[0].ttl, 200); // min TTL
        let mut reordered = sets[0].clone();
        reordered.rdatas = sets[0].rdatas.iter().rev().cloned().collect();
        assert!(sets[0].same_rdatas(&reordered));
        assert!(!sets[0].same_rdatas(&sets[1]));
    }

    #[test]
    fn grouping_dedupes_identical_rdata() {
        let a = Record::new(name!("x.test"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        let sets = RrSet::group(&[a.clone(), a]);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].rdatas.len(), 1);
    }
}
