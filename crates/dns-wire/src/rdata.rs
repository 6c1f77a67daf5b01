//! Typed RDATA for every record type the measurement touches.
//!
//! DNSSEC-related types (`DNSKEY`, `RRSIG`, `DS`, `NSEC`, `NSEC3`, `CDS`,
//! `CDNSKEY`) follow RFC 4034/5155/7344 field-for-field. Unknown types are
//! carried opaquely (RFC 3597). Hex/base64-like blobs are rendered as hex in
//! presentation format (we do not implement base64: the simulated signature
//! scheme is byte-oriented and hex keeps the parser simple and reversible).

use crate::name::Name;
use crate::record::RecordType;
use crate::typebitmap::TypeBitmap;
use crate::wire::{WireError, WireReader, WireWriter};
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNSKEY flags bit for Secure Entry Point (KSK), RFC 4034 §2.1.1.
pub const DNSKEY_FLAG_SEP: u16 = 0x0001;
/// DNSKEY flags bit for Zone Key, RFC 4034 §2.1.1.
pub const DNSKEY_FLAG_ZONE: u16 = 0x0100;
/// DNSKEY flags bit for Revoked, RFC 5011.
pub const DNSKEY_FLAG_REVOKE: u16 = 0x0080;

/// A DNSKEY / CDNSKEY body (RFC 4034 §2, RFC 7344 §3.2). The fields are
/// declared in wire order, so the derived order is the RFC 4034 §6.3
/// canonical RR order, as it is for [`DsData`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DnskeyData {
    pub flags: u16,
    pub protocol: u8,
    pub algorithm: u8,
    pub public_key: Vec<u8>,
}

impl DnskeyData {
    /// Whether the SEP (KSK) flag is set.
    pub fn is_ksk(&self) -> bool {
        self.flags & DNSKEY_FLAG_SEP != 0
    }

    /// Whether the Zone Key flag is set (must be, for DNSSEC use).
    pub fn is_zone_key(&self) -> bool {
        self.flags & DNSKEY_FLAG_ZONE != 0
    }

    /// The RFC 8078 §4 "delete" sentinel CDNSKEY: `0 3 0 0x00`.
    pub fn delete_sentinel() -> Self {
        DnskeyData {
            flags: 0,
            protocol: 3,
            algorithm: 0,
            public_key: vec![0],
        }
    }

    /// True when this is the RFC 8078 deletion request.
    pub fn is_delete(&self) -> bool {
        self.algorithm == 0
    }

    fn write(&self, w: &mut WireWriter) {
        w.write_u16(self.flags);
        w.write_u8(self.protocol);
        w.write_u8(self.algorithm);
        w.write_bytes(&self.public_key);
    }

    fn read(r: &mut WireReader, rdlen: usize) -> Result<Self, WireError> {
        if rdlen < 4 {
            return Err(WireError::Truncated);
        }
        Ok(DnskeyData {
            flags: r.read_u16()?,
            protocol: r.read_u8()?,
            algorithm: r.read_u8()?,
            public_key: r.read_bytes(rdlen - 4)?.to_vec(),
        })
    }

    fn presentation(&self) -> String {
        format!(
            "{} {} {} {}",
            self.flags,
            self.protocol,
            self.algorithm,
            hex(&self.public_key)
        )
    }
}

/// A DS / CDS body (RFC 4034 §5, RFC 7344 §3.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DsData {
    pub key_tag: u16,
    pub algorithm: u8,
    pub digest_type: u8,
    pub digest: Vec<u8>,
}

impl DsData {
    /// The RFC 8078 §4 "delete" sentinel CDS: `0 0 0 00`.
    pub fn delete_sentinel() -> Self {
        DsData {
            key_tag: 0,
            algorithm: 0,
            digest_type: 0,
            digest: vec![0],
        }
    }

    /// True when this is the RFC 8078 deletion request (null algorithm —
    /// "never seen in DS RRs and only has meaning in the context of CDS",
    /// paper §2).
    pub fn is_delete(&self) -> bool {
        self.algorithm == 0
    }

    fn write(&self, w: &mut WireWriter) {
        w.write_u16(self.key_tag);
        w.write_u8(self.algorithm);
        w.write_u8(self.digest_type);
        w.write_bytes(&self.digest);
    }

    fn read(r: &mut WireReader, rdlen: usize) -> Result<Self, WireError> {
        if rdlen < 4 {
            return Err(WireError::Truncated);
        }
        Ok(DsData {
            key_tag: r.read_u16()?,
            algorithm: r.read_u8()?,
            digest_type: r.read_u8()?,
            digest: r.read_bytes(rdlen - 4)?.to_vec(),
        })
    }

    fn presentation(&self) -> String {
        format!(
            "{} {} {} {}",
            self.key_tag,
            self.algorithm,
            self.digest_type,
            hex(&self.digest)
        )
    }
}

/// An RRSIG body (RFC 4034 §3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RrsigData {
    pub type_covered: u16,
    pub algorithm: u8,
    pub labels: u8,
    pub original_ttl: u32,
    pub expiration: u32,
    pub inception: u32,
    pub key_tag: u16,
    pub signer_name: Name,
    pub signature: Vec<u8>,
}

impl RrsigData {
    /// The record type this signature covers.
    pub fn covered(&self) -> RecordType {
        RecordType::from_code(self.type_covered)
    }

    /// Serialize the RDATA *prefix* (everything before the signature) in
    /// canonical form — this is what gets signed along with the RRset.
    pub fn signed_prefix(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(18 + self.signer_name.wire_len());
        out.extend_from_slice(&self.type_covered.to_be_bytes());
        out.push(self.algorithm);
        out.push(self.labels);
        out.extend_from_slice(&self.original_ttl.to_be_bytes());
        out.extend_from_slice(&self.expiration.to_be_bytes());
        out.extend_from_slice(&self.inception.to_be_bytes());
        out.extend_from_slice(&self.key_tag.to_be_bytes());
        self.signer_name.write_uncompressed(&mut out);
        out
    }

    fn write(&self, w: &mut WireWriter) {
        w.write_u16(self.type_covered);
        w.write_u8(self.algorithm);
        w.write_u8(self.labels);
        w.write_u32(self.original_ttl);
        w.write_u32(self.expiration);
        w.write_u32(self.inception);
        w.write_u16(self.key_tag);
        // Signer name must not be compressed (RFC 4034 §3.1.7).
        w.without_compression(|w| w.write_name(&self.signer_name));
        w.write_bytes(&self.signature);
    }

    fn read(r: &mut WireReader, rdlen: usize) -> Result<Self, WireError> {
        let start = r.position();
        if rdlen < 18 {
            return Err(WireError::Truncated);
        }
        let type_covered = r.read_u16()?;
        let algorithm = r.read_u8()?;
        let labels = r.read_u8()?;
        let original_ttl = r.read_u32()?;
        let expiration = r.read_u32()?;
        let inception = r.read_u32()?;
        let key_tag = r.read_u16()?;
        let signer_name = r.read_name()?;
        let consumed = r.position() - start;
        if consumed > rdlen {
            return Err(WireError::Truncated);
        }
        let signature = r.read_bytes(rdlen - consumed)?.to_vec();
        Ok(RrsigData {
            type_covered,
            algorithm,
            labels,
            original_ttl,
            expiration,
            inception,
            key_tag,
            signer_name,
            signature,
        })
    }

    fn presentation(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {}",
            RecordType::from_code(self.type_covered).mnemonic(),
            self.algorithm,
            self.labels,
            self.original_ttl,
            self.expiration,
            self.inception,
            self.key_tag,
            self.signer_name,
            hex(&self.signature)
        )
    }
}

/// An NSEC body (RFC 4034 §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsecData {
    pub next_name: Name,
    pub types: TypeBitmap,
}

/// An NSEC3 body (RFC 5155 §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nsec3Data {
    pub hash_algorithm: u8,
    pub flags: u8,
    pub iterations: u16,
    pub salt: Vec<u8>,
    pub next_hashed: Vec<u8>,
    pub types: TypeBitmap,
}

/// An NSEC3PARAM body (RFC 5155 §4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Nsec3ParamData {
    pub hash_algorithm: u8,
    pub flags: u8,
    pub iterations: u16,
    pub salt: Vec<u8>,
}

/// A CSYNC body (RFC 7477 §2.1): SOA serial gate, flags
/// (0x01 `immediate`, 0x02 `soaminimum`), and the bitmap of types the
/// parent should copy from the child (typically NS, A, AAAA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsyncData {
    pub serial: u32,
    pub flags: u16,
    pub types: TypeBitmap,
}

impl CsyncData {
    /// RFC 7477 flag: process immediately, ignore the serial gate.
    pub const FLAG_IMMEDIATE: u16 = 0x01;
    /// RFC 7477 flag: require child SOA serial ≥ `serial`.
    pub const FLAG_SOAMINIMUM: u16 = 0x02;

    pub fn immediate(&self) -> bool {
        self.flags & Self::FLAG_IMMEDIATE != 0
    }

    pub fn soa_minimum(&self) -> bool {
        self.flags & Self::FLAG_SOAMINIMUM != 0
    }
}

/// An SOA body (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaData {
    pub mname: Name,
    pub rname: Name,
    pub serial: u32,
    pub refresh: u32,
    pub retry: u32,
    pub expire: u32,
    pub minimum: u32,
}

/// Typed record data. The variant determines the record type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    A(Ipv4Addr),
    Aaaa(Ipv6Addr),
    Ns(Name),
    Cname(Name),
    Mx {
        preference: u16,
        exchange: Name,
    },
    Txt(Vec<Vec<u8>>),
    Soa(SoaData),
    Dnskey(DnskeyData),
    Cdnskey(DnskeyData),
    Ds(DsData),
    Cds(DsData),
    Rrsig(RrsigData),
    Nsec(NsecData),
    Nsec3(Nsec3Data),
    Nsec3param(Nsec3ParamData),
    Csync(CsyncData),
    /// EDNS(0) OPT pseudo-record options, opaque.
    Opt(Vec<u8>),
    /// RFC 3597 opaque data for any other type.
    Unknown {
        rtype: u16,
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type this RDATA belongs to.
    pub fn rtype(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Soa(_) => RecordType::Soa,
            RData::Dnskey(_) => RecordType::Dnskey,
            RData::Cdnskey(_) => RecordType::Cdnskey,
            RData::Ds(_) => RecordType::Ds,
            RData::Cds(_) => RecordType::Cds,
            RData::Rrsig(_) => RecordType::Rrsig,
            RData::Nsec(_) => RecordType::Nsec,
            RData::Nsec3(_) => RecordType::Nsec3,
            RData::Nsec3param(_) => RecordType::Nsec3param,
            RData::Csync(_) => RecordType::Csync,
            RData::Opt(_) => RecordType::Opt,
            RData::Unknown { rtype, .. } => RecordType::from_code(*rtype),
        }
    }

    /// Encode the RDATA body (without RDLENGTH).
    pub fn write(&self, w: &mut WireWriter) {
        match self {
            RData::A(a) => w.write_bytes(&a.octets()),
            RData::Aaaa(a) => w.write_bytes(&a.octets()),
            // NS/CNAME/MX names may be compressed (RFC 1035-era types).
            RData::Ns(n) => w.write_name(n),
            RData::Cname(n) => w.write_name(n),
            RData::Mx {
                preference,
                exchange,
            } => {
                w.write_u16(*preference);
                w.write_name(exchange);
            }
            RData::Txt(strings) => {
                for s in strings {
                    w.write_u8(s.len() as u8);
                    w.write_bytes(s);
                }
            }
            RData::Soa(soa) => {
                w.write_name(&soa.mname);
                w.write_name(&soa.rname);
                w.write_u32(soa.serial);
                w.write_u32(soa.refresh);
                w.write_u32(soa.retry);
                w.write_u32(soa.expire);
                w.write_u32(soa.minimum);
            }
            RData::Dnskey(k) | RData::Cdnskey(k) => k.write(w),
            RData::Ds(d) | RData::Cds(d) => d.write(w),
            RData::Rrsig(s) => s.write(w),
            RData::Nsec(n) => {
                // NSEC next-name must not be compressed (RFC 4034 §4.1.1).
                w.without_compression(|w| w.write_name(&n.next_name));
                let mut bm = Vec::new();
                n.types.write(&mut bm);
                w.write_bytes(&bm);
            }
            RData::Nsec3(n) => {
                w.write_u8(n.hash_algorithm);
                w.write_u8(n.flags);
                w.write_u16(n.iterations);
                w.write_u8(n.salt.len() as u8);
                w.write_bytes(&n.salt);
                w.write_u8(n.next_hashed.len() as u8);
                w.write_bytes(&n.next_hashed);
                let mut bm = Vec::new();
                n.types.write(&mut bm);
                w.write_bytes(&bm);
            }
            RData::Nsec3param(p) => {
                w.write_u8(p.hash_algorithm);
                w.write_u8(p.flags);
                w.write_u16(p.iterations);
                w.write_u8(p.salt.len() as u8);
                w.write_bytes(&p.salt);
            }
            RData::Csync(c) => {
                w.write_u32(c.serial);
                w.write_u16(c.flags);
                let mut bm = Vec::new();
                c.types.write(&mut bm);
                w.write_bytes(&bm);
            }
            RData::Opt(data) => w.write_bytes(data),
            RData::Unknown { data, .. } => w.write_bytes(data),
        }
    }

    /// Decode RDATA of `rtype` spanning exactly `rdlen` octets.
    pub fn read(r: &mut WireReader, rtype: RecordType, rdlen: usize) -> Result<Self, WireError> {
        let start = r.position();
        let rd = match rtype {
            RecordType::A => {
                if rdlen != 4 {
                    return Err(WireError::BadValue("A rdlength"));
                }
                let b: [u8; 4] = r
                    .read_bytes(4)?
                    .try_into()
                    .map_err(|_| WireError::BadValue("A rdlength"))?;
                RData::A(Ipv4Addr::from(b))
            }
            RecordType::Aaaa => {
                if rdlen != 16 {
                    return Err(WireError::BadValue("AAAA rdlength"));
                }
                let b = r.read_bytes(16)?;
                let mut o = [0u8; 16];
                o.copy_from_slice(b);
                RData::Aaaa(Ipv6Addr::from(o))
            }
            RecordType::Ns => RData::Ns(r.read_name()?),
            RecordType::Cname => RData::Cname(r.read_name()?),
            RecordType::Mx => RData::Mx {
                preference: r.read_u16()?,
                exchange: r.read_name()?,
            },
            RecordType::Txt => {
                let mut strings = Vec::new();
                while r.position() - start < rdlen {
                    let len = r.read_u8()? as usize;
                    strings.push(r.read_bytes(len)?.to_vec());
                }
                RData::Txt(strings)
            }
            RecordType::Soa => RData::Soa(SoaData {
                mname: r.read_name()?,
                rname: r.read_name()?,
                serial: r.read_u32()?,
                refresh: r.read_u32()?,
                retry: r.read_u32()?,
                expire: r.read_u32()?,
                minimum: r.read_u32()?,
            }),
            RecordType::Dnskey => RData::Dnskey(DnskeyData::read(r, rdlen)?),
            RecordType::Cdnskey => RData::Cdnskey(DnskeyData::read(r, rdlen)?),
            RecordType::Ds => RData::Ds(DsData::read(r, rdlen)?),
            RecordType::Cds => RData::Cds(DsData::read(r, rdlen)?),
            RecordType::Rrsig => RData::Rrsig(RrsigData::read(r, rdlen)?),
            RecordType::Nsec => {
                let next_name = r.read_name()?;
                let consumed = r.position() - start;
                if consumed > rdlen {
                    return Err(WireError::Truncated);
                }
                let types = TypeBitmap::read(r.read_bytes(rdlen - consumed)?)?;
                RData::Nsec(NsecData { next_name, types })
            }
            RecordType::Nsec3 => {
                if rdlen < 5 {
                    return Err(WireError::Truncated);
                }
                let hash_algorithm = r.read_u8()?;
                let flags = r.read_u8()?;
                let iterations = r.read_u16()?;
                let salt_len = r.read_u8()? as usize;
                let salt = r.read_bytes(salt_len)?.to_vec();
                let hash_len = r.read_u8()? as usize;
                let next_hashed = r.read_bytes(hash_len)?.to_vec();
                let consumed = r.position() - start;
                if consumed > rdlen {
                    return Err(WireError::Truncated);
                }
                let types = TypeBitmap::read(r.read_bytes(rdlen - consumed)?)?;
                RData::Nsec3(Nsec3Data {
                    hash_algorithm,
                    flags,
                    iterations,
                    salt,
                    next_hashed,
                    types,
                })
            }
            RecordType::Nsec3param => {
                if rdlen < 5 {
                    return Err(WireError::Truncated);
                }
                let hash_algorithm = r.read_u8()?;
                let flags = r.read_u8()?;
                let iterations = r.read_u16()?;
                let salt_len = r.read_u8()? as usize;
                let salt = r.read_bytes(salt_len)?.to_vec();
                RData::Nsec3param(Nsec3ParamData {
                    hash_algorithm,
                    flags,
                    iterations,
                    salt,
                })
            }
            RecordType::Csync => {
                if rdlen < 6 {
                    return Err(WireError::Truncated);
                }
                let serial = r.read_u32()?;
                let flags = r.read_u16()?;
                let types = TypeBitmap::read(r.read_bytes(rdlen - 6)?)?;
                RData::Csync(CsyncData {
                    serial,
                    flags,
                    types,
                })
            }
            RecordType::Opt => RData::Opt(r.read_bytes(rdlen)?.to_vec()),
            other => RData::Unknown {
                rtype: other.code(),
                data: r.read_bytes(rdlen)?.to_vec(),
            },
        };
        Ok(rd)
    }

    /// Presentation-format rendering of the RDATA fields.
    pub fn presentation(&self) -> String {
        match self {
            RData::A(a) => a.to_string(),
            RData::Aaaa(a) => a.to_string(),
            RData::Ns(n) => n.to_string(),
            RData::Cname(n) => n.to_string(),
            RData::Mx {
                preference,
                exchange,
            } => format!("{preference} {exchange}"),
            RData::Txt(strings) => strings
                .iter()
                .map(|s| format!("\"{}\"", txt_escape(s)))
                .collect::<Vec<_>>()
                .join(" "),
            RData::Soa(s) => format!(
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Dnskey(k) | RData::Cdnskey(k) => k.presentation(),
            RData::Ds(d) | RData::Cds(d) => d.presentation(),
            RData::Rrsig(s) => s.presentation(),
            RData::Nsec(n) => {
                if n.types.is_empty() {
                    n.next_name.to_string()
                } else {
                    format!("{} {}", n.next_name, n.types.presentation())
                }
            }
            RData::Nsec3(n) => format!(
                "{} {} {} {} {}{}",
                n.hash_algorithm,
                n.flags,
                n.iterations,
                hex(&n.salt),
                hex(&n.next_hashed),
                if n.types.is_empty() {
                    String::new()
                } else {
                    format!(" {}", n.types.presentation())
                }
            ),
            RData::Nsec3param(p) => format!(
                "{} {} {} {}",
                p.hash_algorithm,
                p.flags,
                p.iterations,
                hex(&p.salt)
            ),
            RData::Csync(c) => {
                if c.types.is_empty() {
                    format!("{} {}", c.serial, c.flags)
                } else {
                    format!("{} {} {}", c.serial, c.flags, c.types.presentation())
                }
            }
            RData::Opt(data) => format!("\\# {} {}", data.len(), hex(data)),
            RData::Unknown { data, .. } => {
                // RFC 3597 generic encoding.
                if data.is_empty() {
                    "\\# 0".to_string()
                } else {
                    format!("\\# {} {}", data.len(), hex(data))
                }
            }
        }
    }
}

/// Lowercase hex without separators; empty input renders as `-` so
/// presentation fields never vanish (parsers map `-` back to empty).
pub fn hex(b: &[u8]) -> String {
    if b.is_empty() {
        return "-".to_string();
    }
    let mut s = String::with_capacity(b.len() * 2);
    for byte in b {
        s.push_str(&format!("{byte:02x}"));
    }
    s
}

/// Parse lowercase/uppercase hex into bytes; `-` is the empty blob.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nib = |b: u8| (b as char).to_digit(16).map(|v| v as u8);
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| match pair {
            [hi, lo] => Some(nib(*hi)? << 4 | nib(*lo)?),
            _ => None,
        })
        .collect()
}

fn txt_escape(s: &[u8]) -> String {
    let mut out = String::new();
    for &b in s {
        match b {
            b'"' | b'\\' => {
                out.push('\\');
                out.push(b as char);
            }
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\{:03}", b)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name;
    use crate::record::Record;

    fn roundtrip(rd: RData) {
        let rec = Record::new(name!("x.example"), 300, rd);
        let mut w = WireWriter::new();
        rec.write(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = Record::read(&mut r).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn roundtrip_address_types() {
        roundtrip(RData::A(Ipv4Addr::new(192, 0, 2, 7)));
        roundtrip(RData::Aaaa("2001:db8::7".parse().unwrap()));
    }

    #[test]
    fn roundtrip_name_types() {
        roundtrip(RData::Ns(name!("ns1.example.net")));
        roundtrip(RData::Cname(name!("target.example.org")));
        roundtrip(RData::Mx {
            preference: 10,
            exchange: name!("mail.example.com"),
        });
    }

    #[test]
    fn roundtrip_txt() {
        roundtrip(RData::Txt(vec![b"hello world".to_vec(), b"x".to_vec()]));
        roundtrip(RData::Txt(vec![]));
    }

    #[test]
    fn roundtrip_soa() {
        roundtrip(RData::Soa(SoaData {
            mname: name!("ns1.example.com"),
            rname: name!("hostmaster.example.com"),
            serial: 2025040100,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }));
    }

    #[test]
    fn roundtrip_dnssec_types() {
        roundtrip(RData::Dnskey(DnskeyData {
            flags: 257,
            protocol: 3,
            algorithm: 13,
            public_key: vec![1, 2, 3, 4, 5, 6, 7, 8],
        }));
        roundtrip(RData::Cdnskey(DnskeyData::delete_sentinel()));
        roundtrip(RData::Ds(DsData {
            key_tag: 12345,
            algorithm: 13,
            digest_type: 2,
            digest: vec![0xab; 32],
        }));
        roundtrip(RData::Cds(DsData::delete_sentinel()));
        roundtrip(RData::Rrsig(RrsigData {
            type_covered: RecordType::Cds.code(),
            algorithm: 13,
            labels: 2,
            original_ttl: 3600,
            expiration: 1_800_000_000,
            inception: 1_700_000_000,
            key_tag: 4242,
            signer_name: name!("example.com"),
            signature: vec![9; 32],
        }));
        roundtrip(RData::Nsec(NsecData {
            next_name: name!("b.example"),
            types: TypeBitmap::from_types([RecordType::A, RecordType::Rrsig]),
        }));
        roundtrip(RData::Nsec3(Nsec3Data {
            hash_algorithm: 1,
            flags: 1,
            iterations: 0,
            salt: vec![0xde, 0xad],
            next_hashed: vec![7; 20],
            types: TypeBitmap::from_types([RecordType::Ns, RecordType::Ds]),
        }));
        roundtrip(RData::Nsec3param(Nsec3ParamData {
            hash_algorithm: 1,
            flags: 0,
            iterations: 0,
            salt: vec![],
        }));
    }

    #[test]
    fn roundtrip_csync() {
        roundtrip(RData::Csync(CsyncData {
            serial: 2025040100,
            flags: CsyncData::FLAG_IMMEDIATE | CsyncData::FLAG_SOAMINIMUM,
            types: TypeBitmap::from_types([RecordType::Ns, RecordType::A, RecordType::Aaaa]),
        }));
        roundtrip(RData::Csync(CsyncData {
            serial: 0,
            flags: 0,
            types: TypeBitmap::new(),
        }));
    }

    #[test]
    fn csync_flags() {
        let c = CsyncData {
            serial: 1,
            flags: CsyncData::FLAG_IMMEDIATE,
            types: TypeBitmap::new(),
        };
        assert!(c.immediate());
        assert!(!c.soa_minimum());
    }

    #[test]
    fn roundtrip_unknown_type() {
        roundtrip(RData::Unknown {
            rtype: 63,
            data: vec![1, 2, 3],
        });
    }

    #[test]
    fn delete_sentinels_match_rfc8078() {
        let cds = DsData::delete_sentinel();
        assert!(cds.is_delete());
        assert_eq!(
            (
                cds.key_tag,
                cds.algorithm,
                cds.digest_type,
                cds.digest.as_slice()
            ),
            (0, 0, 0, &[0u8][..])
        );
        let cdnskey = DnskeyData::delete_sentinel();
        assert!(cdnskey.is_delete());
        assert_eq!(cdnskey.protocol, 3);
    }

    #[test]
    fn a_rdlength_enforced() {
        // Record with A type and 3-byte RDATA must be rejected.
        let mut bytes = Vec::new();
        name!("x.example").write_uncompressed(&mut bytes);
        bytes.extend_from_slice(&1u16.to_be_bytes()); // type A
        bytes.extend_from_slice(&1u16.to_be_bytes()); // class IN
        bytes.extend_from_slice(&300u32.to_be_bytes());
        bytes.extend_from_slice(&3u16.to_be_bytes()); // rdlength 3
        bytes.extend_from_slice(&[192, 0, 2]);
        let mut r = WireReader::new(&bytes);
        assert!(Record::read(&mut r).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let b = vec![0x00, 0xff, 0x10, 0xab];
        assert_eq!(unhex(&hex(&b)).unwrap(), b);
        assert_eq!(unhex("abc"), None);
        assert_eq!(unhex("zz"), None);
        // Empty blobs use the '-' sentinel.
        assert_eq!(hex(&[]), "-");
        assert_eq!(unhex("-"), Some(vec![]));
    }

    #[test]
    fn ksk_zsk_flags() {
        let ksk = DnskeyData {
            flags: 257,
            protocol: 3,
            algorithm: 13,
            public_key: vec![1],
        };
        assert!(ksk.is_ksk() && ksk.is_zone_key());
        let zsk = DnskeyData {
            flags: 256,
            ..ksk.clone()
        };
        assert!(!zsk.is_ksk() && zsk.is_zone_key());
    }

    #[test]
    fn rrsig_signed_prefix_layout() {
        let sig = RrsigData {
            type_covered: 1,
            algorithm: 13,
            labels: 2,
            original_ttl: 300,
            expiration: 20,
            inception: 10,
            key_tag: 7,
            signer_name: name!("example"),
            signature: vec![1, 2, 3],
        };
        let p = sig.signed_prefix();
        // 18 fixed bytes + "example." wire name (9 bytes).
        assert_eq!(p.len(), 18 + 9);
        assert_eq!(&p[0..2], &[0, 1]);
        assert_eq!(p[2], 13);
        // Signature itself must not be part of the signed prefix.
        assert!(!p.windows(3).any(|w| w == [1, 2, 3]));
    }
}
