//! DNS messages (RFC 1035 §4) with EDNS(0) (RFC 6891).

use crate::name::Name;
use crate::record::{Record, RecordClass, RecordType};
use crate::wire::{WireError, WireReader};

pub use crate::compress::{MessageEncoder, Section};

/// Query/response operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    Query,
    Notify,
    Update,
    Unknown(u8),
}

impl Opcode {
    pub fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(v) => v,
        }
    }

    pub fn from_code(v: u8) -> Self {
        match v {
            0 => Opcode::Query,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }
}

/// Response codes, including the common server-misbehaviour ones the paper
/// observes (FORMERR/SERVFAIL/NOTIMP/REFUSED on CDS queries, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    NoError,
    FormErr,
    ServFail,
    NxDomain,
    NotImp,
    Refused,
    Unknown(u8),
}

impl Rcode {
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(v) => v,
        }
    }

    pub fn from_code(v: u8) -> Self {
        match v {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Unknown(other),
        }
    }

    /// Whether this rcode indicates the server errored rather than giving a
    /// definitive answer (the paper's "failed to respond, or returned an
    /// error response, when queried about these RRs").
    pub fn is_error(self) -> bool {
        !matches!(self, Rcode::NoError | Rcode::NxDomain)
    }
}

/// Header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// QR: true for responses.
    pub response: bool,
    pub opcode_bits: u8,
    /// AA: authoritative answer.
    pub authoritative: bool,
    /// TC: truncated (retry over TCP).
    pub truncated: bool,
    /// RD: recursion desired.
    pub recursion_desired: bool,
    /// RA: recursion available.
    pub recursion_available: bool,
    /// AD: authentic data (DNSSEC-validated by a resolver).
    pub authentic_data: bool,
    /// CD: checking disabled.
    pub checking_disabled: bool,
    pub rcode_bits: u8,
}

impl Flags {
    /// The flags a response starts from: QR set and the response code.
    pub fn response(rcode: Rcode) -> Self {
        Flags {
            response: true,
            rcode_bits: rcode.code(),
            ..Flags::default()
        }
    }

    pub(crate) fn to_u16(self) -> u16 {
        (self.response as u16) << 15
            | (self.opcode_bits as u16 & 0xf) << 11
            | (self.authoritative as u16) << 10
            | (self.truncated as u16) << 9
            | (self.recursion_desired as u16) << 8
            | (self.recursion_available as u16) << 7
            | (self.authentic_data as u16) << 5
            | (self.checking_disabled as u16) << 4
            | (self.rcode_bits as u16 & 0xf)
    }

    fn from_u16(v: u16) -> Self {
        Flags {
            response: v & 0x8000 != 0,
            opcode_bits: ((v >> 11) & 0xf) as u8,
            authoritative: v & 0x0400 != 0,
            truncated: v & 0x0200 != 0,
            recursion_desired: v & 0x0100 != 0,
            recursion_available: v & 0x0080 != 0,
            authentic_data: v & 0x0020 != 0,
            checking_disabled: v & 0x0010 != 0,
            rcode_bits: (v & 0xf) as u8,
        }
    }
}

/// Message header (ID + flags + section counts are derived at encode time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    pub id: u16,
    pub flags: Flags,
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub name: Name,
    pub rtype: RecordType,
    pub class: RecordClass,
}

impl Question {
    pub fn new(name: Name, rtype: RecordType) -> Self {
        Question {
            name,
            rtype,
            class: RecordClass::In,
        }
    }
}

/// EDNS(0) parameters extracted from / encoded into an OPT pseudo-record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edns {
    /// Advertised maximum UDP payload size.
    pub udp_payload: u16,
    /// Extended RCODE upper bits (we only model the low 4 bits elsewhere).
    pub extended_rcode: u8,
    pub version: u8,
    /// DO bit: DNSSEC OK — ask for RRSIGs/NSECs.
    pub dnssec_ok: bool,
}

impl Default for Edns {
    fn default() -> Self {
        Edns {
            udp_payload: crate::EDNS_UDP_PAYLOAD,
            extended_rcode: 0,
            version: 0,
            dnssec_ok: false,
        }
    }
}

impl Edns {
    /// The parameters an OPT record carries in its CLASS (the UDP
    /// payload) and TTL (extended rcode, version, DO bit) fields.
    fn from_opt(class: u16, ttl: u32) -> Self {
        Edns {
            udp_payload: class,
            extended_rcode: (ttl >> 24) as u8,
            version: (ttl >> 16) as u8,
            dnssec_ok: ttl & 0x8000 != 0,
        }
    }
}

/// Read a root-owned OPT record at the cursor straight into its EDNS
/// parameters (its options are skipped, as opaque as a decoded
/// `RData::Opt`). `Ok(None)` with the cursor unmoved when the record at
/// the cursor is anything else, an OPT under another owner included; the
/// errors are the ones [`Record::read`] returns on the same bytes.
fn read_root_opt(r: &mut WireReader) -> Result<Option<Edns>, WireError> {
    let start = r.position();
    if r.read_u8()? != 0 || r.read_u16()? != RecordType::Opt.code() {
        r.seek(start)?;
        return Ok(None);
    }
    let class = r.read_u16()?;
    let ttl = r.read_u32()?;
    let rdlen = r.read_u16()? as usize;
    r.read_bytes(rdlen)?;
    Ok(Some(Edns::from_opt(class, ttl)))
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    pub header: Header,
    pub questions: Vec<Question>,
    pub answers: Vec<Record>,
    pub authorities: Vec<Record>,
    pub additionals: Vec<Record>,
    /// EDNS parameters; encoded as an OPT record in the additional section.
    pub edns: Option<Edns>,
}

impl Message {
    /// Build a query for (name, type) with EDNS and the DO bit set —
    /// the shape every scanner query takes.
    pub fn query(id: u16, name: Name, rtype: RecordType, dnssec_ok: bool) -> Self {
        Message {
            header: Header {
                id,
                flags: Flags {
                    recursion_desired: false,
                    ..Flags::default()
                },
            },
            questions: vec![Question::new(name, rtype)],
            edns: Some(Edns {
                dnssec_ok,
                ..Edns::default()
            }),
            ..Message::default()
        }
    }

    /// Start a response to `query`, echoing ID and question.
    pub fn response_to(query: &Message, rcode: Rcode) -> Self {
        Message {
            header: Header {
                id: query.header.id,
                flags: Flags::response(rcode),
            },
            questions: query.questions.clone(),
            edns: query.edns.map(|_| Edns::default()),
            ..Message::default()
        }
    }

    /// This message's response code.
    pub fn rcode(&self) -> Rcode {
        Rcode::from_code(self.header.flags.rcode_bits)
    }

    /// The opcode.
    pub fn opcode(&self) -> Opcode {
        Opcode::from_code(self.header.flags.opcode_bits)
    }

    /// Whether the query (or response) asks for / carries DNSSEC records.
    pub fn dnssec_ok(&self) -> bool {
        self.edns.map(|e| e.dnssec_ok).unwrap_or(false)
    }

    /// All answer records of a given type.
    pub fn answers_of(&self, rtype: RecordType) -> Vec<&Record> {
        self.answers.iter().filter(|r| r.rtype() == rtype).collect()
    }

    /// Encode to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = MessageEncoder::new(self.header.id, &self.questions);
        for (section, records) in [
            (Section::Answer, &self.answers),
            (Section::Authority, &self.authorities),
            (Section::Additional, &self.additionals),
        ] {
            for r in records {
                enc.record(section, &r.name, r.class, r.ttl, &r.rdata);
            }
        }
        enc.finish(self.header.flags, self.edns)
    }

    /// Decode from wire bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<Message, WireError> {
        let mut r = WireReader::new(buf);
        let id = r.read_u16()?;
        let flags = Flags::from_u16(r.read_u16()?);
        let qdcount = r.read_u16()? as usize;
        let ancount = r.read_u16()? as usize;
        let nscount = r.read_u16()? as usize;
        let arcount = r.read_u16()? as usize;
        // Cap preallocation by what the remaining bytes could possibly
        // hold (a question needs ≥ 5 octets, a record ≥ 11): hostile
        // headers can otherwise claim 65535 entries in a 12-byte datagram
        // and have us allocate megabytes up front.
        let mut questions = Vec::with_capacity(qdcount.min(r.remaining() / 5));
        for _ in 0..qdcount {
            let name = r.read_name()?;
            let rtype = RecordType::from_code(r.read_u16()?);
            let class = RecordClass::from_code(r.read_u16()?);
            questions.push(Question { name, rtype, class });
        }
        let read_section = |n: usize, r: &mut WireReader| -> Result<Vec<Record>, WireError> {
            let mut v = Vec::with_capacity(n.min(r.remaining() / 11));
            for _ in 0..n {
                v.push(Record::read(r)?);
            }
            Ok(v)
        };
        let answers = read_section(ancount, &mut r)?;
        let authorities = read_section(nscount, &mut r)?;
        // An OPT pseudo-record becomes `edns` (of several, the last
        // wins) instead of an additional record. A root-owned one — what
        // every query and reply carries — is read straight into it.
        let mut additionals = Vec::new();
        let mut edns = None;
        for _ in 0..arcount {
            if let Some(opt) = read_root_opt(&mut r)? {
                edns = Some(opt);
                continue;
            }
            let rec = Record::read(&mut r)?;
            if rec.rtype() == RecordType::Opt {
                edns = Some(Edns::from_opt(rec.class.code(), rec.ttl));
            } else {
                additionals.push(rec);
            }
        }
        Ok(Message {
            header: Header { id, flags },
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name;
    use crate::rdata::RData;
    use std::net::Ipv4Addr;

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, name!("example.ch"), RecordType::Cds, true);
        let bytes = q.to_bytes();
        let back = Message::from_bytes(&bytes).unwrap();
        assert_eq!(back, q);
        assert!(back.dnssec_ok());
        assert_eq!(back.questions[0].rtype, RecordType::Cds);
        assert_eq!(back.header.id, 0x1234);
        assert!(!back.header.flags.response);
    }

    #[test]
    fn response_roundtrip_with_sections() {
        let q = Message::query(7, name!("example.ch"), RecordType::A, true);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.header.flags.authoritative = true;
        resp.answers.push(Record::new(
            name!("example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        resp.authorities.push(Record::new(
            name!("example.ch"),
            300,
            RData::Ns(name!("ns1.example.ch")),
        ));
        resp.additionals.push(Record::new(
            name!("ns1.example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        let bytes = resp.to_bytes();
        let back = Message::from_bytes(&bytes).unwrap();
        assert_eq!(back, resp);
        assert!(back.header.flags.authoritative);
        assert_eq!(back.answers.len(), 1);
        assert_eq!(back.authorities.len(), 1);
        assert_eq!(back.additionals.len(), 1);
        assert_eq!(back.rcode(), Rcode::NoError);
    }

    #[test]
    fn rcode_roundtrip() {
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
        ] {
            let q = Message::query(1, name!("x.test"), RecordType::A, false);
            let resp = Message::response_to(&q, rc);
            let back = Message::from_bytes(&resp.to_bytes()).unwrap();
            assert_eq!(back.rcode(), rc);
        }
    }

    #[test]
    fn error_rcodes_classified() {
        assert!(!Rcode::NoError.is_error());
        assert!(!Rcode::NxDomain.is_error());
        assert!(Rcode::ServFail.is_error());
        assert!(Rcode::FormErr.is_error());
        assert!(Rcode::NotImp.is_error());
        assert!(Rcode::Refused.is_error());
    }

    #[test]
    fn edns_do_bit_and_payload() {
        let mut q = Message::query(1, name!("x.test"), RecordType::Dnskey, true);
        q.edns = Some(Edns {
            udp_payload: 4096,
            dnssec_ok: true,
            ..Edns::default()
        });
        let back = Message::from_bytes(&q.to_bytes()).unwrap();
        let e = back.edns.unwrap();
        assert_eq!(e.udp_payload, 4096);
        assert!(e.dnssec_ok);
    }

    #[test]
    fn message_without_edns() {
        let mut q = Message::query(1, name!("x.test"), RecordType::A, false);
        q.edns = None;
        let back = Message::from_bytes(&q.to_bytes()).unwrap();
        assert!(back.edns.is_none());
        assert!(!back.dnssec_ok());
    }

    #[test]
    fn root_opt_becomes_edns_beside_other_additionals() {
        let mut q = Message::query(0x4242, name!("Example.CH"), RecordType::Cdnskey, true);
        let glue = Record::new(name!("x.test"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        q.additionals.push(glue.clone());
        let back = Message::from_bytes(&q.to_bytes()).unwrap();
        assert_eq!(back.edns, q.edns);
        assert_eq!(back.additionals, vec![glue]);
    }

    #[test]
    fn opt_under_another_owner_and_repeated_opts_last_wins() {
        let q = Message::query(5, name!("x.test"), RecordType::A, false);
        let mut bytes = q.to_bytes();
        // A second OPT owned by `x.test` (a pointer to the question
        // name), DO set, payload 4096.
        bytes[11] = 2;
        bytes.extend_from_slice(&[0xc0, 12, 0, 41, 0x10, 0, 0, 0, 0x80, 0, 0, 0]);
        let back = Message::from_bytes(&bytes).unwrap();
        assert!(back.additionals.is_empty());
        let e = back.edns.unwrap();
        assert!(e.dnssec_ok);
        assert_eq!(e.udp_payload, 4096);
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(Message::from_bytes(&[0, 1, 2]).is_err());
    }

    #[test]
    fn count_mismatch_rejected() {
        let q = Message::query(9, name!("a.test"), RecordType::A, false);
        let mut bytes = q.to_bytes();
        // Claim one answer that isn't there.
        bytes[7] = 1;
        assert!(Message::from_bytes(&bytes).is_err());
    }

    #[test]
    fn answers_of_filters_by_type() {
        let q = Message::query(7, name!("example.ch"), RecordType::Cds, true);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.answers.push(Record::new(
            name!("example.ch"),
            300,
            RData::Cds(crate::rdata::DsData::delete_sentinel()),
        ));
        resp.answers.push(Record::new(
            name!("example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        assert_eq!(resp.answers_of(RecordType::Cds).len(), 1);
        assert_eq!(resp.answers_of(RecordType::Dnskey).len(), 0);
    }
}
