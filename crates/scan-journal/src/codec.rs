//! Hand-rolled binary codec for [`ZoneEvent`].
//!
//! The journal must round-trip *everything* the scanner produced —
//! `parent_ds`, per-observation addresses and raw DNSKEYs included —
//! because a resumed run replays these events to rebuild scanner caches
//! and must then render byte-identical reports. The format is a small
//! explicit little-endian encoding: fixed-width integers,
//! length-prefixed byte strings, one tag byte per enum variant. It is
//! also the one byte form of a [`ZoneScan`]: the fabric merge's digests
//! and `scan_epochs::canonical_evidence` are built from
//! [`encode_scan_into`]. Framing, checksums, and versioning live in
//! [`journal`](crate::journal); this module is only the payload.

use bootscan::operator::Identified;
use bootscan::types::{
    AbClass, CannotReason, CdsClass, CdsSeen, DnssecClass, NsObservation, SignalObservation,
    SignalViolation, ZoneScan,
};
use bootscan::{ReferralData, RetryStats, ZoneEffects, ZoneEvent};
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RrsigData};
use netsim::Addr;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// Why a checksum-valid payload failed to decode. In a healthy journal
/// this never happens (the CRC already vouches for the bytes); it
/// indicates a format-version bug and is treated by readers as
/// corruption, not a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(&'static str, u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// A name's labels did not form a valid DNS name.
    BadName,
    /// Bytes left over after the event was fully decoded.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated mid-field"),
            CodecError::BadTag(what, tag) => write!(f, "bad {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string field not UTF-8"),
            CodecError::BadName => write!(f, "invalid DNS name"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after event"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------- writer

struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn opt_bool(&mut self, v: Option<bool>) {
        self.u8(match v {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// A name as its label count followed by length-prefixed labels
    /// (root = zero labels).
    fn name(&mut self, n: &Name) {
        self.u8(n.label_count() as u8);
        for l in n.labels() {
            self.u8(l.len() as u8);
            self.buf.extend_from_slice(l);
        }
    }
    fn names(&mut self, v: &[Name]) {
        self.u32(v.len() as u32);
        for n in v {
            self.name(n);
        }
    }
    fn addr(&mut self, a: &Addr) {
        match a {
            Addr::V4(ip) => {
                self.u8(4);
                self.buf.extend_from_slice(&ip.octets());
            }
            Addr::V6(ip) => {
                self.u8(6);
                self.buf.extend_from_slice(&ip.octets());
            }
        }
    }
    fn dnskey(&mut self, k: &DnskeyData) {
        self.u16(k.flags);
        self.u8(k.protocol);
        self.u8(k.algorithm);
        self.bytes(&k.public_key);
    }
    fn ds(&mut self, d: &DsData) {
        self.u16(d.key_tag);
        self.u8(d.algorithm);
        self.u8(d.digest_type);
        self.bytes(&d.digest);
    }
    fn rrsig(&mut self, s: &RrsigData) {
        self.u16(s.type_covered);
        self.u8(s.algorithm);
        self.u8(s.labels);
        self.u32(s.original_ttl);
        self.u32(s.expiration);
        self.u32(s.inception);
        self.u16(s.key_tag);
        self.name(&s.signer_name);
        self.bytes(&s.signature);
    }
    fn addrs(&mut self, v: &[Addr]) {
        self.u32(v.len() as u32);
        for a in v {
            self.addr(a);
        }
    }
    fn referral(&mut self, r: &ReferralData) {
        self.name(&r.parent_apex);
        self.names(&r.ns_names);
        match &r.ds {
            None => self.u8(0),
            Some(ds) => {
                self.u8(1);
                self.u32(ds.len() as u32);
                for d in ds {
                    self.ds(d);
                }
            }
        }
        self.u32(r.ds_rrsigs.len() as u32);
        for s in &r.ds_rrsigs {
            self.rrsig(s);
        }
        self.addrs(&r.child_servers);
        self.addrs(&r.parent_servers);
    }
    fn cds_seen(&mut self, c: &CdsSeen) {
        match c {
            CdsSeen::Cds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                self.u8(0);
                self.u16(*key_tag);
                self.u8(*algorithm);
                self.u8(*digest_type);
                self.bytes(digest);
            }
            CdsSeen::Cdnskey {
                flags,
                algorithm,
                public_key,
            } => {
                self.u8(1);
                self.u16(*flags);
                self.u8(*algorithm);
                self.bytes(public_key);
            }
        }
    }
    fn cds_list(&mut self, v: &[CdsSeen]) {
        self.u32(v.len() as u32);
        for c in v {
            self.cds_seen(c);
        }
    }
    fn ns_observation(&mut self, o: &NsObservation) {
        self.name(&o.ns_name);
        self.addr(&o.addr);
        self.boolean(o.responded);
        self.boolean(o.soa_present);
        self.boolean(o.cds_query_error);
        self.u32(o.dnskeys.len() as u32);
        for k in &o.dnskeys {
            self.dnskey(k);
        }
        self.cds_list(&o.cds);
        self.opt_bool(o.cds_sig_valid);
        self.boolean(o.csync_present);
    }
    fn signal_observation(&mut self, s: &SignalObservation) {
        self.name(&s.ns_name);
        self.boolean(s.name_unbuildable);
        self.cds_list(&s.cds);
        self.opt_bool(s.dnssec_valid);
        self.boolean(s.zone_cut);
    }
    fn dnssec_class(&mut self, c: DnssecClass) {
        self.u8(match c {
            DnssecClass::Unsigned => 0,
            DnssecClass::Secured => 1,
            DnssecClass::Invalid => 2,
            DnssecClass::Island => 3,
            DnssecClass::Unresolvable => 4,
            DnssecClass::Indeterminate => 5,
        });
    }
    fn cds_class(&mut self, c: CdsClass) {
        self.u8(match c {
            CdsClass::Absent => 0,
            CdsClass::Valid => 1,
            CdsClass::Delete => 2,
            CdsClass::Inconsistent => 3,
            CdsClass::MismatchesDnskey => 4,
            CdsClass::BadSignature => 5,
        });
    }
    fn ab_class(&mut self, c: AbClass) {
        match c {
            AbClass::NoSignal => self.u8(0),
            AbClass::AlreadySecured => self.u8(1),
            AbClass::CannotBootstrap(r) => {
                self.u8(2);
                self.u8(match r {
                    CannotReason::DeletionRequest => 0,
                    CannotReason::ZoneUnsigned => 1,
                    CannotReason::ZoneInvalidDnssec => 2,
                    CannotReason::CdsInconsistent => 3,
                    CannotReason::CdsBadSignature => 4,
                    CannotReason::CdsMismatch => 5,
                });
            }
            AbClass::SignalIncorrect(v) => {
                self.u8(3);
                self.u8(match v {
                    SignalViolation::ZoneCut => 0,
                    SignalViolation::NotUnderEveryNs => 1,
                    SignalViolation::InvalidDnssec => 2,
                    SignalViolation::ContentMismatch => 3,
                });
            }
            AbClass::SignalCorrect => self.u8(4),
        }
    }
    fn identified(&mut self, id: &Identified) {
        match id {
            Identified::Unknown => self.u8(0),
            Identified::Single(s) => {
                self.u8(1);
                self.string(s);
            }
            Identified::Multi(v) => {
                self.u8(2);
                self.u32(v.len() as u32);
                for s in v {
                    self.string(s);
                }
            }
        }
    }
    fn retry_stats(&mut self, r: &RetryStats) {
        self.u32(r.failures);
        self.u32(r.timeouts);
        self.u32(r.unreachable);
        self.u32(r.malformed);
        self.u32(r.servfails);
        self.u32(r.retries);
        self.u32(r.breaker_skips);
        self.u32(r.resolution_failures);
        self.u32(r.rescans);
        self.u32(r.datagrams);
        self.u32(r.tcp_fallbacks);
        self.u64(r.bytes_sent);
        self.u64(r.bytes_received);
        self.u64(r.logical_queries);
        self.u64(r.hostile_mismatched);
        self.u64(r.hostile_foreign);
        self.u64(r.hostile_referral_loops);
        self.u64(r.hostile_wide_referrals);
        self.u64(r.hostile_alias_loops);
        self.u64(r.hostile_budget);
        self.u64(r.hostile_lame);
    }
    fn zone_scan(&mut self, z: &ZoneScan) {
        self.name(&z.name);
        self.names(&z.ns_names);
        self.u32(z.parent_ds.len() as u32);
        for d in &z.parent_ds {
            self.ds(d);
        }
        self.u32(z.ns_observations.len() as u32);
        for o in &z.ns_observations {
            self.ns_observation(o);
        }
        self.u32(z.signal_observations.len() as u32);
        for s in &z.signal_observations {
            self.signal_observation(s);
        }
        self.dnssec_class(z.dnssec);
        self.cds_class(z.cds);
        self.ab_class(z.ab);
        self.identified(&z.operator);
        self.u32(z.queries);
        self.u64(z.elapsed);
        self.boolean(z.sampled);
        self.retry_stats(&z.retry_stats);
        self.boolean(z.degraded);
    }
    fn effects(&mut self, e: &ZoneEffects) {
        self.u32(e.key_inserts.len() as u32);
        for (name, keys) in &e.key_inserts {
            self.name(name);
            self.u32(keys.len() as u32);
            for k in keys.iter() {
                self.dnskey(k);
            }
        }
        self.u32(e.addr_inserts.len() as u32);
        for (name, addrs) in &e.addr_inserts {
            self.name(name);
            self.addrs(addrs);
        }
        self.u32(e.referral_inserts.len() as u32);
        for (cut, data) in &e.referral_inserts {
            self.name(cut);
            self.referral(data);
        }
    }
}

/// Encode one event into a standalone payload (no framing/checksum).
pub fn encode_event(event: &ZoneEvent) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_event_into(&mut buf, event);
    buf
}

/// Append one event's payload bytes to `buf` — what the journal writer
/// does, straight into the frame it is building.
pub fn encode_event_into(buf: &mut Vec<u8>, event: &ZoneEvent) {
    let mut e = Enc { buf };
    e.u32(event.pass);
    e.u64(event.duration_delta);
    e.zone_scan(&event.scan);
    e.effects(&event.effects);
}

/// Append one zone scan's bytes to `buf`, exactly as they sit inside an
/// event payload — every field. The fabric merge's digests hash these
/// bytes.
pub fn encode_scan_into(buf: &mut Vec<u8>, scan: &ZoneScan) {
    Enc { buf }.zone_scan(scan);
}

// ---------------------------------------------------------------- reader

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn boolean(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag("bool", t)),
        }
    }
    fn opt_bool(&mut self) -> Result<Option<bool>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            t => Err(CodecError::BadTag("option<bool>", t)),
        }
    }
    /// A length prefix that is about to drive an allocation: bounded by
    /// the bytes actually remaining, so a corrupt count cannot trigger a
    /// huge reservation before the `Truncated` error surfaces.
    fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
    /// A counted list, allocated at exactly its length: decoded scans are
    /// held for the whole study, so a doubling `Vec` would keep its spare
    /// slots that long. Every item takes at least one byte, so `count`'s
    /// bound caps the reservation.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.count()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(item(self)?);
        }
        Ok(v)
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }
    fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }
    fn name(&mut self) -> Result<Name> {
        let n = self.u8()? as usize;
        let mut labels: Vec<&[u8]> = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.u8()? as usize;
            labels.push(self.take(len)?);
        }
        if labels.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(labels).map_err(|_| CodecError::BadName)
    }
    fn names(&mut self) -> Result<Vec<Name>> {
        self.list(Self::name)
    }
    fn addr(&mut self) -> Result<Addr> {
        match self.u8()? {
            4 => {
                let o: [u8; 4] = self.take(4)?.try_into().unwrap();
                Ok(Addr::V4(Ipv4Addr::from(o)))
            }
            6 => {
                let o: [u8; 16] = self.take(16)?.try_into().unwrap();
                Ok(Addr::V6(Ipv6Addr::from(o)))
            }
            t => Err(CodecError::BadTag("addr family", t)),
        }
    }
    fn dnskey(&mut self) -> Result<DnskeyData> {
        Ok(DnskeyData {
            flags: self.u16()?,
            protocol: self.u8()?,
            algorithm: self.u8()?,
            public_key: self.bytes()?,
        })
    }
    fn ds(&mut self) -> Result<DsData> {
        Ok(DsData {
            key_tag: self.u16()?,
            algorithm: self.u8()?,
            digest_type: self.u8()?,
            digest: self.bytes()?,
        })
    }
    fn rrsig(&mut self) -> Result<RrsigData> {
        Ok(RrsigData {
            type_covered: self.u16()?,
            algorithm: self.u8()?,
            labels: self.u8()?,
            original_ttl: self.u32()?,
            expiration: self.u32()?,
            inception: self.u32()?,
            key_tag: self.u16()?,
            signer_name: self.name()?,
            signature: self.bytes()?,
        })
    }
    fn addrs(&mut self) -> Result<Vec<Addr>> {
        self.list(Self::addr)
    }
    fn referral(&mut self) -> Result<ReferralData> {
        Ok(ReferralData {
            parent_apex: self.name()?,
            ns_names: self.names()?,
            ds: match self.u8()? {
                0 => None,
                1 => Some(self.list(Self::ds)?),
                t => return Err(CodecError::BadTag("referral ds presence", t)),
            },
            ds_rrsigs: self.list(Self::rrsig)?,
            child_servers: self.addrs()?,
            parent_servers: self.addrs()?,
        })
    }
    fn cds_seen(&mut self) -> Result<CdsSeen> {
        match self.u8()? {
            0 => Ok(CdsSeen::Cds {
                key_tag: self.u16()?,
                algorithm: self.u8()?,
                digest_type: self.u8()?,
                digest: self.bytes()?,
            }),
            1 => Ok(CdsSeen::Cdnskey {
                flags: self.u16()?,
                algorithm: self.u8()?,
                public_key: self.bytes()?,
            }),
            t => Err(CodecError::BadTag("cds-seen", t)),
        }
    }
    fn cds_list(&mut self) -> Result<Vec<CdsSeen>> {
        self.list(Self::cds_seen)
    }
    fn ns_observation(&mut self) -> Result<NsObservation> {
        Ok(NsObservation {
            ns_name: self.name()?,
            addr: self.addr()?,
            responded: self.boolean()?,
            soa_present: self.boolean()?,
            cds_query_error: self.boolean()?,
            dnskeys: self.list(Self::dnskey)?,
            cds: self.cds_list()?,
            cds_sig_valid: self.opt_bool()?,
            csync_present: self.boolean()?,
        })
    }
    fn signal_observation(&mut self) -> Result<SignalObservation> {
        Ok(SignalObservation {
            ns_name: self.name()?,
            name_unbuildable: self.boolean()?,
            cds: self.cds_list()?,
            dnssec_valid: self.opt_bool()?,
            zone_cut: self.boolean()?,
        })
    }
    fn dnssec_class(&mut self) -> Result<DnssecClass> {
        Ok(match self.u8()? {
            0 => DnssecClass::Unsigned,
            1 => DnssecClass::Secured,
            2 => DnssecClass::Invalid,
            3 => DnssecClass::Island,
            4 => DnssecClass::Unresolvable,
            5 => DnssecClass::Indeterminate,
            t => return Err(CodecError::BadTag("dnssec-class", t)),
        })
    }
    fn cds_class(&mut self) -> Result<CdsClass> {
        Ok(match self.u8()? {
            0 => CdsClass::Absent,
            1 => CdsClass::Valid,
            2 => CdsClass::Delete,
            3 => CdsClass::Inconsistent,
            4 => CdsClass::MismatchesDnskey,
            5 => CdsClass::BadSignature,
            t => return Err(CodecError::BadTag("cds-class", t)),
        })
    }
    fn ab_class(&mut self) -> Result<AbClass> {
        Ok(match self.u8()? {
            0 => AbClass::NoSignal,
            1 => AbClass::AlreadySecured,
            2 => AbClass::CannotBootstrap(match self.u8()? {
                0 => CannotReason::DeletionRequest,
                1 => CannotReason::ZoneUnsigned,
                2 => CannotReason::ZoneInvalidDnssec,
                3 => CannotReason::CdsInconsistent,
                4 => CannotReason::CdsBadSignature,
                5 => CannotReason::CdsMismatch,
                t => return Err(CodecError::BadTag("cannot-reason", t)),
            }),
            3 => AbClass::SignalIncorrect(match self.u8()? {
                0 => SignalViolation::ZoneCut,
                1 => SignalViolation::NotUnderEveryNs,
                2 => SignalViolation::InvalidDnssec,
                3 => SignalViolation::ContentMismatch,
                t => return Err(CodecError::BadTag("signal-violation", t)),
            }),
            4 => AbClass::SignalCorrect,
            t => return Err(CodecError::BadTag("ab-class", t)),
        })
    }
    fn identified(&mut self) -> Result<Identified> {
        Ok(match self.u8()? {
            0 => Identified::Unknown,
            1 => Identified::Single(self.string()?),
            2 => Identified::Multi(self.list(Self::string)?),
            t => return Err(CodecError::BadTag("identified", t)),
        })
    }
    fn retry_stats(&mut self) -> Result<RetryStats> {
        Ok(RetryStats {
            failures: self.u32()?,
            timeouts: self.u32()?,
            unreachable: self.u32()?,
            malformed: self.u32()?,
            servfails: self.u32()?,
            retries: self.u32()?,
            breaker_skips: self.u32()?,
            resolution_failures: self.u32()?,
            rescans: self.u32()?,
            datagrams: self.u32()?,
            tcp_fallbacks: self.u32()?,
            bytes_sent: self.u64()?,
            bytes_received: self.u64()?,
            logical_queries: self.u64()?,
            hostile_mismatched: self.u64()?,
            hostile_foreign: self.u64()?,
            hostile_referral_loops: self.u64()?,
            hostile_wide_referrals: self.u64()?,
            hostile_alias_loops: self.u64()?,
            hostile_budget: self.u64()?,
            hostile_lame: self.u64()?,
        })
    }
    fn zone_scan(&mut self) -> Result<ZoneScan> {
        Ok(ZoneScan {
            name: self.name()?,
            ns_names: self.names()?,
            parent_ds: self.list(Self::ds)?,
            ns_observations: self.list(Self::ns_observation)?,
            signal_observations: self.list(Self::signal_observation)?,
            dnssec: self.dnssec_class()?,
            cds: self.cds_class()?,
            ab: self.ab_class()?,
            operator: self.identified()?,
            queries: self.u32()?,
            elapsed: self.u64()?,
            sampled: self.boolean()?,
            retry_stats: self.retry_stats()?,
            degraded: self.boolean()?,
        })
    }
    fn effects(&mut self) -> Result<ZoneEffects> {
        let mut e = ZoneEffects::default();
        let n = self.count()?;
        for _ in 0..n {
            let name = self.name()?;
            e.key_inserts
                .push((name, Arc::new(self.list(Self::dnskey)?)));
        }
        let n = self.count()?;
        for _ in 0..n {
            let name = self.name()?;
            e.addr_inserts.push((name, Arc::new(self.addrs()?)));
        }
        let n = self.count()?;
        for _ in 0..n {
            let cut = self.name()?;
            e.referral_inserts.push((cut, Arc::new(self.referral()?)));
        }
        Ok(e)
    }
}

/// Decode one event from a payload produced by [`encode_event`]. The
/// whole payload must be consumed.
pub fn decode_event(payload: &[u8]) -> Result<ZoneEvent> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let event = ZoneEvent {
        pass: d.u32()?,
        duration_delta: d.u64()?,
        scan: d.zone_scan()?,
        effects: d.effects()?,
    };
    if d.pos != payload.len() {
        return Err(CodecError::Trailing(payload.len() - d.pos));
    }
    Ok(event)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dns_wire::name;

    /// An event exercising every field the codec must carry, both `Addr`
    /// families included.
    pub(crate) fn rich_event() -> ZoneEvent {
        let key = DnskeyData {
            flags: 257,
            protocol: 3,
            algorithm: 13,
            public_key: vec![1, 2, 3, 4, 5],
        };
        let scan = ZoneScan {
            name: name!("zone.example"),
            ns_names: vec![name!("ns1.example"), name!("ns2.example")],
            parent_ds: vec![DsData {
                key_tag: 4711,
                algorithm: 13,
                digest_type: 2,
                digest: vec![9; 32],
            }],
            ns_observations: vec![NsObservation {
                ns_name: name!("ns1.example"),
                addr: Addr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x53)),
                responded: true,
                soa_present: true,
                cds_query_error: false,
                dnskeys: vec![key.clone()],
                cds: vec![
                    CdsSeen::Cds {
                        key_tag: 4711,
                        algorithm: 13,
                        digest_type: 2,
                        digest: vec![9; 32],
                    },
                    CdsSeen::Cdnskey {
                        flags: 257,
                        algorithm: 13,
                        public_key: vec![1, 2, 3, 4, 5],
                    },
                ],
                cds_sig_valid: Some(true),
                csync_present: true,
            }],
            signal_observations: vec![SignalObservation {
                ns_name: name!("ns2.example"),
                name_unbuildable: false,
                cds: vec![],
                dnssec_valid: Some(false),
                zone_cut: true,
            }],
            dnssec: DnssecClass::Island,
            cds: CdsClass::Inconsistent,
            ab: AbClass::SignalIncorrect(SignalViolation::NotUnderEveryNs),
            operator: Identified::Multi(vec!["alpha".into(), "beta".into()]),
            queries: 42,
            elapsed: 1_234_567,
            sampled: true,
            retry_stats: RetryStats {
                failures: 1,
                timeouts: 1,
                unreachable: 2,
                malformed: 3,
                servfails: 4,
                retries: 5,
                breaker_skips: 6,
                resolution_failures: 7,
                rescans: 2,
                datagrams: 99,
                tcp_fallbacks: 1,
                bytes_sent: 12_345,
                bytes_received: 67_890,
                logical_queries: 57,
                hostile_mismatched: 1,
                hostile_foreign: 2,
                hostile_referral_loops: 3,
                hostile_wide_referrals: 4,
                hostile_alias_loops: 5,
                hostile_budget: 6,
                hostile_lame: 7,
            },
            degraded: true,
        };
        ZoneEvent {
            pass: 1,
            duration_delta: 777_001,
            scan,
            effects: ZoneEffects {
                key_inserts: vec![(name!("zone.example"), Arc::new(vec![key]))],
                addr_inserts: vec![(
                    name!("ns1.example"),
                    Arc::new(vec![
                        Addr::V4(Ipv4Addr::new(192, 0, 2, 1)),
                        Addr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
                    ]),
                )],
                referral_inserts: vec![
                    (
                        name!("zone.example"),
                        Arc::new(ReferralData {
                            parent_apex: name!("example"),
                            ns_names: vec![name!("ns1.example"), name!("ns2.example")],
                            ds: Some(vec![DsData {
                                key_tag: 4711,
                                algorithm: 13,
                                digest_type: 2,
                                digest: vec![9; 32],
                            }]),
                            ds_rrsigs: vec![RrsigData {
                                type_covered: 43,
                                algorithm: 13,
                                labels: 2,
                                original_ttl: 3600,
                                expiration: 1_700_086_400,
                                inception: 1_700_000_000,
                                key_tag: 1234,
                                signer_name: name!("example"),
                                signature: vec![7; 64],
                            }],
                            child_servers: vec![Addr::V4(Ipv4Addr::new(192, 0, 2, 1))],
                            parent_servers: vec![Addr::V6(Ipv6Addr::new(
                                0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x35,
                            ))],
                        }),
                    ),
                    (
                        // An insecure delegation: `ds: None` is itself
                        // cached state (the negative DS answer).
                        name!("unsigned.example"),
                        Arc::new(ReferralData {
                            parent_apex: name!("example"),
                            ns_names: vec![name!("ns.unsigned.example")],
                            ds: None,
                            ds_rrsigs: vec![],
                            child_servers: vec![],
                            parent_servers: vec![Addr::V4(Ipv4Addr::new(192, 0, 2, 53))],
                        }),
                    ),
                ],
            },
        }
    }

    #[test]
    fn event_round_trips_every_field() {
        let event = rich_event();
        let payload = encode_event(&event);
        let back = decode_event(&payload).expect("decode");
        assert_eq!(event, back);
    }

    #[test]
    fn encode_into_appends_exactly_the_standalone_payload() {
        let event = rich_event();
        let mut buf = b"already here".to_vec();
        encode_event_into(&mut buf, &event);
        assert_eq!(buf, [&b"already here"[..], &encode_event(&event)].concat());
    }

    #[test]
    fn scan_bytes_are_the_event_payload_after_pass_and_duration() {
        let event = rich_event();
        let mut scan = Vec::new();
        encode_scan_into(&mut scan, &event.scan);
        let payload = encode_event(&event);
        assert_eq!(&payload[12..12 + scan.len()], &scan[..]);
    }

    #[test]
    fn minimal_event_round_trips() {
        let event = ZoneEvent {
            pass: 0,
            duration_delta: 0,
            scan: ZoneScan {
                name: Name::root(),
                ns_names: vec![],
                parent_ds: vec![],
                ns_observations: vec![],
                signal_observations: vec![],
                dnssec: DnssecClass::Unresolvable,
                cds: CdsClass::Absent,
                ab: AbClass::NoSignal,
                operator: Identified::Unknown,
                queries: 0,
                elapsed: 0,
                sampled: false,
                retry_stats: RetryStats::default(),
                degraded: false,
            },
            effects: ZoneEffects::default(),
        };
        let payload = encode_event(&event);
        let back = decode_event(&payload).expect("decode");
        assert_eq!(event, back);
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        let payload = encode_event(&rich_event());
        for cut in 0..payload.len() {
            match decode_event(&payload[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("decode of {cut}-byte prefix unexpectedly succeeded"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_event(&rich_event());
        payload.push(0);
        assert!(matches!(
            decode_event(&payload),
            Err(CodecError::Trailing(1))
        ));
    }
}
