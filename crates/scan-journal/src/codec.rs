//! Hand-rolled binary codec for [`ZoneEvent`].
//!
//! The journal must round-trip *everything* the scanner produced —
//! `parent_ds`, per-observation addresses and raw DNSKEYs included —
//! because a resumed run replays these events to rebuild scanner caches
//! and must then render byte-identical reports. The AB class is the one
//! exception: decoding re-derives it through `Evidence::seal`, so it is
//! not written. The format is a small
//! explicit little-endian encoding: fixed-width integers,
//! length-prefixed byte strings, one tag byte per enum variant. An event
//! is its duration delta, its scan, then its cache inserts in the order
//! they were made. The codec is also the one byte form of a
//! [`ZoneScan`]: an evidence section, then a cost section (`queries`,
//! `elapsed`, `retry_stats`). The fabric merge's
//! digests and `scan_epochs::canonical_evidence` are built from
//! [`encode_scan_into`] and [`encode_evidence_into`]. Framing, checksums,
//! and versioning live in [`journal`](crate::journal); this module is
//! only the payload.

use bootscan::operator::Identified;
use bootscan::types::{
    CdsClass, CdsSeen, DnssecClass, Evidence, NsObservation, ScanRecord, SignalObservation,
    ZoneScan,
};
use bootscan::{CacheInsert, CutOutcome, ReferralData, RetryStats, ZoneEffects, ZoneEvent};
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

/// The DNSSEC classes by code: a class is written as its index here.
const DNSSEC_CLASSES: [DnssecClass; 6] = [
    DnssecClass::Unsigned,
    DnssecClass::Secured,
    DnssecClass::Invalid,
    DnssecClass::Island,
    DnssecClass::Unresolvable,
    DnssecClass::Indeterminate,
];

/// The CDS classes by code. The AB class is not written: it is a
/// function of the rest of the evidence, and decoding re-derives it.
const CDS_CLASSES: [CdsClass; 6] = [
    CdsClass::Absent,
    CdsClass::Valid,
    CdsClass::Delete,
    CdsClass::Inconsistent,
    CdsClass::MismatchesDnskey,
    CdsClass::BadSignature,
];

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
    /// A counted list: its length, then each item.
    fn list<T>(&mut self, v: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.u32(v.len() as u32);
        for x in v {
            item(self, x);
        }
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
    fn referral(&mut self, r: &ReferralData) {
        self.name(&r.parent_apex);
        self.list(&r.ns_names, Self::name);
        match &r.ds {
            None => self.u8(0),
            Some(ds) => {
                self.u8(1);
                self.list(ds, Self::ds);
            }
        }
        self.list(&r.ds_rrsigs, Self::rrsig);
        self.list(&r.child_servers, Self::addr);
    }
    fn cds_seen(&mut self, c: &CdsSeen) {
        match c {
            CdsSeen::Cds(ds) => {
                self.u8(0);
                self.ds(ds);
            }
            CdsSeen::Cdnskey(key) => {
                self.u8(1);
                self.dnskey(key);
            }
        }
    }
    fn ns_observation(&mut self, o: &NsObservation) {
        self.name(&o.ns_name);
        self.addr(&o.addr);
        self.boolean(o.responded);
        self.boolean(o.soa_present);
        self.boolean(o.cds_query_error);
        self.list(&o.dnskeys, Self::dnskey);
        self.list(&o.cds, Self::cds_seen);
        self.opt_bool(o.cds_sig_valid);
        self.boolean(o.csync_present);
    }
    fn signal_observation(&mut self, s: &SignalObservation) {
        self.name(&s.ns_name);
        self.boolean(s.name_unbuildable);
        self.list(&s.cds, Self::cds_seen);
        self.opt_bool(s.dnssec_valid);
        self.boolean(s.zone_cut);
    }
    /// A class as its index in its table.
    fn class<T: PartialEq>(&mut self, table: &[T], c: &T) {
        let code = table.iter().position(|t| t == c);
        self.u8(code.expect("every class has a code") as u8);
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
                self.list(v, |w, s| w.string(s));
            }
        }
    }
    fn retry_stats(&mut self, r: &RetryStats) {
        self.u32(r.failures);
        self.u32(r.timeouts);
        self.u32(r.malformed);
        self.u32(r.servfails);
        self.u32(r.retries);
        self.u32(r.breaker_skips);
        self.u32(r.resolution_failures);
        self.u32(r.rescans);
        self.u32(r.datagrams);
        self.u32(r.tcp_fallbacks);
        self.u32(r.bytes_sent);
        self.u32(r.bytes_received);
        self.u32(r.logical_queries);
        self.u32(r.hostile_mismatched);
        self.u32(r.hostile_foreign);
        self.u32(r.hostile_referral_loops);
        self.u32(r.hostile_wide_referrals);
        self.u32(r.hostile_alias_loops);
        self.u32(r.hostile_budget);
        self.u32(r.hostile_lame);
    }
    fn evidence(&mut self, e: &Evidence) {
        self.name(&e.name);
        self.list(&e.ns_names, Self::name);
        self.list(&e.parent_ds, Self::ds);
        self.list(&e.ns_observations, Self::ns_observation);
        self.list(&e.signal_observations, Self::signal_observation);
        self.class(&DNSSEC_CLASSES, &e.dnssec);
        self.class(&CDS_CLASSES, &e.cds);
        self.identified(&e.operator);
        self.boolean(e.sampled);
        self.boolean(e.degraded);
    }
    /// The evidence section, then the cost section; returns the evidence
    /// section's length.
    fn zone_scan(&mut self, z: &ZoneScan) -> usize {
        let start = self.buf.len();
        self.evidence(&z.evidence);
        let evidence = self.buf.len() - start;
        self.u32(z.queries);
        self.u64(z.elapsed);
        self.retry_stats(&z.retry_stats);
        evidence
    }
    /// The cache inserts in the order they were made: each its key, a
    /// tag for its cache, then the value.
    fn effects(&mut self, e: &ZoneEffects) {
        self.list(e, |w, (key, insert)| {
            w.name(key);
            match insert {
                CacheInsert::Keys(keys) => {
                    w.u8(0);
                    w.list(keys, Self::dnskey);
                }
                CacheInsert::Addrs(addrs) => {
                    w.u8(1);
                    w.list(addrs, Self::addr);
                }
                CacheInsert::Referral(data) => {
                    w.u8(2);
                    w.referral(data);
                }
                CacheInsert::Cut(outcome) => {
                    w.u8(3);
                    w.name(&outcome.apex);
                    w.boolean(outcome.has_ns);
                }
            }
        });
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
    e.u64(event.duration_delta);
    e.zone_scan(&event.scan);
    e.effects(&event.effects);
}

/// Append one zone scan's bytes to `buf`, exactly as they sit inside an
/// event payload — every field — and return the length of their leading
/// evidence section, the bytes [`encode_evidence_into`] writes. The
/// fabric merge's digests hash these bytes.
pub fn encode_scan_into(buf: &mut Vec<u8>, scan: &ZoneScan) -> usize {
    Enc { buf }.zone_scan(scan)
}

/// Append one evidence's bytes to `buf`: the evidence section of a scan's
/// encoding. `scan_epochs::canonical_evidence` is built from these.
pub fn encode_evidence_into(buf: &mut Vec<u8>, evidence: &Evidence) {
    Enc { buf }.evidence(evidence);
}

// ---------------------------------------------------------------- reader

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    seen: Seen<'a>,
}

/// The values one event's decoder has built so far, each with its encoded
/// span. An event repeats itself: each NS name per address and again in
/// its signal probe and address insert, a zone's keys in every
/// observation and in its key-cache insert, one CDS list per address. An
/// identical span decodes to a clone of the first value — one allocation
/// for all of them. Per event only: a few dozen entries, searched
/// linearly.
#[derive(Default)]
struct Seen<'a> {
    names: Memo<'a, Name>,
    keys: Memo<'a, Arc<Vec<DnskeyData>>>,
    cds: Memo<'a, Arc<[CdsSeen]>>,
}

struct Memo<'a, T>(Vec<(&'a [u8], T)>);

impl<T> Default for Memo<'_, T> {
    fn default() -> Self {
        Memo(Vec::new())
    }
}

impl<'a, T: Clone> Memo<'a, T> {
    /// The first value decoded from `span`, or `value` remembered as it.
    fn share(&mut self, span: &'a [u8], value: T) -> T {
        if let Some((_, first)) = self.0.iter().find(|(s, _)| *s == span) {
            return first.clone();
        }
        self.0.push((span, value.clone()));
        value
    }
}

impl<'a> Dec<'a> {
    /// Decode one value and return it with the bytes it spanned.
    fn spanned<T>(&mut self, item: impl FnOnce(&mut Self) -> Result<T>) -> Result<(&'a [u8], T)> {
        let (buf, start) = (self.buf, self.pos);
        let value = item(self)?;
        Ok((&buf[start..self.pos], value))
    }
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
        let (span, name) = self.spanned(Self::fresh_name)?;
        Ok(self.seen.names.share(span, name))
    }
    fn fresh_name(&mut self) -> Result<Name> {
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
        })
    }
    fn cds_seen(&mut self) -> Result<CdsSeen> {
        match self.u8()? {
            0 => Ok(CdsSeen::Cds(self.ds()?)),
            1 => Ok(CdsSeen::Cdnskey(self.dnskey()?)),
            t => Err(CodecError::BadTag("cds-seen", t)),
        }
    }
    fn cds_list(&mut self) -> Result<Arc<[CdsSeen]>> {
        let (span, list) = self.spanned(|d| Ok(d.list(Self::cds_seen)?.into()))?;
        Ok(self.seen.cds.share(span, list))
    }
    fn dnskeys(&mut self) -> Result<Arc<Vec<DnskeyData>>> {
        let (span, keys) = self.spanned(|d| Ok(Arc::new(d.list(Self::dnskey)?)))?;
        Ok(self.seen.keys.share(span, keys))
    }
    fn ns_observation(&mut self) -> Result<NsObservation> {
        Ok(NsObservation {
            ns_name: self.name()?,
            addr: self.addr()?,
            responded: self.boolean()?,
            soa_present: self.boolean()?,
            cds_query_error: self.boolean()?,
            dnskeys: self.dnskeys()?,
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
    /// A class from its index in its table.
    fn class<T: Copy>(&mut self, table: &[T], what: &'static str) -> Result<T> {
        let code = self.u8()?;
        table
            .get(usize::from(code))
            .copied()
            .ok_or(CodecError::BadTag(what, code))
    }
    fn identified(&mut self) -> Result<Identified> {
        Ok(match self.u8()? {
            0 => Identified::Unknown,
            1 => Identified::Single(self.string()?.into()),
            2 => Identified::Multi(self.list(|d| Ok(d.string()?.into()))?),
            t => return Err(CodecError::BadTag("identified", t)),
        })
    }
    fn retry_stats(&mut self) -> Result<RetryStats> {
        Ok(RetryStats {
            failures: self.u32()?,
            timeouts: self.u32()?,
            malformed: self.u32()?,
            servfails: self.u32()?,
            retries: self.u32()?,
            breaker_skips: self.u32()?,
            resolution_failures: self.u32()?,
            rescans: self.u32()?,
            datagrams: self.u32()?,
            tcp_fallbacks: self.u32()?,
            bytes_sent: self.u32()?,
            bytes_received: self.u32()?,
            logical_queries: self.u32()?,
            hostile_mismatched: self.u32()?,
            hostile_foreign: self.u32()?,
            hostile_referral_loops: self.u32()?,
            hostile_wide_referrals: self.u32()?,
            hostile_alias_loops: self.u32()?,
            hostile_budget: self.u32()?,
            hostile_lame: self.u32()?,
        })
    }
    /// An evidence section, sealed: the journal holds it in canonical
    /// order already, so sealing copies nothing, and derives the AB class
    /// the section does not hold.
    fn evidence(&mut self) -> Result<Evidence> {
        let mut e = Evidence::empty(self.name()?, DnssecClass::Unresolvable, false);
        e.ns_names = self.names()?.into();
        e.parent_ds = self.list(Self::ds)?.into();
        e.ns_observations = self.list(Self::ns_observation)?.into();
        e.signal_observations = self.list(Self::signal_observation)?.into();
        e.dnssec = self.class(&DNSSEC_CLASSES, "dnssec-class")?;
        e.cds = self.class(&CDS_CLASSES, "cds-class")?;
        e.operator = self.identified()?;
        e.sampled = self.boolean()?;
        e.degraded = self.boolean()?;
        Ok(e.seal())
    }
    fn zone_scan(&mut self) -> Result<ZoneScan> {
        Ok(Arc::new(ScanRecord {
            evidence: self.evidence()?,
            queries: self.u32()?,
            elapsed: self.u64()?,
            retry_stats: self.retry_stats()?,
        }))
    }
    fn effects(&mut self) -> Result<ZoneEffects> {
        self.list(|d| {
            let key = d.name()?;
            let insert = match d.u8()? {
                0 => CacheInsert::Keys(d.dnskeys()?),
                1 => CacheInsert::Addrs(Arc::new(d.addrs()?)),
                2 => CacheInsert::Referral(Arc::new(d.referral()?)),
                3 => CacheInsert::Cut(CutOutcome {
                    apex: d.name()?,
                    has_ns: d.boolean()?,
                }),
                t => return Err(CodecError::BadTag("cache insert", t)),
            };
            Ok((key, insert))
        })
    }
}

/// Decode one event from a payload produced by [`encode_event`]. The
/// whole payload must be consumed.
pub fn decode_event(payload: &[u8]) -> Result<ZoneEvent> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
        seen: Seen::default(),
    };
    let event = ZoneEvent {
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
        let mut evidence = Evidence::empty(name!("zone.example"), DnssecClass::Island, true);
        evidence.ns_names = [name!("ns1.example"), name!("ns2.example")].into();
        evidence.parent_ds = [DsData {
            key_tag: 4711,
            algorithm: 13,
            digest_type: 2,
            digest: vec![9; 32],
        }]
        .into();
        evidence.ns_observations = [NsObservation {
            ns_name: name!("ns1.example"),
            addr: Addr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x53)),
            responded: true,
            soa_present: true,
            cds_query_error: false,
            dnskeys: Arc::new(vec![key.clone()]),
            cds: [
                CdsSeen::Cds(DsData {
                    key_tag: 4711,
                    algorithm: 13,
                    digest_type: 2,
                    digest: vec![9; 32],
                }),
                CdsSeen::Cdnskey(key.clone()),
            ]
            .into(),
            cds_sig_valid: Some(true),
            csync_present: true,
        }]
        .into();
        evidence.signal_observations = [SignalObservation {
            ns_name: name!("ns2.example"),
            name_unbuildable: false,
            cds: [].into(),
            dnssec_valid: Some(false),
            zone_cut: true,
        }]
        .into();
        evidence.cds = CdsClass::Inconsistent;
        evidence.operator = Identified::Multi(vec!["alpha".into(), "beta".into()]);
        evidence.sampled = true;
        let scan = Arc::new(ScanRecord {
            evidence: evidence.seal(),
            queries: 42,
            elapsed: 1_234_567,
            // Every counter distinct, so the golden pin below catches a
            // field-order slip that a round trip cannot.
            retry_stats: RetryStats {
                failures: 21,
                timeouts: 1,
                malformed: 3,
                servfails: 4,
                retries: 5,
                breaker_skips: 6,
                resolution_failures: 7,
                rescans: 8,
                datagrams: 99,
                tcp_fallbacks: 9,
                bytes_sent: 12_345,
                bytes_received: 67_890,
                logical_queries: 57,
                hostile_mismatched: 11,
                hostile_foreign: 12,
                hostile_referral_loops: 13,
                hostile_wide_referrals: 14,
                hostile_alias_loops: 15,
                hostile_budget: 16,
                hostile_lame: 17,
            },
        });
        ZoneEvent {
            duration_delta: 777_001,
            scan,
            // The kinds interleave, as a scan's inserts do.
            effects: vec![
                (
                    name!("ns1.example"),
                    CacheInsert::Addrs(Arc::new(vec![
                        Addr::V4(Ipv4Addr::new(192, 0, 2, 1)),
                        Addr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
                    ])),
                ),
                (
                    name!("zone.example"),
                    CacheInsert::Keys(Arc::new(vec![key])),
                ),
                (
                    name!("example._signal.ns2.example"),
                    CacheInsert::Cut(CutOutcome {
                        apex: name!("example"),
                        has_ns: false,
                    }),
                ),
                (
                    name!("zone.example"),
                    CacheInsert::Referral(Arc::new(ReferralData {
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
                    })),
                ),
                (
                    name!("ns2.example"),
                    CacheInsert::Addrs(Arc::new(vec![Addr::V4(Ipv4Addr::new(192, 0, 2, 2))])),
                ),
                (
                    // An insecure delegation: `ds: None` is itself
                    // cached state (the negative DS answer).
                    name!("unsigned.example"),
                    CacheInsert::Referral(Arc::new(ReferralData {
                        parent_apex: name!("example"),
                        ns_names: vec![name!("ns.unsigned.example")],
                        ds: None,
                        ds_rrsigs: vec![],
                        child_servers: vec![],
                    })),
                ),
                (
                    name!("_signal.ns2.example"),
                    CacheInsert::Cut(CutOutcome {
                        apex: name!("_signal.ns2.example"),
                        has_ns: true,
                    }),
                ),
            ],
        }
    }

    /// Every field comes back, and the inserts (addr, key, cut, referral,
    /// addr, …) in the order they were made.
    #[test]
    fn event_round_trips_every_field() {
        let event = rich_event();
        let payload = encode_event(&event);
        let back = decode_event(&payload).expect("decode");
        assert_eq!(event, back);
    }

    /// The format-v9 bytes of [`rich_event`], pinned: a round trip
    /// passes whatever order the encoder and decoder agree on, so a
    /// field-order slip (in `retry_stats` above all) only shows here.
    /// Any change to this payload needs a new `FORMAT_VERSION`.
    #[test]
    fn rich_event_bytes_are_pinned() {
        let golden: String = include_str!("testdata/rich_event_v9.hex")
            .split_whitespace()
            .collect();
        let hex: String = encode_event(&rich_event())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(crate::journal::FORMAT_VERSION, 9);
        assert_eq!(hex, golden);
    }

    #[test]
    fn encode_into_appends_exactly_the_standalone_payload() {
        let event = rich_event();
        let mut buf = b"already here".to_vec();
        encode_event_into(&mut buf, &event);
        assert_eq!(buf, [&b"already here"[..], &encode_event(&event)].concat());
    }

    /// A scan's bytes are the event payload after the duration, and
    /// begin with its evidence's bytes.
    #[test]
    fn scan_bytes_are_the_event_payload_after_the_duration() {
        let event = rich_event();
        let mut scan = Vec::new();
        let evidence_len = encode_scan_into(&mut scan, &event.scan);
        let payload = encode_event(&event);
        assert_eq!(&payload[8..8 + scan.len()], &scan[..]);
        let mut evidence = Vec::new();
        encode_evidence_into(&mut evidence, &event.scan.evidence);
        assert_eq!(&scan[..evidence_len], &evidence[..]);
    }

    /// A decoded event holds each value it repeats once: the names, the
    /// key set an observation and the key-cache insert both carry, and
    /// the CDS list two addresses and a signal probe all saw.
    #[test]
    fn decoded_event_shares_what_it_repeats() {
        let mut event = rich_event();
        let evidence = &mut Arc::make_mut(&mut event.scan).evidence;
        let mut observations = evidence.ns_observations.to_vec();
        let second = NsObservation {
            addr: Addr::V4(Ipv4Addr::new(192, 0, 2, 1)),
            ..observations[0].clone()
        };
        observations.push(second);
        evidence.ns_observations = observations.into();
        evidence.signal_observations[0].cds = evidence.ns_observations[0].cds.to_vec().into();
        *evidence = evidence.clone().seal();

        let back = decode_event(&encode_event(&event)).expect("decode");
        assert_eq!(back, event);
        let one_name = |a: &Name, b: &Name| a.wire_bytes().as_ptr() == b.wire_bytes().as_ptr();
        let scan = &back.scan;
        let [first, second] = &scan.ns_observations[..] else {
            panic!("two observations");
        };
        let [(addr_ns, CacheInsert::Addrs(_)), (key_zone, CacheInsert::Keys(keys)), (_, CacheInsert::Cut(outcome)), (cut, CacheInsert::Referral(referral)), ..] =
            &back.effects[..]
        else {
            panic!("rich_event's inserts, in order");
        };
        assert!(one_name(&scan.ns_names[0], &first.ns_name));
        assert!(one_name(&first.ns_name, &second.ns_name));
        assert!(one_name(&first.ns_name, addr_ns));
        assert!(one_name(
            &scan.ns_names[1],
            &scan.signal_observations[0].ns_name
        ));
        assert!(one_name(&scan.name, key_zone));
        assert!(one_name(&scan.name, cut));
        assert!(one_name(&referral.parent_apex, &outcome.apex));
        assert!(Arc::ptr_eq(&first.dnskeys, &second.dnskeys));
        assert!(Arc::ptr_eq(&first.dnskeys, keys));
        assert!(Arc::ptr_eq(&first.cds, &second.cds));
        assert!(Arc::ptr_eq(&first.cds, &scan.signal_observations[0].cds));
    }

    #[test]
    fn minimal_event_round_trips() {
        let event = ZoneEvent {
            duration_delta: 0,
            scan: Arc::new(ScanRecord {
                evidence: Evidence::empty(Name::root(), DnssecClass::Unresolvable, false),
                queries: 0,
                elapsed: 0,
                retry_stats: RetryStats::default(),
            }),
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
