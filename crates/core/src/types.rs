//! Observation and classification types produced by the scanner.

use crate::classify;
use crate::operator::Identified;
use dns_resolver::validate::DsForm;
use dns_resolver::RetryStats;
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RData};
use netsim::{Addr, SimMicros};
use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;

/// One CDS-shaped record observed on the wire (CDS or CDNSKEY), reduced
/// to a comparable form. A CDNSKEY has the DNSKEY format (RFC 7344
/// §3.2), so it is held as one.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CdsSeen {
    Cds(DsData),
    Cdnskey(DnskeyData),
}

impl CdsSeen {
    /// The RDATA as seen, if it is a CDS or a CDNSKEY — the one reader
    /// of both from a reply.
    pub fn from_rdata(rdata: &RData) -> Option<CdsSeen> {
        match rdata {
            RData::Cds(ds) => Some(CdsSeen::Cds(ds.clone())),
            RData::Cdnskey(key) => Some(CdsSeen::Cdnskey(key.clone())),
            _ => None,
        }
    }

    /// The record as [`ds_matches_key`](dns_resolver::validate::ds_matches_key)
    /// reads it.
    pub fn form(&self) -> DsForm<'_> {
        match self {
            CdsSeen::Cds(ds) => DsForm::Ds(ds),
            CdsSeen::Cdnskey(key) => DsForm::Cdnskey(key),
        }
    }

    /// RFC 8078 deletion sentinel?
    pub fn is_delete(&self) -> bool {
        match self {
            CdsSeen::Cds(ds) => ds.algorithm == 0,
            CdsSeen::Cdnskey(key) => key.algorithm == 0,
        }
    }
}

/// What one nameserver address said when asked about a zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsObservation {
    /// NS hostname this address belongs to.
    pub ns_name: Name,
    /// The address asked.
    pub addr: Addr,
    /// The server answered (vs timeout/unreachable).
    pub responded: bool,
    /// The server answered the SOA query with an actual SOA record —
    /// lame/parked servers (which answer everything but serve nothing)
    /// fail this and are excluded from consistency checks.
    pub soa_present: bool,
    /// The server returned an error rcode for CDS-type queries (the
    /// pre-RFC 3597 behaviour of §4.2).
    pub cds_query_error: bool,
    /// DNSKEY records returned. The type a key-cache insert holds, so an
    /// observation and the insert of the same keys can be one body.
    pub dnskeys: Arc<Vec<DnskeyData>>,
    /// CDS/CDNSKEY content returned (sorted for comparison).
    pub cds: Arc<[CdsSeen]>,
    /// The RRSIGs over the CDS RRset verified against the zone's DNSKEYs.
    pub cds_sig_valid: Option<bool>,
    /// The zone publishes an RFC 7477 CSYNC record (the paper's §6
    /// future-work synchronisation channel).
    pub csync_present: bool,
}

/// The distinct CDS contents `observations` served, sorted.
pub fn cds_union<'a>(observations: impl IntoIterator<Item = &'a NsObservation>) -> Vec<CdsSeen> {
    let mut v: Vec<CdsSeen> = Vec::new();
    for o in observations {
        v.extend_from_slice(&o.cds);
    }
    v.sort();
    v.dedup();
    v
}

/// What the scanner saw for one signal name
/// (`_dsboot.<zone>._signal.<ns>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalObservation {
    /// The NS hostname whose signal subtree was probed.
    pub ns_name: Name,
    /// The signal name could not even be formed (overlong /
    /// in-domain NS).
    pub name_unbuildable: bool,
    /// Signal CDS content found (empty = nothing published there).
    pub cds: Arc<[CdsSeen]>,
    /// The signal records' DNSSEC chain validated end to end.
    pub dnssec_valid: Option<bool>,
    /// An (apparent) zone cut was detected on the signal path.
    pub zone_cut: bool,
}

/// DNSSEC status per paper §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnssecClass {
    Unsigned,
    Secured,
    Invalid,
    Island,
    /// The zone did not resolve at all (excluded from §4.1 percentages).
    Unresolvable,
    /// Transient failures left the evidence incomplete: the zone exists
    /// but could not be classified this pass. Explicitly degraded, never
    /// folded into a substantive class; excluded from §4.1 percentages
    /// like `Unresolvable`, but reported separately with retry
    /// statistics.
    Indeterminate,
}

/// CDS status per paper §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CdsClass {
    /// No CDS anywhere.
    Absent,
    /// Present, consistent across NSes, matches a DNSKEY, validly signed
    /// (where the zone is signed).
    Valid,
    /// Present and consistent, but a deletion request.
    Delete,
    /// NSes disagree about the CDS content.
    Inconsistent,
    /// CDS corresponds to no DNSKEY in the zone.
    MismatchesDnskey,
    /// The RRSIG over the CDS does not verify.
    BadSignature,
}

/// Authenticated-Bootstrapping status per paper §4.3/§4.4 (Table 3's
/// waterfall).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbClass {
    /// No signal RRs anywhere.
    NoSignal,
    /// Signal RRs exist but the zone is already secured.
    AlreadySecured,
    /// Signal RRs exist but the zone cannot be bootstrapped (deletion
    /// request, unsigned, invalid, inconsistent/bad CDS).
    CannotBootstrap(CannotReason),
    /// Bootstrappable and signal RRs exist, but the signal setup violates
    /// RFC 9615.
    SignalIncorrect(SignalViolation),
    /// Bootstrappable with a fully correct signal setup.
    SignalCorrect,
}

/// Why a signal-bearing zone cannot be bootstrapped (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CannotReason {
    DeletionRequest,
    ZoneUnsigned,
    ZoneInvalidDnssec,
    CdsInconsistent,
    CdsBadSignature,
    CdsMismatch,
}

/// Which RFC 9615 requirement the signal setup violates (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalViolation {
    /// A zone cut inside the signal zone path.
    ZoneCut,
    /// Signal RRs not published under every NS.
    NotUnderEveryNs,
    /// Signal records' DNSSEC did not validate (bad or expired).
    InvalidDnssec,
    /// Signal content disagrees between NSes or with the in-zone CDS.
    ContentMismatch,
}

/// What one scan of a zone observed and concluded: the evidence plane.
/// Caches, retries and shard boundaries may change what a scan costs,
/// never its evidence, so evidence comparisons compare this; the journal
/// codec's evidence section (`scan_journal::encode_evidence_into`) is its
/// byte form.
///
/// Sealed: [`Evidence::seal`] is the one place the canonical order is
/// written and the AB class derived, and outside this crate a value
/// comes only from it or from [`Evidence::empty`]. An RRset is a set
/// (RFC 2181 §5), so the order a server serves records in never reaches
/// the evidence. The lists are exactly sized `Box<[T]>`s, owned by the
/// one [`ScanRecord`] that holds the evidence (tables share the record,
/// not its lists); equal key and CDS lists within one evidence are one
/// `Arc`. A list edited after sealing needs another `seal`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Evidence {
    pub name: Name,
    /// NS hostnames per the registry (parent zone), by
    /// [`Name::canonical_cmp`].
    pub ns_names: Box<[Name]>,
    /// DS records at the parent, in RFC 4034 §6.3 order.
    pub parent_ds: Box<[DsData]>,
    /// Per-address observations, by NS name, then address.
    pub ns_observations: Box<[NsObservation]>,
    /// Per-NS-hostname signal observations, by NS name.
    pub signal_observations: Box<[SignalObservation]>,
    /// Classifications. `ab` is a function of the other fields, which
    /// [`Evidence::seal`] derives; it is set nowhere else.
    pub dnssec: DnssecClass,
    pub cds: CdsClass,
    pub ab: AbClass,
    /// Operator identification.
    pub operator: Identified,
    /// Whether Cloudflare-style address sampling was applied.
    pub sampled: bool,
    /// Transient failures reduced the evidence for this zone (even if a
    /// classification was still reached).
    pub degraded: bool,
}

impl Evidence {
    /// Nothing observed: an undelegated zone, or one the scan never
    /// reached.
    pub fn empty(name: Name, dnssec: DnssecClass, degraded: bool) -> Evidence {
        Evidence {
            name,
            ns_names: [].into(),
            parent_ds: [].into(),
            ns_observations: [].into(),
            signal_observations: [].into(),
            dnssec,
            cds: CdsClass::Absent,
            ab: AbClass::NoSignal,
            operator: Identified::Unknown,
            sampled: false,
            degraded,
        }
    }

    /// Put the lists in canonical order — NS names and signal
    /// observations by [`Name::canonical_cmp`] of the NS name,
    /// observations by NS name then address, the DS set and each
    /// observation's DNSKEYs in RFC 4034 §6.3 order — sorting in place;
    /// then make every key list equal to an earlier one that list's `Arc`,
    /// and so every CDS list, in-zone and signal alike: addresses of one
    /// NS set mostly serve the same records.
    /// Last, derive the AB class from the classes and observations.
    pub fn seal(mut self) -> Evidence {
        fn share<T: ?Sized + PartialEq>(seen: &mut Vec<Arc<T>>, list: &mut Arc<T>) {
            match seen.iter().find(|s| **s == *list) {
                Some(first) => *list = Arc::clone(first),
                None => seen.push(Arc::clone(list)),
            }
        }
        self.ns_names.sort_by(Name::canonical_cmp);
        self.parent_ds.sort();
        self.ns_observations
            .sort_by(|a, b| target_order((&a.ns_name, a.addr), (&b.ns_name, b.addr)));
        self.signal_observations
            .sort_by(|a, b| a.ns_name.canonical_cmp(&b.ns_name));
        let (mut keys, mut cds) = (Vec::new(), Vec::new());
        for o in self.ns_observations.iter_mut() {
            if !o.dnskeys.is_sorted() {
                Arc::make_mut(&mut o.dnskeys).sort();
            }
            share(&mut keys, &mut o.dnskeys);
            share(&mut cds, &mut o.cds);
        }
        for s in self.signal_observations.iter_mut() {
            share(&mut cds, &mut s.cds);
        }
        self.ab = classify::ab_class(
            self.dnssec,
            self.cds,
            &self.signal_observations,
            &self.ns_observations,
        );
        self
    }

    /// The zone resolved to a substantive class: the denominator of
    /// §4.1's percentages.
    pub fn resolved(&self) -> bool {
        !matches!(
            self.dnssec,
            DnssecClass::Unresolvable | DnssecClass::Indeterminate
        )
    }

    /// Transient failures touched the scan or left the zone unclassified:
    /// evidence a re-scan pass, or a later epoch, asks for again.
    pub fn weak(&self) -> bool {
        self.degraded || self.dnssec == DnssecClass::Indeterminate
    }

    /// A secure island with a valid CDS: a DS could be bootstrapped from
    /// it (Figure 1's "possible to bootstrap").
    pub fn bootstrappable(&self) -> bool {
        self.dnssec == DnssecClass::Island && self.cds == CdsClass::Valid
    }

    /// All distinct CDS contents seen in-zone (union over NSes).
    pub fn cds_union(&self) -> Vec<CdsSeen> {
        cds_union(self.ns_observations.iter())
    }

    /// Whether any NS failed/errored on CDS queries (§4.2 "lack of
    /// support for CDS").
    pub fn cds_query_failures(&self) -> bool {
        self.ns_observations
            .iter()
            .any(|o| !o.responded || o.cds_query_error)
    }
}

/// The canonical order of a zone's (NS name, address) targets, which the
/// scanner asks them in and its observations keep.
pub(crate) fn target_order(a: (&Name, Addr), b: (&Name, Addr)) -> Ordering {
    a.0.canonical_cmp(b.0).then(a.1.cmp(&b.1))
}

/// One zone's scan, sealed: an `Arc` over its [`ScanRecord`], allocated
/// once by the scanner or the journal decoder. A clone (an epoch table
/// carrying the row forward, a merge sink, a resume state) copies the
/// pointer, so every table holding the scan holds one body. Reads go
/// through `Deref` (`scan.dnssec`, `scan.queries`); there is no
/// `DerefMut`, so an edit goes through `Arc::make_mut`, and an edited
/// evidence is re-sealed.
pub type ZoneScan = Arc<ScanRecord>;

/// The body of a [`ZoneScan`]: its [`Evidence`] and what the scan cost.
/// Reads of the evidence go through `Deref` (`record.dnssec`); there is
/// no `DerefMut`, so the evidence is edited only as `record.evidence`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRecord {
    pub evidence: Evidence,
    /// Scan cost: the logical queries of the walk, the per-address probes
    /// and the signal probes, summed across re-scan passes. It leaves out
    /// NS-host A/AAAA lookups — the scanner's address step and a glueless
    /// referral's walk charge those to the meter but not here, and the
    /// scan clock does not advance for them — so a one-pass zone's
    /// [`RetryStats::logical_queries`] can exceed it (32 against 26 on a
    /// tiny world, a gap of 5–6 on five zones of each; ROADMAP 4(b)).
    pub queries: u32,
    pub elapsed: SimMicros,
    /// Failure/retry accounting for this zone's scan.
    pub retry_stats: RetryStats,
}

impl Deref for ScanRecord {
    type Target = Evidence;
    fn deref(&self) -> &Evidence {
        &self.evidence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;

    fn obs(ns: &str, cds: Vec<CdsSeen>) -> NsObservation {
        NsObservation {
            ns_name: name!(ns),
            addr: Addr::V4(std::net::Ipv4Addr::new(10, 0, 0, 1)),
            responded: true,
            soa_present: true,
            cds_query_error: false,
            dnskeys: Arc::default(),
            cds: cds.into(),
            cds_sig_valid: None,
            csync_present: false,
        }
    }

    fn ds(tag: u16) -> DsData {
        DsData {
            key_tag: tag,
            algorithm: 13,
            digest_type: 2,
            digest: vec![tag as u8; 4],
        }
    }

    fn seen(tag: u16) -> CdsSeen {
        CdsSeen::Cds(ds(tag))
    }

    #[test]
    fn delete_detection() {
        let d = CdsSeen::Cds(DsData::delete_sentinel());
        assert!(d.is_delete());
        assert!(!seen(7).is_delete());
        let k = CdsSeen::Cdnskey(DnskeyData {
            flags: 0,
            protocol: 3,
            algorithm: 0,
            public_key: vec![0],
        });
        assert!(k.is_delete());
    }

    #[test]
    fn cds_union_dedupes_and_sorts() {
        let mut evidence = Evidence::empty(name!("z.test"), DnssecClass::Island, false);
        evidence.ns_observations = [
            obs("ns1.a.test", vec![seen(2), seen(1)]),
            obs("ns2.a.test", vec![seen(1)]),
        ]
        .into();
        let u = evidence.cds_union();
        assert_eq!(u.len(), 2);
        assert!(u[0] < u[1]);
    }

    #[test]
    fn query_failures_flagged() {
        let mut evidence = Evidence::empty(name!("z.test"), DnssecClass::Unsigned, false);
        evidence.ns_observations = [obs("ns1.a.test", vec![])].into();
        assert!(!evidence.cds_query_failures());
        evidence.ns_observations[0].cds_query_error = true;
        assert!(evidence.cds_query_failures());
    }

    /// Sealing orders every list whatever order it was served in, shares
    /// equal lists, and leaves a key list already in order uncopied.
    #[test]
    fn seal_orders_and_shares() {
        let key = |flags: u16| DnskeyData {
            flags,
            protocol: 3,
            algorithm: 13,
            public_key: vec![1],
        };
        let at = |ns: &str, last: u8, keys: Vec<DnskeyData>| NsObservation {
            addr: Addr::V4(std::net::Ipv4Addr::new(10, 0, 0, last)),
            dnskeys: Arc::new(keys),
            ..obs(ns, vec![seen(1)])
        };
        let mut served = Evidence::empty(name!("z.test"), DnssecClass::Secured, false);
        served.ns_names = [
            name!("ns2.a.test"),
            name!("ns1.b.test"),
            name!("ns1.a.test"),
        ]
        .into();
        served.parent_ds = [ds(9), ds(3)].into();
        served.ns_observations = [
            at("ns2.a.test", 1, vec![key(257), key(256)]),
            at("ns1.a.test", 2, vec![key(256), key(257)]),
            at("ns1.a.test", 1, vec![key(257), key(256)]),
        ]
        .into();
        let sealed = served.seal();
        assert_eq!(
            sealed.ns_names[..],
            [
                name!("ns1.a.test"),
                name!("ns2.a.test"),
                name!("ns1.b.test")
            ]
        );
        assert_eq!(sealed.parent_ds[0].key_tag, 3);
        let [a, b, c] = &sealed.ns_observations[..] else {
            panic!("three observations");
        };
        assert_eq!([&a.ns_name, &b.ns_name], [&name!("ns1.a.test"); 2]);
        assert!(a.addr < b.addr);
        assert_eq!(c.ns_name, name!("ns2.a.test"));
        assert_eq!(a.dnskeys[0].flags, 256);
        assert!(Arc::ptr_eq(&a.dnskeys, &b.dnskeys) && Arc::ptr_eq(&b.dnskeys, &c.dnskeys));
        assert!(Arc::ptr_eq(&a.cds, &c.cds));
        let again = sealed.clone().seal();
        assert!(Arc::ptr_eq(&again.ns_observations[0].dnskeys, &a.dnskeys));
        assert_eq!(again, sealed);
    }
}
