//! Observation and classification types produced by the scanner.

use crate::error::RetryStats;
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData};
use netsim::{Addr, SimMicros};

/// One CDS-shaped record observed on the wire (CDS or CDNSKEY), reduced
/// to a comparable form.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CdsSeen {
    Cds {
        key_tag: u16,
        algorithm: u8,
        digest_type: u8,
        digest: Vec<u8>,
    },
    Cdnskey {
        flags: u16,
        algorithm: u8,
        public_key: Vec<u8>,
    },
}

impl CdsSeen {
    pub fn from_ds(d: &DsData) -> Self {
        CdsSeen::Cds {
            key_tag: d.key_tag,
            algorithm: d.algorithm,
            digest_type: d.digest_type,
            digest: d.digest.clone(),
        }
    }

    pub fn from_dnskey(k: &DnskeyData) -> Self {
        CdsSeen::Cdnskey {
            flags: k.flags,
            algorithm: k.algorithm,
            public_key: k.public_key.clone(),
        }
    }

    /// RFC 8078 deletion sentinel?
    pub fn is_delete(&self) -> bool {
        match self {
            CdsSeen::Cds { algorithm, .. } => *algorithm == 0,
            CdsSeen::Cdnskey { algorithm, .. } => *algorithm == 0,
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
    /// DNSKEY records returned.
    pub dnskeys: Vec<DnskeyData>,
    /// CDS/CDNSKEY content returned (sorted for comparison).
    pub cds: Vec<CdsSeen>,
    /// The RRSIGs over the CDS RRset verified against the zone's DNSKEYs.
    pub cds_sig_valid: Option<bool>,
    /// The zone publishes an RFC 7477 CSYNC record (the paper's §6
    /// future-work synchronisation channel).
    pub csync_present: bool,
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
    pub cds: Vec<CdsSeen>,
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

/// Everything measured about one zone. `==` compares every field; the
/// journal codec (`scan_journal::encode_scan_into`) is its byte form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneScan {
    pub name: Name,
    /// NS hostnames per the registry (parent zone).
    pub ns_names: Vec<Name>,
    /// DS records at the parent.
    pub parent_ds: Vec<DsData>,
    /// Per-address observations.
    pub ns_observations: Vec<NsObservation>,
    /// Per-NS-hostname signal observations.
    pub signal_observations: Vec<SignalObservation>,
    /// Classifications.
    pub dnssec: DnssecClass,
    pub cds: CdsClass,
    pub ab: AbClass,
    /// Operator identification.
    pub operator: crate::operator::Identified,
    /// Scan cost.
    pub queries: u32,
    pub elapsed: SimMicros,
    /// Whether Cloudflare-style address sampling was applied.
    pub sampled: bool,
    /// Failure/retry accounting for this zone's scan.
    pub retry_stats: RetryStats,
    /// Transient failures reduced the evidence for this zone (even if a
    /// classification was still reached).
    pub degraded: bool,
}

impl ZoneScan {
    /// The evidence plane of this scan: a copy with the cost counters
    /// (`queries`, `elapsed`, `retry_stats`) zeroed. Caches, retries and
    /// shard boundaries may change what a scan costs, never what it
    /// observed or concluded, so evidence comparisons use this.
    pub fn evidence(&self) -> ZoneScan {
        ZoneScan {
            queries: 0,
            elapsed: 0,
            retry_stats: RetryStats::default(),
            ..self.clone()
        }
    }

    /// All distinct CDS contents seen in-zone (union over NSes).
    pub fn cds_union(&self) -> Vec<CdsSeen> {
        let mut v: Vec<CdsSeen> = Vec::new();
        for o in &self.ns_observations {
            for c in &o.cds {
                if !v.contains(c) {
                    v.push(c.clone());
                }
            }
        }
        v.sort();
        v
    }

    /// Whether any NS failed/errored on CDS queries (§4.2 "lack of
    /// support for CDS").
    pub fn cds_query_failures(&self) -> bool {
        self.ns_observations
            .iter()
            .any(|o| !o.responded || o.cds_query_error)
    }

    /// Whether any signal RRs were observed.
    pub fn has_signal(&self) -> bool {
        self.signal_observations.iter().any(|s| !s.cds.is_empty())
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
            dnskeys: vec![],
            cds,
            cds_sig_valid: None,
            csync_present: false,
        }
    }

    fn seen(tag: u16) -> CdsSeen {
        CdsSeen::Cds {
            key_tag: tag,
            algorithm: 13,
            digest_type: 2,
            digest: vec![tag as u8; 4],
        }
    }

    #[test]
    fn delete_detection() {
        let d = CdsSeen::Cds {
            key_tag: 0,
            algorithm: 0,
            digest_type: 0,
            digest: vec![0],
        };
        assert!(d.is_delete());
        assert!(!seen(7).is_delete());
        let k = CdsSeen::Cdnskey {
            flags: 0,
            algorithm: 0,
            public_key: vec![0],
        };
        assert!(k.is_delete());
    }

    #[test]
    fn cds_union_dedupes_and_sorts() {
        let scan = ZoneScan {
            name: name!("z.test"),
            ns_names: vec![],
            parent_ds: vec![],
            ns_observations: vec![
                obs("ns1.a.test", vec![seen(2), seen(1)]),
                obs("ns2.a.test", vec![seen(1)]),
            ],
            signal_observations: vec![],
            dnssec: DnssecClass::Island,
            cds: CdsClass::Valid,
            ab: AbClass::NoSignal,
            operator: crate::operator::Identified::Unknown,
            queries: 0,
            elapsed: 0,
            sampled: false,
            retry_stats: RetryStats::default(),
            degraded: false,
        };
        let u = scan.cds_union();
        assert_eq!(u.len(), 2);
        assert!(u[0] < u[1]);
    }

    #[test]
    fn query_failures_flagged() {
        let mut scan = ZoneScan {
            name: name!("z.test"),
            ns_names: vec![],
            parent_ds: vec![],
            ns_observations: vec![obs("ns1.a.test", vec![])],
            signal_observations: vec![],
            dnssec: DnssecClass::Unsigned,
            cds: CdsClass::Absent,
            ab: AbClass::NoSignal,
            operator: crate::operator::Identified::Unknown,
            queries: 0,
            elapsed: 0,
            sampled: false,
            retry_stats: RetryStats::default(),
            degraded: false,
        };
        assert!(!scan.cds_query_failures());
        scan.ns_observations[0].cds_query_error = true;
        assert!(scan.cds_query_failures());
    }
}
