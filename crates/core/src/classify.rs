//! Classification: raw observations → the paper's categories.

use crate::scanner::ChainStatus;
use crate::types::*;
use dns_crypto::{ds_digest, DigestType};
use dns_wire::name::Name;
use dns_wire::rdata::DnskeyData;

/// DNSSEC status (§4.1): Secured / Invalid / Island / Unsigned.
pub fn dnssec_class(
    chain: &ChainStatus,
    observations: &[NsObservation],
    validated_zone_keys: Option<&[DnskeyData]>,
) -> DnssecClass {
    match chain {
        ChainStatus::DsPresent(_) => {
            // DS exists; the zone is Secured iff its DNSKEY set chained
            // and self-validated (the scanner already checked both).
            if validated_zone_keys.is_some() {
                DnssecClass::Secured
            } else {
                DnssecClass::Invalid
            }
        }
        ChainStatus::NoDsAtParent | ChainStatus::InsecureAbove => {
            let has_dnskey = observations.iter().any(|o| !o.dnskeys.is_empty());
            if has_dnskey {
                DnssecClass::Island
            } else {
                DnssecClass::Unsigned
            }
        }
        ChainStatus::Bogus => DnssecClass::Invalid,
        // Chain evidence could not be gathered (unreachable/erroring
        // servers): degrade explicitly rather than guess.
        ChainStatus::Indeterminate => DnssecClass::Indeterminate,
    }
}

/// CDS status (§4.2).
pub fn cds_class(
    observations: &[NsObservation],
    zone_keys: Option<&[DnskeyData]>,
    dnssec: DnssecClass,
) -> CdsClass {
    // Only NSes that answered CDS queries without error AND proved
    // authoritative (served the SOA) participate in the consistency
    // check; lame or parked servers answer everything with nothing and
    // must not masquerade as an inconsistency.
    let answering: Vec<&NsObservation> = observations
        .iter()
        .filter(|o| o.responded && o.soa_present && !o.cds_query_error)
        .collect();
    let union: Vec<CdsSeen> = {
        let mut v: Vec<CdsSeen> = Vec::new();
        for o in &answering {
            for c in &o.cds {
                if !v.contains(c) {
                    v.push(c.clone());
                }
            }
        }
        v.sort();
        v
    };
    if union.is_empty() {
        return CdsClass::Absent;
    }
    // Consistency: every answering NS must serve exactly the union.
    let consistent = answering.iter().all(|o| o.cds == union);
    if !consistent {
        return CdsClass::Inconsistent;
    }
    if union.iter().all(|c| c.is_delete()) {
        return CdsClass::Delete;
    }
    // Signature validity, when the zone is signed.
    if matches!(dnssec, DnssecClass::Secured | DnssecClass::Island) {
        if answering.iter().any(|o| o.cds_sig_valid == Some(false)) {
            return CdsClass::BadSignature;
        }
        // DNSKEY correspondence.
        let keys: Vec<DnskeyData> = zone_keys
            .map(|k| k.to_vec())
            .or_else(|| {
                answering
                    .iter()
                    .find(|o| !o.dnskeys.is_empty())
                    .map(|o| o.dnskeys.clone())
            })
            .unwrap_or_default();
        if !keys.is_empty() && !union_matches_keys(&union, &keys) {
            return CdsClass::MismatchesDnskey;
        }
    }
    CdsClass::Valid
}

/// Does any planted CDS correspond to one of the zone's DNSKEYs?
///
/// For CDNSKEY the public key must match exactly; for CDS the key tag and
/// algorithm must match a key (digest comparison needs the owner name,
/// which `cds_digest_matches` provides for callers that have it — the
/// tag + algorithm check is sufficient to separate the planted mismatch
/// cases and mirrors what a registry checks first).
fn union_matches_keys(union: &[CdsSeen], keys: &[DnskeyData]) -> bool {
    union.iter().any(|c| match c {
        CdsSeen::Cdnskey {
            algorithm,
            public_key,
            ..
        } => keys
            .iter()
            .any(|k| k.algorithm == *algorithm && k.public_key == *public_key),
        CdsSeen::Cds {
            key_tag, algorithm, ..
        } => keys.iter().any(|k| {
            k.algorithm == *algorithm
                && dns_crypto::key_tag(k.flags, k.protocol, k.algorithm, &k.public_key) == *key_tag
        }),
    })
}

/// Full digest check of one CDS against a DNSKEY at `owner` (used by
/// registry-side bootstrap decisions, experiment E7 / the
/// `registry_bootstrap` example).
pub fn cds_digest_matches(owner: &Name, cds: &CdsSeen, key: &DnskeyData) -> bool {
    match cds {
        CdsSeen::Cdnskey {
            algorithm,
            public_key,
            ..
        } => key.algorithm == *algorithm && key.public_key == *public_key,
        CdsSeen::Cds {
            algorithm,
            digest_type,
            digest,
            ..
        } => {
            if key.algorithm != *algorithm {
                return false;
            }
            let mut rdata = Vec::with_capacity(4 + key.public_key.len());
            rdata.extend_from_slice(&key.flags.to_be_bytes());
            rdata.push(key.protocol);
            rdata.push(key.algorithm);
            rdata.extend_from_slice(&key.public_key);
            ds_digest(
                DigestType::from_code(*digest_type),
                &owner.to_wire(),
                &rdata,
            )
            .map(|d| &d == digest)
            .unwrap_or(false)
        }
    }
}

/// Authenticated-Bootstrapping status (§4.3/§4.4 waterfall, Table 3).
pub fn ab_class(
    dnssec: DnssecClass,
    cds: CdsClass,
    signals: &[SignalObservation],
    observations: &[NsObservation],
) -> AbClass {
    let any_signal = signals.iter().any(|s| !s.cds.is_empty());
    if !any_signal {
        return AbClass::NoSignal;
    }
    if dnssec == DnssecClass::Secured {
        return AbClass::AlreadySecured;
    }
    if cds == CdsClass::Delete {
        return AbClass::CannotBootstrap(CannotReason::DeletionRequest);
    }
    match dnssec {
        DnssecClass::Unsigned => {
            return AbClass::CannotBootstrap(CannotReason::ZoneUnsigned);
        }
        DnssecClass::Invalid => {
            return AbClass::CannotBootstrap(CannotReason::ZoneInvalidDnssec);
        }
        _ => {}
    }
    match cds {
        CdsClass::Inconsistent => {
            return AbClass::CannotBootstrap(CannotReason::CdsInconsistent);
        }
        CdsClass::BadSignature => {
            return AbClass::CannotBootstrap(CannotReason::CdsBadSignature);
        }
        CdsClass::MismatchesDnskey => {
            return AbClass::CannotBootstrap(CannotReason::CdsMismatch);
        }
        _ => {}
    }
    // Bootstrappable island with signal RRs: the §4.4 correctness checks,
    // in the paper's order.
    // (i) no zone cut in any signal path;
    if signals.iter().any(|s| s.zone_cut) {
        return AbClass::SignalIncorrect(SignalViolation::ZoneCut);
    }
    // (ii) signal RRs under every NS;
    if signals
        .iter()
        .any(|s| s.cds.is_empty() || s.name_unbuildable)
    {
        return AbClass::SignalIncorrect(SignalViolation::NotUnderEveryNs);
    }
    // (iii) signal DNSSEC valid;
    if signals.iter().any(|s| s.dnssec_valid != Some(true)) {
        return AbClass::SignalIncorrect(SignalViolation::InvalidDnssec);
    }
    // (iv) signal content consistent and matching the in-zone CDS.
    let in_zone: Vec<CdsSeen> = {
        let mut v: Vec<CdsSeen> = Vec::new();
        for o in observations {
            for c in &o.cds {
                if !v.contains(c) {
                    v.push(c.clone());
                }
            }
        }
        v.sort();
        v
    };
    if signals.iter().any(|s| s.cds != in_zone) {
        return AbClass::SignalIncorrect(SignalViolation::ContentMismatch);
    }
    AbClass::SignalCorrect
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;
    use netsim::Addr;
    use std::net::Ipv4Addr;

    fn key(tag_seed: u8) -> DnskeyData {
        DnskeyData {
            flags: 257,
            protocol: 3,
            algorithm: 13,
            public_key: vec![tag_seed; 8],
        }
    }

    fn cds_for(k: &DnskeyData) -> CdsSeen {
        CdsSeen::Cds {
            key_tag: dns_crypto::key_tag(k.flags, k.protocol, k.algorithm, &k.public_key),
            algorithm: k.algorithm,
            digest_type: 2,
            digest: vec![1, 2, 3],
        }
    }

    fn obs(cds: Vec<CdsSeen>, keys: Vec<DnskeyData>, sig_valid: Option<bool>) -> NsObservation {
        let mut cds = cds;
        cds.sort();
        NsObservation {
            ns_name: name!("ns1.op.test"),
            addr: Addr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            responded: true,
            soa_present: true,
            cds_query_error: false,
            dnskeys: keys,
            cds,
            cds_sig_valid: sig_valid,
            csync_present: false,
        }
    }

    fn sig(cds: Vec<CdsSeen>, valid: Option<bool>, cut: bool) -> SignalObservation {
        let mut cds = cds;
        cds.sort();
        SignalObservation {
            ns_name: name!("ns1.op.test"),
            name_unbuildable: false,
            cds,
            dnssec_valid: valid,
            zone_cut: cut,
        }
    }

    #[test]
    fn dnssec_classes() {
        let k = key(1);
        let with_key = vec![obs(vec![], vec![k.clone()], None)];
        let without = vec![obs(vec![], vec![], None)];
        assert_eq!(
            dnssec_class(
                &ChainStatus::DsPresent(vec![]),
                &with_key,
                Some(std::slice::from_ref(&k))
            ),
            DnssecClass::Secured
        );
        assert_eq!(
            dnssec_class(&ChainStatus::DsPresent(vec![]), &with_key, None),
            DnssecClass::Invalid
        );
        assert_eq!(
            dnssec_class(&ChainStatus::NoDsAtParent, &with_key, None),
            DnssecClass::Island
        );
        assert_eq!(
            dnssec_class(&ChainStatus::NoDsAtParent, &without, None),
            DnssecClass::Unsigned
        );
        assert_eq!(
            dnssec_class(&ChainStatus::Bogus, &with_key, None),
            DnssecClass::Invalid
        );
        assert_eq!(
            dnssec_class(&ChainStatus::Indeterminate, &without, None),
            DnssecClass::Indeterminate
        );
    }

    #[test]
    fn cds_absent_and_valid() {
        let k = key(1);
        let c = cds_for(&k);
        assert_eq!(
            cds_class(
                &[obs(vec![], vec![k.clone()], None)],
                Some(std::slice::from_ref(&k)),
                DnssecClass::Island
            ),
            CdsClass::Absent
        );
        assert_eq!(
            cds_class(
                &[obs(vec![c.clone()], vec![k.clone()], Some(true))],
                Some(std::slice::from_ref(&k)),
                DnssecClass::Island
            ),
            CdsClass::Valid
        );
    }

    #[test]
    fn cds_inconsistent_across_ns() {
        let k = key(1);
        let c1 = cds_for(&key(1));
        let c2 = cds_for(&key(2));
        let o1 = obs(vec![c1], vec![k.clone()], Some(true));
        let o2 = obs(vec![c2], vec![k.clone()], Some(true));
        assert_eq!(
            cds_class(&[o1, o2], Some(&[k]), DnssecClass::Island),
            CdsClass::Inconsistent
        );
    }

    #[test]
    fn cds_error_ns_does_not_break_consistency() {
        let k = key(1);
        let c = cds_for(&k);
        let good = obs(vec![c], vec![k.clone()], Some(true));
        let mut legacy = obs(vec![], vec![], None);
        legacy.cds_query_error = true;
        assert_eq!(
            cds_class(&[good, legacy], Some(&[k]), DnssecClass::Island),
            CdsClass::Valid
        );
    }

    #[test]
    fn cds_delete_and_badsig_and_mismatch() {
        let k = key(1);
        let del = CdsSeen::Cds {
            key_tag: 0,
            algorithm: 0,
            digest_type: 0,
            digest: vec![0],
        };
        assert_eq!(
            cds_class(
                &[obs(vec![del], vec![k.clone()], Some(true))],
                Some(std::slice::from_ref(&k)),
                DnssecClass::Island
            ),
            CdsClass::Delete
        );
        let c = cds_for(&k);
        assert_eq!(
            cds_class(
                &[obs(vec![c.clone()], vec![k.clone()], Some(false))],
                Some(std::slice::from_ref(&k)),
                DnssecClass::Island
            ),
            CdsClass::BadSignature
        );
        let foreign = cds_for(&key(9));
        assert_eq!(
            cds_class(
                &[obs(vec![foreign], vec![k.clone()], Some(true))],
                Some(&[k]),
                DnssecClass::Island
            ),
            CdsClass::MismatchesDnskey
        );
    }

    #[test]
    fn cds_on_unsigned_zone_is_reported_by_content() {
        // Unsigned zones skip key-match/signature checks (§4.2 counts
        // them separately as "CDS in unsigned zones").
        let c = cds_for(&key(3));
        assert_eq!(
            cds_class(&[obs(vec![c], vec![], None)], None, DnssecClass::Unsigned),
            CdsClass::Valid
        );
    }

    #[test]
    fn ab_waterfall() {
        let k = key(1);
        let c = cds_for(&k);
        let zone_obs = vec![obs(vec![c.clone()], vec![k.clone()], Some(true))];

        // No signal.
        assert_eq!(
            ab_class(
                DnssecClass::Island,
                CdsClass::Valid,
                &[sig(vec![], None, false)],
                &zone_obs
            ),
            AbClass::NoSignal
        );
        // Already secured.
        assert_eq!(
            ab_class(
                DnssecClass::Secured,
                CdsClass::Valid,
                &[sig(vec![c.clone()], Some(true), false)],
                &zone_obs
            ),
            AbClass::AlreadySecured
        );
        // Deletion request.
        assert_eq!(
            ab_class(
                DnssecClass::Island,
                CdsClass::Delete,
                &[sig(vec![c.clone()], Some(true), false)],
                &zone_obs
            ),
            AbClass::CannotBootstrap(CannotReason::DeletionRequest)
        );
        // Unsigned with signal.
        assert_eq!(
            ab_class(
                DnssecClass::Unsigned,
                CdsClass::Absent,
                &[sig(vec![c.clone()], Some(true), false)],
                &zone_obs
            ),
            AbClass::CannotBootstrap(CannotReason::ZoneUnsigned)
        );
        // Fully correct.
        assert_eq!(
            ab_class(
                DnssecClass::Island,
                CdsClass::Valid,
                &[
                    sig(vec![c.clone()], Some(true), false),
                    sig(vec![c.clone()], Some(true), false)
                ],
                &zone_obs
            ),
            AbClass::SignalCorrect
        );
    }

    #[test]
    fn ab_violations_in_paper_order() {
        let k = key(1);
        let c = cds_for(&k);
        let zone_obs = vec![obs(vec![c.clone()], vec![k], Some(true))];
        // Zone cut wins over everything.
        assert_eq!(
            ab_class(
                DnssecClass::Island,
                CdsClass::Valid,
                &[
                    sig(vec![c.clone()], Some(true), true),
                    sig(vec![], None, false)
                ],
                &zone_obs
            ),
            AbClass::SignalIncorrect(SignalViolation::ZoneCut)
        );
        // Missing under one NS.
        assert_eq!(
            ab_class(
                DnssecClass::Island,
                CdsClass::Valid,
                &[
                    sig(vec![c.clone()], Some(true), false),
                    sig(vec![], None, false)
                ],
                &zone_obs
            ),
            AbClass::SignalIncorrect(SignalViolation::NotUnderEveryNs)
        );
        // Invalid signal DNSSEC.
        assert_eq!(
            ab_class(
                DnssecClass::Island,
                CdsClass::Valid,
                &[sig(vec![c.clone()], Some(false), false)],
                &zone_obs
            ),
            AbClass::SignalIncorrect(SignalViolation::InvalidDnssec)
        );
        // Content mismatch.
        let foreign = cds_for(&key(7));
        assert_eq!(
            ab_class(
                DnssecClass::Island,
                CdsClass::Valid,
                &[sig(vec![foreign], Some(true), false)],
                &zone_obs
            ),
            AbClass::SignalIncorrect(SignalViolation::ContentMismatch)
        );
    }

    #[test]
    fn digest_match_full_check() {
        use dns_zone::ZoneKeys;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let keys = ZoneKeys::generate(&mut rng, dns_crypto::Algorithm::EcdsaP256Sha256);
        let owner = name!("example.ch");
        let ds = keys.ds_data(&owner, DigestType::Sha256);
        let cds = CdsSeen::Cds {
            key_tag: ds.key_tag,
            algorithm: ds.algorithm,
            digest_type: ds.digest_type,
            digest: ds.digest.clone(),
        };
        let dnskey = DnskeyData {
            flags: 257,
            protocol: 3,
            algorithm: 13,
            public_key: keys.ksk.public_key().to_vec(),
        };
        assert!(cds_digest_matches(&owner, &cds, &dnskey));
        // Wrong owner → digest differs.
        assert!(!cds_digest_matches(&name!("other.ch"), &cds, &dnskey));
    }
}
