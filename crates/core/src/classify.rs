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

/// CDS status (§4.2). `zone_keys` are the zone's authenticated DNSKEYs:
/// validated through its DS, or an island's self-signed set; `None` when
/// it has none.
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
    let union = cds_union(answering.iter().copied());
    if union.is_empty() {
        return CdsClass::Absent;
    }
    // Consistency: every answering NS must serve exactly the union.
    if !answering.iter().all(|o| *o.cds == *union) {
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
        // DNSKEY correspondence, against the zone's authenticated keys.
        // An island whose DNSKEY RRset fails its own signature has none:
        // nothing authenticates its CDS.
        let Some(keys) = zone_keys else {
            return CdsClass::BadSignature;
        };
        if !union_matches_keys(&union, keys) {
            return CdsClass::MismatchesDnskey;
        }
    }
    CdsClass::Valid
}

/// Does any CDS in the union correspond to one of `keys`? A CDNSKEY must
/// equal a key; a CDS matches by key tag and algorithm only, not by the
/// digest `cds_digest_matches` checks, which needs the owner name.
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
    let in_zone = cds_union(observations);
    if signals.iter().any(|s| *s.cds != *in_zone) {
        return AbClass::SignalIncorrect(SignalViolation::ContentMismatch);
    }
    AbClass::SignalCorrect
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;

    /// The chain states no configuration of the scenario space reaches
    /// (`crates/core/tests/rfc_space.rs` covers the rest): a parent chain
    /// that fails validation, and one whose evidence never arrived.
    #[test]
    fn unreachable_chain_states() {
        assert_eq!(
            dnssec_class(&ChainStatus::Bogus, &[], None),
            DnssecClass::Invalid
        );
        assert_eq!(
            dnssec_class(&ChainStatus::Indeterminate, &[], None),
            DnssecClass::Indeterminate
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
