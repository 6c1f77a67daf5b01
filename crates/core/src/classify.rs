//! Classification: raw observations → the paper's categories.

use crate::scanner::ChainStatus;
use crate::types::*;
use dns_resolver::validate::ds_matches_key;
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

/// CDS status (§4.2) of the zone at `owner`. `zone_keys` are the zone's
/// authenticated DNSKEYs: validated through its DS, or an island's
/// self-signed set; `None` when it has none.
pub fn cds_class_at(
    owner: &Name,
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
        // Some record of the union must name one of them (DESIGN §5a's
        // ruling: a rollover pre-publishes the DS of a key not yet in the
        // DNSKEY RRset).
        let names_a_key = |c: &CdsSeen| keys.iter().any(|k| ds_matches_key(owner, c.form(), k));
        if !union.iter().any(names_a_key) {
            return CdsClass::MismatchesDnskey;
        }
    }
    CdsClass::Valid
}

/// [`cds_class_at`] at the root, where no zone's CDS digest matches. Only
/// the benchmark's classify probe calls it, and it discards the result.
#[doc(hidden)]
pub fn cds_class(
    observations: &[NsObservation],
    zone_keys: Option<&[DnskeyData]>,
    dnssec: DnssecClass,
) -> CdsClass {
    cds_class_at(&Name::root(), observations, zone_keys, dnssec)
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
}
