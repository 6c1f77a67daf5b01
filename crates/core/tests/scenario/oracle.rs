//! `rfc_oracle`: the paper's three classes for one [`Config`], read off
//! the RFCs and the paper's §4 definitions alone. It sees the config,
//! never an observation, and shares nothing with the classifier but the
//! class enums (DESIGN.md §5a lists every rule and its source).

use super::{Bailiwick, CdsSet, Config, Ds, KeyRef, Ns, Rec, Signal, SignalZone, ZoneState};
use bootscan::{AbClass, CannotReason, CdsClass, DnssecClass, SignalViolation};
use std::collections::BTreeSet;

/// What the RFCs say a correct scanner must conclude about `c`.
pub fn rfc_oracle(c: &Config) -> (DnssecClass, CdsClass, AbClass) {
    let dnssec = dnssec(c);
    let cds = cds(c, dnssec);
    (dnssec, cds, ab(c, dnssec, cds))
}

/// A server violating RFC 3597 §3 answers every type it does not know —
/// DNSKEY, CDS and CDNSKEY among them — with an error, so it serves none
/// of them.
fn answers_dnssec_types(n: &Ns) -> bool {
    n.cds != CdsSet::Legacy
}

/// Paper §4.1 over RFC 4035 §5.
fn dnssec(c: &Config) -> DnssecClass {
    let ZoneState::Signed { ds, self_sig } = c.zone else {
        return DnssecClass::Unsigned;
    };
    // A DNSKEY RRset no server will serve is not published (§4.1 reads
    // "signed" off the DNSKEY answers).
    let published = c.ns.iter().any(answers_dnssec_types);
    match ds {
        // §4.1: signed, but no DS at the parent — an island of security.
        // RFC 4035 §5.2: without a DS the delegation is insecure, so the
        // island's own signatures decide nothing here.
        Ds::Absent if published => DnssecClass::Island,
        Ds::Absent => DnssecClass::Unsigned,
        // RFC 4035 §5.2: a DS authenticates the DNSKEY RRset only through
        // a key it matches whose RRSIG over that RRset verifies; without
        // one the zone is bogus (§4.1: invalid).
        Ds::Matching if published && self_sig => DnssecClass::Secured,
        Ds::Matching | Ds::Foreign => DnssecClass::Invalid,
    }
}

fn set(recs: Vec<Rec>) -> BTreeSet<Rec> {
    recs.into_iter().collect()
}

/// Paper §4.2 over RFC 7344 §4.1, RFC 8078 §4 and RFC 4034 §5.1.4.
fn cds(c: &Config, dnssec: DnssecClass) -> CdsClass {
    // §4.2 counts servers that error on CDS queries as lacking support;
    // they hold no CDS content to compare.
    let served: Vec<BTreeSet<Rec>> =
        c.ns.iter()
            .filter(|n| answers_dnssec_types(n))
            .map(|n| set(n.cds.records()))
            .collect();
    let union: BTreeSet<Rec> = served.iter().flatten().copied().collect();
    if union.is_empty() {
        return CdsClass::Absent;
    }
    // RFC 7344 §4.1: the parent acts only on a CDS/CDNSKEY RRset that
    // every authoritative server of the child serves alike.
    if served.iter().any(|s| *s != union) {
        return CdsClass::Inconsistent;
    }
    // RFC 8078 §4: the algorithm-0 sentinels request DS deletion.
    if union
        .iter()
        .all(|r| matches!(r, Rec::DeleteCds | Rec::DeleteCdnskey))
    {
        return CdsClass::Delete;
    }
    // The signature and key checks need a DNSKEY RRset to check against;
    // §4.2 reports the CDS of unsigned and invalid zones by content.
    if !matches!(dnssec, DnssecClass::Secured | DnssecClass::Island) {
        return CdsClass::Valid;
    }
    // RFC 7344 §4.1: the CDS/CDNSKEY RRset must be signed by a key of
    // the child's DNSKEY RRset.
    if c.ns.iter().any(|n| n.cds == CdsSet::BadRrsig) {
        return CdsClass::BadSignature;
    }
    // An island's DNSKEY RRset is authenticated by nothing but its own
    // RRSIG; if that fails, no key authenticates the CDS, and a DS built
    // from it would make the zone bogus (RFC 4035 §5.2), which RFC 7344
    // §4.1 forbids the parent to install.
    if let ZoneState::Signed {
        ds: Ds::Absent,
        self_sig: false,
    } = c.zone
    {
        return CdsClass::BadSignature;
    }
    // RFC 7344 §3: a CDS is the DS of one of the child's DNSKEYs, matched
    // by its digest (RFC 4034 §5.1.4, RFC 4035 §5.2); a CDNSKEY is one of
    // them, flags included, since the DS built from it digests them. RFC
    // 7344 §4.1 (Continuity) asks only that the DS set the parent builds
    // not break the delegation, and RFC 4035 §5.2 needs one DS naming a
    // DNSKEY for that: a set that pre-publishes a future key's DS
    // (RFC 6781 §4.1.2) is sound while some record names a key.
    let matches_a_dnskey =
        |r: &Rec| matches!(r, Rec::Cds(KeyRef::Zone) | Rec::Cdnskey(KeyRef::Zone));
    if !union.iter().any(matches_a_dnskey) {
        return CdsClass::MismatchesDnskey;
    }
    CdsClass::Valid
}

/// Paper §4.3 and §4.4's waterfall (Table 3) over RFC 9615 §4.1.
fn ab(c: &Config, dnssec: DnssecClass, cds: CdsClass) -> AbClass {
    // RFC 9615 §4.1: a signaling name cannot be formed under an NS inside
    // the child zone itself.
    let signals: Vec<Option<BTreeSet<Rec>>> =
        c.ns.iter()
            .map(|n| match n.bailiwick {
                Bailiwick::In => None,
                Bailiwick::Sibling | Bailiwick::Out => n.signal_records().map(set),
            })
            .collect();
    if signals.iter().all(Option::is_none) {
        return AbClass::NoSignal;
    }
    // RFC 9615 §4.1 bootstraps only a child that is not yet securely
    // delegated.
    if dnssec == DnssecClass::Secured {
        return AbClass::AlreadySecured;
    }
    let cannot = |r| AbClass::CannotBootstrap(r);
    // Table 3's reasons, in its order.
    match (cds, dnssec) {
        (CdsClass::Delete, _) => return cannot(CannotReason::DeletionRequest),
        (_, DnssecClass::Unsigned) => return cannot(CannotReason::ZoneUnsigned),
        (_, DnssecClass::Invalid) => return cannot(CannotReason::ZoneInvalidDnssec),
        (CdsClass::Inconsistent, _) => return cannot(CannotReason::CdsInconsistent),
        (CdsClass::BadSignature, _) => return cannot(CannotReason::CdsBadSignature),
        (CdsClass::MismatchesDnskey, _) => return cannot(CannotReason::CdsMismatch),
        _ => {}
    }
    let incorrect = |v| AbClass::SignalIncorrect(v);
    let under = |zone: SignalZone| c.ns.iter().any(|n| n.signal == Signal::Copy(zone));
    // §4.4 (i): no zone cut between `_signal.<ns>` and the signaling name.
    if under(SignalZone::Cut) || under(SignalZone::CutReferral) {
        return incorrect(SignalViolation::ZoneCut);
    }
    // (ii) RFC 9615 §4.1: signaling records under every NS hostname.
    if signals.iter().any(Option::is_none) {
        return incorrect(SignalViolation::NotUnderEveryNs);
    }
    // (iii) RFC 9615 §4.1: each signaling RRset validates as secure
    // (RFC 4035 §5).
    if under(SignalZone::Insecure) || under(SignalZone::Bogus) {
        return incorrect(SignalViolation::InvalidDnssec);
    }
    // (iv) RFC 9615 §4.1: each signaling RRset is identical to the
    // child's CDS/CDNSKEY RRsets. Table 3 has no reason for an island
    // without CDS, so an empty in-zone set fails here.
    let in_zone = set(c.ns.iter().flat_map(|n| n.cds.records()).collect());
    if signals.iter().flatten().any(|s| *s != in_zone) {
        return incorrect(SignalViolation::ContentMismatch);
    }
    AbClass::SignalCorrect
}
