//! RFC 9615 Authenticated Bootstrapping signal names.
//!
//! For a child zone `example.co.uk` served by nameserver
//! `ns1.example.net`, the signaling records live at
//!
//! ```text
//! _dsboot.example.co.uk._signal.ns1.example.net
//! ```
//!
//! (paper Listing 1). The records there are copies of the child's CDS and
//! CDNSKEY RRsets, and must be served — with valid DNSSEC — by the
//! nameservers authoritative for the signaling zone.

use dns_wire::name::{Name, NameError};
use dns_wire::record::{RecordType, RrSet};
use std::fmt;

/// Why a signal name cannot be formed (paper §2, "DS Bootstrapping
/// Limitations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalError {
    /// `_dsboot.<child>._signal.<ns>` exceeds 255 octets.
    NameTooLong,
    /// The nameserver is in-domain (inside the child zone), so no extant
    /// DNSSEC chain can authenticate the signal.
    InDomainNameServer,
}

impl fmt::Display for SignalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalError::NameTooLong => write!(f, "signal name exceeds 255 octets"),
            SignalError::InDomainNameServer => {
                write!(f, "in-domain nameserver cannot carry a signal")
            }
        }
    }
}

impl std::error::Error for SignalError {}

/// The `_signal.<ns>` name under which a nameserver's signaling subtree
/// hangs.
pub fn signal_zone_apex(ns: &Name) -> Result<Name, NameError> {
    ns.prepend_label(b"_signal")
}

/// The full signaling name `_dsboot.<child>._signal.<ns>` for bootstrapping
/// `child` via nameserver `ns`.
pub fn signal_name(child: &Name, ns: &Name) -> Result<Name, SignalError> {
    if ns.is_subdomain_of(child) {
        return Err(SignalError::InDomainNameServer);
    }
    let suffix = signal_zone_apex(ns).map_err(|_| SignalError::NameTooLong)?;
    let prefix = child
        .prepend_label(b"_dsboot")
        .map_err(|_| SignalError::NameTooLong)?;
    prefix.concat(&suffix).map_err(|_| SignalError::NameTooLong)
}

/// Re-home the child's CDS/CDNSKEY RRsets to the signaling name for `ns`.
/// Each signal set shares its body with the child's set: the records
/// are copies by definition, so they are one allocation in memory.
///
/// Sets of other types are skipped — only those two types are signal
/// material per RFC 9615 §2.
pub fn signal_rrsets(
    child: &Name,
    ns: &Name,
    cds_like: &[RrSet],
) -> Result<Vec<RrSet>, SignalError> {
    let owner = signal_name(child, ns)?;
    Ok(cds_like
        .iter()
        .filter(|s| matches!(s.rtype, RecordType::Cds | RecordType::Cdnskey))
        .map(|s| RrSet {
            name: owner.clone(),
            ..s.clone()
        })
        .collect())
}

/// Inverse mapping: given a name inside a `_signal` subtree, recover the
/// child zone name it signals for, if the shape matches
/// `_dsboot.<child>._signal.<ns>`.
pub fn child_from_signal_name(signal: &Name) -> Option<Name> {
    let labels: Vec<&[u8]> = signal.labels().collect();
    if labels.first().copied() != Some(&b"_dsboot"[..]) {
        return None;
    }
    let sig_pos = labels.iter().position(|l| *l == b"_signal")?;
    if sig_pos <= 1 {
        return None;
    }
    Name::from_labels(labels[1..sig_pos].iter().copied()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;
    use dns_wire::rdata::{DsData, RData};
    use dns_wire::record::{Rdatas, Record};

    #[test]
    fn listing1_shape() {
        // Paper Listing 1: example.co.uk with ns1.example.net.
        let n = signal_name(&name!("example.co.uk"), &name!("ns1.example.net")).unwrap();
        assert_eq!(
            n.to_string_fqdn(),
            "_dsboot.example.co.uk._signal.ns1.example.net."
        );
    }

    #[test]
    fn signal_zone_apex_shape() {
        assert_eq!(
            signal_zone_apex(&name!("ns1.example.org")).unwrap(),
            name!("_signal.ns1.example.org")
        );
    }

    #[test]
    fn in_domain_ns_rejected() {
        // Paper §2: example.com with ns1.example.com cannot be
        // bootstrapped.
        assert_eq!(
            signal_name(&name!("example.com"), &name!("ns1.example.com")),
            Err(SignalError::InDomainNameServer)
        );
    }

    #[test]
    fn overlong_names_rejected() {
        let l = "a".repeat(63);
        let child = Name::parse(&format!("{l}.{l}.example")).unwrap();
        let ns = Name::parse(&format!("{l}.{l}.ns.example")).unwrap();
        assert_eq!(signal_name(&child, &ns), Err(SignalError::NameTooLong));
    }

    #[test]
    fn signal_rrsets_copy_cds_only_and_share_its_body() {
        let child = name!("example.ch");
        let ns = name!("ns1.op.net");
        let sets = RrSet::group(&[
            Record::new(child.clone(), 300, RData::Cds(DsData::delete_sentinel())),
            Record::new(child.clone(), 300, RData::Ns(name!("ns1.op.net"))),
        ]);
        let out = signal_rrsets(&child, &ns, &sets).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, name!("_dsboot.example.ch._signal.ns1.op.net"));
        assert_eq!(out[0].rtype, RecordType::Cds);
        assert!(Rdatas::ptr_eq(&out[0].rdatas, &sets[0].rdatas));
    }

    #[test]
    fn child_recovered_from_signal_name() {
        let n = name!("_dsboot.example.co.uk._signal.ns1.example.net");
        assert_eq!(child_from_signal_name(&n), Some(name!("example.co.uk")));
        assert_eq!(child_from_signal_name(&name!("www.example.com")), None);
        assert_eq!(
            child_from_signal_name(&name!("_dsboot._signal.ns1.example.net")),
            None
        );
    }

    #[test]
    fn roundtrip_child_signal_child() {
        let child = name!("some.zone.example");
        let ns = name!("ns2.operator.org");
        let sig = signal_name(&child, &ns).unwrap();
        assert_eq!(child_from_signal_name(&sig), Some(child));
    }
}
