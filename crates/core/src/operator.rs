//! DNS operator identification (paper §3 "Identifying the DNS Operator").
//!
//! The operator of a domain is inferred from the *hostnames* of its
//! authoritative NSes — `domaincontrol.com` → GoDaddy,
//! `ns.cloudflare.com` → Cloudflare — with a white-label table for rebranded
//! fleets (the paper's example: `seized.gov` NSes are rebranded
//! Cloudflare).

use dns_wire::name::Name;
use std::collections::HashMap;
use std::sync::Arc;

/// Maps NS-name suffixes to operator display names. Each name is one
/// shared `Arc<str>`, so every zone identified as that operator points at
/// the table's copy.
#[derive(Debug, Clone, Default)]
pub struct OperatorTable {
    /// suffix → operator name.
    suffixes: Vec<(Name, Arc<str>)>,
    /// white-label suffix → canonical operator name.
    white_label: Vec<(Name, Arc<str>)>,
}

/// The outcome of identifying a zone's operator(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Identified {
    /// All NSes belong to one known operator.
    Single(Arc<str>),
    /// NSes belong to more than one known operator (multi-operator
    /// setup), in operator-name order.
    Multi(Vec<Arc<str>>),
    /// No NS matched a known suffix.
    Unknown,
}

impl OperatorTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an operator by NS suffix (e.g. `domaincontrol.com`).
    pub fn add(&mut self, suffix: &Name, operator: &str) {
        self.suffixes.push((suffix.clone(), operator.into()));
    }

    /// Register a white-label suffix that fronts `operator` (the paper's
    /// `seized.gov` → Cloudflare case).
    pub fn add_white_label(&mut self, suffix: &Name, operator: &str) {
        self.white_label.push((suffix.clone(), operator.into()));
    }

    /// Build from the generated ecosystem's operator table, adding every
    /// NS hostname's registrable base as that operator's suffix.
    pub fn from_operators<'a, I>(ops: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a [Name])>,
    {
        let mut t = Self::new();
        let mut seen: HashMap<Name, ()> = HashMap::new();
        for (name, hosts) in ops {
            for h in hosts {
                // Use the host's parent as the suffix (covers both
                // ns1.<base> and <word>.ns.<base> shapes).
                if let Some(suffix) = h.parent() {
                    if seen.insert(suffix.clone(), ()).is_none() {
                        t.add(&suffix, name);
                    }
                }
            }
        }
        t
    }

    /// The operator owning one NS hostname, if known.
    pub fn of_ns(&self, ns: &Name) -> Option<&str> {
        self.lookup(ns).map(|op| &**op)
    }

    /// The table's shared name for the operator owning `ns`.
    fn lookup(&self, ns: &Name) -> Option<&Arc<str>> {
        for (suffix, op) in self.white_label.iter().chain(self.suffixes.iter()) {
            if ns.is_subdomain_of(suffix) {
                return Some(op);
            }
        }
        None
    }

    /// Identify the operator(s) behind a full NS set.
    pub fn identify(&self, ns_set: &[Name]) -> Identified {
        let mut ops: Vec<Arc<str>> = Vec::new();
        let mut any_unknown = false;
        for ns in ns_set {
            match self.lookup(ns) {
                Some(op) => {
                    if !ops.iter().any(|o| o == op) {
                        ops.push(Arc::clone(op));
                    }
                }
                None => any_unknown = true,
            }
        }
        match (ops.len(), any_unknown) {
            (0, _) => Identified::Unknown,
            (1, false) => Identified::Single(ops.pop().unwrap()),
            // One known operator plus unknown NSes: ambiguous — the paper
            // tags these as unknown rather than guessing.
            (1, true) => Identified::Unknown,
            _ => {
                ops.sort();
                ops.shrink_to_fit();
                Identified::Multi(ops)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;

    fn table() -> OperatorTable {
        let mut t = OperatorTable::new();
        t.add(&name!("domaincontrol.com"), "GoDaddy");
        t.add(&name!("ns.cloudflare.com"), "Cloudflare");
        t.add(&name!("desec.io"), "deSEC");
        t.add(&name!("desec.org"), "deSEC");
        t.add_white_label(&name!("seized.gov"), "Cloudflare");
        t
    }

    #[test]
    fn single_operator() {
        let t = table();
        let id = t.identify(&[
            name!("ns1.domaincontrol.com"),
            name!("ns2.domaincontrol.com"),
        ]);
        assert_eq!(id, Identified::Single("GoDaddy".into()));
    }

    #[test]
    fn suffix_match_not_substring() {
        let t = table();
        // evildomaincontrol.com must not match domaincontrol.com.
        assert_eq!(t.of_ns(&name!("ns1.evildomaincontrol.com")), None);
    }

    #[test]
    fn cloudflare_word_names() {
        let t = table();
        assert_eq!(t.of_ns(&name!("asa.ns.cloudflare.com")), Some("Cloudflare"));
        assert_eq!(
            t.identify(&[
                name!("asa.ns.cloudflare.com"),
                name!("elliot.ns.cloudflare.com")
            ]),
            Identified::Single("Cloudflare".into())
        );
    }

    #[test]
    fn white_label_resolves_to_canonical() {
        let t = table();
        assert_eq!(t.of_ns(&name!("ns1.seized.gov")), Some("Cloudflare"));
        assert_eq!(
            t.identify(&[name!("ns1.seized.gov"), name!("asa.ns.cloudflare.com")]),
            Identified::Single("Cloudflare".into())
        );
    }

    #[test]
    fn multi_operator_detected() {
        let t = table();
        let id = t.identify(&[name!("ns1.domaincontrol.com"), name!("ns1.desec.io")]);
        assert_eq!(
            id,
            Identified::Multi(vec!["GoDaddy".into(), "deSEC".into()])
        );
    }

    #[test]
    fn desec_two_suffixes_one_operator() {
        let t = table();
        let id = t.identify(&[name!("ns1.desec.io"), name!("ns2.desec.org")]);
        assert_eq!(id, Identified::Single("deSEC".into()));
    }

    #[test]
    fn unknown_and_ambiguous() {
        let t = table();
        assert_eq!(
            t.identify(&[name!("ns1.nowhere.example")]),
            Identified::Unknown
        );
        // Known + unknown = unknown (the paper's conservative tagging).
        assert_eq!(
            t.identify(&[name!("ns1.domaincontrol.com"), name!("ns1.nowhere.example")]),
            Identified::Unknown
        );
        assert_eq!(t.identify(&[]), Identified::Unknown);
    }

    #[test]
    fn from_operators_builds_suffixes() {
        let hosts_a = [name!("ns1.cleancorp.net"), name!("ns2.cleancorp.net")];
        let hosts_b = [name!("asa.ns.cloudflare.com")];
        let t = OperatorTable::from_operators([
            ("CleanCorp", &hosts_a[..]),
            ("Cloudflare", &hosts_b[..]),
        ]);
        assert_eq!(t.of_ns(&name!("ns1.cleancorp.net")), Some("CleanCorp"));
        assert_eq!(
            t.of_ns(&name!("elliot.ns.cloudflare.com")),
            Some("Cloudflare")
        );
    }
}
