//! The authoritative zone model.

use dns_wire::name::{Name, NameMap};
use dns_wire::rdata::RData;
use dns_wire::record::{Record, RecordClass, RecordType, RrSet};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Wrapper giving [`Name`] the RFC 4034 §6.1 canonical ordering, so the
/// zone's name index iterates in NSEC-chain order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalName(pub Name);

impl PartialOrd for CanonicalName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CanonicalName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.canonical_cmp(&other.0)
    }
}

/// One node: the RRsets present at a single owner name.
///
/// A zone holds hundreds of thousands of nodes, most with one to four
/// RRsets, so a node is one `Vec` sorted by type code and exactly sized
/// (no spare slot), and each RRset's `rdatas` is exactly sized too.
/// Only [`Zone::add`] and [`Zone::remove_rrset`] edit a node, and both
/// keep the two invariants.
#[derive(Debug, Clone, Default)]
pub struct Node {
    /// RRsets in ascending type-code order, at most one per type.
    rrsets: Vec<RrSet>,
}

impl Node {
    /// The RRsets, in ascending type-code order. A `&Vec`, not a slice,
    /// so footprint accounting can read the capacity.
    pub fn rrsets(&self) -> &Vec<RrSet> {
        &self.rrsets
    }

    /// Where the RRset of type code `code` is, or would be inserted.
    fn slot(&self, code: u16) -> Result<usize, usize> {
        self.rrsets.binary_search_by_key(&code, |s| s.rtype.code())
    }

    /// The RRset of `rtype`, if present.
    pub fn rrset(&self, rtype: RecordType) -> Option<&RrSet> {
        self.slot(rtype.code()).ok().map(|i| &self.rrsets[i])
    }

    /// Types present at this node, in ascending type-code order.
    pub fn types(&self) -> impl Iterator<Item = RecordType> + '_ {
        self.rrsets.iter().map(|s| s.rtype)
    }
}

/// An authoritative zone: an apex name plus all in-zone records.
///
/// Exact-match access (every query's path) goes through `nodes`, hashed
/// on the owner name's cached FNV-64; `order` keeps the same names in
/// canonical order for what needs it — NSEC predecessors, iteration and
/// signing. The hash index is only ever probed, never iterated.
#[derive(Debug, Clone)]
pub struct Zone {
    apex: Name,
    nodes: NameMap<Node>,
    order: BTreeSet<CanonicalName>,
}

/// The result of looking a (name, type) pair up inside a zone, mirroring
/// RFC 1034 §4.3.2's algorithm outcomes, borrowing the zone's RRsets. The
/// server layer translates these into complete responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZoneLookup<'a> {
    /// The RRset exists; answer with it.
    Answer(&'a RrSet),
    /// The name exists at a CNAME; chase or return it.
    Cname(&'a RrSet),
    /// The name exists but has no RRset of this type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
    /// The lookup crossed a zone cut: refer to the child zone. Glue for
    /// the NS targets comes from [`Zone::glue`].
    Delegation {
        /// Owner of the delegation point.
        cut: &'a Name,
        /// The NS RRset at the cut.
        ns: &'a RrSet,
        /// DS RRset at the cut, if the delegation is signed.
        ds: Option<&'a RrSet>,
    },
    /// The name is outside this zone entirely.
    OutOfZone,
}

impl Zone {
    /// An empty zone rooted at `apex`.
    pub fn new(apex: Name) -> Self {
        Zone {
            apex,
            nodes: NameMap::default(),
            order: BTreeSet::new(),
        }
    }

    /// The zone's apex (origin) name.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Add one record. Records outside the apex are rejected with `false`.
    ///
    /// Both the node's RRset list and the RRset's `rdatas` grow by exactly
    /// one slot: most RRsets hold one record, and a doubling `Vec` would
    /// leave three empty 96-byte `RData` slots behind in each.
    pub fn add(&mut self, record: Record) -> bool {
        if !record.name.is_subdomain_of(&self.apex) {
            return false;
        }
        let node = self.nodes.entry(record.name.clone()).or_insert_with(|| {
            self.order.insert(CanonicalName(record.name.clone()));
            Node::default()
        });
        let rtype = record.rtype();
        let i = node.slot(rtype.code()).unwrap_or_else(|i| {
            node.rrsets.reserve_exact(1);
            node.rrsets.insert(
                i,
                RrSet {
                    name: record.name.clone(),
                    class: record.class,
                    rtype,
                    ttl: record.ttl,
                    rdatas: Vec::new(),
                },
            );
            i
        });
        let set = &mut node.rrsets[i];
        set.ttl = set.ttl.min(record.ttl);
        if !set.rdatas.contains(&record.rdata) {
            set.rdatas.reserve_exact(1);
            set.rdatas.push(record.rdata);
        }
        true
    }

    /// Add many records; returns how many were in-zone and added.
    pub fn add_all<I: IntoIterator<Item = Record>>(&mut self, records: I) -> usize {
        records
            .into_iter()
            .map(|r| self.add(r))
            .filter(|&added| added)
            .count()
    }

    /// Remove an entire RRset; returns it if present. The node keeps no
    /// spare slot for it.
    pub fn remove_rrset(&mut self, name: &Name, rtype: RecordType) -> Option<RrSet> {
        let node = self.nodes.get_mut(name)?;
        let set = node.rrsets.remove(node.slot(rtype.code()).ok()?);
        if node.rrsets.is_empty() {
            self.nodes.remove(name);
            self.order.remove(&CanonicalName(name.clone()));
        } else {
            node.rrsets.shrink_to_fit();
        }
        Some(set)
    }

    /// The node at exactly `name`, if any RRset exists there.
    pub fn node(&self, name: &Name) -> Option<&Node> {
        self.nodes.get(name)
    }

    /// Exact-match RRset lookup (no delegation logic).
    pub fn rrset(&self, name: &Name, rtype: RecordType) -> Option<&RrSet> {
        self.node(name)?.rrset(rtype)
    }

    /// Whether any RRset exists at `name`.
    pub fn node_exists(&self, name: &Name) -> bool {
        self.nodes.contains_key(name)
    }

    /// Owner names in canonical order.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.order.iter().map(|k| &k.0)
    }

    /// All nodes in canonical order.
    pub fn nodes(&self) -> impl Iterator<Item = (&Name, &Node)> {
        debug_assert_eq!(self.nodes.len(), self.order.len());
        self.names().map(|name| (name, &self.nodes[name]))
    }

    /// All records, flattened, canonical owner order.
    pub fn records(&self) -> Vec<Record> {
        self.nodes()
            .flat_map(|(_, node)| node.rrsets.iter())
            .flat_map(|set| set.records())
            .collect()
    }

    /// Total record count.
    pub fn record_count(&self) -> usize {
        self.nodes()
            .flat_map(|(_, n)| n.rrsets.iter())
            .map(|s| s.rdatas.len())
            .sum()
    }

    /// The delegation point strictly *above* `name` and closest to the
    /// apex (exclusive): the zone cut that occludes `name`, if any. An NS
    /// RRset at a non-apex node is a cut; `name` itself being a cut counts
    /// only for types other than DS lookups (handled by caller).
    pub fn covering_cut(&self, name: &Name) -> Option<&Name> {
        match self.cut_above(name)? {
            ZoneLookup::Delegation { cut, .. } => Some(cut),
            _ => None,
        }
    }

    /// The referral for the cut [`Zone::covering_cut`] finds.
    fn cut_above(&self, name: &Name) -> Option<ZoneLookup<'_>> {
        if !name.is_subdomain_of(&self.apex) {
            return None;
        }
        // Strict ancestors of `name` strictly below the apex, walked
        // upward; the last cut seen is the one RFC 1034's label-by-label
        // descent from the apex would meet first.
        let between = (name.label_count() - self.apex.label_count()).saturating_sub(1);
        let mut best = None;
        let mut cur = name.parent();
        for _ in 0..between {
            let anc = cur?;
            if let Some((owner, node)) = self.nodes.get_key_value(&anc) {
                best = referral(owner, node).or(best);
            }
            cur = anc.parent();
        }
        best
    }

    /// Whether `name` is a delegation point (non-apex node with NS).
    pub fn is_delegation(&self, name: &Name) -> bool {
        name != &self.apex && self.rrset(name, RecordType::Ns).is_some()
    }

    /// Whether `name` is authoritative data of this zone: inside the zone
    /// and not strictly below a delegation point.
    pub fn is_authoritative(&self, name: &Name) -> bool {
        name.is_subdomain_of(&self.apex) && self.covering_cut(name).is_none()
    }

    /// Full RFC 1034 §4.3.2-style lookup.
    ///
    /// `qtype` = DS is special: the DS RRset lives at the *parent* side of
    /// a cut, so a DS query for a delegation point is answered, not
    /// referred.
    pub fn lookup(&self, name: &Name, qtype: RecordType) -> ZoneLookup<'_> {
        if !name.is_subdomain_of(&self.apex) {
            return ZoneLookup::OutOfZone;
        }
        // Check for an occluding cut above the name.
        if let Some(referral) = self.cut_above(name) {
            return referral;
        }
        let Some((owner, node)) = self.nodes.get_key_value(name) else {
            return ZoneLookup::NxDomain;
        };
        // A query *at* a delegation point: DS (and the NS set itself in
        // referral form) belongs to the parent; everything else referred.
        if qtype != RecordType::Ds && owner != &self.apex {
            if let Some(referral) = referral(owner, node) {
                return referral;
            }
        }
        if let Some(set) = node.rrset(qtype) {
            ZoneLookup::Answer(set)
        } else if let Some(cname) = node.rrset(RecordType::Cname) {
            ZoneLookup::Cname(cname)
        } else {
            ZoneLookup::NoData
        }
    }

    /// Glue for a referral's NS set: the address RRsets of every NS
    /// target inside this zone, in NS order, A before AAAA.
    pub fn glue<'a>(&'a self, ns: &'a RrSet) -> impl Iterator<Item = &'a RrSet> {
        ns.rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Ns(target) if target.is_subdomain_of(&self.apex) => self.node(target),
                _ => None,
            })
            .flat_map(|node| {
                [RecordType::A, RecordType::Aaaa]
                    .into_iter()
                    .filter_map(|t| node.rrset(t))
            })
    }

    /// The NSEC "previous name" for denial: the last authoritative owner
    /// canonically ≤ `name`, wrapping to the zone's last name when `name`
    /// sorts before the apex. Used by the server layer to pick the
    /// covering NSEC record.
    pub fn nsec_predecessor(&self, name: &Name) -> Option<&Name> {
        let key = CanonicalName(name.clone());
        self.order
            .range(..=key)
            .next_back()
            .or_else(|| self.order.iter().next_back())
            .map(|k| &k.0)
    }

    /// The owner name strictly before `name` in canonical order, wrapping
    /// to the zone's last name; `name` itself need not be in the zone.
    /// With [`Zone::name_after`], what re-linking an NSEC chain around one
    /// changed owner needs.
    pub fn name_before(&self, name: &Name) -> Option<&Name> {
        let key = CanonicalName(name.clone());
        self.order
            .range(..key)
            .next_back()
            .or_else(|| self.order.iter().next_back())
            .map(|k| &k.0)
    }

    /// The owner name strictly after `name` in canonical order, wrapping
    /// to the zone's first name (the apex).
    pub fn name_after(&self, name: &Name) -> Option<&Name> {
        use std::ops::Bound::{Excluded, Unbounded};
        let key = CanonicalName(name.clone());
        self.order
            .range((Excluded(key), Unbounded))
            .next()
            .or_else(|| self.order.iter().next())
            .map(|k| &k.0)
    }

    /// Render the zone as master-file text.
    pub fn to_zone_file(&self) -> String {
        dns_wire::presentation::to_zone_file(&self.apex, &self.records())
    }

    /// Parse a zone from master-file text rooted at `apex`.
    pub fn from_zone_file(
        apex: Name,
        text: &str,
    ) -> Result<Zone, dns_wire::presentation::ParseError> {
        let records = dns_wire::presentation::parse_zone_file(text, &apex)?;
        let mut z = Zone::new(apex);
        z.add_all(records);
        Ok(z)
    }

    /// Class of the zone's records (IN for everything we build).
    pub fn class(&self) -> RecordClass {
        RecordClass::In
    }
}

/// The referral `node` (owned by `cut`) gives rise to, if it carries NS.
fn referral<'a>(cut: &'a Name, node: &'a Node) -> Option<ZoneLookup<'a>> {
    node.rrset(RecordType::Ns).map(|ns| ZoneLookup::Delegation {
        cut,
        ns,
        ds: node.rrset(RecordType::Ds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;
    use dns_wire::rdata::SoaData;
    use std::net::Ipv4Addr;

    fn soa(apex: &Name) -> Record {
        Record::new(
            apex.clone(),
            300,
            RData::Soa(SoaData {
                mname: name!("ns1.example.ch"),
                rname: name!("hostmaster.example.ch"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            }),
        )
    }

    fn test_zone() -> Zone {
        let apex = name!("example.ch");
        let mut z = Zone::new(apex.clone());
        z.add(soa(&apex));
        z.add(Record::new(
            apex.clone(),
            300,
            RData::Ns(name!("ns1.example.ch")),
        ));
        z.add(Record::new(
            name!("ns1.example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        z.add(Record::new(
            name!("www.example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        ));
        // Delegation: sub.example.ch → ns1.sub.example.ch (with glue).
        z.add(Record::new(
            name!("sub.example.ch"),
            300,
            RData::Ns(name!("ns1.sub.example.ch")),
        ));
        z.add(Record::new(
            name!("ns1.sub.example.ch"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 54)),
        ));
        z
    }

    #[test]
    fn exact_answer() {
        let z = test_zone();
        match z.lookup(&name!("www.example.ch"), RecordType::A) {
            ZoneLookup::Answer(set) => assert_eq!(set.rdatas.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nodata_at_existing_name() {
        let z = test_zone();
        assert_eq!(
            z.lookup(&name!("www.example.ch"), RecordType::Mx),
            ZoneLookup::NoData
        );
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let z = test_zone();
        assert_eq!(
            z.lookup(&name!("missing.example.ch"), RecordType::A),
            ZoneLookup::NxDomain
        );
    }

    #[test]
    fn out_of_zone() {
        let z = test_zone();
        assert_eq!(
            z.lookup(&name!("example.org"), RecordType::A),
            ZoneLookup::OutOfZone
        );
    }

    #[test]
    fn referral_below_cut_with_glue() {
        let z = test_zone();
        match z.lookup(&name!("deep.sub.example.ch"), RecordType::A) {
            ZoneLookup::Delegation { cut, ns, .. } => {
                assert_eq!(cut, &name!("sub.example.ch"));
                assert_eq!(ns.rdatas.len(), 1);
                let glue: Vec<&RrSet> = z.glue(ns).collect();
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].name, name!("ns1.sub.example.ch"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn referral_at_cut_for_non_ds() {
        let z = test_zone();
        assert!(matches!(
            z.lookup(&name!("sub.example.ch"), RecordType::A),
            ZoneLookup::Delegation { .. }
        ));
        assert!(matches!(
            z.lookup(&name!("sub.example.ch"), RecordType::Ns),
            ZoneLookup::Delegation { .. }
        ));
    }

    #[test]
    fn ds_at_cut_answered_from_parent() {
        let mut z = test_zone();
        // Unsigned delegation: DS query → NoData (proving insecurity).
        assert_eq!(
            z.lookup(&name!("sub.example.ch"), RecordType::Ds),
            ZoneLookup::NoData
        );
        z.add(Record::new(
            name!("sub.example.ch"),
            300,
            RData::Ds(dns_wire::rdata::DsData {
                key_tag: 1,
                algorithm: 13,
                digest_type: 2,
                digest: vec![0xaa; 32],
            }),
        ));
        assert!(matches!(
            z.lookup(&name!("sub.example.ch"), RecordType::Ds),
            ZoneLookup::Answer(_)
        ));
    }

    #[test]
    fn apex_ns_is_not_a_delegation() {
        let z = test_zone();
        assert!(!z.is_delegation(&name!("example.ch")));
        assert!(z.is_delegation(&name!("sub.example.ch")));
        assert!(matches!(
            z.lookup(&name!("example.ch"), RecordType::Ns),
            ZoneLookup::Answer(_)
        ));
    }

    #[test]
    fn authoritative_excludes_below_cut() {
        let z = test_zone();
        assert!(z.is_authoritative(&name!("www.example.ch")));
        assert!(z.is_authoritative(&name!("sub.example.ch"))); // the cut itself
        assert!(!z.is_authoritative(&name!("ns1.sub.example.ch"))); // glue
        assert!(!z.is_authoritative(&name!("example.org")));
    }

    #[test]
    fn cname_lookup() {
        let mut z = test_zone();
        z.add(Record::new(
            name!("alias.example.ch"),
            300,
            RData::Cname(name!("www.example.ch")),
        ));
        assert!(matches!(
            z.lookup(&name!("alias.example.ch"), RecordType::A),
            ZoneLookup::Cname(_)
        ));
        // Query for the CNAME type itself answers it.
        assert!(matches!(
            z.lookup(&name!("alias.example.ch"), RecordType::Cname),
            ZoneLookup::Answer(_)
        ));
    }

    #[test]
    fn out_of_zone_records_rejected() {
        let mut z = test_zone();
        assert!(!z.add(Record::new(
            name!("other.org"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        )));
    }

    #[test]
    fn names_iterate_in_canonical_order() {
        let z = test_zone();
        let names: Vec<String> = z.names().map(|n| n.to_string()).collect();
        let mut sorted = names.clone();
        // Canonical order via canonical_cmp.
        let mut named: Vec<Name> = z.names().cloned().collect();
        named.sort_by(|a, b| a.canonical_cmp(b));
        let expect: Vec<String> = named.iter().map(|n| n.to_string()).collect();
        sorted.clone_from(&expect);
        assert_eq!(names, sorted);
        // Apex sorts first.
        assert_eq!(names[0], "example.ch.");
    }

    #[test]
    fn nsec_predecessor_wraps() {
        let z = test_zone();
        // A name canonically before the apex ("example.ca" < "example.ch")
        // wraps to the last zone name.
        let prev = z.nsec_predecessor(&name!("example.ca")).unwrap();
        let mut named: Vec<Name> = z.names().cloned().collect();
        named.sort_by(|a, b| a.canonical_cmp(b));
        assert_eq!(prev, named.last().unwrap());
        // A mid-zone miss gets its canonical predecessor: everything under
        // sub.example.ch sorts before t.example.ch, so the glue node
        // ns1.sub.example.ch is the closest preceding name.
        let prev = z.nsec_predecessor(&name!("t.example.ch")).unwrap();
        assert_eq!(prev, &name!("ns1.sub.example.ch"));
    }

    #[test]
    fn strict_neighbours_wrap_both_ways() {
        let z = test_zone();
        let named: Vec<Name> = z.names().cloned().collect();
        let (first, last) = (&named[0], named.last().unwrap());
        assert_eq!(z.name_before(first), Some(last));
        assert_eq!(z.name_after(last), Some(first));
        assert_eq!(z.name_after(first), Some(&named[1]));
        assert_eq!(z.name_before(&named[1]), Some(first));
        // A name the zone does not hold still has both neighbours.
        let miss = name!("t.example.ch");
        assert_eq!(z.name_before(&miss), Some(&name!("ns1.sub.example.ch")));
        assert_eq!(z.name_after(&miss), Some(&name!("www.example.ch")));
        assert_eq!(Zone::new(name!("empty")).name_before(&miss), None);
    }

    #[test]
    fn zone_file_roundtrip() {
        let z = test_zone();
        let text = z.to_zone_file();
        let back = Zone::from_zone_file(z.apex().clone(), &text).unwrap();
        assert_eq!(back.record_count(), z.record_count());
        assert_eq!(
            back.rrset(&name!("www.example.ch"), RecordType::A),
            z.rrset(&name!("www.example.ch"), RecordType::A)
        );
    }

    #[test]
    fn remove_rrset() {
        let mut z = test_zone();
        assert!(z
            .remove_rrset(&name!("www.example.ch"), RecordType::A)
            .is_some());
        assert!(!z.node_exists(&name!("www.example.ch")));
        assert!(z
            .remove_rrset(&name!("www.example.ch"), RecordType::A)
            .is_none());
    }

    fn spare_slots(z: &Zone) -> usize {
        z.nodes()
            .map(|(_, n)| {
                let sets = n.rrsets.capacity() - n.rrsets.len();
                let rdatas: usize = n
                    .rrsets
                    .iter()
                    .map(|s| s.rdatas.capacity() - s.rdatas.len())
                    .sum();
                sets + rdatas
            })
            .sum()
    }

    #[test]
    fn add_keeps_rrsets_sorted_by_type_code_and_exactly_sized() {
        let mut z = test_zone();
        let apex = name!("example.ch");
        // Out of type-code order: TXT (16), A (1), MX (15) after SOA/NS.
        for rdata in [
            RData::Txt(vec![b"v=1".to_vec()]),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            RData::A(Ipv4Addr::new(192, 0, 2, 2)),
            RData::Mx {
                preference: 10,
                exchange: name!("mx.example.ch"),
            },
        ] {
            z.add(Record::new(apex.clone(), 300, rdata));
        }
        let node = z.node(&apex).unwrap();
        let codes: Vec<u16> = node.types().map(RecordType::code).collect();
        assert_eq!(codes, [1, 2, 6, 15, 16]);
        assert_eq!(node.rrset(RecordType::A).unwrap().rdatas.len(), 2);
        assert!(node.rrset(RecordType::Aaaa).is_none());
        assert_eq!(spare_slots(&z), 0);
    }

    #[test]
    fn remove_rrset_leaves_no_spare_slot() {
        let mut z = test_zone();
        let apex = name!("example.ch");
        z.add(Record::new(
            apex.clone(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        assert!(z.remove_rrset(&apex, RecordType::Ns).is_some());
        assert!(z.remove_rrset(&apex, RecordType::Mx).is_none());
        let node = z.node(&apex).unwrap();
        assert_eq!(
            node.types().collect::<Vec<_>>(),
            [RecordType::A, RecordType::Soa]
        );
        assert_eq!(spare_slots(&z), 0);
    }

    #[test]
    fn min_ttl_kept_on_merge() {
        let mut z = Zone::new(name!("t"));
        z.add(Record::new(
            name!("a.t"),
            900,
            RData::A(Ipv4Addr::new(1, 2, 3, 4)),
        ));
        z.add(Record::new(
            name!("a.t"),
            300,
            RData::A(Ipv4Addr::new(1, 2, 3, 5)),
        ));
        assert_eq!(z.rrset(&name!("a.t"), RecordType::A).unwrap().ttl, 300);
    }
}
