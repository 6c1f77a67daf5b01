//! Turn an [`EcosystemConfig`] into a running, scannable world.
//!
//! Build order:
//! 1. operator NS fleets (hostnames, addresses, per-host zone stores,
//!    servers registered on the network),
//! 2. customer zones per planted category (signed/corrupted as required,
//!    inserted into the serving hosts' stores, delegation + DS recorded
//!    for the TLD),
//! 3. multi-operator and in-domain-NS specials,
//! 4. operator infrastructure ("base") zones, including the RFC 9615
//!    signal records and their planted defects,
//! 5. parking infrastructure for the zone-cut case,
//! 6. TLD zones and the signed root, producing the trust anchors,
//! 7. seed lists.

use crate::psl::PublicSuffixList;
use crate::seeds::SeedLists;
use crate::spec::{AdversaryArchetype, EcosystemConfig, OperatorSpec};
use crate::truth::{CdsState, DnssecState, SignalDefect, SignalTruth, ZoneTruth};
use dns_crypto::{Algorithm, DigestType, UnixTime};
use dns_server::{AuthServer, ByzantineMode, ByzantineServer, ParkingServer, Quirks, ZoneStore};
use dns_wire::name::Name;
use dns_wire::rdata::{DsData, RData, SoaData};
use dns_wire::record::{Record, RecordType};
use dns_zone::keys::CdsPublication;
use dns_zone::signer::Denial;
use dns_zone::{signal, Corruption, Zone, ZoneKeys, ZoneSigner};
use netsim::{Addr, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::{Arc, LazyLock};

/// Public view of one operator after building.
#[derive(Debug, Clone)]
pub struct OperatorInfo {
    pub name: String,
    pub ns_base: String,
    pub swiss: bool,
    /// NS hostnames of the fleet.
    pub hosts: Vec<Name>,
    /// Addresses per hostname (v4 then v6).
    pub host_addrs: Vec<Vec<Addr>>,
}

/// The zone-shaping knobs of one operator, retained from its spec so
/// the churn model can rebuild a customer zone exactly the way this
/// operator would have built it (same denial flavour, same CDS policy,
/// same signal behaviour). Index-aligned with [`Ecosystem::operators`].
#[derive(Debug, Clone, Copy)]
pub struct OperatorFlavor {
    /// NSEC3 denial chains instead of NSEC.
    pub nsec3: bool,
    /// CDS/CDNSKEY publication policy.
    pub cds_publication: dns_zone::CdsPublication,
    /// Publishes CSYNC alongside CDS for signed zones.
    pub publish_csync: bool,
    /// Operates RFC 9615 signal zones.
    pub signal_enabled: bool,
    /// Legacy (pre-RFC 3597) software — excluded from churn migration.
    pub pre_rfc3597: bool,
}

/// The built world.
pub struct Ecosystem {
    pub net: Arc<Network>,
    /// Root server addresses (resolver hints).
    pub roots: Vec<Addr>,
    /// DS-form trust anchors for the root zone.
    pub anchors: Vec<DsData>,
    /// Ground truth for every generated customer zone.
    pub truth: Vec<ZoneTruth>,
    pub operators: Vec<OperatorInfo>,
    pub seeds: SeedLists,
    pub psl: PublicSuffixList,
    /// The scan epoch (virtual seconds).
    pub now: UnixTime,
    /// Per-suffix registry zone stores — the write surface a registry
    /// implementing RFC 9615 uses to install DS records (see the
    /// `registry_bootstrap` example).
    pub registry_stores: HashMap<Name, Arc<dns_server::ZoneStore>>,
    /// Signing keys per TLD, needed to re-sign a TLD zone after a DS
    /// installation.
    pub tld_keys: HashMap<Name, ZoneKeys>,
    /// Per-operator zone stores, index-aligned with `operators` (one
    /// store per NS hostname). The churn model's write surface: a
    /// customer zone lives in the stores of the hosts that serve it.
    pub operator_stores: Vec<Vec<Arc<dns_server::ZoneStore>>>,
    /// Per-operator zone-shaping knobs, index-aligned with `operators`.
    pub operator_flavors: Vec<OperatorFlavor>,
    /// Signing keys per operator base zone. Signal churn re-signs a base
    /// zone with its *original* keys, so the DS at the TLD — and every
    /// cached validated key set — stays valid across the mutation.
    pub base_keys: HashMap<Name, ZoneKeys>,
    /// Planted signal-RRSIG defects per base zone `(badsig, expired)`,
    /// re-applied verbatim whenever churn re-signs that base.
    pub base_defects: HashMap<Name, (Vec<Name>, Vec<Name>)>,
}

impl Ecosystem {
    /// Ground truth for a zone by name (linear scan; fine for tests).
    pub fn truth_of(&self, name: &Name) -> Option<&ZoneTruth> {
        self.truth.iter().find(|t| &t.name == name)
    }
}

/// Cloudflare-style NS name words (the paper's `asa` / `elliot`).
const NS_WORDS: &[&str] = &[
    "asa", "elliot", "cody", "dana", "ines", "jim", "kate", "lou", "mira", "noah", "omar", "pia",
];

struct OpRuntime {
    spec: OperatorSpec,
    info: OperatorInfo,
    /// One store per NS hostname (zones Arc-shared between them unless
    /// divergent content is planted).
    stores: Vec<Arc<ZoneStore>>,
    /// Signal records pending insertion into base zones, keyed by the
    /// base-zone apex they belong to.
    pending_signal: HashMap<Name, Vec<Record>>,
    /// Signal names whose RRSIGs must be corrupted / expired post-signing.
    defect_badsig: Vec<Name>,
    defect_expired: Vec<Name>,
    /// Signing keys per base zone, retained for the churn model.
    /// A plain list (not a map): insertion order is build order, and the
    /// finish loop folds it into the `Ecosystem::base_keys` map.
    base_key_list: Vec<(Name, ZoneKeys)>,
}

struct Builder {
    cfg: EcosystemConfig,
    net: Arc<Network>,
    rng: StdRng,
    psl: PublicSuffixList,
    next_v4: u32,
    next_v6: u64,
    ops: Vec<OpRuntime>,
    /// TLD zone contents accumulated during generation.
    tlds: BTreeMap<Name, Zone>,
    truth: Vec<ZoneTruth>,
    zone_seq: u64,
    /// Extra (zone, store) insertions for special servers.
    parking_addr: Option<Addr>,
    /// Separate address pool (10.200/16) for the adversarial tier, so
    /// benign address allocation is identical with or without it — and so
    /// tests can attribute network accounting to hostile infrastructure
    /// by prefix.
    next_adv_v4: u32,
    /// Keys for the `zzadv` registry, drawn from the adversary RNG so the
    /// benign key stream (and thus the root keys) is untouched.
    adv_tld_keys: Option<ZoneKeys>,
}

/// Build the world described by `cfg`.
pub fn build(cfg: EcosystemConfig) -> Ecosystem {
    let seed = cfg.seed;
    let net = Arc::new(Network::new(seed));
    let mut psl = PublicSuffixList::simulated();
    if !cfg.adversaries.is_empty() {
        // The hostile tier's registry. Registered before TLD-zone init so
        // adversarial zone names are registrable; everything else about
        // the tier (addresses, keys, servers) is kept off the benign
        // RNG/address streams so the benign world is byte-identical.
        psl.add(Name::parse("zzadv").unwrap());
    }
    let mut b = Builder {
        rng: StdRng::seed_from_u64(seed),
        net,
        psl,
        next_v4: 0x0a00_0001, // 10.0.0.1
        next_v6: 1,
        ops: Vec::new(),
        tlds: BTreeMap::new(),
        truth: Vec::new(),
        zone_seq: 0,
        parking_addr: None,
        next_adv_v4: 0x0ac8_0001, // 10.200.0.1
        adv_tld_keys: None,
        cfg,
    };
    b.init_tld_zones();
    b.init_operators();
    b.generate_customer_zones();
    b.generate_multi_operator_zones();
    b.generate_in_domain_zones();
    b.build_parking_infra();
    b.finish_operator_base_zones();
    b.build_adversaries();
    let (roots, anchors, registry_stores, tld_keys) = b.finish_registries();
    let seeds = SeedLists::generate(&b.truth, &b.psl, b.cfg.seed ^ 0x5eed);
    let mut operator_stores = Vec::with_capacity(b.ops.len());
    let mut operator_flavors = Vec::with_capacity(b.ops.len());
    let mut base_keys = HashMap::new();
    let mut base_defects = HashMap::new();
    for o in &b.ops {
        operator_stores.push(o.stores.clone());
        operator_flavors.push(OperatorFlavor {
            nsec3: o.spec.nsec3,
            cds_publication: o.spec.cds_publication,
            publish_csync: o.spec.publish_csync,
            signal_enabled: o.spec.signal_enabled,
            pre_rfc3597: o.spec.quirks.pre_rfc3597,
        });
        for (base, keys) in &o.base_key_list {
            base_keys.insert(base.clone(), keys.clone());
            let badsig: Vec<Name> = o
                .defect_badsig
                .iter()
                .filter(|n| n.is_subdomain_of(base))
                .cloned()
                .collect();
            let expired: Vec<Name> = o
                .defect_expired
                .iter()
                .filter(|n| n.is_subdomain_of(base))
                .cloned()
                .collect();
            base_defects.insert(base.clone(), (badsig, expired));
        }
    }
    Ecosystem {
        net: b.net,
        roots,
        anchors,
        truth: b.truth,
        operators: b.ops.into_iter().map(|o| o.info).collect(),
        seeds,
        psl: b.psl,
        now: b.cfg.now,
        registry_stores,
        tld_keys,
        operator_stores,
        operator_flavors,
        base_keys,
        base_defects,
    }
}

/// The SOA MNAME and RNAME of every generated zone, parsed once: each
/// zone's SOA holds clones, which share one buffer per name.
static SOA_NAMES: LazyLock<(Name, Name)> = LazyLock::new(|| {
    (
        Name::parse("ns.invalid").expect("valid SOA MNAME literal"),
        Name::parse("hostmaster.invalid").expect("valid SOA RNAME literal"),
    )
});

/// The SOA every generated zone carries.
pub(crate) fn soa(apex: &Name) -> Record {
    let (mname, rname) = &*SOA_NAMES;
    Record::new(
        apex.clone(),
        3600,
        RData::Soa(SoaData {
            mname: mname.clone(),
            rname: rname.clone(),
            serial: 20_250_401,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
    )
}

/// Leaf-zone signer honouring the operator's denial-chain flavour.
pub(crate) fn leaf_signer(now: UnixTime, nsec3: bool) -> ZoneSigner {
    let s = ZoneSigner::new(now);
    if nsec3 {
        s.with_denial(Denial::Nsec3 {
            iterations: 0,
            salt: [0x5a, 0x17, 0xed, 0x01],
        })
    } else {
        s
    }
}

impl Builder {
    fn alloc_v4(&mut self) -> Addr {
        let v = self.next_v4;
        self.next_v4 += 1;
        Addr::V4(Ipv4Addr::from(v))
    }

    fn alloc_v6(&mut self) -> Addr {
        let v = self.next_v6;
        self.next_v6 += 1;
        Addr::V6(Ipv6Addr::from((0xfc00u128 << 112) | v as u128))
    }

    fn alloc_adv_v4(&mut self) -> Addr {
        let v = self.next_adv_v4;
        self.next_adv_v4 += 1;
        Addr::V4(Ipv4Addr::from(v))
    }

    fn signer(&self) -> ZoneSigner {
        ZoneSigner::new(self.cfg.now)
    }

    fn init_tld_zones(&mut self) {
        let suffixes: Vec<Name> = self.psl.suffixes().cloned().collect();
        for s in suffixes {
            let mut z = Zone::new(s.clone());
            z.add(soa(&s));
            // Placeholder apex NS; replaced with the shared registry
            // server name when the zone is finalised.
            let ns = s
                .prepend_label(b"nic")
                .unwrap()
                .prepend_label(b"ns1")
                .unwrap();
            z.add(Record::new(s.clone(), 3600, RData::Ns(ns)));
            self.tlds.insert(s, z);
        }
    }

    fn init_operators(&mut self) {
        let specs = self.cfg.operators.clone();
        for spec in specs {
            let host_names: Vec<Name> = if !spec.ns_host_names.is_empty() {
                spec.ns_host_names
                    .iter()
                    .map(|h| Name::parse(h).expect("valid ns host name"))
                    .collect()
            } else if spec.ns_base.starts_with("ns.") {
                // Cloudflare style: <word>.ns.cloudflare.com.
                (0..spec.ns_hosts)
                    .map(|i| {
                        Name::parse(&format!(
                            "{}.{}",
                            NS_WORDS[i % NS_WORDS.len()],
                            spec.ns_base
                        ))
                        .unwrap()
                    })
                    .collect()
            } else {
                (0..spec.ns_hosts)
                    .map(|i| Name::parse(&format!("ns{}.{}", i + 1, spec.ns_base)).unwrap())
                    .collect()
            };
            let mut host_addrs = Vec::new();
            let mut stores = Vec::new();
            for _ in &host_names {
                let store = Arc::new(ZoneStore::new());
                let quirks = Quirks {
                    pre_rfc3597: spec.quirks.pre_rfc3597,
                    transient_badsig: spec.quirks.transient_badsig,
                    seed: self.cfg.seed ^ stores.len() as u64,
                };
                let sid = self
                    .net
                    .register(AuthServer::new(Arc::clone(&store)).with_quirks(quirks));
                let mut addrs = Vec::new();
                for _ in 0..spec.addrs_per_host.0 {
                    let a = self.alloc_v4();
                    self.net.bind(a, sid, 12_000, 3_000, 0.001, spec.backends);
                    addrs.push(a);
                }
                for _ in 0..spec.addrs_per_host.1 {
                    let a = self.alloc_v6();
                    self.net.bind(a, sid, 12_000, 3_000, 0.001, spec.backends);
                    addrs.push(a);
                }
                host_addrs.push(addrs);
                stores.push(store);
            }
            self.ops.push(OpRuntime {
                info: OperatorInfo {
                    name: spec.name.clone(),
                    ns_base: spec.ns_base.clone(),
                    swiss: spec.swiss,
                    hosts: host_names,
                    host_addrs,
                },
                spec,
                stores,
                pending_signal: HashMap::new(),
                defect_badsig: Vec::new(),
                defect_expired: Vec::new(),
                base_key_list: Vec::new(),
            });
        }
    }

    /// Draw a TLD for an operator's next zone.
    fn draw_tld(&mut self, op_idx: usize) -> Name {
        let tld_weights = &self.ops[op_idx].spec.tlds;
        let total: f64 = tld_weights.iter().map(|(_, w)| w).sum();
        let mut x: f64 = self.rng.gen::<f64>() * total;
        for (t, w) in tld_weights {
            x -= w;
            if x <= 0.0 {
                return Name::parse(t).unwrap();
            }
        }
        Name::parse(&tld_weights[0].0).unwrap()
    }

    fn next_zone_name(&mut self, op_idx: usize) -> Name {
        let tld = self.draw_tld(op_idx);
        self.zone_seq += 1;
        tld.prepend_label(format!("d{:07}", self.zone_seq).as_bytes())
            .unwrap()
    }

    /// Which two NS hosts of operator `op` serve the next zone.
    fn pick_hosts(&mut self, op_idx: usize) -> (usize, usize) {
        let n = self.ops[op_idx].info.hosts.len();
        if n <= 2 {
            (0, 1.min(n - 1))
        } else {
            let a = self.rng.gen_range(0..n);
            (a, (a + 1) % n)
        }
    }

    /// Category descriptor consumed by `make_zone`.
    fn plant(
        &mut self,
        op_idx: usize,
        count: usize,
        dnssec: DnssecState,
        cds: CdsState,
        signal_eligible: bool,
        errant_ds: bool,
    ) {
        for _ in 0..count {
            let name = self.next_zone_name(op_idx);
            let hosts = self.pick_hosts(op_idx);
            self.make_zone(
                &name,
                op_idx,
                hosts,
                dnssec,
                cds,
                signal_eligible,
                None,
                errant_ds,
            );
        }
    }

    /// Create one customer zone, wire it up, record truth.
    ///
    /// `second_op` plants a multi-operator setup: the second operator's
    /// first host also serves the zone (with divergent CDS when `cds` is
    /// `Inconsistent`).
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one independently-varied axis of the zone truth table; \
                  collapsing them into a struct would just move the noise"
    )]
    fn make_zone(
        &mut self,
        name: &Name,
        op_idx: usize,
        hosts: (usize, usize),
        dnssec: DnssecState,
        cds: CdsState,
        signal_eligible: bool,
        second_op: Option<usize>,
        errant_ds: bool,
    ) {
        let tld = name.parent().expect("registrable zone has a parent");
        let ns_names: Vec<Name> = {
            let mut v = vec![
                self.ops[op_idx].info.hosts[hosts.0].clone(),
                self.ops[op_idx].info.hosts[hosts.1].clone(),
            ];
            if let Some(op2) = second_op {
                v.push(self.ops[op2].info.hosts[0].clone());
            }
            v.dedup();
            v
        };

        // Base records.
        let mut zone = Zone::new(name.clone());
        zone.add(soa(name));
        for ns in &ns_names {
            zone.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
        }

        let cds_policy = self.ops[op_idx].spec.cds_publication;
        let publish_csync = self.ops[op_idx].spec.publish_csync;
        let keys = ZoneKeys::generate(&mut self.rng, Algorithm::EcdsaP256Sha256);
        let throwaway = ZoneKeys::generate(&mut self.rng, Algorithm::EcdsaP256Sha256);

        // CDS records by state (added before signing so they get RRSIGs).
        let cds_records: Vec<Record> = match cds {
            CdsState::None => Vec::new(),
            CdsState::Valid | CdsState::BadSignature | CdsState::Inconsistent => {
                keys.cds_records(name, 300, cds_policy)
            }
            CdsState::Delete => ZoneKeys::delete_records(name, 300, cds_policy),
            CdsState::MismatchesDnskey => throwaway.cds_records(name, 300, cds_policy),
        };
        for r in &cds_records {
            zone.add(r.clone());
        }
        if publish_csync && matches!(dnssec, DnssecState::Secured | DnssecState::Island) {
            zone.add(dns_zone::csync_record(name, 300, 20_250_401, false));
        }

        // Sign per DNSSEC state, with the operator's denial flavour.
        match dnssec {
            DnssecState::Unsigned => {}
            DnssecState::Secured | DnssecState::Island => {
                leaf_signer(self.cfg.now, self.ops[op_idx].spec.nsec3).sign(&mut zone, &keys);
            }
            DnssecState::Invalid if errant_ds => {
                // Errant DS in the parent over a plain unsigned zone —
                // the no-DNSSEC-operator case; nothing to sign here.
            }
            DnssecState::Invalid => {
                leaf_signer(self.cfg.now, self.ops[op_idx].spec.nsec3)
                    .with_corruption(Corruption {
                        garbage_signatures: true,
                        expired: false,
                        only_types: &[],
                    })
                    .sign(&mut zone, &keys);
            }
        }

        // Post-sign CDS signature corruption.
        if cds == CdsState::BadSignature {
            corrupt_rrsigs_at(&mut zone, name, &[RecordType::Cds, RecordType::Cdnskey]);
        }

        // Parent-side records: delegation NS + DS when secured/invalid.
        {
            let tldz = self.tlds.get_mut(&tld).expect("tld exists");
            for ns in &ns_names {
                tldz.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
            }
            match dnssec {
                DnssecState::Secured | DnssecState::Invalid => {
                    let src = if errant_ds { &throwaway } else { &keys };
                    for r in src.ds_records(name, 3600, DigestType::Sha256) {
                        tldz.add(r);
                    }
                }
                _ => {}
            }
        }

        // Install into the serving hosts' stores.
        let arc = Arc::new(zone);
        self.ops[op_idx].stores[hosts.0].insert_shared(Arc::clone(&arc));
        if hosts.1 != hosts.0 {
            if cds == CdsState::Inconsistent && second_op.is_none() {
                // Intra-operator divergence: host 1 serves different CDS.
                let mut alt = Zone::new(name.clone());
                alt.add(soa(name));
                for ns in &ns_names {
                    alt.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
                }
                for r in throwaway.cds_records(name, 300, cds_policy) {
                    alt.add(r);
                }
                self.signer().sign(&mut alt, &keys);
                self.ops[op_idx].stores[hosts.1].insert_shared(Arc::new(alt));
            } else {
                self.ops[op_idx].stores[hosts.1].insert_shared(Arc::clone(&arc));
            }
        }
        if let Some(op2) = second_op {
            if cds == CdsState::Inconsistent {
                let mut alt = Zone::new(name.clone());
                alt.add(soa(name));
                for ns in &ns_names {
                    alt.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
                }
                for r in throwaway.cds_records(name, 300, cds_policy) {
                    alt.add(r);
                }
                self.signer().sign(&mut alt, &keys);
                self.ops[op2].stores[0].insert_shared(Arc::new(alt));
            } else {
                self.ops[op2].stores[0].insert_shared(Arc::clone(&arc));
            }
        }

        // Signal publication.
        let spec_signal = self.ops[op_idx].spec.signal_enabled;
        let mut signal = SignalTruth::NotPublished;
        if spec_signal && signal_eligible {
            // Copies of whatever CDS-shaped records the zone carries (or a
            // throwaway set for unsigned-with-signal zones).
            let material = if cds_records.is_empty() {
                throwaway.cds_records(name, 300, cds_policy)
            } else {
                cds_records.clone()
            };
            let mut defect = SignalDefect::None;
            // Apply pending operator defects to bootstrappable zones.
            if dnssec == DnssecState::Island && cds == CdsState::Valid {
                let d = &mut self.ops[op_idx].spec.signal_defects;
                if d.zone_cut > 0 {
                    d.zone_cut -= 1;
                    defect = SignalDefect::ZoneCut;
                } else if d.missing_under_ns > 0 {
                    d.missing_under_ns -= 1;
                    defect = SignalDefect::MissingUnderSomeNs;
                } else if d.badsig > 0 {
                    d.badsig -= 1;
                    defect = SignalDefect::BadSignature;
                } else if d.expired > 0 {
                    d.expired -= 1;
                    defect = SignalDefect::ExpiredSignature;
                }
            }
            let publish_hosts: Vec<usize> = match defect {
                SignalDefect::MissingUnderSomeNs => vec![hosts.0],
                _ => vec![hosts.0, hosts.1],
            };
            for &h in &publish_hosts {
                let ns = self.ops[op_idx].info.hosts[h].clone();
                if let Ok(recs) = signal::signal_records(name, &ns, &material) {
                    let base = self
                        .psl
                        .registrable_part(&ns)
                        .expect("operator ns under a known suffix");
                    let sig_name = recs.first().map(|r| r.name.clone());
                    self.ops[op_idx]
                        .pending_signal
                        .entry(base)
                        .or_default()
                        .extend(recs);
                    if let Some(sn) = sig_name {
                        match defect {
                            SignalDefect::BadSignature => self.ops[op_idx].defect_badsig.push(sn),
                            SignalDefect::ExpiredSignature => {
                                self.ops[op_idx].defect_expired.push(sn)
                            }
                            _ => {}
                        }
                    }
                }
            }
            if defect == SignalDefect::ZoneCut {
                // Replace one NS at the registry with the parked typo
                // host: the signal path under it crosses apparent cuts.
                let tldz = self.tlds.get_mut(&tld).expect("tld exists");
                tldz.remove_rrset(name, RecordType::Ns);
                let typo = Name::parse("ns1.desc.io").unwrap();
                tldz.add(Record::new(name.clone(), 3600, RData::Ns(typo)));
                tldz.add(Record::new(
                    name.clone(),
                    3600,
                    RData::Ns(ns_names[1].clone()),
                ));
            }
            signal = SignalTruth::Published(defect);
        }

        self.truth.push(ZoneTruth {
            name: name.clone(),
            operator: op_idx,
            second_operator: second_op,
            dnssec,
            cds,
            signal,
            legacy_ns: self.ops[op_idx].spec.quirks.pre_rfc3597,
            in_domain_ns: false,
            adversary: None,
        });
    }

    fn generate_customer_zones(&mut self) {
        for op_idx in 0..self.ops.len() {
            let c = self.ops[op_idx].spec.counts;
            let keep_secured = self.ops[op_idx].spec.signal_keep_secured;
            use CdsState as C;
            use DnssecState as D;
            self.plant(op_idx, c.unsigned, D::Unsigned, C::None, false, false);
            self.plant(
                op_idx,
                c.unsigned_with_cds,
                D::Unsigned,
                C::Valid,
                false,
                false,
            );
            self.plant(
                op_idx,
                c.unsigned_with_cds_delete,
                D::Unsigned,
                C::Delete,
                false,
                false,
            );
            self.plant(op_idx, c.secured, D::Secured, C::None, false, false);
            self.plant(
                op_idx,
                c.secured_with_cds,
                D::Secured,
                C::Valid,
                keep_secured,
                false,
            );
            // When the operator copies deletion requests into its signal
            // zones (Cloudflare/Glauca style), secured zones requesting
            // deletion carry signal RRs too — the unAB (authenticated
            // deletion) population.
            let signal_deletes = keep_secured && self.ops[op_idx].spec.signal_include_delete;
            self.plant(
                op_idx,
                c.secured_with_cds_delete,
                D::Secured,
                C::Delete,
                signal_deletes,
                false,
            );
            self.plant(
                op_idx,
                c.secured_with_cds_mismatch,
                D::Secured,
                C::MismatchesDnskey,
                false,
                false,
            );
            self.plant(
                op_idx,
                c.secured_with_cds_badsig,
                D::Secured,
                C::BadSignature,
                false,
                false,
            );
            self.plant(op_idx, c.invalid, D::Invalid, C::None, false, false);
            self.plant(
                op_idx,
                c.invalid_errant_ds,
                D::Invalid,
                C::None,
                false,
                true,
            );
            self.plant(op_idx, c.island_no_cds, D::Island, C::None, false, false);
            self.plant(op_idx, c.island_cds, D::Island, C::Valid, true, false);
            self.plant(
                op_idx,
                c.island_cds_delete,
                D::Island,
                C::Delete,
                true,
                false,
            );
            self.plant(
                op_idx,
                c.island_cds_mismatch,
                D::Island,
                C::MismatchesDnskey,
                false,
                false,
            );
            self.plant(
                op_idx,
                c.island_cds_badsig,
                D::Island,
                C::BadSignature,
                true,
                false,
            );
            self.plant(
                op_idx,
                c.island_cds_inconsistent,
                D::Island,
                C::Inconsistent,
                false,
                false,
            );
            self.plant(
                op_idx,
                c.unsigned_with_signal,
                D::Unsigned,
                C::None,
                true,
                false,
            );
            self.plant(
                op_idx,
                c.invalid_with_signal,
                D::Invalid,
                C::Valid,
                true,
                false,
            );
        }
    }

    fn generate_multi_operator_zones(&mut self) {
        let multi = self.cfg.multi;
        // Pick two non-signal operators for plain inconsistency, and a
        // signal operator for the AB cases.
        let usable = |o: &OpRuntime| {
            !o.spec.signal_enabled && o.spec.counts.total() > 0 && !o.spec.quirks.pre_rfc3597
        };
        let op_a = self.ops.iter().position(&usable).unwrap_or(0);
        let op_b = self
            .ops
            .iter()
            .position(|o| usable(o) && o.info.name != self.ops[op_a].info.name)
            .unwrap_or(op_a);
        let op_sig = self
            .ops
            .iter()
            .position(|o| o.spec.signal_enabled)
            .unwrap_or(op_a);

        for _ in 0..multi.inconsistent_islands {
            let name = self.next_zone_name(op_a);
            let hosts = self.pick_hosts(op_a);
            self.make_zone(
                &name,
                op_a,
                hosts,
                DnssecState::Island,
                CdsState::Inconsistent,
                false,
                Some(op_b),
                false,
            );
        }
        // Signal published by one operator only: a bootstrappable island
        // served by (signal op, plain op); only the signal op publishes.
        for _ in 0..multi.signal_missing_one_op {
            let name = self.next_zone_name(op_sig);
            let hosts = self.pick_hosts(op_sig);
            // Force the "missing" defect by construction: second operator
            // never publishes signal records.
            self.make_zone(
                &name,
                op_sig,
                hosts,
                DnssecState::Island,
                CdsState::Valid,
                true,
                Some(op_b),
                false,
            );
            // Rewrite the recorded truth: this is a missing-under-NS case.
            if let Some(t) = self.truth.last_mut() {
                t.signal = SignalTruth::Published(SignalDefect::MissingUnderSomeNs);
            }
        }
        // Multi-operator zones with signal RRs but inconsistent in-zone
        // CDS.
        for _ in 0..multi.signal_inconsistent {
            let name = self.next_zone_name(op_sig);
            let hosts = self.pick_hosts(op_sig);
            self.make_zone(
                &name,
                op_sig,
                hosts,
                DnssecState::Island,
                CdsState::Inconsistent,
                true,
                Some(op_b),
                false,
            );
            if let Some(t) = self.truth.last_mut() {
                t.signal = SignalTruth::Published(SignalDefect::Inconsistent);
            }
        }
    }

    fn generate_in_domain_zones(&mut self) {
        // Zones whose NSes live inside themselves; the methodology
        // excludes them from the seed lists (§3).
        if self.cfg.in_domain_only == 0 {
            return;
        }
        let store = Arc::new(ZoneStore::new());
        let sid = self.net.register(AuthServer::new(Arc::clone(&store)));
        let addr = self.alloc_v4();
        self.net.bind_simple(addr, sid);
        for _ in 0..self.cfg.in_domain_only {
            self.zone_seq += 1;
            let name = Name::parse(&format!("selfns{:06}.com", self.zone_seq)).unwrap();
            let ns = name.prepend_label(b"ns1").unwrap();
            let mut z = Zone::new(name.clone());
            z.add(soa(&name));
            z.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
            z.add(Record::new(ns.clone(), 3600, rdata_for(addr)));
            store.insert(z);
            let tldz = self.tlds.get_mut(&Name::parse("com").unwrap()).unwrap();
            tldz.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
            tldz.add(Record::new(ns, 3600, rdata_for(addr)));
            self.truth.push(ZoneTruth {
                name,
                operator: 0,
                second_operator: None,
                dnssec: DnssecState::Unsigned,
                cds: CdsState::None,
                signal: SignalTruth::NotPublished,
                legacy_ns: false,
                in_domain_ns: true,
                adversary: None,
            });
        }
    }

    fn build_parking_infra(&mut self) {
        // namefind.com + desc.io parked on an answer-everything server.
        // The parking address it advertises (for every A query, including
        // its own NS hostnames) must be where it is actually reachable.
        let addr = self.alloc_v4();
        let Addr::V4(v4) = addr else { unreachable!() };
        let mut parking = ParkingServer::namefind();
        parking.parking_addr = v4;
        let sid = self.net.register(parking);
        self.net.bind_simple(addr, sid);
        self.parking_addr = Some(addr);
        let com = Name::parse("com").unwrap();
        let io = Name::parse("io").unwrap();
        let nf = Name::parse("namefind.com").unwrap();
        let nf_ns = Name::parse("ns1.namefind.com").unwrap();
        {
            let comz = self.tlds.get_mut(&com).unwrap();
            comz.add(Record::new(nf, 3600, RData::Ns(nf_ns.clone())));
            comz.add(Record::new(nf_ns.clone(), 3600, rdata_for(addr)));
        }
        {
            let ioz = self.tlds.get_mut(&io).unwrap();
            ioz.add(Record::new(
                Name::parse("desc.io").unwrap(),
                3600,
                RData::Ns(nf_ns),
            ));
        }
    }

    /// Build each operator's infrastructure zones: apex + NS host address
    /// records + signal records, signed when the operator does AB.
    fn finish_operator_base_zones(&mut self) {
        for op_idx in 0..self.ops.len() {
            // Group hosts by registrable base zone.
            let mut bases: BTreeMap<Name, Vec<usize>> = BTreeMap::new();
            for (h, host) in self.ops[op_idx].info.hosts.clone().iter().enumerate() {
                let base = self
                    .psl
                    .registrable_part(host)
                    .expect("operator host under known suffix");
                bases.entry(base).or_default().push(h);
            }
            // Deterministic base order: HashMap iteration varies run to
            // run, and signing/registration order must not.
            let mut based: Vec<(Name, Vec<usize>)> = bases.into_iter().collect();
            based.sort_by(|a, b| a.0.canonical_cmp(&b.0));
            for (base, host_idxs) in based {
                let mut z = Zone::new(base.clone());
                z.add(soa(&base));
                for &h in &host_idxs {
                    z.add(Record::new(
                        base.clone(),
                        3600,
                        RData::Ns(self.ops[op_idx].info.hosts[h].clone()),
                    ));
                }
                // Address records for every host under this base.
                for &h in &host_idxs {
                    let host = self.ops[op_idx].info.hosts[h].clone();
                    for &a in &self.ops[op_idx].info.host_addrs[h].clone() {
                        z.add(Record::new(host.clone(), 3600, rdata_for(a)));
                    }
                }
                // Signal records for this base.
                if let Some(recs) = self.ops[op_idx].pending_signal.remove(&base) {
                    for r in recs {
                        z.add(r);
                    }
                }
                let signed = self.ops[op_idx].spec.signal_enabled;
                let keys = ZoneKeys::generate(&mut self.rng, Algorithm::EcdsaP256Sha256);
                self.ops[op_idx]
                    .base_key_list
                    .push((base.clone(), keys.clone()));
                if signed {
                    self.signer().sign(&mut z, &keys);
                    // Apply planted signal-signature defects.
                    let badsig = self.ops[op_idx].defect_badsig.clone();
                    let expired = self.ops[op_idx].defect_expired.clone();
                    for n in badsig.iter().filter(|n| n.is_subdomain_of(&base)) {
                        corrupt_rrsigs_at(&mut z, n, &[RecordType::Cds, RecordType::Cdnskey]);
                    }
                    for n in expired.iter().filter(|n| n.is_subdomain_of(&base)) {
                        expire_rrsigs_at(&mut z, n, self.cfg.now);
                    }
                }
                // Register in every host store of this operator (its
                // servers are authoritative for the base).
                let arc = Arc::new(z);
                for store in &self.ops[op_idx].stores {
                    store.insert_shared(Arc::clone(&arc));
                }
                // Delegation + glue (+ DS when signed) at the TLD.
                let tld = base.parent().expect("base has parent");
                let tldz = self
                    .tlds
                    .get_mut(&tld)
                    .unwrap_or_else(|| panic!("no TLD zone for {tld}"));
                for &h in &host_idxs {
                    let host = self.ops[op_idx].info.hosts[h].clone();
                    tldz.add(Record::new(base.clone(), 3600, RData::Ns(host.clone())));
                    for &a in &self.ops[op_idx].info.host_addrs[h].clone() {
                        tldz.add(Record::new(host.clone(), 3600, rdata_for(a)));
                    }
                }
                if signed {
                    for r in keys.ds_records(&base, 3600, DigestType::Sha256) {
                        tldz.add(r);
                    }
                }
            }
        }
    }

    /// Plant the adversarial tier (DESIGN.md §6c) under its own `zzadv`
    /// registry.
    ///
    /// Isolation invariants, so mixed worlds keep the benign subset
    /// byte-identical to a pure world built from the same config:
    /// * all randomness comes from a dedicated RNG (`seed ^ ADV_SALT`),
    ///   never from `self.rng`;
    /// * all addresses come from the 10.200/16 pool, never `alloc_v4`;
    /// * all names live under `zzadv`, which sorts after every benign
    ///   suffix in the registry signing order and after every benign zone
    ///   in the compiled seed list.
    fn build_adversaries(&mut self) {
        if self.cfg.adversaries.is_empty() {
            return;
        }
        let adv_tld = Name::parse("zzadv").unwrap();
        let mut adv_rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x00ad_5e7a);
        self.adv_tld_keys = Some(ZoneKeys::generate(&mut adv_rng, Algorithm::EcdsaP256Sha256));

        // Shared hostile infrastructure, one server per mode.
        let lame_addr = self.adv_bind(ByzantineServer::new(ByzantineMode::Lame));
        let decoy = adv_tld.prepend_label(b"zzdecoy").unwrap();
        let wrong_qname_addr =
            self.adv_bind(ByzantineServer::new(ByzantineMode::WrongQname { decoy }));
        let bad_id_addr = self.adv_bind(ByzantineServer::new(ByzantineMode::MismatchedId));

        // Glueless referral ping-pong web: each web zone's only NS is
        // named under the other, so resolving either address recurses
        // until the resolver's visited set breaks the cycle. Served
        // entirely by the honest registry.
        let web1 = adv_tld.prepend_label(b"zzrlweb1").unwrap();
        let web2 = adv_tld.prepend_label(b"zzrlweb2").unwrap();
        let web1_ns = web1.prepend_label(b"ns1").unwrap();
        let web2_ns = web2.prepend_label(b"ns1").unwrap();
        {
            let tldz = self.tlds.get_mut(&adv_tld).expect("zzadv zone");
            tldz.add(Record::new(web1.clone(), 3600, RData::Ns(web2_ns)));
            tldz.add(Record::new(web2.clone(), 3600, RData::Ns(web1_ns.clone())));
        }

        // The signal-CNAME-loop operator: an honest server fleet whose
        // base zone aliases RFC 9615 signal names into a CNAME cycle.
        let sigop_base = adv_tld.prepend_label(b"zzsigop").unwrap();
        let sigop_ns: Vec<Name> = (1..=2)
            .map(|i| {
                sigop_base
                    .prepend_label(format!("ns{i}").as_bytes())
                    .unwrap()
            })
            .collect();
        let sigop_store = Arc::new(ZoneStore::new());
        let sigop_addrs: Vec<Addr> = sigop_ns
            .iter()
            .map(|_| {
                let addr = self.alloc_adv_v4();
                let sid = self.net.register(AuthServer::new(Arc::clone(&sigop_store)));
                self.net.bind_simple(addr, sid);
                addr
            })
            .collect();
        let chain_a = sigop_base.prepend_label(b"zzchaina").unwrap();
        let chain_b = sigop_base.prepend_label(b"zzchainb").unwrap();
        let mut sigop_zone = Zone::new(sigop_base.clone());
        sigop_zone.add(soa(&sigop_base));
        for (ns, addr) in sigop_ns.iter().zip(&sigop_addrs) {
            sigop_zone.add(Record::new(sigop_base.clone(), 3600, RData::Ns(ns.clone())));
            sigop_zone.add(Record::new(ns.clone(), 3600, rdata_for(*addr)));
        }
        sigop_zone.add(Record::new(
            chain_a.clone(),
            300,
            RData::Cname(chain_b.clone()),
        ));
        sigop_zone.add(Record::new(
            chain_b.clone(),
            300,
            RData::Cname(chain_a.clone()),
        ));
        {
            let tldz = self.tlds.get_mut(&adv_tld).expect("zzadv zone");
            for (ns, addr) in sigop_ns.iter().zip(&sigop_addrs) {
                tldz.add(Record::new(sigop_base.clone(), 3600, RData::Ns(ns.clone())));
                tldz.add(Record::new(ns.clone(), 3600, rdata_for(*addr)));
            }
        }

        let specs = self.cfg.adversaries.clone();
        for spec in &specs {
            for i in 0..spec.zones {
                let name = adv_tld
                    .prepend_label(format!("zz{}{:03}", spec.archetype.label(), i).as_bytes())
                    .unwrap();
                let mut dnssec = DnssecState::Unsigned;
                let mut cds = CdsState::None;
                match spec.archetype {
                    AdversaryArchetype::Lame => {
                        self.adv_delegate_glued(&name, lame_addr);
                    }
                    AdversaryArchetype::ReferralLoop => {
                        // Glueless delegation into the ping-pong web.
                        let tldz = self.tlds.get_mut(&adv_tld).expect("zzadv zone");
                        tldz.add(Record::new(name.clone(), 3600, RData::Ns(web1_ns.clone())));
                    }
                    AdversaryArchetype::SelfGlue => {
                        let ns = name.prepend_label(b"ns1").unwrap();
                        let addr = self.alloc_adv_v4();
                        let glue = Record::new(ns.clone(), 3600, rdata_for(addr));
                        let sid =
                            self.net
                                .register(ByzantineServer::new(ByzantineMode::Referral {
                                    cut: name.clone(),
                                    ns: vec![ns.clone()],
                                    glue: vec![glue],
                                }));
                        self.net.bind_simple(addr, sid);
                        let tldz = self.tlds.get_mut(&adv_tld).expect("zzadv zone");
                        tldz.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
                        tldz.add(Record::new(ns, 3600, rdata_for(addr)));
                    }
                    AdversaryArchetype::OutOfBailiwick => {
                        self.plant_inject_zone(&name, 3, 3, i);
                    }
                    AdversaryArchetype::WrongQname => {
                        self.adv_delegate_glued(&name, wrong_qname_addr);
                    }
                    AdversaryArchetype::MismatchedId => {
                        self.adv_delegate_glued(&name, bad_id_addr);
                    }
                    AdversaryArchetype::NxnsFanout => {
                        // 24 glueless in-zone NSes: a referral wider than
                        // any benign operator fleet, with nothing behind it.
                        let tldz = self.tlds.get_mut(&adv_tld).expect("zzadv zone");
                        for k in 1..=24 {
                            let ns = name.prepend_label(format!("ns{k}").as_bytes()).unwrap();
                            tldz.add(Record::new(name.clone(), 3600, RData::Ns(ns)));
                        }
                    }
                    AdversaryArchetype::SignalCnameLoop => {
                        dnssec = DnssecState::Island;
                        cds = CdsState::Valid;
                        let keys = ZoneKeys::generate(&mut adv_rng, Algorithm::EcdsaP256Sha256);
                        let mut z = Zone::new(name.clone());
                        z.add(soa(&name));
                        for ns in &sigop_ns {
                            z.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
                        }
                        for r in keys.cds_records(&name, 300, CdsPublication::STANDARD) {
                            z.add(r);
                        }
                        self.signer().sign(&mut z, &keys);
                        sigop_store.insert(z);
                        // Signal names for this zone alias into the loop.
                        for ns in &sigop_ns {
                            if let Ok(sn) = signal::signal_name(&name, ns) {
                                sigop_zone.add(Record::new(sn, 300, RData::Cname(chain_a.clone())));
                            }
                        }
                        let tldz = self.tlds.get_mut(&adv_tld).expect("zzadv zone");
                        for ns in &sigop_ns {
                            tldz.add(Record::new(name.clone(), 3600, RData::Ns(ns.clone())));
                        }
                    }
                    AdversaryArchetype::OversizedReferral => {
                        self.plant_inject_zone(&name, 0, 32, i);
                    }
                }
                self.truth.push(ZoneTruth {
                    name,
                    operator: 0,
                    second_operator: None,
                    dnssec,
                    cds,
                    signal: SignalTruth::NotPublished,
                    legacy_ns: false,
                    in_domain_ns: false,
                    adversary: Some(spec.archetype),
                });
            }
        }
        sigop_store.insert(sigop_zone);
    }

    /// Register a byzantine server at a fresh adversary-pool address.
    fn adv_bind(&mut self, server: ByzantineServer) -> Addr {
        let addr = self.alloc_adv_v4();
        let sid = self.net.register(server);
        self.net.bind_simple(addr, sid);
        addr
    }

    /// Delegate `zone` from the `zzadv` registry to `ns1.<zone>` with
    /// in-bailiwick glue pointing at `addr`.
    fn adv_delegate_glued(&mut self, zone: &Name, addr: Addr) {
        let ns = zone.prepend_label(b"ns1").unwrap();
        let adv_tld = zone.parent().expect("adversarial zone under zzadv");
        let tldz = self.tlds.get_mut(&adv_tld).expect("zzadv zone");
        tldz.add(Record::new(zone.clone(), 3600, RData::Ns(ns.clone())));
        tldz.add(Record::new(ns, 3600, rdata_for(addr)));
    }

    /// An honest unsigned zone behind an [`ByzantineMode::Inject`] server
    /// that pads every response with `n_ans` junk answer records and
    /// `n_auth` junk authority records at out-of-bailiwick names.
    fn plant_inject_zone(&mut self, zone: &Name, n_ans: usize, n_auth: usize, salt: usize) {
        let ns = zone.prepend_label(b"ns1").unwrap();
        let addr = self.alloc_adv_v4();
        let mut z = Zone::new(zone.clone());
        z.add(soa(zone));
        z.add(Record::new(zone.clone(), 3600, RData::Ns(ns.clone())));
        z.add(Record::new(ns.clone(), 3600, rdata_for(addr)));
        let store = Arc::new(ZoneStore::new());
        store.insert(z);
        let junk = |k: usize| {
            Record::new(
                Name::parse(&format!("zzpoison{salt}x{k}.com")).unwrap(),
                300,
                RData::A(Ipv4Addr::new(10, 200, 255, (k % 250) as u8 + 1)),
            )
        };
        let sid = self
            .net
            .register(ByzantineServer::new(ByzantineMode::Inject {
                inner: store,
                junk_answers: (0..n_ans).map(junk).collect(),
                junk_authority: (n_ans..n_ans + n_auth).map(junk).collect(),
            }));
        self.net.bind_simple(addr, sid);
        let adv_tld = zone.parent().expect("adversarial zone under zzadv");
        let tldz = self.tlds.get_mut(&adv_tld).expect("zzadv zone");
        tldz.add(Record::new(zone.clone(), 3600, RData::Ns(ns.clone())));
        tldz.add(Record::new(ns, 3600, rdata_for(addr)));
    }

    /// Sign the TLD zones, build TLD servers, the root, and the anchors.
    #[expect(
        clippy::type_complexity,
        reason = "the tuple is unpacked immediately by the single caller; a one-shot named struct \
                  would add API surface without clarity"
    )]
    fn finish_registries(
        &mut self,
    ) -> (
        Vec<Addr>,
        Vec<DsData>,
        HashMap<Name, Arc<ZoneStore>>,
        HashMap<Name, ZoneKeys>,
    ) {
        let mut root = Zone::new(Name::root());
        root.add(soa(&Name::root()));
        let root_ns = Name::parse("a.root-servers.net").unwrap();
        root.add(Record::new(Name::root(), 3600, RData::Ns(root_ns.clone())));
        let root_addr = self.alloc_v4();
        root.add(Record::new(root_ns.clone(), 3600, rdata_for(root_addr)));

        // One registry (store + server + address + NS name) per suffix:
        // `ns1.nic.<suffix>`, served in-bailiwick with glue at the parent.
        // Multi-label suffixes (co.uk) are delegated from their parent
        // suffix zone, so resolvers cross a real uk→co.uk referral and
        // chain validation sees every cut.
        let mut tlds = std::mem::take(&mut self.tlds);
        // Canonical order: HashMap iteration order varies run to run, and
        // everything downstream (address allocation, key generation) must
        // not.
        let mut suffix_names: Vec<Name> = tlds.keys().cloned().collect();
        suffix_names.sort_by(Name::canonical_cmp);
        // (parent, child, child ns, child glue, ds)
        let mut delegations: Vec<(Name, Name, Name, Record, Vec<Record>)> = Vec::new();

        let signer = ZoneSigner::new(self.cfg.now).with_denial(Denial::None);
        // Sign children before parents so DS records can be installed:
        // order by label count descending.
        let mut order = suffix_names.clone();
        order.sort_by(|a, b| {
            b.label_count()
                .cmp(&a.label_count())
                .then_with(|| a.canonical_cmp(b))
        });

        let mut stores: HashMap<Name, Arc<ZoneStore>> = HashMap::new();
        let mut tld_keys_map: HashMap<Name, ZoneKeys> = HashMap::new();
        for suffix in order {
            let mut z = tlds.remove(&suffix).unwrap();
            let tld_ns = suffix
                .prepend_label(b"nic")
                .unwrap()
                .prepend_label(b"ns1")
                .unwrap();
            // The adversarial registry draws from the adversary address
            // pool and pre-generated keys; benign suffixes must see the
            // exact same allocation/key streams either way. (`zzadv` also
            // sorts last here, so benign registries are processed first.)
            let is_adv = self.adv_tld_keys.is_some() && suffix.to_string_fqdn() == "zzadv.";
            let tld_addr = if is_adv {
                self.alloc_adv_v4()
            } else {
                self.alloc_v4()
            };
            // The apex NS (placeholder from init) is already ns1.nic.<suffix>;
            // add its authoritative address record.
            let glue = Record::new(tld_ns.clone(), 3600, rdata_for(tld_addr));
            z.add(glue.clone());
            // Install any pending child-suffix delegations.
            for (parent, child, child_ns, child_glue, ds) in &delegations {
                if *parent == suffix {
                    z.add(Record::new(
                        child.clone(),
                        3600,
                        RData::Ns(child_ns.clone()),
                    ));
                    z.add(child_glue.clone());
                    for r in ds {
                        z.add(r.clone());
                    }
                }
            }
            let keys = if is_adv {
                self.adv_tld_keys.take().expect("adv keys generated once")
            } else {
                ZoneKeys::generate(&mut self.rng, Algorithm::EcdsaP256Sha256)
            };
            signer.sign(&mut z, &keys);
            let ds = keys.ds_records(&suffix, 3600, DigestType::Sha256);
            tld_keys_map.insert(suffix.clone(), keys.clone());
            let parent = suffix.parent().expect("suffix has parent");
            if parent.is_root() || !suffix_names.contains(&parent) {
                root.add(Record::new(suffix.clone(), 3600, RData::Ns(tld_ns.clone())));
                root.add(glue);
                for r in &ds {
                    root.add(r.clone());
                }
            } else {
                delegations.push((parent, suffix.clone(), tld_ns, glue, ds));
            }
            let store = Arc::new(ZoneStore::new());
            store.insert(z);
            let sid = self.net.register(AuthServer::new(Arc::clone(&store)));
            self.net.bind(tld_addr, sid, 8_000, 1_000, 0.0005, 4);
            stores.insert(suffix, store);
        }

        // Root server hosting + signing.
        let root_keys = ZoneKeys::generate(&mut self.rng, Algorithm::EcdsaP256Sha256);
        ZoneSigner::new(self.cfg.now)
            .with_denial(Denial::None)
            .sign(&mut root, &root_keys);
        let anchors = vec![root_keys.ds_data(&Name::root(), DigestType::Sha256)];
        let root_store = Arc::new(ZoneStore::new());
        root_store.insert(root);
        let root_sid = self.net.register(AuthServer::new(root_store));
        self.net.bind(root_addr, root_sid, 6_000, 500, 0.0, 8);

        (vec![root_addr], anchors, stores, tld_keys_map)
    }
}

/// Address record for a simulated address.
pub(crate) fn rdata_for(addr: Addr) -> RData {
    match addr {
        Addr::V4(a) => RData::A(a),
        Addr::V6(a) => RData::Aaaa(a),
    }
}

/// Flip signature bytes of RRSIGs at `name` covering `types`.
pub(crate) fn corrupt_rrsigs_at(zone: &mut Zone, name: &Name, types: &[RecordType]) {
    if let Some(mut set) = zone.remove_rrset(name, RecordType::Rrsig) {
        for rd in set.rdatas.iter_mut() {
            if let RData::Rrsig(sig) = rd {
                if types.iter().any(|t| t.code() == sig.type_covered) {
                    for b in sig.signature.iter_mut() {
                        *b ^= 0x77;
                    }
                }
            }
        }
        for r in set.records() {
            zone.add(r);
        }
    }
}

/// Rewrite RRSIG windows at `name` to be expired as of `now`.
pub(crate) fn expire_rrsigs_at(zone: &mut Zone, name: &Name, now: UnixTime) {
    if let Some(mut set) = zone.remove_rrset(name, RecordType::Rrsig) {
        for rd in set.rdatas.iter_mut() {
            if let RData::Rrsig(sig) = rd {
                sig.inception = 0;
                sig.expiration = now.saturating_sub(86_400).max(1);
            }
        }
        for r in set.records() {
            zone.add(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EcosystemConfig;
    use crate::truth::TruthSummary;

    fn tiny() -> Ecosystem {
        build(EcosystemConfig::tiny(42))
    }

    #[test]
    fn tiny_world_builds() {
        let eco = tiny();
        assert!(!eco.truth.is_empty());
        assert!(!eco.roots.is_empty());
        assert_eq!(eco.anchors.len(), 1);
        assert_eq!(eco.operators.len(), 4);
    }

    #[test]
    fn truth_summary_matches_config() {
        let eco = tiny();
        let cfg = EcosystemConfig::tiny(42);
        let s = TruthSummary::from_truths(&eco.truth);
        // tiny(): islands = 4+6+2 (Clean) + 8+2 (Signal) + 1+1+2 (Odd) +
        // multi-op 2 inconsistent + 1 missing-one-op + 1 signal-
        // inconsistent.
        assert_eq!(
            s.total,
            cfg.total_zones()
                + cfg.multi.inconsistent_islands
                + cfg.multi.signal_missing_one_op
                + cfg.multi.signal_inconsistent
                + cfg.in_domain_only
        );
        assert!(s.islands > 0);
        assert!(s.with_signal > 0);
        assert!(s.ab_correct > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build(EcosystemConfig::tiny(7));
        let b = build(EcosystemConfig::tiny(7));
        assert_eq!(a.truth.len(), b.truth.len());
        for (x, y) in a.truth.iter().zip(b.truth.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.dnssec, y.dnssec);
            assert_eq!(x.cds, y.cds);
            assert_eq!(x.signal, y.signal);
        }
    }

    #[test]
    fn root_answers_tld_referral() {
        use dns_wire::message::Message;
        use netsim::Transport;
        let eco = tiny();
        let q = Message::query(1, Name::parse("com").unwrap(), RecordType::Ns, true);
        let out = eco
            .net
            .query(eco.roots[0], &q.to_bytes(), Transport::Udp)
            .unwrap();
        let resp = Message::from_bytes(&out.reply).unwrap();
        // Root is authoritative for the root zone; com is a delegation.
        assert!(
            !resp.authorities.is_empty() || !resp.answers.is_empty(),
            "{resp:?}"
        );
    }

    #[test]
    fn in_domain_zones_marked() {
        let eco = tiny();
        let cfg = EcosystemConfig::tiny(42);
        let n = eco.truth.iter().filter(|t| t.in_domain_ns).count();
        assert_eq!(n, cfg.in_domain_only);
    }

    #[test]
    fn signal_defects_all_planted() {
        let eco = tiny();
        use SignalDefect as D;
        let defects: Vec<D> = eco
            .truth
            .iter()
            .filter_map(|t| match t.signal {
                SignalTruth::Published(d) if d != D::None => Some(d),
                _ => None,
            })
            .collect();
        assert!(defects.contains(&D::MissingUnderSomeNs));
        assert!(defects.contains(&D::ExpiredSignature));
        assert!(defects.contains(&D::ZoneCut));
        assert!(defects.contains(&D::Inconsistent));
    }
}
