//! Ecosystem configuration: operator behaviour profiles calibrated to the
//! paper's published numbers.
//!
//! `paper_default(scale)` encodes Table 1 (DNSSEC per operator), Table 2
//! (CDS per operator), Table 3 + §4.4 (signal zones), Figure 1 (the island
//! breakdown) and the §4.2 rare-event census. Bulk populations are divided
//! by `scale` (default 1000); operators whose interesting structure is
//! small in absolute terms (deSEC, Glauca, the signal test zones, Canal
//! Dominios, the §4.2 oddities) are generated *unscaled* so every
//! phenomenon the paper reports exists in the simulated Internet.
//!
//! Where the paper's own tables do not reconcile exactly (e.g. WIX's
//! Table 2 CDS count vs Figure 1's islands-without-CDS), the allocation
//! here follows Figure 1 and Table 3 — the analytical spine of the paper —
//! and EXPERIMENTS.md records the deviation.

use dns_zone::keys::CdsPublication;

/// Server-behaviour defects of an operator's NS fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuirkSpec {
    /// NSes error on CDS/CDNSKEY queries (pre-RFC 3597, §4.2).
    pub pre_rfc3597: bool,
    /// Transient SERVFAIL probability.
    pub transient_servfail: f64,
    /// Transient invalid-signature probability.
    pub transient_badsig: f64,
}

/// How many zones of each planted category an operator hosts
/// (absolute counts — scaling happens in `paper_default`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CategoryCounts {
    /// Unsigned, no CDS.
    pub unsigned: usize,
    /// Unsigned but CDS published (the Canal Dominios misconfiguration).
    pub unsigned_with_cds: usize,
    /// Unsigned with CDS deletion request (§4.2: 16 zones).
    pub unsigned_with_cds_delete: usize,
    /// Signed, DS in parent, valid — no CDS.
    pub secured: usize,
    /// Secured with valid CDS (rollover management).
    pub secured_with_cds: usize,
    /// Secured but CDS requests deletion — parent ignored it (§4.2:
    /// 3 289 zones).
    pub secured_with_cds_delete: usize,
    /// Secured, CDS matching no DNSKEY (§4.2: part of the 7).
    pub secured_with_cds_mismatch: usize,
    /// Secured, CDS RRSIG invalid (§4.2: the 3).
    pub secured_with_cds_badsig: usize,
    /// DS in parent, zone signed but signatures invalid.
    pub invalid: usize,
    /// DS in parent but the zone has no DNSKEY at all ("errant DS" at
    /// operators that do not offer DNSSEC, §4.1).
    pub invalid_errant_ds: usize,
    /// Signed, no DS, no CDS.
    pub island_no_cds: usize,
    /// Signed, no DS, valid CDS — traditionally bootstrappable.
    pub island_cds: usize,
    /// Signed, no DS, CDS deletion request (Cloudflare disable flow).
    pub island_cds_delete: usize,
    /// Island whose CDS matches no DNSKEY (Figure 1 "Invalid CDS").
    pub island_cds_mismatch: usize,
    /// Island whose CDS RRSIG is invalid.
    pub island_cds_badsig: usize,
    /// Island whose two NS hosts serve different CDS (intra-operator
    /// inconsistency, the non-multi-operator part of the 5 333).
    pub island_cds_inconsistent: usize,
    /// Unsigned zones that nevertheless carry signal RRs (§4.4: 43).
    pub unsigned_with_signal: usize,
    /// Invalid zones that carry signal RRs (§4.4: 787).
    pub invalid_with_signal: usize,
}

impl CategoryCounts {
    /// Total zones this operator hosts.
    pub fn total(&self) -> usize {
        self.unsigned
            + self.unsigned_with_cds
            + self.unsigned_with_cds_delete
            + self.secured
            + self.secured_with_cds
            + self.secured_with_cds_delete
            + self.secured_with_cds_mismatch
            + self.secured_with_cds_badsig
            + self.invalid
            + self.invalid_errant_ds
            + self.island_no_cds
            + self.island_cds
            + self.island_cds_delete
            + self.island_cds_mismatch
            + self.island_cds_badsig
            + self.island_cds_inconsistent
            + self.unsigned_with_signal
            + self.invalid_with_signal
    }
}

/// Defects planted among an operator's *signal-bearing bootstrappable*
/// zones (paper §4.4's violation census).
#[derive(Debug, Clone, Copy, Default)]
pub struct SignalDefects {
    /// Signal RRs not published under every NS.
    pub missing_under_ns: usize,
    /// Invalid signatures over the signal CDS.
    pub badsig: usize,
    /// Expired signatures (the forgotten personal test zone).
    pub expired: usize,
    /// Apparent zone cut on the signal path (parked typo NS).
    pub zone_cut: usize,
}

impl SignalDefects {
    pub fn total(&self) -> usize {
        self.missing_under_ns + self.badsig + self.expired + self.zone_cut
    }
}

/// One DNS operator.
#[derive(Debug, Clone)]
pub struct OperatorSpec {
    /// Display name ("Cloudflare").
    pub name: String,
    /// NS hostname base: hosts are `ns1.<base>`, `ns2.<base>`, … (or the
    /// Cloudflare-style `<word>.ns.<base>`).
    pub ns_base: String,
    /// Number of NS hostnames in the fleet (zones get 2 assigned).
    pub ns_hosts: usize,
    /// Explicit NS hostnames (overrides the derived `ns{i}.<base>` /
    /// `<word>.<base>` naming when non-empty) — deSEC's split across
    /// `desec.io` and `desec.org` needs this.
    pub ns_host_names: Vec<String>,
    /// IPv4/IPv6 addresses per NS hostname (Cloudflare: 3+3 → the paper's
    /// "12 NSes to query" per zone).
    pub addrs_per_host: (usize, usize),
    /// Anycast backend pool size behind each address.
    pub backends: u32,
    /// Swiss operator (drives the Table 2 Swiss marker and .ch TLD
    /// placement).
    pub swiss: bool,
    pub counts: CategoryCounts,
    /// Publishes RFC 9615 signal records.
    pub signal_enabled: bool,
    /// Also copies deletion-request CDS into signal zones (Cloudflare and
    /// Glauca do, deSEC does not — §4.4).
    pub signal_include_delete: bool,
    /// Signal records kept for already-secured zones (all three operators
    /// flout the RFC's cleanup recommendation).
    pub signal_keep_secured: bool,
    pub signal_defects: SignalDefects,
    pub cds_publication: CdsPublication,
    /// Also publish RFC 7477 CSYNC records on signed zones (the paper's
    /// §6 future-work pointer; modelled as a pilot deployment).
    pub publish_csync: bool,
    /// Sign customer zones with NSEC3 instead of NSEC (operator-wide
    /// choice, as with OVH/Gandi in the wild).
    pub nsec3: bool,
    pub quirks: QuirkSpec,
    /// Weighted TLD distribution for this operator's customer zones.
    pub tlds: Vec<(String, f64)>,
}

impl OperatorSpec {
    fn new(name: &str, ns_base: &str) -> Self {
        OperatorSpec {
            name: name.to_string(),
            ns_base: ns_base.to_string(),
            ns_hosts: 2,
            ns_host_names: Vec::new(),
            addrs_per_host: (1, 0),
            backends: 1,
            swiss: false,
            counts: CategoryCounts::default(),
            signal_enabled: false,
            signal_include_delete: false,
            signal_keep_secured: false,
            signal_defects: SignalDefects::default(),
            cds_publication: CdsPublication::STANDARD,
            publish_csync: false,
            nsec3: false,
            quirks: QuirkSpec::default(),
            tlds: vec![
                ("com".into(), 0.62),
                ("net".into(), 0.10),
                ("org".into(), 0.08),
                ("de".into(), 0.06),
                ("co.uk".into(), 0.05),
                ("nl".into(), 0.03),
                ("se".into(), 0.03),
                ("ch".into(), 0.03),
            ],
        }
    }

    fn swiss_op(name: &str, ns_base: &str) -> Self {
        let mut o = Self::new(name, ns_base);
        o.swiss = true;
        o.tlds = vec![
            ("ch".into(), 0.8),
            ("li".into(), 0.1),
            ("swiss".into(), 0.1),
        ];
        o
    }
}

/// Multi-operator setups to plant (paper §4.2/§4.4).
#[derive(Debug, Clone, Copy)]
pub struct MultiOpSpec {
    /// Islands served by two operators returning *different* CDS (the
    /// 4 637 of the 5 333 inconsistencies).
    pub inconsistent_islands: usize,
    /// Multi-operator bootstrappable islands where only one operator
    /// publishes signal RRs (§4.4: 17).
    pub signal_missing_one_op: usize,
    /// Multi-operator zones with signal RRs whose in-zone CDS disagrees
    /// (§4.4: 32).
    pub signal_inconsistent: usize,
}

/// A hostile-operator archetype: one way a misconfigured or actively
/// adversarial delegation can try to waste, mislead, or poison a scanner.
///
/// Each archetype exercises a distinct acceptance rule in the resolver
/// (see DESIGN.md §6c for the archetype → `HostileCause` map).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdversaryArchetype {
    /// Delegation points at a server that answers REFUSED for everything.
    Lame,
    /// Referral ping-pong: server A refers to B, B refers back to A,
    /// never making progress below the delegation cut.
    ReferralLoop,
    /// A referral whose only glue points back at the referring server
    /// itself.
    SelfGlue,
    /// Otherwise-honest answers padded with authority/additional records
    /// at names outside the zone's bailiwick (cache-poisoning bait).
    OutOfBailiwick,
    /// Replies carry a different QNAME than the question asked.
    WrongQname,
    /// Replies carry a mismatched transaction ID (off-path spoof model).
    MismatchedId,
    /// NXNS-style amplification: a delegation fanning out to dozens of
    /// unresolvable in-zone nameserver names with no glue.
    NxnsFanout,
    /// CNAME chain at the RFC 9615 signal names that closes into a loop.
    SignalCnameLoop,
    /// Referral responses padded with dozens of junk records to inflate
    /// the scanner's parse and cache workload.
    OversizedReferral,
}

impl AdversaryArchetype {
    /// All archetypes, in a stable order (used to build full-complement
    /// worlds and to iterate deterministically).
    pub const ALL: [AdversaryArchetype; 9] = [
        AdversaryArchetype::Lame,
        AdversaryArchetype::ReferralLoop,
        AdversaryArchetype::SelfGlue,
        AdversaryArchetype::OutOfBailiwick,
        AdversaryArchetype::WrongQname,
        AdversaryArchetype::MismatchedId,
        AdversaryArchetype::NxnsFanout,
        AdversaryArchetype::SignalCnameLoop,
        AdversaryArchetype::OversizedReferral,
    ];

    /// Stable lowercase label, also used as the zone-name stem for the
    /// adversarial zones of this archetype.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryArchetype::Lame => "lame",
            AdversaryArchetype::ReferralLoop => "refloop",
            AdversaryArchetype::SelfGlue => "selfglue",
            AdversaryArchetype::OutOfBailiwick => "oob",
            AdversaryArchetype::WrongQname => "wrongqname",
            AdversaryArchetype::MismatchedId => "badid",
            AdversaryArchetype::NxnsFanout => "nxns",
            AdversaryArchetype::SignalCnameLoop => "cnameloop",
            AdversaryArchetype::OversizedReferral => "padded",
        }
    }
}

/// How many zones of one adversarial archetype to plant.
#[derive(Debug, Clone, Copy)]
pub struct AdversaryOpSpec {
    pub archetype: AdversaryArchetype,
    pub zones: usize,
}

/// The whole world.
#[derive(Debug, Clone)]
pub struct EcosystemConfig {
    pub seed: u64,
    /// Bulk scale divisor relative to the paper's 287.6 M zones.
    pub scale: u64,
    /// Scan epoch in virtual seconds (signature windows centre on it).
    pub now: u32,
    pub operators: Vec<OperatorSpec>,
    pub multi: MultiOpSpec,
    /// Zones whose NSes are all in-domain (excluded from seeds per §3).
    pub in_domain_only: usize,
    /// Hostile operators (empty in the calibrated paper worlds; the
    /// adversarial tier lives under its own `zzadv` registry so benign
    /// world generation is byte-identical with or without it).
    pub adversaries: Vec<AdversaryOpSpec>,
}

/// Scale a paper count: nonzero counts survive scaling with a floor of 1,
/// so every phenomenon remains present at any scale.
fn s(paper_count: u64, scale: u64) -> usize {
    if paper_count == 0 {
        0
    } else {
        (((paper_count + scale / 2) / scale).max(1)) as usize
    }
}

impl EcosystemConfig {
    /// The full calibrated world at `1:scale` (paper numbers ÷ scale for
    /// bulk populations; rare structure unscaled). `scale = 1000` is the
    /// benchmark default: ≈ 300 k zones.
    pub fn paper_default(scale: u64) -> Self {
        let mut ops: Vec<OperatorSpec> = Vec::new();

        // ---- Table 1: the top-20 DNS operators --------------------------
        // (unsigned, secured, invalid, islands) per the table; CDS
        // placement per Table 2 reconciled against Figure 1 (see module
        // docs).
        let mut godaddy = OperatorSpec::new("GoDaddy", "domaincontrol.com");
        godaddy.counts = CategoryCounts {
            unsigned: s(56_326_752, scale),
            secured: 0,
            secured_with_cds: s(107_550, scale),
            invalid: s(8_550, scale),
            island_cds: s(3_507, scale),
            ..Default::default()
        };
        ops.push(godaddy);

        let mut cloudflare = OperatorSpec::new("Cloudflare", "ns.cloudflare.com");
        cloudflare.ns_hosts = 10; // pool of <word>.ns.cloudflare.com names
        cloudflare.addrs_per_host = (3, 3); // 12 addresses per zone's NS pair
        cloudflare.backends = 64;
        cloudflare.signal_enabled = true;
        cloudflare.signal_include_delete = true;
        cloudflare.signal_keep_secured = true;
        cloudflare.counts = CategoryCounts {
            unsigned: s(26_541_985, scale),
            secured_with_cds: s(799_377, scale),
            invalid: s(16_694 - 765, scale),
            invalid_with_signal: s(765, scale),
            island_no_cds: s(1_753, scale),
            island_cds: s(270_131, scale),
            island_cds_delete: s(160_268, scale),
            island_cds_badsig: s(47_000, 1000).min(47), // §4.4: 47, unscaled cap
            unsigned_with_signal: s(22, scale),         // part of the 43
            ..Default::default()
        };
        cloudflare.signal_defects = SignalDefects {
            // 33 NS-mismatch + 1 transient at paper scale; keep a small
            // planted presence at any scale.
            missing_under_ns: s(34, scale.min(34)),
            ..Default::default()
        };
        ops.push(cloudflare);

        let mut namecheap = OperatorSpec::new("Namecheap", "registrar-servers.com");
        namecheap.counts = CategoryCounts {
            unsigned: s(10_119_070, scale),
            secured: s(126_601, scale),
            invalid: s(5_300, scale),
            island_no_cds: s(1_615, scale),
            ..Default::default()
        };
        ops.push(namecheap);

        let mut google = OperatorSpec::new("Google Domains", "googledomains.com");
        google.counts = CategoryCounts {
            unsigned: s(5_197_647, scale),
            secured: 0,
            secured_with_cds: s(4_496_848, scale),
            invalid: s(109_499, scale),
            island_no_cds: s(100_895, scale),
            island_cds: s(21_500, scale),
            island_cds_delete: s(4_742, scale),
            ..Default::default()
        };
        ops.push(google);

        let mut wix = OperatorSpec::new("WIX", "wixdns.net");
        wix.counts = CategoryCounts {
            unsigned: s(5_989_947, scale),
            secured_with_cds: s(74_423, scale),
            invalid: s(2_954, scale),
            island_no_cds: s(1_151_200, scale),
            ..Default::default()
        };
        ops.push(wix);

        // Operators that do not offer DNSSEC; small invalid share from
        // errant DS records in the parent (§4.1).
        for (name, base, unsigned, errant) in [
            ("Hostinger", "hostinger.com", 6_556_301u64, 5_360u64),
            ("AfterNIC", "afternic.com", 5_349_129, 11_034),
            ("HiChina", "hichina.com", 4_628_516, 9_481),
            ("Sedo", "sedoparking.com", 2_336_383, 3_645),
            ("NameSilo", "namesilo.com", 1_846_251, 1_223),
            ("DynaDot", "dynadot.com", 1_552_431, 461),
            ("SiteGround", "siteground.net", 1_533_874, 1_302),
        ] {
            let mut o = OperatorSpec::new(name, base);
            o.counts = CategoryCounts {
                unsigned: s(unsigned, scale),
                invalid_errant_ds: s(errant, scale),
                ..Default::default()
            };
            ops.push(o);
        }

        let mut aws = OperatorSpec::new("AWS", "awsdns.net");
        aws.ns_hosts = 4;
        aws.counts = CategoryCounts {
            unsigned: s(3_653_373, scale),
            secured: s(30_005, scale),
            invalid: s(4_345, scale),
            island_no_cds: s(9_276, scale),
            island_cds: s(1_500, scale),
            ..Default::default()
        };
        ops.push(aws);

        for (name, base, unsigned, secured, invalid, islands) in [
            (
                "GName",
                "gname-dns.com",
                3_556_082u64,
                1_145u64,
                1_002u64,
                572u64,
            ),
            ("NameBright", "namebrightdns.com", 3_515_548, 73, 680, 2),
            (
                "SquareSpace",
                "squarespacedns.com",
                2_710_040,
                24_278,
                1_023,
                174,
            ),
            ("BlueHost", "bluehost.com", 1_960_552, 13_188, 136, 1_215),
            ("Alibaba", "alidns.com", 1_564_980, 2_675, 1_216, 2_032),
            ("Wordpress", "wordpress.com", 1_541_499, 7_824, 347, 60),
        ] {
            let mut o = OperatorSpec::new(name, base);
            o.counts = CategoryCounts {
                unsigned: s(unsigned, scale),
                secured: s(secured, scale),
                invalid: s(invalid, scale),
                island_no_cds: s(islands, scale),
                ..Default::default()
            };
            ops.push(o);
        }

        let mut ovh = OperatorSpec::new("OVH", "ovh.net");
        ovh.nsec3 = true; // OVH signs with NSEC3 in the wild
        ovh.counts = CategoryCounts {
            unsigned: s(1_469_425, scale),
            secured: s(1_169_714, scale),
            invalid: s(2_839, scale),
            island_no_cds: s(16_886, scale),
            island_cds: s(4_000, scale),
            ..Default::default()
        };
        ops.push(ovh);

        // ---- Table 2: CDS-publishing specialists ------------------------
        // (total domains derived from count/percentage; CDS zones modelled
        // as secured-with-CDS plus the Swiss island allocations.)
        for (name, base, swiss, cds, total, island_cds) in [
            (
                "Simply.com",
                "simply.com",
                false,
                218_590u64,
                225_816u64,
                0u64,
            ),
            ("cyon", "cyon.ch", true, 60_981, 126_781, 200),
            ("Gransy", "gransy.com", false, 54_690, 55_298, 0),
            ("METANET", "metanet.ch", true, 54_522, 77_336, 150),
            ("Porkbun", "porkbun.com", false, 34_989, 1_093_406, 0),
            ("netim", "netim.net", false, 34_586, 84_562, 0),
            ("Gandi", "gandi.net", false, 34_486, 957_944, 0),
            ("Webland", "webland.ch", true, 26_416, 34_621, 20),
            ("green.ch", "green.ch", true, 24_674, 146_869, 27),
            ("WebHouse", "webhouse.sk", false, 18_766, 31_277, 0),
            ("Va3 Hosting", "va3.net", false, 13_066, 13_292, 0),
            ("HostFactory", "hostfactory.ch", true, 12_897, 18_855, 15),
            ("INWX", "inwx.de", false, 11_303, 144_910, 0),
            ("OpenProvider", "openprovider.nl", false, 10_312, 12_971, 0),
            ("AWARDIC", "awardic.ch", true, 8_898, 8_907, 15),
            ("3DNS", "3dns.box", false, 8_112, 10_731, 0),
        ] {
            let mut o = if swiss {
                OperatorSpec::swiss_op(name, base)
            } else {
                OperatorSpec::new(name, base)
            };
            o.counts = CategoryCounts {
                unsigned: s(total - cds, scale),
                secured_with_cds: s(cds - island_cds, scale),
                island_cds: s(island_cds, scale),
                ..Default::default()
            };
            // The 3 289 signed-with-deletion-request zones (§4.2) and the
            // 696 intra-operator CDS inconsistencies live on mid-size
            // specialists.
            if name == "Porkbun" {
                o.counts.secured_with_cds_delete = s(3_289, scale);
            }
            if name == "Gransy" {
                o.counts.island_cds_inconsistent = s(696, scale);
            }
            ops.push(o);
        }

        // ---- The three AB operators (paper §4.4, Table 3) ---------------
        // deSEC and Glauca are small; generate them UNSCALED so the
        // signal-defect census reproduces exactly.
        let mut desec = OperatorSpec::new("deSEC", "desec.io");
        desec.ns_hosts = 2; // ns1.desec.io + ns2.desec.org
        desec.ns_host_names = vec!["ns1.desec.io".into(), "ns2.desec.org".into()];
        desec.signal_enabled = true;
        desec.signal_include_delete = false;
        desec.signal_keep_secured = true;
        desec.cds_publication = CdsPublication::DESEC;
        desec.counts = CategoryCounts {
            secured_with_cds: 5_439,
            invalid_with_signal: 20,
            island_cds: 1_855,
            ..Default::default()
        };
        desec.signal_defects = SignalDefects {
            missing_under_ns: 154,
            zone_cut: 1, // the parked-typo-NS .com.bo zone
            ..Default::default()
        };
        desec.quirks.transient_badsig = 0.0005; // the "70 transient" artefacts
                                                // deSEC also pilots CSYNC (RFC 7477) on its signed zones — the
                                                // §6 future-work mechanism, modelled so the scanner's CSYNC
                                                // census has a real population.
        desec.publish_csync = true;
        ops.push(desec);

        let mut glauca = OperatorSpec::new("Glauca Digital", "glauca.digital");
        glauca.signal_enabled = true;
        glauca.signal_include_delete = true;
        glauca.signal_keep_secured = true;
        glauca.counts = CategoryCounts {
            secured_with_cds: 233,
            invalid_with_signal: 1,
            island_cds: 49,
            island_cds_delete: 7,
            ..Default::default()
        };
        glauca.signal_defects = SignalDefects {
            missing_under_ns: 1, // the customer-added spurious NS
            ..Default::default()
        };
        ops.push(glauca);

        // The "others" column of Table 3: singular test setups.
        let mut misc_signal = OperatorSpec::new("misc-signal-tests", "signal-tests.net");
        misc_signal.signal_enabled = true;
        misc_signal.signal_include_delete = true;
        misc_signal.signal_keep_secured = true;
        misc_signal.counts = CategoryCounts {
            secured_with_cds: 113,
            invalid_with_signal: 123,
            island_cds: 23,
            island_cds_delete: 20,
            unsigned_with_signal: 21, // remainder of the 43
            ..Default::default()
        };
        misc_signal.signal_defects = SignalDefects {
            missing_under_ns: 17,
            expired: 1, // the forgotten personal test zone
            ..Default::default()
        };
        ops.push(misc_signal);

        // ---- §4.2 rare-event pools (unscaled) ---------------------------
        let mut canal = OperatorSpec::new("Canal Dominios", "canaldominios.es");
        canal.counts = CategoryCounts {
            unsigned_with_cds: 2_469,
            ..Default::default()
        };
        ops.push(canal);

        let mut oddities = OperatorSpec::new("misc-cds-tests", "cds-tests.org");
        oddities.counts = CategoryCounts {
            unsigned_with_cds: 385,
            unsigned_with_cds_delete: 16,
            secured_with_cds_mismatch: 2,
            secured_with_cds_badsig: 3,
            island_cds_mismatch: 5,
            island_cds_badsig: 3,
            ..Default::default()
        };
        ops.push(oddities);

        // ---- The legacy fleet (§4.2: 7.6 M zones whose NSes error on
        // CDS queries). Split small enough that none of these pseudo-
        // operators enters the top-20 table.
        for i in 0..8 {
            let mut o = OperatorSpec::new(
                &format!("legacyhost{}", i + 1),
                &format!("legacy{}-dns.net", i + 1),
            );
            o.quirks.pre_rfc3597 = true;
            o.counts = CategoryCounts {
                unsigned: s(950_000, scale),
                ..Default::default()
            };
            ops.push(o);
        }

        // ---- Longtail filler to reach the paper's totals -----------------
        // ≈133 M domains over many small operators (each below the paper's
        // #20, SiteGround at 1.54 M), carrying the residual secured /
        // invalid / island mass so the global Figure 1 ratios land on the
        // paper's 93.2 / 5.5 / 0.2 / 1.1 split.
        let longtail_ops = 128u64;
        for i in 0..longtail_ops {
            let mut o = OperatorSpec::new(
                &format!("longtail{:03}", i + 1),
                &format!("lt{:03}-hosting.net", i + 1),
            );
            o.counts = CategoryCounts {
                unsigned: s(133_300_000 / longtail_ops, scale),
                secured: s(1_100_000 / longtail_ops, scale),
                secured_with_cds: s(600_000 / longtail_ops, scale),
                invalid: s(453_000 / longtail_ops, scale),
                island_no_cds: s(1_370_000 / longtail_ops, scale),
                ..Default::default()
            };
            ops.push(o);
        }

        EcosystemConfig {
            seed: 0x1c0_ffee,
            scale,
            now: 1_000_000,
            operators: ops,
            multi: MultiOpSpec {
                inconsistent_islands: s(4_637, scale.min(100)),
                signal_missing_one_op: 17.min(s(17, 1)),
                signal_inconsistent: s(32, 1),
            },
            in_domain_only: s(500_000, scale),
            adversaries: Vec::new(),
        }
    }

    /// A small, fast world for unit/integration tests: every category
    /// present at least once, a few hundred zones total.
    pub fn tiny(seed: u64) -> Self {
        let mut ops = Vec::new();

        let mut clean = OperatorSpec::new("CleanCorp", "cleancorp.net");
        clean.nsec3 = true;
        clean.counts = CategoryCounts {
            unsigned: 30,
            secured: 10,
            secured_with_cds: 5,
            secured_with_cds_delete: 1,
            invalid: 3,
            island_no_cds: 4,
            island_cds: 6,
            island_cds_delete: 2,
            ..Default::default()
        };
        ops.push(clean);

        let mut signaler = OperatorSpec::new("SignalSoft", "signalsoft.io");
        signaler.publish_csync = true;
        signaler.signal_enabled = true;
        signaler.signal_include_delete = true;
        signaler.signal_keep_secured = true;
        signaler.counts = CategoryCounts {
            secured_with_cds: 6,
            secured_with_cds_delete: 2, // the unAB (authenticated delete) pilots
            island_cds: 8,
            island_cds_delete: 2,
            invalid_with_signal: 1,
            unsigned_with_signal: 1,
            ..Default::default()
        };
        signaler.signal_defects = SignalDefects {
            missing_under_ns: 1,
            expired: 1,
            zone_cut: 1,
            ..Default::default()
        };
        ops.push(signaler);

        let mut legacy = OperatorSpec::new("LegacyHost", "oldserver.net");
        legacy.quirks.pre_rfc3597 = true;
        legacy.counts = CategoryCounts {
            unsigned: 10,
            ..Default::default()
        };
        ops.push(legacy);

        let mut oddities = OperatorSpec::new("OddCo", "oddco.org");
        oddities.counts = CategoryCounts {
            unsigned_with_cds: 2,
            unsigned_with_cds_delete: 1,
            island_cds_mismatch: 1,
            island_cds_badsig: 1,
            island_cds_inconsistent: 2,
            secured_with_cds_mismatch: 1,
            secured_with_cds_badsig: 1,
            ..Default::default()
        };
        ops.push(oddities);

        EcosystemConfig {
            seed,
            scale: 1_000_000,
            now: 1_000_000,
            operators: ops,
            multi: MultiOpSpec {
                inconsistent_islands: 2,
                signal_missing_one_op: 1,
                signal_inconsistent: 1,
            },
            in_domain_only: 3,
            adversaries: Vec::new(),
        }
    }

    /// Add `zones_per_archetype` zones of every adversarial archetype to
    /// this config (builder-style). The hostile tier lives under its own
    /// `zzadv` registry, so adding it never perturbs the benign world.
    pub fn with_adversaries(mut self, zones_per_archetype: usize) -> Self {
        self.adversaries = AdversaryArchetype::ALL
            .iter()
            .map(|&archetype| AdversaryOpSpec {
                archetype,
                zones: zones_per_archetype,
            })
            .collect();
        self
    }

    /// Total zones this config will generate (excluding multi-operator
    /// and in-domain extras).
    pub fn total_zones(&self) -> usize {
        self.operators.iter().map(|o| o.counts.total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_floors_at_one() {
        assert_eq!(s(0, 1000), 0);
        assert_eq!(s(3, 1000), 1);
        assert_eq!(s(1_000, 1000), 1);
        assert_eq!(s(1_500, 1000), 2);
        assert_eq!(s(287_600_000, 1000), 287_600);
    }

    #[test]
    fn paper_default_total_is_near_287k_at_1000() {
        let cfg = EcosystemConfig::paper_default(1000);
        let total = cfg.total_zones();
        // 287.6 M / 1000 plus unscaled extras: within a sane band.
        assert!((250_000..340_000).contains(&total), "total zones = {total}");
    }

    #[test]
    fn paper_default_islands_shape() {
        // Figure 1 shape: islands ≈ 3.12 M / 1000, bootstrappable ≈ 303 k
        // / 1000 (+ the unscaled deSEC/Glauca/misc pools).
        let cfg = EcosystemConfig::paper_default(1000);
        let islands: usize = cfg
            .operators
            .iter()
            .map(|o| {
                o.counts.island_no_cds
                    + o.counts.island_cds
                    + o.counts.island_cds_delete
                    + o.counts.island_cds_mismatch
                    + o.counts.island_cds_badsig
                    + o.counts.island_cds_inconsistent
            })
            .sum();
        assert!((2_500..6_000).contains(&islands), "islands = {islands}");
        let boot: usize = cfg.operators.iter().map(|o| o.counts.island_cds).sum();
        // 303 k scaled ≈ 300 + deSEC 1 855 + Glauca 49 + misc 23.
        assert!((2_000..3_000).contains(&boot), "bootstrappable = {boot}");
    }

    #[test]
    fn three_signal_operators_in_default() {
        let cfg = EcosystemConfig::paper_default(1000);
        let with_signal: Vec<&str> = cfg
            .operators
            .iter()
            .filter(|o| o.signal_enabled)
            .map(|o| o.name.as_str())
            .collect();
        assert!(with_signal.contains(&"Cloudflare"));
        assert!(with_signal.contains(&"deSEC"));
        assert!(with_signal.contains(&"Glauca Digital"));
        // Plus the misc test-zone pool = 4 signal publishers total.
        assert_eq!(with_signal.len(), 4);
    }

    #[test]
    fn swiss_operators_marked() {
        let cfg = EcosystemConfig::paper_default(1000);
        let swiss: Vec<&str> = cfg
            .operators
            .iter()
            .filter(|o| o.swiss)
            .map(|o| o.name.as_str())
            .collect();
        // Table 2 marks 6 Swiss operators.
        assert_eq!(swiss.len(), 6, "{swiss:?}");
    }

    #[test]
    fn tiny_has_every_interesting_category() {
        let cfg = EcosystemConfig::tiny(1);
        let c: CategoryCounts =
            cfg.operators
                .iter()
                .fold(CategoryCounts::default(), |mut acc, o| {
                    acc.unsigned += o.counts.unsigned;
                    acc.unsigned_with_cds += o.counts.unsigned_with_cds;
                    acc.secured += o.counts.secured + o.counts.secured_with_cds;
                    acc.invalid += o.counts.invalid + o.counts.invalid_with_signal;
                    acc.island_cds += o.counts.island_cds;
                    acc.island_cds_delete += o.counts.island_cds_delete;
                    acc.island_cds_mismatch += o.counts.island_cds_mismatch;
                    acc.island_cds_inconsistent += o.counts.island_cds_inconsistent;
                    acc
                });
        assert!(c.unsigned > 0);
        assert!(c.unsigned_with_cds > 0);
        assert!(c.secured > 0);
        assert!(c.invalid > 0);
        assert!(c.island_cds > 0);
        assert!(c.island_cds_delete > 0);
        assert!(c.island_cds_mismatch > 0);
        assert!(c.island_cds_inconsistent > 0);
        assert!(cfg.total_zones() < 500);
    }

    #[test]
    fn category_total_sums_all_fields() {
        let c = CategoryCounts {
            unsigned: 1,
            unsigned_with_cds: 2,
            unsigned_with_cds_delete: 3,
            secured: 4,
            secured_with_cds: 5,
            secured_with_cds_delete: 6,
            secured_with_cds_mismatch: 7,
            secured_with_cds_badsig: 8,
            invalid: 9,
            invalid_errant_ds: 10,
            island_no_cds: 11,
            island_cds: 12,
            island_cds_delete: 13,
            island_cds_mismatch: 14,
            island_cds_badsig: 15,
            island_cds_inconsistent: 16,
            unsigned_with_signal: 17,
            invalid_with_signal: 18,
        };
        assert_eq!(c.total(), (1..=18).sum::<usize>());
    }
}
