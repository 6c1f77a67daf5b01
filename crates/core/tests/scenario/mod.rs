//! The scenario space (DESIGN.md §5a): every small setup of one zone that
//! the paper's three classes depend on — its DNSSEC state and, per
//! nameserver, the CDS/CDNSKEY set, the RFC 9615 signal, the NS bailiwick
//! and a flaky address lookup — enumerated, rendered as zone-file text,
//! signed, and served over netsim. Named points of the space stand in for
//! hand-built test worlds.

pub mod oracle;

use bootscan::{OperatorTable, ScanPolicy, Scanner};
use dns_crypto::{Algorithm, DigestType, UnixTime};
use dns_resolver::{DnsClient, Resolver, RootHints};
use dns_server::{AuthServer, Quirks, ZoneStore};
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RData};
use dns_wire::record::{Record, RecordType};
use dns_zone::signer::Denial;
use dns_zone::{signal_name, Zone, ZoneKeys, ZoneSigner};
use netsim::{Addr, Network, ServerHandler, ServerResponse, SimMicros, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Whether the parent publishes a DS, and for which key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ds {
    Absent,
    Matching,
    /// The DS of a key the zone does not publish.
    Foreign,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ZoneState {
    Unsigned,
    /// Signed; `self_sig` says whether the RRSIG over the DNSKEY RRset
    /// verifies.
    Signed {
        ds: Ds,
        self_sig: bool,
    },
}

/// The CDS/CDNSKEY set one nameserver serves at the zone apex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CdsSet {
    None,
    Cds,
    Cdnskey,
    Both,
    /// The RFC 8078 §4 deletion sentinels.
    Delete,
    /// CDS and CDNSKEY of a key the zone does not publish.
    ForeignKey,
    /// A CDS with the KSK's tag and algorithm but a wrong digest.
    WrongDigest,
    /// The KSK's CDS beside a wrong-digest one: the shape of a rollover
    /// that pre-publishes the DS of a key not yet in the DNSKEY RRset.
    MixedDigest,
    /// A CDNSKEY of the KSK's public key with the ZSK's flags (256).
    WrongFlags,
    /// A CDNSKEY of the KSK with protocol 2. Not enumerated: it names no
    /// key for the reason `WrongFlags` does, so it is the one point
    /// `island-cdnskey-protocol`, outside the space.
    WrongProtocol,
    /// CDS and CDNSKEY whose RRSIGs do not verify.
    BadRrsig,
    /// A pre-RFC 3597 server: CDS, CDNSKEY and DNSKEY queries error.
    Legacy,
}

/// The state of the zone an NS's signal records live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SignalZone {
    Secure,
    /// Unsigned, insecurely delegated.
    Insecure,
    /// Signed, but the signal records' RRSIGs do not verify.
    Bogus,
    /// A zone cut between `_signal.<ns>` and the signaling name, its
    /// zone served by the signal zone's own server.
    Cut,
    /// The same cut, its zone served by another server: resolvers follow
    /// a referral into it.
    CutReferral,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Signal {
    Absent,
    /// A copy of the CDS/CDNSKEY set this NS serves in-zone (of the
    /// zone's CDS and CDNSKEY when it serves none).
    Copy(SignalZone),
    /// Other content, under a secure signal zone.
    Different,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bailiwick {
    /// Under the zone itself, with glue.
    In,
    /// Under the zone's TLD, glueless.
    Sibling,
    /// Under another TLD.
    Out,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ns {
    pub bailiwick: Bailiwick,
    pub cds: CdsSet,
    pub signal: Signal,
    /// The NS hostname's first A lookup fails with SERVFAIL.
    pub flaky: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Config {
    pub zone: ZoneState,
    /// One or two nameservers, sorted: the canonical member of the
    /// config's NS-permutation class.
    pub ns: Vec<Ns>,
}

/// Which key a CDS-shaped record is made from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeyRef {
    Zone,
    Foreign,
}

/// One CDS-shaped record, symbolically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rec {
    Cds(KeyRef),
    WrongDigestCds,
    Cdnskey(KeyRef),
    ZskFlagsCdnskey,
    Protocol2Cdnskey,
    DeleteCds,
    DeleteCdnskey,
}

impl CdsSet {
    /// The records a nameserver with this set serves at the apex.
    pub fn records(self) -> Vec<Rec> {
        match self {
            CdsSet::None | CdsSet::Legacy => vec![],
            CdsSet::Cds => vec![Rec::Cds(KeyRef::Zone)],
            CdsSet::Cdnskey => vec![Rec::Cdnskey(KeyRef::Zone)],
            CdsSet::Both | CdsSet::BadRrsig => {
                vec![Rec::Cds(KeyRef::Zone), Rec::Cdnskey(KeyRef::Zone)]
            }
            CdsSet::Delete => vec![Rec::DeleteCds, Rec::DeleteCdnskey],
            CdsSet::ForeignKey => vec![Rec::Cds(KeyRef::Foreign), Rec::Cdnskey(KeyRef::Foreign)],
            CdsSet::WrongDigest => vec![Rec::WrongDigestCds],
            CdsSet::MixedDigest => vec![Rec::Cds(KeyRef::Zone), Rec::WrongDigestCds],
            CdsSet::WrongFlags => vec![Rec::ZskFlagsCdnskey],
            CdsSet::WrongProtocol => vec![Rec::Protocol2Cdnskey],
        }
    }
}

impl Ns {
    /// The records published at this NS's signaling name, if any.
    pub fn signal_records(&self) -> Option<Vec<Rec>> {
        match self.signal {
            Signal::Absent => None,
            Signal::Copy(_) => Some(match self.cds.records() {
                none if none.is_empty() => CdsSet::Both.records(),
                served => served,
            }),
            Signal::Different => Some(vec![Rec::Cdnskey(KeyRef::Foreign)]),
        }
    }
}

const fn signed(ds: Ds, self_sig: bool) -> ZoneState {
    ZoneState::Signed { ds, self_sig }
}

const ZONE_STATES: [ZoneState; 7] = [
    ZoneState::Unsigned,
    signed(Ds::Absent, true),
    signed(Ds::Absent, false),
    signed(Ds::Matching, true),
    signed(Ds::Matching, false),
    signed(Ds::Foreign, true),
    signed(Ds::Foreign, false),
];

const CDS_SETS: [CdsSet; 11] = [
    CdsSet::None,
    CdsSet::Cds,
    CdsSet::Cdnskey,
    CdsSet::Both,
    CdsSet::Delete,
    CdsSet::ForeignKey,
    CdsSet::WrongDigest,
    CdsSet::MixedDigest,
    CdsSet::WrongFlags,
    CdsSet::BadRrsig,
    CdsSet::Legacy,
];

/// The sets that differ from `Cds` and `Cdnskey` in key correspondence
/// alone. They take a sibling NS with no signal or a secure copy only:
/// the other bailiwicks and signal states meet them through the second
/// NS, and enumerating them under every value would add 42 % to the
/// space for no rule it does not already reach.
fn correspondence_only(cds: CdsSet) -> bool {
    matches!(cds, CdsSet::MixedDigest | CdsSet::WrongFlags)
}

const SIGNALS: [Signal; 7] = [
    Signal::Absent,
    Signal::Copy(SignalZone::Secure),
    Signal::Copy(SignalZone::Insecure),
    Signal::Copy(SignalZone::Bogus),
    Signal::Copy(SignalZone::Cut),
    Signal::Copy(SignalZone::CutReferral),
    Signal::Different,
];

/// Every value one nameserver takes, sorted. An in-bailiwick NS carries
/// no signal (RFC 9615 forms no signaling name under the child), and a
/// flaky one none either: its failed lookup is the NS address walk,
/// which the signal probe never takes.
fn ns_values() -> Vec<Ns> {
    let mut out = Vec::new();
    for bailiwick in [Bailiwick::In, Bailiwick::Sibling, Bailiwick::Out] {
        for cds in CDS_SETS {
            if correspondence_only(cds) {
                if bailiwick == Bailiwick::Sibling {
                    out.extend([Signal::Absent, SECURE].map(|signal| ns(bailiwick, cds, signal)));
                }
                continue;
            }
            for signal in SIGNALS {
                if bailiwick == Bailiwick::In && signal != Signal::Absent {
                    continue;
                }
                out.push(ns(bailiwick, cds, signal));
            }
            out.push(ns(bailiwick, cds, Signal::Absent).flaky());
        }
    }
    out.sort();
    out
}

/// The whole space, one config per NS-permutation class, at most one
/// flaky NS per config.
pub fn enumerate() -> Vec<Config> {
    let values = ns_values();
    let mut out = Vec::new();
    for zone in ZONE_STATES {
        for (i, a) in values.iter().enumerate() {
            out.push(Config { zone, ns: vec![*a] });
            for b in values[i..].iter().filter(|b| !(a.flaky && b.flaky)) {
                out.push(config(zone, vec![*a, *b]));
            }
        }
    }
    out
}

/// The size of the space before the symmetry reduction: every ordered
/// NS list.
pub fn unreduced_len() -> usize {
    let values = ns_values();
    let flaky = values.iter().filter(|n| n.flaky).count();
    ZONE_STATES.len() * (values.len() + values.len().pow(2) - flaky.pow(2))
}

fn ns(bailiwick: Bailiwick, cds: CdsSet, signal: Signal) -> Ns {
    let flaky = false;
    Ns {
        bailiwick,
        cds,
        signal,
        flaky,
    }
}

impl Ns {
    fn flaky(self) -> Ns {
        Ns {
            flaky: true,
            ..self
        }
    }
}

fn config(zone: ZoneState, mut ns: Vec<Ns>) -> Config {
    ns.sort();
    Config { zone, ns }
}

impl Config {
    /// The member of the config's NS-permutation class that [`enumerate`]
    /// leaves out: its two NSes swapped, when they differ. Served as the
    /// same zone with the same keys, the second NS then takes the first
    /// hostname, address and probe turn.
    pub fn mirror(&self) -> Option<Config> {
        match self.ns[..] {
            [a, b] if a != b => Some(Config {
                zone: self.zone,
                ns: vec![b, a],
            }),
            _ => None,
        }
    }
}

/// The named points [`enumerate`] does not reach.
pub const OFF_SPACE: [&str; 1] = ["island-cdnskey-protocol"];

const ISLAND: ZoneState = signed(Ds::Absent, true);
const SECURED: ZoneState = signed(Ds::Matching, true);
const SECURE: Signal = Signal::Copy(SignalZone::Secure);

/// The named points: test worlds that used to be built by hand. Each
/// is a member of [`enumerate`], except the [`OFF_SPACE`] ones.
pub fn named(name: &str) -> Config {
    use Bailiwick::{Out, Sibling};
    use CdsSet as C;
    use Signal::Absent;
    let sib = |cds, signal| ns(Sibling, cds, signal);
    match name {
        "sibling-glueless" => config(ZoneState::Unsigned, vec![sib(C::None, Absent)]),
        "flaky-host" => config(ZoneState::Unsigned, vec![sib(C::None, Absent).flaky()]),
        "secured" => config(SECURED, vec![sib(C::None, Absent)]),
        "broken-self-signature" => config(signed(Ds::Matching, false), vec![sib(C::None, Absent)]),
        "island" => config(ISLAND, vec![sib(C::None, Absent)]),
        "island-cds" => config(ISLAND, vec![sib(C::Cds, Absent)]),
        "island-split-cds" => config(
            ISLAND,
            vec![sib(C::Cds, Absent), sib(C::ForeignKey, Absent)],
        ),
        "island-cds-legacy-peer" => {
            config(ISLAND, vec![sib(C::Cds, Absent), sib(C::Legacy, Absent)])
        }
        "island-delete" => config(ISLAND, vec![sib(C::Delete, Absent)]),
        "island-bad-rrsig" => config(ISLAND, vec![sib(C::BadRrsig, Absent)]),
        "island-foreign-cds" => config(ISLAND, vec![sib(C::ForeignKey, Absent)]),
        "island-wrong-digest" => config(ISLAND, vec![sib(C::WrongDigest, Absent)]),
        "island-mixed-digest" => config(ISLAND, vec![sib(C::MixedDigest, Absent)]),
        "island-cdnskey-zsk-flags" => config(ISLAND, vec![sib(C::WrongFlags, Absent)]),
        "island-cdnskey-protocol" => config(ISLAND, vec![sib(C::WrongProtocol, Absent)]),
        "unsigned-cds" => config(ZoneState::Unsigned, vec![sib(C::Cds, Absent)]),
        "secured-signal" => config(SECURED, vec![sib(C::Cds, SECURE)]),
        "island-delete-signal" => config(ISLAND, vec![sib(C::Delete, SECURE)]),
        "unsigned-signal" => config(ZoneState::Unsigned, vec![sib(C::None, SECURE)]),
        "bootstrappable" => config(ISLAND, vec![sib(C::Cds, SECURE), ns(Out, C::Cds, SECURE)]),
        "signal-cut" => config(
            ISLAND,
            vec![
                sib(C::Cds, Signal::Copy(SignalZone::Cut)),
                ns(Out, C::Cds, Absent),
            ],
        ),
        "signal-missing-under-one" => {
            config(ISLAND, vec![sib(C::Cds, SECURE), ns(Out, C::Cds, Absent)])
        }
        "signal-bogus" => config(ISLAND, vec![sib(C::Cds, Signal::Copy(SignalZone::Bogus))]),
        "signal-different" => config(ISLAND, vec![sib(C::Cds, Signal::Different)]),
        // Regression points: classifier fixes the oracle found.
        "flaky-in-bailiwick" => config(SECURED, vec![ns(Bailiwick::In, C::None, Absent).flaky()]),
        "island-broken-self-signature" => {
            config(signed(Ds::Absent, false), vec![sib(C::Cds, Absent)])
        }
        "signal-cut-referral" => config(
            ISLAND,
            vec![sib(C::Cds, Signal::Copy(SignalZone::CutReferral))],
        ),
        "signal-bogus-cdnskey" => config(
            ISLAND,
            vec![sib(C::Cdnskey, Signal::Copy(SignalZone::Bogus))],
        ),
        other => panic!("no named point {other}"),
    }
}

/// The scan epoch every signature window is drawn around.
const NOW: UnixTime = 1_750_000_000;

/// The zone a config at position `index` of [`enumerate`] is served as.
pub fn zone_name(index: usize) -> Name {
    Name::parse(&format!("c{index}.test")).unwrap()
}

fn name(s: &str) -> Name {
    Name::parse(s).unwrap()
}

fn v4(a: u8, b: u8, c: u8, d: u8) -> Addr {
    Addr::V4(Ipv4Addr::new(a, b, c, d))
}

/// The server answering for a config's zone under one NS: the NS
/// hostname's bailiwick, whether its signal zone is the unsigned base,
/// whether it is a pre-RFC 3597 server, and a slot that keeps two NSes
/// of one config on two servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Server {
    bailiwick: Bailiwick,
    insecure: bool,
    legacy: bool,
    slot: u8,
}

impl Server {
    fn all() -> Vec<Server> {
        let mut out = Vec::new();
        for bailiwick in [Bailiwick::In, Bailiwick::Sibling, Bailiwick::Out] {
            for insecure in [false, true] {
                for legacy in [false, true] {
                    for slot in [1, 2] {
                        if !(bailiwick == Bailiwick::In && insecure) {
                            out.push(Server {
                                bailiwick,
                                insecure,
                                legacy,
                                slot,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    fn addr(self) -> Addr {
        let kind = self.bailiwick as u8 * 4 + self.insecure as u8 * 2 + self.legacy as u8;
        v4(10, 1, kind, self.slot)
    }

    /// The operator base zone its hostnames live in (none in-bailiwick).
    fn base(self) -> Option<Name> {
        let (op, tld) = match self.bailiwick {
            Bailiwick::In => return None,
            Bailiwick::Sibling => ("op1", "test"),
            Bailiwick::Out => ("op2", "net"),
        };
        let u = if self.insecure { "u" } else { "" };
        Some(name(&format!("{op}{u}.{tld}")))
    }

    /// Its shared hostname.
    fn host(self) -> Option<Name> {
        let prefix = if self.legacy { "l" } else { "s" };
        Some(name(&format!("{prefix}{}.{}", self.slot, self.base()?)))
    }
}

/// The four operator base zones: two per operator, the second unsigned.
const BASES: [&str; 4] = ["op1.test", "op1u.test", "op2.net", "op2u.net"];

/// The server after the base zones' four: it serves the `CutReferral`
/// zones, as `cuts.<base>`.
const CUT_SERVER: usize = 4;

/// The NS hostnames of config `index`, in NS order, each with the
/// address that answers for the zone under it.
pub fn hosts(index: usize, c: &Config) -> Vec<(Name, Addr)> {
    servers(index, c)
        .into_iter()
        .map(|(h, s)| (h, s.addr()))
        .collect()
}

/// The NS hostnames of config `index`, each with the server that
/// answers for the zone under it.
fn servers(index: usize, c: &Config) -> Vec<(Name, Server)> {
    let mut taken: Vec<Server> = Vec::new();
    c.ns.iter()
        .enumerate()
        .map(|(i, n)| {
            let mut s = Server {
                bailiwick: n.bailiwick,
                insecure: n.signal == Signal::Copy(SignalZone::Insecure),
                legacy: n.cds == CdsSet::Legacy,
                slot: 1,
            };
            while taken.contains(&s) {
                s.slot += 1;
            }
            taken.push(s);
            let host = match s.base() {
                None => name(&format!("ns{}.c{index}.test", i + 1)),
                Some(base) if n.flaky => name(&format!("f{index}.{base}")),
                Some(_) => s.host().unwrap(),
            };
            (host, s)
        })
        .collect()
}

fn keys(seed: u64) -> ZoneKeys {
    ZoneKeys::generate(&mut StdRng::seed_from_u64(seed), Algorithm::EcdsaP256Sha256)
}

/// The zone's keys, and the foreign key set its `Foreign` records use.
fn zone_keys(index: usize) -> (ZoneKeys, ZoneKeys) {
    (keys(index as u64), keys(index as u64 | 1 << 40))
}

fn rdata(rec: Rec, apex: &Name, zone: &ZoneKeys, foreign: &ZoneKeys) -> RData {
    let of = |k| if k == KeyRef::Zone { zone } else { foreign };
    let cdnskey = |k: &ZoneKeys| DnskeyData {
        flags: k.ksk.flags,
        protocol: 3,
        algorithm: k.ksk.algorithm.code(),
        public_key: k.ksk.public_key().to_vec(),
    };
    match rec {
        Rec::Cds(k) => RData::Cds(of(k).ds_data(apex, DigestType::Sha256)),
        Rec::WrongDigestCds => {
            let mut ds = zone.ds_data(apex, DigestType::Sha256);
            ds.digest[0] ^= 0xff;
            RData::Cds(ds)
        }
        Rec::Cdnskey(k) => RData::Cdnskey(cdnskey(of(k))),
        Rec::ZskFlagsCdnskey => RData::Cdnskey(DnskeyData {
            flags: 256,
            ..cdnskey(zone)
        }),
        Rec::Protocol2Cdnskey => RData::Cdnskey(DnskeyData {
            protocol: 2,
            ..cdnskey(zone)
        }),
        Rec::DeleteCds => RData::Cds(DsData::delete_sentinel()),
        Rec::DeleteCdnskey => RData::Cdnskey(DnskeyData::delete_sentinel()),
    }
}

/// Zone-file text accumulated per zone, parsed once everything is in.
#[derive(Default)]
struct Texts(BTreeMap<Name, String>);

impl Texts {
    fn record(&mut self, apex: &Name, owner: &Name, rdata: RData) {
        let text = self.0.entry(apex.clone()).or_insert_with(|| soa_text(apex));
        line(text, owner, rdata);
    }

    fn parse(&self, apex: &Name) -> Zone {
        parse(apex, &self.0[apex])
    }
}

fn soa_text(apex: &Name) -> String {
    format!(
        "$ORIGIN {apex}\n@ 3600 IN SOA ns.invalid. hostmaster.invalid. 1 7200 3600 1209600 300\n"
    )
}

fn line(text: &mut String, owner: &Name, rdata: RData) {
    text.push_str(&Record::new(owner.clone(), 300, rdata).to_string());
    text.push('\n');
}

fn parse(apex: &Name, text: &str) -> Zone {
    Zone::from_zone_file(apex.clone(), text).unwrap()
}

fn sign(zone: &mut Zone, keys: &ZoneKeys) {
    ZoneSigner::new(NOW)
        .with_denial(Denial::None)
        .sign(zone, keys);
}

/// Flip the signature bytes of the RRSIGs at `owner` covering `types`.
fn corrupt(zone: &mut Zone, owner: &Name, types: &[RecordType]) {
    if let Some(set) = zone.remove_rrset(owner, RecordType::Rrsig) {
        let mut records = set.records();
        for r in &mut records {
            if let RData::Rrsig(sig) = &mut r.rdata {
                if types.iter().any(|t| t.code() == sig.type_covered) {
                    sig.signature.iter_mut().for_each(|b| *b ^= 0x77);
                }
            }
        }
        zone.add_all(records);
    }
}

/// An authoritative server answering the first A query for each hostname
/// in `flaky` (one table, shared by every server of a world) with
/// SERVFAIL.
struct Flaky {
    inner: AuthServer,
    flaky: Arc<HashMap<Name, AtomicBool>>,
}

impl ServerHandler for Flaky {
    fn handle(&self, q: &[u8], dst: Addr, t: Transport, b: u32, now: SimMicros) -> ServerResponse {
        if let Ok(msg) = Message::from_bytes(q) {
            let fails = msg.questions.first().is_some_and(|q| {
                q.rtype == RecordType::A
                    && self
                        .flaky
                        .get(&q.name)
                        .is_some_and(|f| !f.swap(true, Ordering::Relaxed))
            });
            if fails {
                return ServerResponse::Reply(
                    Message::response_to(&msg, Rcode::ServFail).to_bytes(),
                );
            }
        }
        self.inner.handle(q, dst, t, b, now)
    }
}

/// A built world: root, the `test` and `net` registries, two operators'
/// base zones and servers, and one zone per config.
pub struct World {
    pub net: Arc<Network>,
    root: Addr,
    anchors: Vec<DsData>,
}

impl World {
    /// Materialise `configs` — each `(index, config)` served as
    /// [`zone_name`]`(index)` — into one world.
    pub fn build(configs: &[(usize, &Config)]) -> World {
        let net = Arc::new(Network::new(7));
        let mut texts = Texts::default();
        let (test, tld_net) = (name("test"), name("net"));
        let bases: Vec<Name> = BASES.iter().map(|b| name(b)).collect();
        let base_addr = |i: usize| v4(192, 0, 2, 11 + i as u8);
        for (i, base) in bases.iter().enumerate() {
            let tld = base.parent().unwrap();
            let ns = base.prepend_label(b"ns").unwrap();
            texts.record(base, base, RData::Ns(ns.clone()));
            texts.record(&tld, base, RData::Ns(ns.clone()));
            for apex in [base, &tld] {
                texts.record(apex, &ns, rdata_for(base_addr(i)));
            }
            let cuts = base.prepend_label(b"cuts").unwrap();
            texts.record(base, &cuts, rdata_for(base_addr(CUT_SERVER)));
        }
        let pool = Server::all();
        for s in &pool {
            if let (Some(base), Some(host)) = (s.base(), s.host()) {
                texts.record(&base, &host, rdata_for(s.addr()));
            }
        }

        // Every config: its zone under each NS, delegation, signals.
        let mut flaky: HashMap<Name, AtomicBool> = HashMap::new();
        let mut bogus: Vec<(Name, Name)> = Vec::new();
        let mut served: Vec<(Server, Zone)> = Vec::new();
        let mut infra: Vec<(usize, Zone)> = Vec::new();
        for &(index, c) in configs {
            let apex = zone_name(index);
            let (zk, fk) = zone_keys(index);
            let hosts = servers(index, c);
            let mut head = soa_text(&apex);
            for (host, s) in &hosts {
                line(&mut head, &apex, RData::Ns(host.clone()));
                texts.record(&test, &apex, RData::Ns(host.clone()));
                if s.bailiwick == Bailiwick::In {
                    line(&mut head, host, rdata_for(s.addr()));
                    texts.record(&test, host, rdata_for(s.addr()));
                }
            }
            let parent_ds = match c.zone {
                ZoneState::Signed {
                    ds: Ds::Matching, ..
                } => Some(&zk),
                ZoneState::Signed {
                    ds: Ds::Foreign, ..
                } => Some(&fk),
                _ => None,
            };
            if let Some(k) = parent_ds {
                texts.record(
                    &test,
                    &apex,
                    RData::Ds(k.ds_data(&apex, DigestType::Sha256)),
                );
            }
            for (n, (host, s)) in c.ns.iter().zip(&hosts) {
                let mut text = head.clone();
                for rec in n.cds.records() {
                    line(&mut text, &apex, rdata(rec, &apex, &zk, &fk));
                }
                let mut zone = parse(&apex, &text);
                if let ZoneState::Signed { self_sig, .. } = c.zone {
                    sign(&mut zone, &zk);
                    if !self_sig {
                        corrupt(&mut zone, &apex, &[RecordType::Dnskey]);
                    }
                    if n.cds == CdsSet::BadRrsig {
                        corrupt(&mut zone, &apex, &[RecordType::Cds, RecordType::Cdnskey]);
                    }
                }
                served.push((*s, zone));
                if n.flaky {
                    flaky.insert(host.clone(), AtomicBool::new(false));
                    if let Some(base) = s.base() {
                        texts.record(&base, host, rdata_for(s.addr()));
                    }
                }
                let (Some(recs), Some(base)) = (n.signal_records(), s.base()) else {
                    continue;
                };
                let signame = signal_name(&apex, host).unwrap();
                let mut owner_zone = base.clone();
                match n.signal {
                    Signal::Copy(SignalZone::Bogus) => bogus.push((base.clone(), signame.clone())),
                    Signal::Copy(cut @ (SignalZone::Cut | SignalZone::CutReferral)) => {
                        // The cut sits at `<child>._signal.<ns>`.
                        let label: &[u8] = if cut == SignalZone::Cut {
                            b"ns"
                        } else {
                            b"cuts"
                        };
                        let ns = base.prepend_label(label).unwrap();
                        let cut = signame.parent().unwrap();
                        texts.record(&base, &cut, RData::Ns(ns.clone()));
                        texts.record(&cut, &cut, RData::Ns(ns));
                        owner_zone = cut;
                    }
                    _ => {}
                }
                for rec in recs {
                    texts.record(&owner_zone, &signame, rdata(rec, &apex, &zk, &fk));
                }
                if owner_zone != base {
                    let server = match n.signal {
                        Signal::Copy(SignalZone::CutReferral) => CUT_SERVER,
                        _ => bases.iter().position(|b| *b == base).unwrap(),
                    };
                    infra.push((server, texts.parse(&owner_zone)));
                }
            }
        }
        let flaky = Arc::new(flaky);
        let serve = |store: Arc<ZoneStore>, quirks: Quirks| {
            net.register(Flaky {
                inner: AuthServer::new(store).with_quirks(quirks),
                flaky: Arc::clone(&flaky),
            })
        };

        // Host servers.
        let mut stores: Vec<Arc<ZoneStore>> = Vec::new();
        for s in &pool {
            let store = Arc::new(ZoneStore::new());
            let quirks = Quirks {
                pre_rfc3597: s.legacy,
                ..Quirks::CLEAN
            };
            net.bind_simple(s.addr(), serve(Arc::clone(&store), quirks));
            stores.push(store);
        }
        for (s, zone) in served {
            stores[pool.iter().position(|x| *x == s).unwrap()].insert(zone);
        }

        // Operator base zones (the first of each pair signed) and the cut
        // zones under them, on the base zones' servers or the cut server.
        let mut base_stores: Vec<Arc<ZoneStore>> = Vec::new();
        let mut ds: Vec<(Name, DsData)> = Vec::new();
        for (i, base) in bases.iter().enumerate() {
            let mut zone = texts.parse(base);
            if i % 2 == 0 {
                let k = keys(1 << 41 | i as u64);
                sign(&mut zone, &k);
                for (_, signame) in bogus.iter().filter(|(b, _)| b == base) {
                    corrupt(&mut zone, signame, &[RecordType::Cds, RecordType::Cdnskey]);
                }
                ds.push((base.clone(), k.ds_data(base, DigestType::Sha256)));
            }
            let store = Arc::new(ZoneStore::new());
            store.insert(zone);
            net.bind_simple(base_addr(i), serve(Arc::clone(&store), Quirks::CLEAN));
            base_stores.push(store);
        }
        let cut_store = Arc::new(ZoneStore::new());
        net.bind_simple(
            base_addr(CUT_SERVER),
            serve(Arc::clone(&cut_store), Quirks::CLEAN),
        );
        base_stores.push(cut_store);
        for (i, zone) in infra {
            base_stores[i].insert(zone);
        }

        // Registries: `test` and `net`, then the root.
        let root_addr = v4(198, 41, 0, 4);
        for (tld, d) in &ds {
            texts.record(&tld.parent().unwrap(), tld, RData::Ds(d.clone()));
        }
        for (i, tld) in [&test, &tld_net].into_iter().enumerate() {
            let ns = name(&format!("ns1.nic.{tld}"));
            let addr = v4(192, 0, 2, 1 + i as u8);
            texts.record(tld, tld, RData::Ns(ns.clone()));
            texts.record(tld, &ns, rdata_for(addr));
            texts.record(&Name::root(), tld, RData::Ns(ns.clone()));
            texts.record(&Name::root(), &ns, rdata_for(addr));
            let k = keys(1 << 42 | i as u64);
            let mut zone = texts.parse(tld);
            sign(&mut zone, &k);
            texts.record(
                &Name::root(),
                tld,
                RData::Ds(k.ds_data(tld, DigestType::Sha256)),
            );
            let store = Arc::new(ZoneStore::new());
            store.insert(zone);
            net.bind_simple(addr, net.register(AuthServer::new(store)));
        }
        let root_ns = name("a.root-servers.net");
        texts.record(&Name::root(), &Name::root(), RData::Ns(root_ns.clone()));
        texts.record(&Name::root(), &root_ns, rdata_for(root_addr));
        let root_keys = keys(1 << 43);
        let mut root = texts.parse(&Name::root());
        sign(&mut root, &root_keys);
        let store = Arc::new(ZoneStore::new());
        store.insert(root);
        net.bind_simple(root_addr, net.register(AuthServer::new(store)));
        World {
            net,
            root: root_addr,
            anchors: vec![root_keys.ds_data(&Name::root(), DigestType::Sha256)],
        }
    }

    /// A cold scanner over this world.
    pub fn scanner(&self, parallelism: usize) -> Arc<Scanner> {
        let mut table = OperatorTable::new();
        for (base, op) in BASES.iter().zip(["op1", "op1", "op2", "op2"]) {
            table.add(&name(base), op);
        }
        let policy = ScanPolicy {
            parallelism,
            ..ScanPolicy::default()
        };
        Arc::new(Scanner::new(
            Arc::clone(&self.net),
            vec![self.root],
            self.anchors.clone(),
            table,
            NOW,
            policy,
        ))
    }

    /// A cold resolver over this world.
    pub fn resolver(&self) -> Resolver {
        let client = Arc::new(DnsClient::new(Arc::clone(&self.net)));
        Resolver::new(
            client,
            RootHints {
                addrs: vec![self.root],
            },
        )
    }
}

fn rdata_for(addr: Addr) -> RData {
    match addr {
        Addr::V4(a) => RData::A(a),
        Addr::V6(a) => RData::Aaaa(a),
    }
}

/// One config alone in its own world, as a named point.
pub struct Point {
    pub zone: Name,
    pub config: Config,
    /// Its NS hostnames, each with the address that answers for it.
    pub hosts: Vec<(Name, Addr)>,
    pub world: World,
}

impl Point {
    /// A named point, at its index in [`enumerate`]; an [`OFF_SPACE`]
    /// one at the first index past the space, so its zone and keys are
    /// no enumerated config's.
    pub fn named(point: &str) -> Point {
        let config = named(point);
        let space = enumerate();
        let index = match space.iter().position(|c| *c == config) {
            Some(index) => index,
            None if OFF_SPACE.contains(&point) => space.len(),
            None => panic!("named point {point} is outside the space"),
        };
        Point::at(index, config)
    }

    pub fn at(index: usize, config: Config) -> Point {
        Point {
            zone: zone_name(index),
            hosts: hosts(index, &config),
            world: World::build(&[(index, &config)]),
            config,
        }
    }

    pub fn scanner(&self) -> Arc<Scanner> {
        self.world.scanner(1)
    }

    /// The operator base zone that answers for the signal name under
    /// the point's first NS host, and the zone-cut probe labels above
    /// the zone-specific one on that path: the labels every zone with
    /// this NS host under `test` shares.
    pub fn shared_cut_labels(&self) -> (Name, Vec<Name>) {
        let host = &self.hosts[0].0;
        let base = host.parent().unwrap();
        let zone_label = signal_name(&self.zone, host).unwrap().parent().unwrap();
        let labels = std::iter::successors(zone_label.parent(), Name::parent)
            .take_while(|l| l.is_strict_subdomain_of(&base))
            .collect();
        (base, labels)
    }
}

/// Keys that sign nothing, for planting in the scanner's key cache.
pub fn garbage_keys() -> Vec<DnskeyData> {
    vec![DnskeyData {
        flags: 257,
        protocol: 3,
        algorithm: 13,
        public_key: vec![0xde; 64],
    }]
}
