//! Iterative resolution: walk referrals from the root, recording the
//! delegation chain for later DNSSEC validation.
//!
//! The walk is *hardened* by default (DESIGN.md §6c): referrals must step
//! strictly downwards along the QNAME, NS fan-out is capped, glue is only
//! believed inside the cut's bailiwick, NS-hostname address resolution
//! carries a visited set so delegation loops terminate with a named cause
//! instead of burning the depth budget, CNAME chains at the queried name
//! are chased with an alias cap, and every cache entry is tagged with the
//! zone apex that produced it so a record can never serve a name outside
//! its provenance. `Resolver::with_hardening(.., false)` restores the
//! trusting pre-hardening walk (kept for the amplification ablation).
//!
//! ## Caching (DESIGN.md §7)
//!
//! Two caches share [`CACHE_SHARDS`]-way striped storage keyed by
//! `fnv64(name) % N`, so concurrent workers rarely contend on the same
//! lock:
//!
//! * the **address cache** — NS hostname → addresses, as before, now
//!   `Arc`-shared so a hit costs a pointer bump, not a `Vec` clone;
//! * the **delegation cache** — zone cut → [`ReferralData`] (NS set, DS
//!   presence *or absence*, glue, the servers on both sides). A walk
//!   first looks up the deepest cached ancestor of its QNAME whose
//!   parent chain closes at the root, reconstructs those [`ChainLink`]s
//!   without any network traffic, and wire-walks only the remainder —
//!   root and TLD servers are hit O(distinct zone cuts) instead of
//!   O(zones × queries).
//!
//! Both caches are pure accelerators: every entry is a deterministic
//! function of the simulated world, so a hit changes *when* datagrams go
//! out, never *what* any response contains — classifications are
//! invariant under cache state. Entries carry the same provenance tags
//! as the poisoning-hardened address cache (referral data is believed
//! only when spoken by a proper ancestor of the cut), and every insert
//! made under a [`QueryMeter`] is logged to that meter's
//! [`CacheLog`](crate::cachelog::CacheLog) so the crash-recovery journal
//! can replay identical cache state on resume.

use crate::cachelog::ReferralData;
use crate::client::{ClientErrorKind, DnsClient, QueryMeter};
use crate::hostile::HostileCause;
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::rdata::{DsData, RData};
use dns_wire::record::{Record, RecordType};
use netsim::{Addr, SimMicros};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Stripe count for the shared caches. A power of two so the modulo
/// compiles to a mask; 16 stripes keep 8 workers' collision probability
/// low without bloating the resolver.
const CACHE_SHARDS: usize = 16;

/// Validity window stamped on organic cache inserts, in virtual
/// microseconds: one hour, matching the TTL the ecosystem puts on NS
/// and address RRsets. Within a single scan every zone's virtual clock
/// stays far below this, so single-epoch behavior is unchanged; across
/// epochs (where virtual time advances by hours) stale entries stop
/// being consulted and are evicted lazily.
pub const CACHE_TTL_MICROS: SimMicros = 3_600_000_000;

/// Root server hints: the addresses of the (simulated) root servers.
#[derive(Debug, Clone)]
pub struct RootHints {
    pub addrs: Vec<Addr>,
}

/// One crossed zone cut, recorded during the walk.
#[derive(Debug, Clone)]
pub struct ChainLink {
    /// Apex of the zone that delegated.
    pub parent_apex: Name,
    /// The delegated (child) zone apex.
    pub child_apex: Name,
    /// DS RRs seen at the parent side of the cut (`None` = no DS RRs in
    /// the referral — an insecure delegation).
    pub ds: Option<Vec<DsData>>,
    /// RRSIGs over the DS RRset (for validating the DS itself).
    pub ds_rrsigs: Vec<dns_wire::rdata::RrsigData>,
    /// NS target names at the cut.
    pub ns_names: Vec<Name>,
    /// Server addresses used for the child zone.
    pub child_servers: Vec<Addr>,
    /// Server addresses of the parent zone (for re-querying DS).
    pub parent_servers: Vec<Addr>,
}

/// A completed resolution.
#[derive(Debug, Clone)]
pub struct Resolution {
    pub rcode: Rcode,
    /// Answer-section records from the final response.
    pub answers: Vec<Record>,
    /// Authority-section records from the final response (SOA/NSEC...).
    pub authorities: Vec<Record>,
    /// Zone cuts crossed, root-first.
    pub chain: Vec<ChainLink>,
    /// Apex of the zone that answered.
    pub zone_apex: Name,
    /// Servers of the answering zone.
    pub zone_servers: Vec<Addr>,
    /// Virtual time spent.
    pub elapsed: SimMicros,
    /// Queries sent (logical, after netsim-level retries are folded in).
    pub queries: u32,
}

/// Resolution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolverError {
    /// No server for a zone could be reached.
    AllServersFailed(Name),
    /// Referral loop or excessive depth.
    TooManyReferrals,
    /// NS addresses could not be resolved.
    NoAddresses(Name),
    /// The hardening layer rejected the walk for a named hostile cause
    /// (loop, fan-out, alias chain, exhausted budget, ...).
    Hostile(HostileCause),
}

impl fmt::Display for ResolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolverError::AllServersFailed(z) => write!(f, "all servers failed for {z}"),
            ResolverError::TooManyReferrals => write!(f, "too many referrals"),
            ResolverError::NoAddresses(n) => write!(f, "no addresses for {n}"),
            ResolverError::Hostile(c) => write!(f, "hostile: {c}"),
        }
    }
}

impl std::error::Error for ResolverError {}

/// One address-cache entry: the addresses plus the apex of the zone whose
/// servers supplied them. A cached datum is only consulted for names
/// inside that provenance, so a poisoned insert can never leak across
/// bailiwicks.
struct AddrEntry {
    addrs: Arc<Vec<Addr>>,
    provenance: Name,
    /// Virtual-time expiry: the entry is never consulted at or past
    /// this instant and is evicted lazily when a lookup finds it stale.
    expires_at: SimMicros,
}

/// One delegation-cache entry: the referral data for a zone cut plus the
/// apex of the zone that spoke it. Consulted only when the provenance is
/// a proper ancestor of the cut — the same bailiwick discipline as the
/// address cache, so an out-of-provenance insert is dead weight.
struct DelegationEntry {
    data: Arc<ReferralData>,
    provenance: Name,
    /// Virtual-time expiry, same semantics as [`AddrEntry::expires_at`].
    expires_at: SimMicros,
}

/// One stripe of the shared caches; which stripe a name lands in is
/// `fnv64(name) % CACHE_SHARDS`.
#[derive(Default)]
struct CacheShard {
    /// ns hostname → addresses, provenance-tagged.
    addresses: HashMap<Name, AddrEntry>,
    /// zone cut → referral data, provenance-tagged.
    delegations: HashMap<Name, DelegationEntry>,
}

/// The iterative resolver.
pub struct Resolver {
    client: Arc<DnsClient>,
    roots: RootHints,
    shards: Vec<Mutex<CacheShard>>,
    max_referrals: usize,
    max_depth: usize,
    hardened: bool,
    /// NS-set width cap per referral (NXNS amplification defence).
    max_ns_fanout: usize,
    /// CNAME hops chased at the queried name before declaring a loop.
    max_alias_hops: usize,
}

impl Resolver {
    pub fn new(client: Arc<DnsClient>, roots: RootHints) -> Self {
        Resolver::with_hardening(client, roots, true)
    }

    /// Like [`new`](Self::new), choosing whether the hardening layer is
    /// active. The unhardened walk trusts referrals the way the
    /// pre-adversarial resolver did; it exists for the amplification
    /// counterfactual in `tests/hostile_world.rs`, not for production
    /// scans.
    pub fn with_hardening(client: Arc<DnsClient>, roots: RootHints, hardened: bool) -> Self {
        Resolver {
            client,
            roots,
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(CacheShard::default()))
                .collect(),
            max_referrals: 32,
            max_depth: 6,
            hardened,
            max_ns_fanout: 16,
            max_alias_hops: 4,
        }
    }

    /// The stripe holding `name`'s cache entries.
    fn shard(&self, name: &Name) -> &Mutex<CacheShard> {
        // bootscan-allow(P002): stripe index is fnv64 % CACHE_SHARDS and the vec holds exactly CACHE_SHARDS stripes
        &self.shards[(name.fnv64() % CACHE_SHARDS as u64) as usize]
    }

    /// Sole approved write path into the shared address cache. Every
    /// entry carries its provenance tag; audited by bootscan-lint (V001),
    /// which forbids raw map inserts anywhere else.
    fn cache_address(&self, ns: &Name, entry: AddrEntry) {
        // bootscan-allow(V001): the one approved provenance-tagged insert into the address cache
        self.shard(ns).lock().addresses.insert(ns.clone(), entry);
    }

    /// Sole approved write path into the shared delegation cache — the
    /// V001 provenance discipline, same as [`Self::cache_address`].
    fn cache_delegation(&self, cut: &Name, entry: DelegationEntry) {
        let mut shard = self.shard(cut).lock();
        // bootscan-allow(V001): the one approved provenance-tagged insert into the delegation cache
        shard.delegations.insert(cut.clone(), entry);
    }

    /// Whether the hardening layer is active.
    pub fn hardened(&self) -> bool {
        self.hardened
    }

    /// The underlying client (for direct per-NS queries by the scanner).
    pub fn client(&self) -> &Arc<DnsClient> {
        &self.client
    }

    /// Resolve (name, type) iteratively from the root.
    pub fn resolve(&self, qname: &Name, qtype: RecordType) -> Result<Resolution, ResolverError> {
        self.resolve_at_with(None, 0, qname, qtype)
    }

    /// Like [`resolve`](Self::resolve), but the walk starts at virtual
    /// time `now`, so time-windowed faults see when each query lands,
    /// and every exchange of the walk — including nested NS-address
    /// resolutions, whose cost the returned [`Resolution`] does not
    /// itemise — is charged to `meter`.
    pub fn resolve_at_with(
        &self,
        meter: Option<&QueryMeter>,
        now: SimMicros,
        qname: &Name,
        qtype: RecordType,
    ) -> Result<Resolution, ResolverError> {
        let mut visited = Vec::new();
        self.resolve_chased(meter, now, qname, qtype, 0, &mut visited)
    }

    /// Walk to (qname, qtype), then — hardened only — chase an in-answer
    /// CNAME chain under the alias cap, accumulating cost. The benign
    /// ecosystem never aliases scanner-resolved names, so the chase is
    /// pure adversary defence: a looping or over-long chain at a signal
    /// name fails with [`HostileCause::AliasLoop`] instead of silently
    /// reading as "no signal records".
    fn resolve_chased(
        &self,
        meter: Option<&QueryMeter>,
        now: SimMicros,
        qname: &Name,
        qtype: RecordType,
        depth: usize,
        visited: &mut Vec<Name>,
    ) -> Result<Resolution, ResolverError> {
        let mut res = self.walk(meter, now, qname, qtype, depth, visited)?;
        if !self.hardened || qtype == RecordType::Cname {
            return Ok(res);
        }
        let mut aliases: Vec<Name> = vec![qname.clone()];
        let mut cur = qname.clone();
        loop {
            let direct = res
                .answers
                .iter()
                .any(|r| r.name == cur && r.rtype() == qtype);
            let target = res.answers.iter().find_map(|r| match &r.rdata {
                RData::Cname(t) if r.name == cur => Some(t.clone()),
                _ => None,
            });
            let target = match (direct, target) {
                (false, Some(t)) => t,
                _ => return Ok(res),
            };
            if aliases.contains(&target) || aliases.len() > self.max_alias_hops {
                if let Some(m) = meter {
                    m.note_hostile(HostileCause::AliasLoop);
                }
                return Err(ResolverError::Hostile(HostileCause::AliasLoop));
            }
            aliases.push(target.clone());
            let next = self.walk(meter, now + res.elapsed, &target, qtype, depth, visited)?;
            res = Resolution {
                elapsed: res.elapsed + next.elapsed,
                queries: res.queries + next.queries,
                ..next
            };
            cur = target;
        }
    }

    fn walk(
        &self,
        meter: Option<&QueryMeter>,
        now: SimMicros,
        qname: &Name,
        qtype: RecordType,
        depth: usize,
        visited: &mut Vec<Name>,
    ) -> Result<Resolution, ResolverError> {
        if depth > self.max_depth {
            return Err(ResolverError::TooManyReferrals);
        }
        // Warm start: reconstruct the deepest cached ancestor chain of
        // qname and wire-walk only the remainder. A cold walk from the
        // root and a warm one converge on identical referral data — the
        // cache elides hops, it never changes what the tail sees.
        let (mut chain, mut zone_apex, mut servers) = self.cached_descent(qname, qtype, now);
        let mut elapsed: SimMicros = 0;
        let mut queries: u32 = 0;

        for _hop in 0..self.max_referrals {
            let (msg, ex_elapsed, ex_queries) =
                self.query_first_responsive(meter, now + elapsed, &servers, qname, qtype)?;
            elapsed += ex_elapsed;
            queries += ex_queries;

            let msg: Message = msg;
            if msg.rcode() == Rcode::NxDomain
                || msg.header.flags.authoritative
                || msg.rcode().is_error()
            {
                let rcode = msg.rcode();
                let mut authorities = msg.authorities;
                if self.hardened {
                    // Final answers may only carry authority records from
                    // the answering zone's own bailiwick.
                    let before = authorities.len();
                    authorities.retain(|r| r.name.is_subdomain_of(&zone_apex));
                    if authorities.len() < before {
                        if let Some(m) = meter {
                            m.note_hostile(HostileCause::ForeignRecords);
                        }
                    }
                }
                return Ok(Resolution {
                    rcode,
                    answers: msg.answers,
                    authorities,
                    chain,
                    zone_apex,
                    zone_servers: servers,
                    elapsed,
                    queries,
                });
            }
            // Referral: find the NS RRset in authority.
            let ns_all: Vec<&Record> = msg
                .authorities
                .iter()
                .filter(|r| r.rtype() == RecordType::Ns)
                .collect();
            let Some(first_ns) = ns_all.first() else {
                // Neither authoritative nor a referral — treat as lame.
                return Ok(Resolution {
                    rcode: msg.rcode(),
                    answers: msg.answers,
                    authorities: msg.authorities,
                    chain,
                    zone_apex,
                    zone_servers: servers,
                    elapsed,
                    queries,
                });
            };
            let cut = first_ns.name.clone();
            let ns_records: Vec<&Record> = if self.hardened {
                // Only NS records owned by the cut name delegate; stray NS
                // rows at other names are injected padding.
                let kept: Vec<&Record> = ns_all.iter().copied().filter(|r| r.name == cut).collect();
                let foreign_auth = msg
                    .authorities
                    .iter()
                    .filter(|r| !r.name.is_subdomain_of(&zone_apex))
                    .count();
                if ns_all.len() - kept.len() + foreign_auth > 0 {
                    if let Some(m) = meter {
                        m.note_hostile(HostileCause::ForeignRecords);
                    }
                }
                // The cut must descend from the delegating zone AND lie on
                // the path to qname: anything else (upward, sideways, or
                // self-referral) can never make progress.
                if !cut.is_strict_subdomain_of(&zone_apex) || !qname.is_subdomain_of(&cut) {
                    if let Some(m) = meter {
                        m.note_hostile(HostileCause::ReferralLoop);
                    }
                    return Err(ResolverError::Hostile(HostileCause::ReferralLoop));
                }
                kept
            } else {
                if !cut.is_strict_subdomain_of(&zone_apex) {
                    // Upward or sideways referral: bogus server, stop.
                    return Err(ResolverError::TooManyReferrals);
                }
                ns_all
            };
            let ns_names: Vec<Name> = ns_records
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Ns(n) => Some(n.clone()),
                    _ => None,
                })
                .collect();
            if self.hardened && ns_names.len() > self.max_ns_fanout {
                if let Some(m) = meter {
                    m.note_hostile(HostileCause::WideReferral);
                }
                return Err(ResolverError::Hostile(HostileCause::WideReferral));
            }
            let ds: Vec<DsData> = msg
                .authorities
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Ds(d) if r.name == cut => Some(d.clone()),
                    _ => None,
                })
                .collect();
            let ds_rrsigs: Vec<_> = msg
                .authorities
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Rrsig(s) if r.name == cut && s.type_covered == RecordType::Ds.code() => {
                        Some(s.clone())
                    }
                    _ => None,
                })
                .collect();
            // Addresses: glue first, then recursive resolution. Hardened,
            // glue is only believed for NS targets inside the cut. Courtesy
            // glue for a *wanted* but out-of-bailiwick NS is normal benign
            // behaviour — ignored without suspicion; address records for
            // names that are not delegation targets at all are injected
            // padding and count as hostile evidence.
            let mut addrs: Vec<Addr> = Vec::new();
            let mut foreign_glue = 0usize;
            for rec in &msg.additionals {
                let is_addr = matches!(rec.rdata, RData::A(_) | RData::Aaaa(_));
                let wanted = ns_names.contains(&rec.name);
                let in_cut = rec.name.is_subdomain_of(&cut);
                if is_addr && wanted && (!self.hardened || in_cut) {
                    match &rec.rdata {
                        RData::A(a) => addrs.push(Addr::V4(*a)),
                        RData::Aaaa(a) => addrs.push(Addr::V6(*a)),
                        _ => {}
                    }
                } else if is_addr && self.hardened && !wanted {
                    foreign_glue += 1;
                }
            }
            if foreign_glue > 0 {
                if let Some(m) = meter {
                    m.note_hostile(HostileCause::ForeignRecords);
                }
            }
            if addrs.is_empty() {
                for ns in &ns_names {
                    let resolved =
                        self.addresses_of_inner(meter, now + elapsed, ns, depth + 1, visited)?;
                    addrs.extend(resolved.iter().copied());
                    if !addrs.is_empty() {
                        break;
                    }
                }
            }
            if addrs.is_empty() {
                return Err(ResolverError::NoAddresses(cut));
            }
            // The cut is crossed: record it in the chain and publish the
            // referral data so later walks can skip this hop. Inserts
            // overwrite (an unusable poisoned entry is replaced by the
            // organic re-fetch, exactly like the address cache) and are
            // logged to the meter for journal replay.
            let data = Arc::new(ReferralData {
                parent_apex: zone_apex.clone(),
                ns_names,
                ds: if ds.is_empty() { None } else { Some(ds) },
                ds_rrsigs,
                child_servers: addrs.clone(),
                parent_servers: std::mem::take(&mut servers),
            });
            chain.push(ChainLink {
                parent_apex: data.parent_apex.clone(),
                child_apex: cut.clone(),
                ds: data.ds.clone(),
                ds_rrsigs: data.ds_rrsigs.clone(),
                ns_names: data.ns_names.clone(),
                child_servers: data.child_servers.clone(),
                parent_servers: data.parent_servers.clone(),
            });
            self.cache_delegation(
                &cut,
                DelegationEntry {
                    data: Arc::clone(&data),
                    provenance: data.parent_apex.clone(),
                    expires_at: (now + elapsed).saturating_add(CACHE_TTL_MICROS),
                },
            );
            if let Some(m) = meter {
                m.log_referral_insert(cut.clone(), Arc::clone(&data));
            }
            zone_apex = cut;
            servers = addrs;
        }
        Err(ResolverError::TooManyReferrals)
    }

    /// The warm-start point for a walk to (qname, qtype): the deepest
    /// cached ancestor cut of qname whose parent chain closes at the
    /// root, reconstructed as ready-made [`ChainLink`]s, plus the apex
    /// and servers to resume from. Falls back to the root hints when no
    /// usable chain exists.
    ///
    /// A DS query must stop at the *parent* side of its cut (the parent
    /// answers DS authoritatively; the child never sees a referral for
    /// it), so qname itself is not a candidate cut for DS.
    fn cached_descent(
        &self,
        qname: &Name,
        qtype: RecordType,
        now: SimMicros,
    ) -> (Vec<ChainLink>, Name, Vec<Addr>) {
        let total = qname.label_count();
        let mut skip = usize::from(qtype == RecordType::Ds);
        while total > skip {
            if let Some(start) = self.chain_from(qname, total - skip, now) {
                return start;
            }
            skip += 1;
        }
        (Vec::new(), Name::root(), self.roots.addrs.clone())
    }

    /// Try to rebuild the full root→cut chain for the ancestor of
    /// `qname` with `labels` labels, following each entry's
    /// `parent_apex` upwards. `None` if any hop is missing or fails the
    /// provenance rule.
    fn chain_from(
        &self,
        qname: &Name,
        labels: usize,
        now: SimMicros,
    ) -> Option<(Vec<ChainLink>, Name, Vec<Addr>)> {
        let mut cut = qname.clone();
        while cut.label_count() > labels {
            cut = cut.parent()?;
        }
        let apex = cut.clone();
        let mut links_rev: Vec<ChainLink> = Vec::new();
        let mut servers: Option<Vec<Addr>> = None;
        loop {
            let data = {
                let mut shard = self.shard(&cut).lock();
                let e = shard.delegations.get(&cut)?;
                // Validity rule: an expired entry is never consulted and
                // is evicted on the spot (lazy eviction — DESIGN.md §10).
                if e.expires_at <= now {
                    shard.delegations.remove(&cut);
                    return None;
                }
                // Bailiwick rule, mirroring the address cache: referral
                // data for a cut is believed only when it was spoken by
                // a proper ancestor of that cut.
                if !cut.is_strict_subdomain_of(&e.provenance) {
                    return None;
                }
                Arc::clone(&e.data)
            };
            if servers.is_none() {
                servers = Some(data.child_servers.clone());
            }
            links_rev.push(ChainLink {
                parent_apex: data.parent_apex.clone(),
                child_apex: cut,
                ds: data.ds.clone(),
                ds_rrsigs: data.ds_rrsigs.clone(),
                ns_names: data.ns_names.clone(),
                child_servers: data.child_servers.clone(),
                parent_servers: data.parent_servers.clone(),
            });
            if data.parent_apex.label_count() == 0 {
                break;
            }
            cut = data.parent_apex.clone();
        }
        links_rev.reverse();
        Some((links_rev, apex, servers?))
    }

    /// Resolve the addresses of a nameserver hostname (cached).
    pub fn addresses_of(&self, ns: &Name) -> Result<Arc<Vec<Addr>>, ResolverError> {
        self.addresses_of_at_with(None, 0, ns)
    }

    /// Like [`addresses_of`](Self::addresses_of), starting at virtual
    /// time `now` and charging the lookups to `meter`.
    pub fn addresses_of_at_with(
        &self,
        meter: Option<&QueryMeter>,
        now: SimMicros,
        ns: &Name,
    ) -> Result<Arc<Vec<Addr>>, ResolverError> {
        let mut visited = Vec::new();
        self.addresses_of_inner(meter, now, ns, 0, &mut visited)
    }

    fn addresses_of_inner(
        &self,
        meter: Option<&QueryMeter>,
        now: SimMicros,
        ns: &Name,
        depth: usize,
        visited: &mut Vec<Name>,
    ) -> Result<Arc<Vec<Addr>>, ResolverError> {
        {
            let mut shard = self.shard(ns).lock();
            if let Some(e) = shard.addresses.get(ns) {
                if e.expires_at <= now {
                    // Expired: never consulted, evicted lazily.
                    shard.addresses.remove(ns);
                } else if ns.is_subdomain_of(&e.provenance) {
                    // Bailiwick rule: a cached datum only serves names
                    // inside the zone that produced it.
                    return Ok(Arc::clone(&e.addrs));
                }
            }
        }
        if self.hardened && visited.iter().any(|v| v == ns) {
            // This NS hostname's resolution is already in flight above us:
            // a delegation loop (A's servers are named under B, B's under
            // A) would recurse forever without this.
            if let Some(m) = meter {
                m.note_hostile(HostileCause::ReferralLoop);
            }
            return Err(ResolverError::Hostile(HostileCause::ReferralLoop));
        }
        visited.push(ns.clone());
        let mut addrs = Vec::new();
        let mut provenance = ns.clone();
        for qtype in [RecordType::A, RecordType::Aaaa] {
            match self.resolve_chased(meter, now, ns, qtype, depth, visited) {
                Ok(res) => {
                    for rec in &res.answers {
                        match &rec.rdata {
                            RData::A(a) if rec.name == *ns => addrs.push(Addr::V4(*a)),
                            RData::Aaaa(a) if rec.name == *ns => addrs.push(Addr::V6(*a)),
                            _ => {}
                        }
                    }
                    provenance = res.zone_apex;
                }
                Err(e @ ResolverError::Hostile(_)) => {
                    visited.pop();
                    return Err(e);
                }
                Err(_) => {}
            }
        }
        visited.pop();
        // One allocation, shared three ways: the cache entry, the meter
        // log and the caller all hold the same `Arc`. The meter append
        // happens outside the shard lock — the old global cache cloned
        // the full vector twice inside its critical section.
        let addrs = Arc::new(addrs);
        self.cache_address(
            ns,
            AddrEntry {
                addrs: Arc::clone(&addrs),
                provenance,
                expires_at: now.saturating_add(CACHE_TTL_MICROS),
            },
        );
        if let Some(m) = meter {
            m.log_addr_insert(ns.clone(), Arc::clone(&addrs));
        }
        Ok(addrs)
    }

    /// Seed the address cache, not logged — journal replay, epoch
    /// carry-over and tests that plant ground-truth addresses. The entry
    /// is never consulted at or past `expires_at` (replay passes
    /// `SimMicros::MAX`: it must reproduce the interrupted run's cache
    /// verbatim; carry-over passes the entry's *remaining* validity, so
    /// it expires at the same virtual instant it would have in one
    /// continuous run). `provenance: None` tags the entry with the
    /// hostname itself, so it serves exactly that name; `Some` is the
    /// cache-poisoning suite's hook (an entry whose provenance does not
    /// contain the hostname must never be consulted).
    pub fn seed_address(
        &self,
        ns: Name,
        addrs: Arc<Vec<Addr>>,
        provenance: Option<Name>,
        expires_at: SimMicros,
    ) {
        let provenance = provenance.unwrap_or_else(|| ns.clone());
        self.cache_address(
            &ns,
            AddrEntry {
                addrs,
                provenance,
                expires_at,
            },
        );
    }

    /// Seed the delegation cache with referral data for `cut` — the
    /// delegation-cache twin of [`seed_address`](Self::seed_address),
    /// same `expires_at` rule. `provenance: None` is the parent apex,
    /// exactly as an organic insert records it; `Some` is the poisoning
    /// suite's hook (referral data whose provenance is not a proper
    /// ancestor of the cut must never be consulted).
    pub fn seed_referral(
        &self,
        cut: Name,
        data: Arc<ReferralData>,
        provenance: Option<Name>,
        expires_at: SimMicros,
    ) {
        let provenance = provenance.unwrap_or_else(|| data.parent_apex.clone());
        self.cache_delegation(
            &cut,
            DelegationEntry {
                data,
                provenance,
                expires_at,
            },
        );
    }

    fn query_first_responsive(
        &self,
        meter: Option<&QueryMeter>,
        now: SimMicros,
        servers: &[Addr],
        qname: &Name,
        qtype: RecordType,
    ) -> Result<(Message, SimMicros, u32), ResolverError> {
        let mut elapsed = 0;
        let mut queries = 0;
        for &addr in servers {
            queries += 1;
            match self
                .client
                .query_at_with(meter, now + elapsed, addr, qname, qtype, true)
            {
                Ok(ex) => {
                    elapsed += ex.elapsed;
                    // SERVFAIL → try the next server, as real resolvers do.
                    if ex.message.rcode() == Rcode::ServFail {
                        continue;
                    }
                    return Ok((ex.message, elapsed, queries));
                }
                Err(e) => {
                    // An exhausted budget fails the whole walk at zero
                    // cost — cycling servers cannot refill it.
                    if e.kind == ClientErrorKind::BudgetExceeded {
                        return Err(ResolverError::Hostile(HostileCause::BudgetExceeded));
                    }
                    // Charge the real cost of the failure (an unreachable
                    // address costs nothing; exhausted timeouts cost every
                    // attempt plus backoff).
                    elapsed += e.elapsed;
                }
            }
        }
        Err(ResolverError::AllServersFailed(qname.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Integration-style resolver tests live in `validate.rs` and the
    // workspace `tests/` directory where a full root→TLD→zone tree is
    // built; here we only exercise error paths that need no network.

    #[test]
    fn error_display() {
        let e = ResolverError::AllServersFailed(Name::parse("x.test").unwrap());
        assert!(e.to_string().contains("x.test"));
        assert!(ResolverError::TooManyReferrals
            .to_string()
            .contains("referrals"));
        let e = ResolverError::NoAddresses(Name::parse("ns.test").unwrap());
        assert!(e.to_string().contains("ns.test"));
        let e = ResolverError::Hostile(HostileCause::ReferralLoop);
        assert_eq!(e.to_string(), "hostile: referral-loop");
    }
}
