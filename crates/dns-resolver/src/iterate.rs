//! Iterative resolution: walk referrals from the root, recording the
//! delegation chain for later DNSSEC validation.
//!
//! The walk distrusts what it is told (DESIGN.md §6c): referrals must
//! step strictly downwards along the QNAME, NS fan-out is capped, glue is
//! only believed inside the cut's bailiwick, NS-hostname address
//! resolution carries a visited set so delegation loops terminate with a
//! named cause instead of burning the depth budget, CNAME chains at the
//! queried name are chased with an alias cap, and every cache entry is
//! tagged with the zone apex that produced it so a record can never serve
//! a name outside its provenance. The visited set is what bounds the
//! recursion, so a failed address lookup is not cached: the next walk
//! that needs the hostname asks again.
//!
//! ## Caching (DESIGN.md §7)
//!
//! The resolver holds two [`ProvenanceCache`]s — the type owns the
//! stripes, lazy expiry and the bailiwick rule, so nothing here locks,
//! compares an expiry or checks a provenance:
//!
//! * the **address cache** — NS hostname → addresses, served for names
//!   at or below the zone that produced them;
//! * the **delegation cache** — zone cut → [`ReferralData`] (NS set, DS
//!   presence *or absence*, glue, the child's servers), believed
//!   only when spoken by a proper ancestor of the cut. A walk first
//!   looks up the deepest cached ancestor of its QNAME whose parent
//!   chain closes at the root, takes those [`ChainLink`]s without any
//!   network traffic, and wire-walks only the remainder — root and TLD
//!   servers are hit O(distinct zone cuts) instead of O(zones × queries).
//!
//! Both hold `Arc`s, and a [`ChainLink`] *is* the cached `Arc` plus the
//! cut's name: a hit, a link and a journal log entry are pointer bumps
//! on one allocation.
//!
//! Both caches are pure accelerators: every entry is a deterministic
//! function of the simulated world, so a hit changes *when* datagrams go
//! out, never *what* any response contains — classifications are
//! invariant under cache state. Every insert is logged to the walk's
//! [`QueryMeter`]'s [`CacheLog`](crate::cachelog::CacheLog) so the
//! crash-recovery journal can replay identical cache state on resume.

// P001/P002 (DESIGN.md §8): a hostile reply degrades into a typed error
// and never aborts the scanner, so nothing here unwraps, panics or indexes.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::indexing_slicing
)]

use crate::cache::ProvenanceCache;
use crate::cachelog::{CacheInsert, ReferralData};
use crate::client::{ClientErrorKind, DnsClient, QueryMeter};
use crate::hostile::{HostileCause, ScanError};
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::rdata::{DsData, RData};
use dns_wire::record::{Record, RecordType};
use netsim::{Addr, SimMicros};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Validity window stamped on organic cache inserts, in virtual
/// microseconds: one hour, matching the TTL the ecosystem puts on NS
/// and address RRsets. Within a single scan every zone's virtual clock
/// stays far below this, so single-epoch behavior is unchanged; across
/// epochs (where virtual time advances by hours) stale entries stop
/// being consulted and are evicted lazily.
pub const CACHE_TTL_MICROS: SimMicros = 3_600_000_000;

/// Referrals followed by one walk before it gives up.
const MAX_REFERRALS: usize = 32;

/// Nesting depth of NS-address resolutions inside one walk.
const MAX_DEPTH: usize = 6;

/// NS-set width cap per referral (NXNS amplification defence).
const MAX_NS_FANOUT: usize = 16;

/// CNAME hops chased at the queried name before declaring a loop.
const MAX_ALIAS_HOPS: usize = 4;

/// Root server hints: the addresses of the (simulated) root servers.
#[derive(Debug, Clone)]
pub struct RootHints {
    pub addrs: Vec<Addr>,
}

/// One crossed zone cut, recorded during the walk: the cut's name and
/// the very [`ReferralData`] allocation the delegation cache holds for
/// it. Derefs to the data, so `link.ds`, `link.child_servers`, … read
/// through.
#[derive(Debug, Clone)]
pub struct ChainLink {
    /// The delegated (child) zone apex.
    pub child_apex: Name,
    /// What the parent said at the cut.
    pub data: Arc<ReferralData>,
}

impl Deref for ChainLink {
    type Target = ReferralData;

    fn deref(&self) -> &ReferralData {
        &self.data
    }
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
    /// The server whose reply `answers` and `authorities` come from, when
    /// that reply answers the question asked; `None` once a CNAME chase
    /// has replaced it with the answer for the alias target.
    pub answered_by: Option<Addr>,
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
    /// Depth or hop limit exhausted.
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

/// The iterative resolver.
pub struct Resolver {
    client: Arc<DnsClient>,
    roots: RootHints,
    /// NS hostname → addresses.
    addresses: ProvenanceCache<Arc<Vec<Addr>>>,
    /// Zone cut → referral data.
    delegations: ProvenanceCache<Arc<ReferralData>>,
}

impl Resolver {
    pub fn new(client: Arc<DnsClient>, roots: RootHints) -> Self {
        Resolver {
            client,
            roots,
            addresses: ProvenanceCache::at_or_below(),
            delegations: ProvenanceCache::strictly_below(),
        }
    }

    /// [`new`](Self::new); the flag is ignored. Exists only because the
    /// benchmark's resolver probe still calls it by this name.
    pub fn with_hardening(client: Arc<DnsClient>, roots: RootHints, _: bool) -> Self {
        Resolver::new(client, roots)
    }

    /// The underlying client (for direct per-NS queries by the scanner).
    pub fn client(&self) -> &Arc<DnsClient> {
        &self.client
    }

    /// Resolve (name, type) iteratively from the root, starting at
    /// virtual time `now` so time-windowed faults see when each query
    /// lands. Every exchange of the walk — including nested NS-address
    /// resolutions, whose cost the returned [`Resolution`] does not
    /// itemise — is charged to `meter`; without one, to a fixed-seed
    /// meter of the call's own, so the walk's datagrams do not depend on
    /// anything the client sent before.
    pub fn resolve_at_with(
        &self,
        meter: Option<&QueryMeter>,
        now: SimMicros,
        qname: &Name,
        qtype: RecordType,
    ) -> Result<Resolution, ResolverError> {
        let detached;
        let meter = match meter {
            Some(m) => m,
            None => {
                detached = QueryMeter::detached();
                &detached
            }
        };
        let mut visited = Vec::new();
        self.resolve_chased(meter, now, qname, qtype, 0, &mut visited)
    }

    /// Walk to (qname, qtype), then chase an in-answer CNAME chain under
    /// the alias cap, accumulating cost. The benign ecosystem never
    /// aliases scanner-resolved names, so the chase is pure adversary
    /// defence: a looping or over-long chain at a signal name fails with
    /// [`HostileCause::AliasLoop`] instead of silently reading as "no
    /// signal records".
    fn resolve_chased(
        &self,
        meter: &QueryMeter,
        now: SimMicros,
        qname: &Name,
        qtype: RecordType,
        depth: usize,
        visited: &mut Vec<Name>,
    ) -> Result<Resolution, ResolverError> {
        let mut res = self.walk(meter, now, qname, qtype, depth, visited)?;
        if qtype == RecordType::Cname {
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
            if aliases.contains(&target) || aliases.len() > MAX_ALIAS_HOPS {
                meter.note_hostile(HostileCause::AliasLoop);
                return Err(ResolverError::Hostile(HostileCause::AliasLoop));
            }
            aliases.push(target.clone());
            let next = self.walk(meter, now + res.elapsed, &target, qtype, depth, visited)?;
            res = Resolution {
                answered_by: None,
                elapsed: res.elapsed + next.elapsed,
                queries: res.queries + next.queries,
                ..next
            };
            cur = target;
        }
    }

    fn walk(
        &self,
        meter: &QueryMeter,
        now: SimMicros,
        qname: &Name,
        qtype: RecordType,
        depth: usize,
        visited: &mut Vec<Name>,
    ) -> Result<Resolution, ResolverError> {
        if depth > MAX_DEPTH {
            return Err(ResolverError::TooManyReferrals);
        }
        // Warm start: reconstruct the deepest cached ancestor chain of
        // qname and wire-walk only the remainder. A cold walk from the
        // root and a warm one converge on identical referral data — the
        // cache elides hops, it never changes what the tail sees.
        let (mut chain, mut zone_apex, mut servers) = self.cached_descent(qname, qtype, now);
        let mut elapsed: SimMicros = 0;
        let mut queries: u32 = 0;

        for _hop in 0..MAX_REFERRALS {
            let (msg, answered_by, ex_elapsed, ex_queries) =
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
                // Final answers may only carry authority records from the
                // answering zone's own bailiwick.
                let before = authorities.len();
                authorities.retain(|r| r.name.is_subdomain_of(&zone_apex));
                if authorities.len() < before {
                    meter.note_hostile(HostileCause::ForeignRecords);
                }
                return Ok(Resolution {
                    rcode,
                    answers: msg.answers,
                    authorities,
                    chain,
                    zone_apex,
                    zone_servers: servers,
                    answered_by: Some(answered_by),
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
                    answered_by: Some(answered_by),
                    elapsed,
                    queries,
                });
            };
            let cut = first_ns.name.clone();
            // Only NS records owned by the cut name delegate; stray NS rows
            // at other names are injected padding.
            let ns_names: Vec<Name> = ns_all
                .iter()
                .filter_map(|r| match &r.rdata {
                    RData::Ns(n) if r.name == cut => Some(n.clone()),
                    _ => None,
                })
                .collect();
            let foreign_auth = msg
                .authorities
                .iter()
                .filter(|r| !r.name.is_subdomain_of(&zone_apex))
                .count();
            if ns_all.len() - ns_names.len() + foreign_auth > 0 {
                meter.note_hostile(HostileCause::ForeignRecords);
            }
            // The cut must descend from the delegating zone AND lie on the
            // path to qname: anything else (upward, sideways, or
            // self-referral) can never make progress.
            if !cut.is_strict_subdomain_of(&zone_apex) || !qname.is_subdomain_of(&cut) {
                meter.note_hostile(HostileCause::ReferralLoop);
                return Err(ResolverError::Hostile(HostileCause::ReferralLoop));
            }
            if ns_names.len() > MAX_NS_FANOUT {
                meter.note_hostile(HostileCause::WideReferral);
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
            // Addresses: glue first, then recursive resolution. Glue is
            // only believed for NS targets inside the cut. Courtesy
            // glue for a *wanted* but out-of-bailiwick NS is normal benign
            // behaviour — ignored without suspicion; address records for
            // names that are not delegation targets at all are injected
            // padding and count as hostile evidence.
            let mut addrs: Vec<Addr> = Vec::new();
            let mut foreign_glue = 0usize;
            for rec in &msg.additionals {
                let is_addr = matches!(rec.rdata, RData::A(_) | RData::Aaaa(_));
                let wanted = ns_names.contains(&rec.name);
                if is_addr && wanted && rec.name.is_subdomain_of(&cut) {
                    match &rec.rdata {
                        RData::A(a) => addrs.push(Addr::V4(*a)),
                        RData::Aaaa(a) => addrs.push(Addr::V6(*a)),
                        _ => {}
                    }
                } else if is_addr && !wanted {
                    foreign_glue += 1;
                }
            }
            if foreign_glue > 0 {
                meter.note_hostile(HostileCause::ForeignRecords);
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
            // The cut is crossed: publish the referral data so later
            // walks can skip this hop, and record the same allocation in
            // the chain. Inserts overwrite (an unusable poisoned entry is
            // replaced by the organic re-fetch, exactly like the address
            // cache) and are logged to the meter for journal replay. The
            // entry lives as long as the scanner, so its lists are
            // exactly sized.
            let mut data = ReferralData {
                parent_apex: zone_apex,
                ns_names,
                ds: if ds.is_empty() { None } else { Some(ds) },
                ds_rrsigs,
                child_servers: addrs.clone(),
            };
            data.ns_names.shrink_to_fit();
            data.ds.iter_mut().for_each(Vec::shrink_to_fit);
            data.ds_rrsigs.shrink_to_fit();
            let data = Arc::new(data);
            self.delegations.insert_tagged(
                cut.clone(),
                Arc::clone(&data),
                data.parent_apex.clone(),
                (now + elapsed).saturating_add(CACHE_TTL_MICROS),
            );
            meter.log_insert(cut.clone(), CacheInsert::Referral(Arc::clone(&data)));
            chain.push(ChainLink {
                child_apex: cut.clone(),
                data,
            });
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
    /// it), so qname itself is not a candidate cut for DS. The candidates
    /// come from one walk up qname's ancestors, deepest first.
    fn cached_descent(
        &self,
        qname: &Name,
        qtype: RecordType,
        now: SimMicros,
    ) -> (Vec<ChainLink>, Name, Vec<Addr>) {
        let deepest = if qtype == RecordType::Ds {
            qname.parent()
        } else {
            Some(qname.clone())
        };
        std::iter::successors(deepest, Name::parent)
            .take_while(|cut| cut.label_count() > 0)
            .find_map(|cut| self.chain_from(cut, now))
            .unwrap_or_else(|| (Vec::new(), Name::root(), self.roots.addrs.clone()))
    }

    /// Try to rebuild the full root→cut chain for `cut`, following each
    /// entry's `parent_apex` upwards. `None` if any hop is missing or
    /// fails the provenance rule.
    fn chain_from(
        &self,
        mut cut: Name,
        now: SimMicros,
    ) -> Option<(Vec<ChainLink>, Name, Vec<Addr>)> {
        let apex = cut.clone();
        let mut links: Vec<ChainLink> = Vec::new();
        loop {
            let data = self.delegations.lookup(&cut, now)?;
            let parent = data.parent_apex.clone();
            links.push(ChainLink {
                child_apex: cut,
                data,
            });
            if parent.label_count() == 0 {
                break;
            }
            cut = parent;
        }
        // Deepest link first until reversed: its servers are the apex's.
        let servers = links.first()?.child_servers.clone();
        links.reverse();
        Some((links, apex, servers))
    }

    /// Resolve the addresses of a nameserver hostname (cached), starting
    /// at virtual time `now` and charging the lookups to `meter`.
    pub fn addresses_of_at_with(
        &self,
        meter: &QueryMeter,
        now: SimMicros,
        ns: &Name,
    ) -> Result<Arc<Vec<Addr>>, ResolverError> {
        let mut visited = Vec::new();
        self.addresses_of_inner(meter, now, ns, 0, &mut visited)
    }

    fn addresses_of_inner(
        &self,
        meter: &QueryMeter,
        now: SimMicros,
        ns: &Name,
        depth: usize,
        visited: &mut Vec<Name>,
    ) -> Result<Arc<Vec<Addr>>, ResolverError> {
        if let Some(addrs) = self.addresses.lookup(ns, now) {
            return Ok(addrs);
        }
        if visited.iter().any(|v| v == ns) {
            // This NS hostname's resolution is already in flight above us:
            // a delegation loop (A's servers are named under B, B's under
            // A) would recurse forever without this.
            meter.note_hostile(HostileCause::ReferralLoop);
            return Err(ResolverError::Hostile(HostileCause::ReferralLoop));
        }
        visited.push(ns.clone());
        let mut addrs = Vec::new();
        let mut provenance = ns.clone();
        let mut complete = true;
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
                // The other family may still answer; what was found is
                // returned, but a partial list is not cached.
                Err(_) => complete = false,
            }
        }
        visited.pop();
        let addrs = Arc::new(addrs);
        if !complete {
            meter.tally(|s| s.record(ScanError::ResolutionFailed));
            return Ok(addrs);
        }
        // One allocation, shared three ways: the cache entry, the meter
        // log and the caller all hold the same `Arc`.
        self.addresses.insert_tagged(
            ns.clone(),
            Arc::clone(&addrs),
            provenance,
            now.saturating_add(CACHE_TTL_MICROS),
        );
        meter.log_insert(ns.clone(), CacheInsert::Addrs(Arc::clone(&addrs)));
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
        self.addresses
            .insert_tagged(ns, addrs, provenance, expires_at);
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
        self.delegations
            .insert_tagged(cut, data, provenance, expires_at);
    }

    /// Ask `servers` in turn until one gives a reply that is not
    /// SERVFAIL; returns it with the address that gave it, the virtual
    /// time spent and the queries sent.
    fn query_first_responsive(
        &self,
        meter: &QueryMeter,
        now: SimMicros,
        servers: &[Addr],
        qname: &Name,
        qtype: RecordType,
    ) -> Result<(Message, Addr, SimMicros, u32), ResolverError> {
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
                    return Ok((ex.message, addr, elapsed, queries));
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

    /// A walk starts at the deepest cached cut whose chain closes at the
    /// root: mid-way up a signal name, at the parent for a DS query, and
    /// at the root when no chain closes.
    #[test]
    fn cached_descent_starts_at_the_deepest_closed_cut() {
        use netsim::Network;
        use std::net::Ipv4Addr;
        let name = |s: &str| Name::parse(s).unwrap();
        let addr = |last| Addr::V4(Ipv4Addr::new(192, 0, 2, last));
        let roots = vec![addr(53)];
        let client = Arc::new(DnsClient::new(Arc::new(Network::new(1))));
        let r = Resolver::new(
            client,
            RootHints {
                addrs: roots.clone(),
            },
        );
        let delegate = |cut: &str, parent: Name, last| {
            let data = ReferralData {
                parent_apex: parent,
                ns_names: Vec::new(),
                ds: None,
                ds_rrsigs: Vec::new(),
                child_servers: vec![addr(last)],
            };
            r.seed_referral(name(cut), Arc::new(data), None, SimMicros::MAX);
        };
        delegate("test", Name::root(), 1);
        delegate("op.test", name("test"), 2);
        delegate("zone.test", name("test"), 3);
        // Its parent `orphan` is not cached, so this chain never closes.
        delegate("deep.orphan", name("orphan"), 4);
        let start = |qname: &str, qtype| {
            let (chain, apex, servers) = r.cached_descent(&name(qname), qtype, 0);
            let cuts: Vec<Name> = chain.into_iter().map(|l| l.child_apex).collect();
            (cuts, apex, servers)
        };

        let signal = "_dsboot.zone.test._signal.ns1.op.test";
        assert_eq!(
            start(signal, RecordType::Cds),
            (
                vec![name("test"), name("op.test")],
                name("op.test"),
                vec![addr(2)]
            )
        );
        // The parent answers DS: zone.test's own cut is no candidate.
        assert_eq!(
            start("zone.test", RecordType::Ds),
            (vec![name("test")], name("test"), vec![addr(1)])
        );
        assert_eq!(start("zone.test", RecordType::Soa).1, name("zone.test"));
        assert_eq!(
            start("a.deep.orphan", RecordType::A),
            (Vec::new(), Name::root(), roots)
        );
    }
}
