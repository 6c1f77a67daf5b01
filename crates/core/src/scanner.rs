//! The YoDNS-style scanner (paper §3 "Scans").
//!
//! For every seed zone the scanner:
//! 1. resolves the delegation from the root, recording the chain (parent
//!    NS set, DS presence, servers),
//! 2. resolves the addresses of every authoritative NS hostname,
//!    applying the Cloudflare sampling policy (§3: 2 of 12 addresses for
//!    95 % of Cloudflare-hosted zones),
//! 3. queries every selected address for DNSKEY / CDS / CDNSKEY with the
//!    DO bit, under a per-address 50 qps virtual rate limit,
//! 4. probes the RFC 9615 signal name under every NS hostname (presence,
//!    consistency, DNSSEC validity, zone-cut check),
//! 5. classifies DNSSEC / CDS / AB status.

use crate::classify;
use crate::health::CircuitBreaker;
use crate::operator::OperatorTable;
use crate::progress::{ProgressSink, ResumeState, ZoneEffects, ZoneEvent};
use crate::types::*;
use dns_crypto::UnixTime;
use dns_resolver::validate::{
    answer_sets_verify, ds_link_verifies, self_signed_dnskeys, verified_dnskeys,
};
use dns_resolver::{
    CacheInsert, ChainLink, ClientErrorKind, CutOutcome, DnsClient, HostileCause, ProvenanceCache,
    QueryMeter, ReferralData, Resolution, Resolver, ResolverError, RetryPolicy, RetryStats,
    RootHints, ScanError, CACHE_TTL_MICROS,
};
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RData};
use dns_wire::record::{Record, RecordType};
use dns_zone::signal::{signal_name, signal_zone_apex};
use netsim::{Addr, DeterministicDraw, Network, RateLimiter, SimMicros};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};

/// Scanner policy knobs.
#[derive(Debug, Clone)]
pub struct ScanPolicy {
    /// Fraction of anycast-pool zones (every NS under
    /// `ns.cloudflare.com`) scanned with only 1 IPv4 + 1 IPv6 address
    /// (the paper's 95 % Cloudflare sampling).
    pub sample_fraction: f64,
    /// Worker threads for a sink-less scan (`scan_all`). A scan given a
    /// [`ProgressSink`] is one sequential lane whatever this says.
    pub parallelism: usize,
}

impl Default for ScanPolicy {
    fn default() -> Self {
        ScanPolicy {
            sample_fraction: 0.95,
            parallelism: 1,
        }
    }
}

/// The NS-name suffix of the anycast pool the sampling policy applies
/// to (paper §3: Cloudflare's `*.ns.cloudflare.com`).
static SAMPLED_SUFFIX: LazyLock<Name> =
    LazyLock::new(|| Name::parse("ns.cloudflare.com").expect("valid suffix literal"));

/// Per-address politeness rate, queries per virtual second (paper §3).
const RATE_PER_SEC: f64 = 50.0;

/// Per-zone logical-query budget — the amplification cap. The costliest
/// configuration of the RFC scenario space (`tests/rfc_space.rs`, re-scans
/// included) needs 36 logical queries, cold or in a shared world (the
/// shared delegation cache makes even a zone's *own* repeat descents —
/// signal probes, DNSKEY walks — cache hits), so 240 gives every benign
/// zone several-fold headroom; the acceptance rules, not the budget, keep
/// adversarial cost within 3× of the worst benign zone (see
/// `tests/hostile_world.rs`, which re-measures both bounds every run).
pub const DEFAULT_ZONE_QUERY_BUDGET: u64 = 240;

/// Whole-exchange retries per query on timeout/malformed replies.
const RETRIES: u32 = 2;

/// Base backoff before the first retry (virtual µs, doubles each retry,
/// deterministic jitter on top).
const BACKOFF_BASE: SimMicros = 250_000;

/// Consecutive failures that open a per-address circuit breaker within
/// one zone scan.
const BREAKER_THRESHOLD: u32 = 4;

/// Virtual µs an open breaker waits before a half-open probe.
const BREAKER_COOLDOWN: SimMicros = 30_000_000;

/// Extra sequential passes over zones whose evidence came back incomplete
/// (degraded or `Indeterminate`).
const RESCAN_PASSES: u32 = 1;

/// Aggregated scan output.
#[derive(Debug, Default)]
pub struct ScanResults {
    pub zones: Vec<ZoneScan>,
    /// Simulated wall-clock of the scan: the maximum worker virtual time.
    pub simulated_duration: SimMicros,
    /// Total logical queries issued.
    pub total_queries: u64,
}

/// Per-zone-scan probing context: the scan-local virtual clock, query
/// count, budget and failure accounting (the meter also logs the scan's
/// side effects on shared caches), and the zone's own circuit breaker and
/// per-address politeness limiters. All of it is built with the zone
/// scan and dropped with it, so no state carries over between zones:
/// results are independent of scan order — and, in a journaled scan (one
/// sequential lane), of which zones ran in an earlier process life.
struct Probe {
    clock: SimMicros,
    queries: u32,
    /// Per-zone meter: derives query IDs from stable per-query
    /// coordinates (seeded from the zone name and pass number), holds
    /// the zone's [`RetryStats`] that every layer counts into, enforces
    /// the budget, and logs every shared-cache insert (resolver and key
    /// cache) for the journal.
    meter: QueryMeter,
    /// One token bucket per address this zone has asked. A zone touches
    /// a few dozen addresses at most, so the list is scanned linearly.
    limiters: Vec<(Addr, RateLimiter)>,
    breaker: CircuitBreaker,
}

/// The scanner. Thread-safe: share via `Arc` across workers.
pub struct Scanner {
    client: Arc<DnsClient>,
    resolver: Resolver,
    anchors: Vec<DsData>,
    roots: Vec<Addr>,
    table: OperatorTable,
    policy: ScanPolicy,
    now: UnixTime,
    /// Validated DNSKEY sets per zone apex (root, TLDs — hot in every
    /// chain validation). Only *successful* validations are cached: a
    /// transient failure against one zone must not poison every later
    /// chain that crosses it. An entry serves owners at or below the
    /// bailiwick the keys were validated under, so a poisoned insert can
    /// never flip another zone's classification. Organic inserts are
    /// logged to the zone's meter so journal replay can rebuild the
    /// cache.
    key_cache: ProvenanceCache<Arc<Vec<DnskeyData>>>,
    /// DS links already verified, per child apex: the referral and the
    /// parent key set that verified it. A link is served only when both
    /// are the very allocations recorded (`Arc::ptr_eq`): both are
    /// immutable and `now` is fixed, so the verdict is the one a fresh
    /// check would reach. The memo changes no query and no verdict, so
    /// it is not logged in the zone's `CacheLog`. Only successes are
    /// stored.
    ds_verdicts: ProvenanceCache<DsVerdict>,
    /// Zone-cut probe outcomes per signal-path label above the
    /// zone-specific `<zone>._signal.<ns>`: every zone with that NS host
    /// and parent suffix asks the same labels. An entry is read only by
    /// a probe answered by the apex it was cached under, and only
    /// NOERROR and NXDOMAIN answers are kept (a failure may be
    /// transient). Inserts are logged, like the key cache's.
    cut_cache: ProvenanceCache<CutOutcome>,
    seed: u64,
}

/// A verified DS link: the referral whose DS RRset verified, and the
/// parent key set it verified under.
type DsVerdict = (Arc<ReferralData>, Arc<Vec<DnskeyData>>);

/// One address's CDS/CDNSKEY signature check input, compared by value:
/// another address of the same zone serving the same records reuses the
/// verdict (the scanner's `now` is fixed within a scan). `answers` are
/// the CDS and the CDNSKEY replies' answer records, in that order.
#[derive(PartialEq)]
struct CdsSigInput {
    answers: Vec<Record>,
    dnskeys: Arc<Vec<DnskeyData>>,
}

/// The types the CDS and signal checks verify in an answer.
fn is_cds_type(rtype: RecordType) -> bool {
    matches!(rtype, RecordType::Cds | RecordType::Cdnskey)
}

/// The CDS and CDNSKEY records among `answers`, sorted and deduplicated.
fn cds_seen<'a>(answers: impl IntoIterator<Item = &'a Record>) -> Arc<[CdsSeen]> {
    let mut cds: Vec<CdsSeen> = answers
        .into_iter()
        .filter_map(|r| CdsSeen::from_rdata(&r.rdata))
        .collect();
    cds.sort();
    cds.dedup();
    cds.into()
}

impl Scanner {
    pub fn new(
        net: Arc<Network>,
        roots: Vec<Addr>,
        anchors: Vec<DsData>,
        table: OperatorTable,
        now: UnixTime,
        policy: ScanPolicy,
    ) -> Self {
        let retry = RetryPolicy {
            retries: RETRIES,
            backoff_base: BACKOFF_BASE,
            seed: 0xb007 ^ 0xca1e,
        };
        let client = Arc::new(DnsClient::with_retry(net, retry));
        let resolver = Resolver::new(
            Arc::clone(&client),
            RootHints {
                addrs: roots.clone(),
            },
        );
        Scanner {
            client,
            resolver,
            anchors,
            roots,
            table,
            policy,
            now,
            key_cache: ProvenanceCache::at_or_below(),
            ds_verdicts: ProvenanceCache::at_or_below(),
            cut_cache: ProvenanceCache::at_or_below(),
            seed: 0xb007,
        }
    }

    /// A scanner over a built world: `eco`'s network, root hints, trust
    /// anchors and scan epoch, with the operator table derived from its
    /// operators' NS hostnames.
    pub fn for_ecosystem(eco: &dns_ecosystem::Ecosystem, policy: ScanPolicy) -> Arc<Scanner> {
        let table = OperatorTable::from_operators(
            eco.operators
                .iter()
                .map(|o| (o.name.as_str(), o.hosts.as_slice())),
        );
        Arc::new(Scanner::new(
            Arc::clone(&eco.net),
            eco.roots.clone(),
            eco.anchors.clone(),
            table,
            eco.now,
            policy,
        ))
    }

    /// The shared resolver (exposed for the cache-poisoning regression
    /// suite, which plants adversarial cache entries directly).
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// Seed the validated-key cache, not logged: journal replay
    /// (`expires_at = SimMicros::MAX`, the interrupted run's cache
    /// verbatim) and epoch carry-over (the entry's *remaining* validity),
    /// the key-cache twin of
    /// [`Resolver::seed_address`](dns_resolver::Resolver::seed_address).
    /// `provenance: None` tags the entry with its owner, as an organic
    /// insert does; `Some` is the cache-poisoning suite's hook (an entry
    /// whose provenance does not contain the owner must never be
    /// consulted).
    pub fn seed_validated_keys(
        &self,
        owner: Name,
        keys: Vec<DnskeyData>,
        provenance: Option<Name>,
        expires_at: SimMicros,
    ) {
        let provenance = provenance.unwrap_or_else(|| owner.clone());
        self.key_cache
            .insert_tagged(owner, Arc::new(keys), provenance, expires_at);
    }

    /// A fresh probe for one scan of `zone`. The meter's query-ID seed is
    /// drawn from `(zone, pass)`, and the meter derives each ID from the
    /// query's stable coordinates under that seed — so a zone's wire
    /// traffic is a pure function of the zone, the pass number, and which
    /// of its lookups the shared caches answered. Crucially, a cache hit
    /// elides whole queries without renumbering the surviving ones, which
    /// is what keeps the evidence plane identical across parallelism and
    /// cold-vs-warm cache states.
    fn new_probe(&self, zone: &Name, pass: u32) -> Probe {
        let id_seed = DeterministicDraw::new(
            self.seed ^ 0x9e7e_0012,
            &[b"meter", &zone.to_wire(), &pass.to_be_bytes()],
        )
        .below(1 << 48);
        Probe {
            clock: 0,
            queries: 0,
            meter: QueryMeter::with_budget(id_seed, DEFAULT_ZONE_QUERY_BUDGET),
            limiters: Vec::new(),
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN),
        }
    }

    /// One rate-limited, breaker-guarded query; failures are recorded in
    /// the meter's [`RetryStats`] and charged their real virtual cost.
    fn query(
        &self,
        probe: &mut Probe,
        addr: Addr,
        name: &Name,
        rtype: RecordType,
    ) -> Option<Message> {
        if !probe.breaker.allows(addr, probe.clock) {
            probe.meter.tally(|s| s.record(ScanError::BreakerOpen));
            return None;
        }
        // Limiters are zone-scoped (so zone results never depend on what
        // other zones did to a shared token bucket), with a small burst:
        // the per-address politeness rate must still dominate within one
        // zone's query fan-out.
        let limiters = &mut probe.limiters;
        let i = match limiters.iter().position(|(a, _)| *a == addr) {
            Some(i) => i,
            None => {
                limiters.push((addr, RateLimiter::new(RATE_PER_SEC, 2.0)));
                limiters.len() - 1
            }
        };
        let wait = limiters[i].1.acquire(probe.clock);
        probe.clock += wait;
        probe.queries += 1;
        match self
            .client
            .query_at_with(&probe.meter, probe.clock, addr, name, rtype, true)
        {
            Ok(ex) => {
                probe.clock += ex.elapsed;
                probe.meter.tally(|s| {
                    s.retries += ex.retries;
                    if ex.message.rcode() == Rcode::ServFail {
                        s.servfails += 1;
                    }
                });
                probe.breaker.record_success(addr);
                Some(ex.message)
            }
            Err(e) => {
                probe.clock += e.elapsed;
                let error = match e.kind {
                    ClientErrorKind::Unreachable => ScanError::Unreachable,
                    ClientErrorKind::Timeout => ScanError::Timeout,
                    ClientErrorKind::Malformed => ScanError::Malformed,
                    ClientErrorKind::Rejected => ScanError::Hostile(HostileCause::MismatchedReply),
                    ClientErrorKind::BudgetExceeded => {
                        ScanError::Hostile(HostileCause::BudgetExceeded)
                    }
                };
                probe.meter.tally(|s| {
                    s.retries += e.retries;
                    s.record(error);
                });
                probe.breaker.record_failure(addr, probe.clock);
                None
            }
        }
    }

    /// Fetch + verify the DNSKEY set of `zone` (must chain from `ds`),
    /// caching successes. `None` = could not validate (never cached — the
    /// failure may be transient).
    fn validated_keys(
        &self,
        probe: &mut Probe,
        zone: &Name,
        servers: &[Addr],
        ds: &[DsData],
    ) -> Option<Arc<Vec<DnskeyData>>> {
        if let Some(cached) = self.key_cache.lookup(zone, probe.clock) {
            return Some(cached);
        }
        // The first server that answers decides: a reply that fails the
        // DNSKEY rule is not retried elsewhere.
        let msg = servers.iter().find_map(|&addr| {
            self.query(probe, addr, zone, RecordType::Dnskey)
                .filter(|msg| !msg.rcode().is_error())
        })?;
        let keys = Arc::new(verified_dnskeys(&msg, zone, ds, self.now)?);
        self.key_cache.insert_tagged(
            zone.clone(),
            Arc::clone(&keys),
            zone.clone(),
            probe.clock.saturating_add(CACHE_TTL_MICROS),
        );
        probe
            .meter
            .log_insert(zone.clone(), CacheInsert::Keys(Arc::clone(&keys)));
        Some(keys)
    }

    /// Validate the delegation chain of `res` down to (but not including)
    /// the final zone, returning the parent's validated keys and the DS
    /// set for the final zone. Uses the key cache so TLD keys are fetched
    /// once per scan.
    fn validate_chain_to_parent(&self, probe: &mut Probe, res: &Resolution) -> ChainStatus {
        // Root keys.
        let mut keys = match self.validated_keys(probe, &Name::root(), &self.roots, &self.anchors) {
            Some(k) => k,
            None => return ChainStatus::Indeterminate,
        };
        let n = res.chain.len();
        for (i, link) in res.chain.iter().enumerate() {
            let last = i + 1 == n;
            let Some(ds) = &link.ds else {
                // Insecure delegation above or at the zone.
                return if last {
                    ChainStatus::NoDsAtParent
                } else {
                    ChainStatus::InsecureAbove
                };
            };
            // DS RRset must be signed by the parent.
            if !self.ds_link_verified(probe, link, &keys) {
                return ChainStatus::Bogus;
            }
            if last {
                return ChainStatus::DsPresent(ds.clone());
            }
            keys = match self.validated_keys(probe, &link.child_apex, &link.child_servers, ds) {
                Some(k) => k,
                None => return ChainStatus::Bogus,
            };
        }
        // No chain at all (zone served by the root?) — treat as insecure.
        ChainStatus::InsecureAbove
    }

    /// [`ds_link_verifies`], answered from `ds_verdicts` when this very
    /// referral was already verified under this very key set.
    fn ds_link_verified(
        &self,
        probe: &Probe,
        link: &ChainLink,
        parent_keys: &Arc<Vec<DnskeyData>>,
    ) -> bool {
        if let Some((data, keys)) = self.ds_verdicts.lookup(&link.child_apex, probe.clock) {
            if Arc::ptr_eq(&data, &link.data) && Arc::ptr_eq(&keys, parent_keys) {
                return true;
            }
        }
        if !ds_link_verifies(link, parent_keys, self.now) {
            return false;
        }
        self.ds_verdicts.insert_tagged(
            link.child_apex.clone(),
            (Arc::clone(&link.data), Arc::clone(parent_keys)),
            link.child_apex.clone(),
            SimMicros::MAX,
        );
        true
    }

    /// Scan one zone.
    pub fn scan_zone(&self, zone: &Name) -> ZoneScan {
        self.scan_zone_pass(zone, 0).0
    }

    /// Scan one zone as pass `pass` (0 = main, ≥1 = re-scan), returning
    /// the result together with the scan's side effects on shared state.
    fn scan_zone_pass(&self, zone: &Name, pass: u32) -> (ZoneScan, ZoneEffects) {
        let mut probe = self.new_probe(zone, pass);
        let scan = self.scan_zone_inner(zone, &mut probe);
        // Drain the meter's cache-insert log: the resolver attributed
        // every shared-cache insert this zone paid for to its meter.
        (scan, probe.meter.take_cache_log())
    }

    fn scan_zone_inner(&self, zone: &Name, probe: &mut Probe) -> ZoneScan {
        // 1. Delegation resolution.
        let res = match self.resolver.resolve_at_with(
            Some(&probe.meter),
            probe.clock,
            zone,
            RecordType::Soa,
        ) {
            Ok(r) => r,
            Err(e) => {
                match e {
                    // "All servers failed" is a network-level failure —
                    // the evidence is incomplete, not the zone
                    // nonexistent.
                    ResolverError::AllServersFailed(_) => {
                        probe.meter.tally(|s| s.record(ScanError::ResolutionFailed));
                    }
                    // The hardening layer refused the walk: a hostile
                    // casualty, reported under its named cause.
                    ResolverError::Hostile(c) => {
                        probe.meter.tally(|s| s.record(ScanError::Hostile(c)));
                    }
                    _ => {}
                }
                return self.unresolvable(zone, probe);
            }
        };
        let Some(last_link) = res.chain.last() else {
            return self.unresolvable(zone, probe);
        };
        if last_link.child_apex != *zone || res.rcode == Rcode::NxDomain {
            // The zone is not actually delegated.
            return self.unresolvable(zone, probe);
        }
        if res.rcode == Rcode::Refused {
            // Delegated, yet the delegated servers refuse to answer for
            // it: a lame delegation. Without this check the zone would
            // fall through and read as an artificial Unsigned.
            probe
                .meter
                .tally(|s| s.record(ScanError::Hostile(HostileCause::LameDelegation)));
            return self.unresolvable(zone, probe);
        }
        probe.clock += res.elapsed;
        probe.queries += res.queries;
        // Targets are asked in canonical order, so a reordered RRset
        // changes no question (RFC 2181 §5).
        let mut ns_names = last_link.ns_names.clone();
        ns_names.sort_by(Name::canonical_cmp);
        let chain = self.validate_chain_to_parent(probe, &res);
        let parent_ds = match &chain {
            ChainStatus::DsPresent(ds) => ds.clone(),
            _ => Vec::new(),
        };

        // 2. Addresses, with sampling policy.
        let mut targets: Vec<(Name, Addr)> = Vec::new();
        for ns in &ns_names {
            if let Ok(addrs) = self
                .resolver
                .addresses_of_at_with(&probe.meter, probe.clock, ns)
            {
                targets.extend(addrs.iter().map(|a| (ns.clone(), *a)));
            }
        }
        targets.sort_by(|(n, a), (m, b)| target_order((n, *a), (m, *b)));
        let sampled = self.apply_sampling(zone, &mut targets);

        // 3. Per-address DNSSEC/CDS observations. Every vector an
        // `Evidence` keeps is exactly sized: results live for the whole
        // scan, one per zone. `answered_by` is set when the resolution's
        // final reply was that server's reply to (zone, SOA): the first
        // target at that address takes its SOA verdict from the reply
        // instead of asking again.
        let mut resolution_soa = res
            .answered_by
            .map(|addr| (addr, owns(&res.answers, zone, RecordType::Soa)));
        let mut observations = Vec::with_capacity(targets.len());
        let mut cds_verdicts = Vec::new();
        let mut key_reply = None;
        for (ns, addr) in &targets {
            let soa = resolution_soa
                .take_if(|(by, _)| by == addr)
                .map(|(_, present)| present);
            let (obs, dnskeys) =
                self.observe_address(probe, zone, ns, *addr, soa, &mut cds_verdicts);
            // The zone's keys are read from one reply: with a DS, the
            // first without an error rcode (the first server that answers
            // decides, as in `validated_keys`); for an island, the first
            // with keys in its answer.
            let decides = if parent_ds.is_empty() {
                !obs.dnskeys.is_empty()
            } else {
                dnskeys.as_ref().is_some_and(|m| !m.rcode().is_error())
            };
            if key_reply.is_none() && decides {
                key_reply = dnskeys;
            }
            observations.push(obs);
        }

        // The zone's authenticated keys, which its CDS is checked against:
        // that reply's keys if they chain from the DS or, for an island,
        // if its RRSIGs verify under them; else none.
        let zone_keys: Option<Vec<DnskeyData>> = key_reply.and_then(|msg| {
            if parent_ds.is_empty() {
                self_signed_dnskeys(&msg, zone, self.now)
            } else {
                verified_dnskeys(&msg, zone, &parent_ds, self.now)
            }
        });

        // 4. Signal probes.
        let signal_observations: Vec<SignalObservation> = ns_names
            .iter()
            .map(|ns| self.probe_signal(probe, zone, ns))
            .collect();

        // 5. Classify. Every query is done, so the meter's record is the
        // zone's final one: the degradation logic below and the report
        // read it as it stands.
        let stats = probe.meter.stats();
        let mut dnssec = classify::dnssec_class(&chain, &observations, zone_keys.as_deref());
        // Degradation override: the zone resolved, but then *no* address
        // produced any answer while transient failures were piling up.
        // The evidence is incomplete — refuse to classify rather than
        // report an artificial Unsigned/Invalid.
        let no_evidence = !observations.is_empty() && observations.iter().all(|o| !o.responded);
        if no_evidence && stats.degraded() {
            dnssec = DnssecClass::Indeterminate;
        }
        let cds = classify::cds_class_at(zone, &observations, zone_keys.as_deref(), dnssec);
        let operator = self.table.identify(&ns_names);

        // Sealing derives the AB class from these.
        let evidence = Evidence {
            ns_names: ns_names.into(),
            parent_ds: parent_ds.into(),
            ns_observations: observations.into(),
            signal_observations: signal_observations.into(),
            cds,
            operator,
            sampled,
            ..Evidence::empty(zone.clone(), dnssec, stats.degraded())
        };
        Arc::new(ScanRecord {
            evidence: evidence.seal(),
            queries: probe.queries,
            elapsed: probe.clock,
            retry_stats: stats,
        })
    }

    fn unresolvable(&self, zone: &Name, probe: &mut Probe) -> ZoneScan {
        // A zone that failed to resolve *because of network failures* is
        // Indeterminate (evidence incomplete); one that is genuinely
        // undelegated is Unresolvable. Hostile casualties count as
        // degradation, so they land in Indeterminate with their named
        // cause in the stats — never in Unresolvable, which would
        // misread an attack as a property of the world.
        let stats = probe.meter.stats();
        let degraded = stats.degraded();
        let dnssec = if degraded {
            DnssecClass::Indeterminate
        } else {
            DnssecClass::Unresolvable
        };
        Arc::new(ScanRecord {
            evidence: Evidence::empty(zone.clone(), dnssec, degraded),
            queries: probe.queries,
            elapsed: probe.clock,
            retry_stats: stats,
        })
    }

    /// Apply the Cloudflare sampling policy. Returns whether sampling
    /// reduced the target set.
    fn apply_sampling(&self, zone: &Name, targets: &mut Vec<(Name, Addr)>) -> bool {
        let pooled = targets
            .iter()
            .all(|(ns, _)| ns.is_subdomain_of(&SAMPLED_SUFFIX));
        if !pooled || targets.is_empty() || targets.len() <= 2 {
            return false;
        }
        let in_sample = DeterministicDraw::new(self.seed, &[b"sample", &zone.to_wire()]).unit()
            < self.policy.sample_fraction;
        if !in_sample {
            return false;
        }
        // Keep the first IPv4 and the first IPv6 target, in canonical
        // order.
        let v4 = targets.iter().find(|(_, a)| !a.is_v6()).cloned();
        let v6 = targets.iter().find(|(_, a)| a.is_v6()).cloned();
        targets.clear();
        targets.extend(v4);
        targets.extend(v6);
        true
    }

    /// Query one address for SOA/DNSKEY/CDS/CDNSKEY/CSYNC, returning the
    /// observation and the DNSKEY answer. `soa` is this address's SOA
    /// verdict (an SOA owned by the zone in the answer) when the
    /// resolution's final reply already gave it; the SOA is asked only
    /// without one. `cds_verdicts` holds the zone's CDS signature checks
    /// so far, each with its verdict.
    fn observe_address(
        &self,
        probe: &mut Probe,
        zone: &Name,
        ns: &Name,
        addr: Addr,
        soa: Option<bool>,
        cds_verdicts: &mut Vec<(CdsSigInput, bool)>,
    ) -> (NsObservation, Option<Message>) {
        let mut obs = NsObservation {
            ns_name: ns.clone(),
            addr,
            responded: false,
            soa_present: false,
            cds_query_error: false,
            dnskeys: Arc::default(),
            cds: Arc::default(),
            cds_sig_valid: None,
            csync_present: false,
        };
        let mut keys = Vec::new();
        // SOA: authoritativeness / lameness probe. A verdict in hand
        // stands for a reply this address gave, so the breaker sees the
        // success the query would have recorded.
        let soa = match soa {
            Some(present) => {
                probe.breaker.record_success(addr);
                Some(present)
            }
            None => self
                .query(probe, addr, zone, RecordType::Soa)
                .map(|msg| owns(&msg.answers, zone, RecordType::Soa)),
        };
        if let Some(present) = soa {
            obs.responded = true;
            obs.soa_present = present;
        }
        // DNSKEY.
        let dnskeys = self.query(probe, addr, zone, RecordType::Dnskey);
        if let Some(msg) = &dnskeys {
            obs.responded = true;
            for r in &msg.answers {
                if let RData::Dnskey(d) = &r.rdata {
                    keys.push(d.clone());
                }
            }
        }
        // CDS + CDNSKEY.
        let mut cds_answers: Vec<Record> = Vec::new();
        for rtype in [RecordType::Cds, RecordType::Cdnskey] {
            match self.query(probe, addr, zone, rtype) {
                Some(msg) => {
                    obs.responded = true;
                    if msg.rcode().is_error() {
                        obs.cds_query_error = true;
                        continue;
                    }
                    cds_answers.extend(msg.answers);
                }
                None => {
                    obs.cds_query_error = true;
                }
            }
        }
        keys.shrink_to_fit();
        obs.dnskeys = Arc::new(keys);
        obs.cds = cds_seen(&cds_answers);
        // CSYNC (RFC 7477) — the other child→parent channel (paper §6).
        if let Some(msg) = self.query(probe, addr, zone, RecordType::Csync) {
            obs.csync_present = owns(&msg.answers, zone, RecordType::Csync);
        }
        // Verify the RRSIGs over the CDS and CDNSKEY RRsets against the
        // zone's DNSKEYs as served by this same address — once per
        // distinct input.
        if !obs.cds.is_empty() && !obs.dnskeys.is_empty() {
            let input = CdsSigInput {
                answers: cds_answers,
                dnskeys: Arc::clone(&obs.dnskeys),
            };
            let valid = match cds_verdicts.iter().find(|(seen, _)| *seen == input) {
                Some(&(_, valid)) => valid,
                None => {
                    let valid =
                        answer_sets_verify(&input.answers, is_cds_type, &input.dnskeys, self.now);
                    cds_verdicts.push((input, valid));
                    valid
                }
            };
            obs.cds_sig_valid = Some(valid);
        }
        (obs, dnskeys)
    }

    /// Probe the signal name for (zone, ns): resolve its CDS, validate
    /// its chain, and check for zone cuts on the signal path.
    fn probe_signal(&self, probe: &mut Probe, zone: &Name, ns: &Name) -> SignalObservation {
        let mut obs = SignalObservation {
            ns_name: ns.clone(),
            name_unbuildable: false,
            cds: Arc::default(),
            dnssec_valid: None,
            zone_cut: false,
        };
        let Ok(signame) = signal_name(zone, ns) else {
            obs.name_unbuildable = true;
            return obs;
        };
        // CDS, then CDNSKEY at the same name.
        let mut resolutions: Vec<Resolution> = Vec::with_capacity(2);
        for rtype in [RecordType::Cds, RecordType::Cdnskey] {
            match self
                .resolver
                .resolve_at_with(Some(&probe.meter), probe.clock, &signame, rtype)
            {
                Ok(r) => {
                    probe.clock += r.elapsed;
                    probe.queries += r.queries;
                    resolutions.push(r);
                }
                Err(e) => {
                    // An adversary answering the CDS question for the
                    // signal name (alias loops, referral games) is a
                    // hostile casualty of this zone's scan — named, and
                    // degrading.
                    if let (true, ResolverError::Hostile(c)) = (resolutions.is_empty(), e) {
                        probe.meter.tally(|s| s.record(ScanError::Hostile(c)));
                    }
                    break;
                }
            }
        }
        // Without the CDS resolution there is no probe; a failed CDNSKEY
        // resolution only leaves its records out.
        let Some(res) = resolutions.first() else {
            return obs;
        };
        obs.cds = cds_seen(resolutions.iter().flat_map(|r| &r.answers));
        // A zone cut: the answer came from below `_signal.<ns>`, or the
        // path probe finds one — probed even without signal records, as
        // the parked-typo-NS case (§4.4) fakes NS RRsets at every label.
        let below = signal_zone_apex(ns).is_ok_and(|a| res.zone_apex.is_strict_subdomain_of(&a));
        obs.zone_cut =
            below || self.detect_zone_cut(probe, &res.zone_apex, &signame, &res.zone_servers);
        if obs.cds.is_empty() {
            return obs;
        }
        // Chain validation of the signal records.
        let chain = self.validate_chain_to_parent(probe, res);
        let valid = match chain {
            ChainStatus::DsPresent(ds) => {
                // Validate the answering zone's keys, then the CDS and
                // CDNSKEY answers, each on its own.
                let keys = self.validated_keys(probe, &res.zone_apex, &res.zone_servers, &ds);
                keys.is_some_and(|keys| {
                    resolutions
                        .iter()
                        .all(|r| answer_sets_verify(&r.answers, is_cds_type, &keys, self.now))
                })
            }
            _ => false, // unsigned or broken chain → signal not authenticated
        };
        obs.dnssec_valid = Some(valid);
        obs
    }

    /// Probe for NS RRsets between the zone apex and the signal name,
    /// deepest label first. The zone-specific label `<zone>._signal.<ns>`
    /// is always asked; every label above it is answered from
    /// `cut_cache` when an earlier probe through the same apex cached
    /// it.
    fn detect_zone_cut(
        &self,
        probe: &mut Probe,
        zone_apex: &Name,
        signame: &Name,
        servers: &[Addr],
    ) -> bool {
        let zone_label = signame.parent();
        let mut cursor = zone_label.clone();
        while let Some(p) = cursor {
            if !p.is_strict_subdomain_of(zone_apex) {
                break;
            }
            let shared = zone_label.as_ref() != Some(&p);
            let cached = if shared {
                self.cut_cache.lookup(&p, probe.clock)
            } else {
                None
            };
            let has_ns = match cached.filter(|c| c.apex == *zone_apex) {
                Some(c) => c.has_ns,
                None => self.ask_zone_cut(probe, zone_apex, &p, servers, shared),
            };
            if has_ns {
                return true;
            }
            cursor = p.parent();
        }
        false
    }

    /// Ask `servers` in turn for NS at `label`; the first reply decides.
    /// A `shared` label's NOERROR or NXDOMAIN outcome is cached under
    /// `zone_apex` and logged to the zone's meter.
    fn ask_zone_cut(
        &self,
        probe: &mut Probe,
        zone_apex: &Name,
        label: &Name,
        servers: &[Addr],
        shared: bool,
    ) -> bool {
        for &addr in servers {
            let Some(msg) = self.query(probe, addr, label, RecordType::Ns) else {
                continue;
            };
            let has_ns = msg.rcode() == Rcode::NoError && owns(&msg.answers, label, RecordType::Ns);
            if shared && matches!(msg.rcode(), Rcode::NoError | Rcode::NxDomain) {
                let outcome = CutOutcome {
                    apex: zone_apex.clone(),
                    has_ns,
                };
                self.cut_cache.insert_tagged(
                    label.clone(),
                    outcome.clone(),
                    zone_apex.clone(),
                    probe.clock.saturating_add(CACHE_TTL_MICROS),
                );
                probe
                    .meter
                    .log_insert(label.clone(), CacheInsert::Cut(outcome));
            }
            return has_ns;
        }
        false
    }

    /// Scan every zone in `seeds`, optionally in parallel.
    pub fn scan_all(&self, seeds: &[Name]) -> ScanResults {
        self.scan_all_with(seeds, None, None)
    }

    /// Like [`scan_all`](Self::scan_all), but emitting every finished
    /// zone scan to `sink` *before* folding it into the results
    /// (write-ahead discipline), and optionally resuming from prior
    /// progress: zones already present in `resume` are skipped and their
    /// recorded results carried forward.
    ///
    /// A scan with a sink is one sequential lane whatever
    /// `policy.parallelism` says: every `on_zone` runs on the calling
    /// thread, in seed order. Together with per-zone query meters,
    /// per-probe rate limiters and replayed cache effects that makes
    /// resumption *deterministic*: killing a journaled scan at any event
    /// boundary and resuming yields results byte-identical to the
    /// uninterrupted run. Parallelism across journaled scans lives
    /// between lanes (one scanner and one sink per `scan-fabric` shard),
    /// never inside one; `policy.parallelism` threads serve sink-less
    /// scans only.
    pub fn scan_all_with(
        &self,
        seeds: &[Name],
        sink: Option<&dyn ProgressSink>,
        resume: Option<ResumeState>,
    ) -> ScanResults {
        let mut base_duration: SimMicros = 0;
        let mut completed: HashSet<Name> = HashSet::new();
        let mut zones: Vec<ZoneScan> = Vec::with_capacity(seeds.len());
        if let Some(resume) = resume {
            base_duration = resume.duration_so_far;
            for z in resume.zones {
                completed.insert(z.name.clone());
                zones.push(z);
            }
        }
        let workers = self.policy.parallelism.max(1);
        let next = AtomicUsize::new(0);
        let zones = Mutex::new(zones);
        let (makespan, stopped) = if sink.is_none() && workers > 1 {
            std::thread::scope(|s| {
                let lanes: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| self.main_pass_lane(seeds, &completed, &next, None, &zones))
                    })
                    .collect();
                let elapsed = lanes
                    .into_iter()
                    .map(|lane| lane.join().expect("a scan worker panicked").0);
                (elapsed.max().unwrap_or(0), false)
            })
        } else {
            self.main_pass_lane(seeds, &completed, &next, sink, &zones)
        };
        let mut zones = zones.into_inner();
        zones.sort_by(|a, b| a.name.canonical_cmp(&b.name));
        let mut simulated_duration = base_duration + makespan;

        // Re-scan queue: zones whose evidence came back incomplete get
        // fresh sequential passes (fresh per-pass query-ID seeds → fresh
        // netsim draws), in name order for determinism. The better of
        // old/new result is kept; costs accumulate either way. Each
        // completed pass stamps `rescans`, so a resumed run can tell
        // which zones pass `p` already covered in an earlier life.
        if !stopped {
            'passes: for pass in 1..=RESCAN_PASSES {
                let pending: Vec<usize> = zones
                    .iter()
                    .enumerate()
                    .filter(|(_, z)| z.weak() && z.retry_stats.rescans < pass)
                    .map(|(i, _)| i)
                    .collect();
                if pending.is_empty() {
                    break;
                }
                for i in pending {
                    let (fresh, effects) = self.scan_zone_pass(&zones[i].name, pass);
                    let duration_delta = fresh.elapsed;
                    simulated_duration += duration_delta;
                    let old = &zones[i];
                    let rescans = old.retry_stats.rescans + 1;
                    let (mut kept, other) =
                        if Self::evidence_rank(&fresh) < Self::evidence_rank(old) {
                            (fresh, old)
                        } else {
                            (old.clone(), &fresh)
                        };
                    let merged = Arc::make_mut(&mut kept);
                    merged.queries += other.queries;
                    Self::accumulate_io(&mut merged.retry_stats, &other.retry_stats);
                    merged.retry_stats.rescans = rescans;
                    if let Some(sink) = sink {
                        let event = ZoneEvent {
                            duration_delta,
                            scan: kept.clone(),
                            effects,
                        };
                        if !sink.on_zone(&event) {
                            break 'passes;
                        }
                    }
                    zones[i] = kept;
                }
            }
        }

        // Exact already unless a sink stopped the scan early or the
        // resumed zones were not all seeds.
        zones.shrink_to_fit();
        let total_queries = zones.iter().map(|z| z.queries as u64).sum();
        ScanResults {
            zones,
            simulated_duration,
            total_queries,
        }
    }

    /// One main-pass lane: claim seed indices from `next` until the list
    /// runs out or `sink` refuses an event, scanning every zone not in
    /// `completed` and pushing the result onto `zones` (shared between
    /// the lanes of a threaded scan; a refused event is not pushed).
    /// Returns the lane's summed virtual time and whether the sink
    /// stopped it. A lone lane claims every index, so it scans — and
    /// emits — in seed order.
    fn main_pass_lane(
        &self,
        seeds: &[Name],
        completed: &HashSet<Name>,
        next: &AtomicUsize,
        sink: Option<&dyn ProgressSink>,
        zones: &Mutex<Vec<ZoneScan>>,
    ) -> (SimMicros, bool) {
        let mut elapsed: SimMicros = 0;
        while let Some(zone) = seeds.get(next.fetch_add(1, Ordering::Relaxed)) {
            if completed.contains(zone) {
                continue;
            }
            let (scan, effects) = self.scan_zone_pass(zone, 0);
            elapsed += scan.elapsed;
            let Some(sink) = sink else {
                zones.lock().push(scan);
                continue;
            };
            let event = ZoneEvent {
                duration_delta: scan.elapsed,
                scan,
                effects,
            };
            if !sink.on_zone(&event) {
                return (elapsed, true);
            }
            zones.lock().push(event.scan);
        }
        (elapsed, false)
    }

    /// The one statement of which [`RetryStats`] counters a re-scan sums
    /// across passes: the wire counters — datagrams, TCP fallbacks and
    /// bytes — whichever result is kept, since that traffic happened
    /// either way. Every other counter (logical queries, failures,
    /// retries, hostile events) is the kept pass's alone, which is what
    /// keeps a zone's logical queries within one pass's budget.
    fn accumulate_io(into: &mut RetryStats, other: &RetryStats) {
        into.datagrams += other.datagrams;
        into.tcp_fallbacks += other.tcp_fallbacks;
        into.bytes_sent += other.bytes_sent;
        into.bytes_received += other.bytes_received;
    }

    /// Seed the shared caches with one zone event's inserts, in the
    /// order the scan made them, each valid until `expires_at` on this
    /// scanner's virtual clock. The one walk over the insert kinds:
    /// journal replay (`Recovery::apply_to`) and epoch carry-over
    /// (`CarryLedger::seed_into`) differ only in the expiry they pass.
    /// Every cache entry shares the effects' `Arc`s and name buffers —
    /// nothing is deep-cloned per seed.
    pub fn seed_effects(&self, effects: &ZoneEffects, expires_at: SimMicros) {
        for (key, insert) in effects {
            match insert {
                CacheInsert::Keys(keys) => self.key_cache.insert_tagged(
                    key.clone(),
                    Arc::clone(keys),
                    key.clone(),
                    expires_at,
                ),
                CacheInsert::Addrs(addrs) => {
                    self.resolver
                        .seed_address(key.clone(), Arc::clone(addrs), None, expires_at)
                }
                CacheInsert::Referral(data) => {
                    self.resolver
                        .seed_referral(key.clone(), Arc::clone(data), None, expires_at)
                }
                CacheInsert::Cut(outcome) => self.cut_cache.insert_tagged(
                    key.clone(),
                    outcome.clone(),
                    outcome.apex.clone(),
                    expires_at,
                ),
            }
        }
    }

    /// Orders scan results by evidence quality (lower = better): a
    /// substantive classification beats Unresolvable beats Indeterminate,
    /// and among equals, fewer failures win.
    fn evidence_rank(z: &ZoneScan) -> (u8, u8, u32) {
        let class = match z.dnssec {
            DnssecClass::Indeterminate => 2,
            DnssecClass::Unresolvable => 1,
            _ => 0,
        };
        (
            class,
            z.degraded as u8,
            z.retry_stats.failures + z.retry_stats.breaker_skips,
        )
    }
}

/// Whether `answers` hold a record of `rtype` owned by `owner`.
fn owns(answers: &[Record], owner: &Name, rtype: RecordType) -> bool {
    answers
        .iter()
        .any(|r| r.rtype() == rtype && r.name == *owner)
}

/// Outcome of validating the chain from the root to a zone's parent.
#[derive(Debug, Clone)]
pub enum ChainStatus {
    /// DS present at the parent (and the chain above validated).
    DsPresent(Vec<DsData>),
    /// No DS at the parent: the zone is insecurely delegated.
    NoDsAtParent,
    /// An ancestor delegation was already insecure.
    InsecureAbove,
    /// Validation failed somewhere above the zone.
    Bogus,
    /// Could not determine (unreachable/erroring servers).
    Indeterminate,
}

impl ScanResults {
    /// Resolved zones (the denominator of §4.1's percentages).
    /// Indeterminate zones are excluded like unresolvable ones: their
    /// evidence is incomplete and must not dilute the percentages.
    pub fn resolved(&self) -> impl Iterator<Item = &ZoneScan> {
        self.zones.iter().filter(|z| z.resolved())
    }

    /// Zones whose scan was degraded by transient failures (including
    /// those that still reached a classification).
    pub fn degraded(&self) -> impl Iterator<Item = &ZoneScan> {
        self.zones.iter().filter(|z| z.weak())
    }
}
