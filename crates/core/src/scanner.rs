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
use crate::error::{RetryStats, ScanError};
use crate::health::CircuitBreaker;
use crate::operator::OperatorTable;
use crate::progress::{ProgressSink, ResumeState, ZoneEffects, ZoneEvent};
use crate::types::*;
use dns_crypto::UnixTime;
use dns_resolver::validate::{ds_link_verifies, verified_dnskeys};
use dns_resolver::{
    ChainLink, ClientErrorKind, DnsClient, HostileCause, ProvenanceCache, QueryMeter, ReferralData,
    Resolution, Resolver, ResolverError, RetryPolicy, RootHints, CACHE_TTL_MICROS,
};
use dns_wire::message::Rcode;
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RData, RrsigData};
use dns_wire::record::{RecordClass, RecordType, RrSet};
use dns_zone::signal::signal_name;
use dns_zone::signer::verify_rrset_with_keys;
use netsim::{Addr, DeterministicDraw, Network, RateLimiter, SimMicros};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
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

/// Per-zone logical-query budget — the amplification cap. Empirically,
/// the costliest benign zone needs 35 logical queries in the `tiny` world
/// with cold caches (the shared delegation cache makes even a zone's
/// *own* repeat descents — signal probes, DNSKEY walks — cache hits), so
/// 240 gives every benign zone several-fold headroom; the acceptance
/// rules, not the budget, keep adversarial cost within 3× of the worst
/// benign zone (see `tests/hostile_world.rs`, which re-measures both
/// bounds every run).
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

/// Per-worker reusable probe state: the per-address politeness limiters
/// and the circuit breaker. Both are *semantically* zone-scoped (a zone's
/// result must never depend on what other zones did to a token bucket or
/// a breaker), but *allocating* them per zone is pure churn, so each
/// worker keeps one pool for its whole lifetime and resets it between
/// zones. Limiter resets are lazy via an epoch tag: bumping the epoch
/// invalidates every pooled limiter in O(1), and a limiter is re-armed to
/// its full burst the first time the current zone touches it.
pub(crate) struct WorkerScratch {
    epoch: u64,
    /// Pooled per-address limiters, tagged with the epoch that last
    /// touched them.
    limiters: HashMap<Addr, (u64, RateLimiter)>,
    breaker: CircuitBreaker,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            epoch: 0,
            limiters: HashMap::new(),
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN),
        }
    }

    /// Reset to the state a freshly allocated scratch would have, without
    /// giving back the map capacities.
    fn begin_zone(&mut self) {
        self.epoch += 1;
        self.breaker.reset();
    }
}

/// Per-zone-scan probing context: the scan-local virtual clock, query,
/// budget and failure accounting (the meter also logs the scan's side
/// effects on shared caches), and a borrow of the worker's (reset)
/// breaker + limiter scratch. No state carries over between zones, so
/// results are independent of scan order — and, in a journaled scan (one
/// sequential lane), of which zones ran in an earlier process life.
struct Probe<'w> {
    clock: SimMicros,
    queries: u32,
    stats: RetryStats,
    /// Per-zone I/O meter: derives query IDs from stable per-query
    /// coordinates (seeded from the zone name and pass number), counts
    /// datagrams/bytes against the budget, and logs every shared-cache
    /// insert (resolver and key cache) for the journal.
    meter: QueryMeter,
    /// Worker-pooled breaker + per-address politeness limiters, reset
    /// for this zone scan.
    scratch: &'w mut WorkerScratch,
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
    seed: u64,
}

/// A verified DS link: the referral whose DS RRset verified, and the
/// parent key set it verified under.
type DsVerdict = (Arc<ReferralData>, Arc<Vec<DnskeyData>>);

/// One address's CDS/CDNSKEY signature check input, compared by value:
/// another address of the same zone serving the same records reuses the
/// verdict (the zone, and the scanner's `now`, are fixed within a scan).
struct CdsSigInput {
    rdatas: Vec<RData>,
    rrsigs: Vec<RrsigData>,
    dnskeys: Vec<DnskeyData>,
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

    /// A fresh probe for one scan of `zone`, borrowing the worker's
    /// scratch (reset here). The meter's query-ID seed is drawn from
    /// `(zone, pass)`, and the meter derives each ID from the query's
    /// stable coordinates under that seed — so a zone's wire traffic is
    /// a pure function of the zone, the pass number, and which of its
    /// lookups the shared caches answered. Crucially, a cache hit elides
    /// whole queries without renumbering the surviving ones, which is
    /// what keeps the evidence plane identical across parallelism and
    /// cold-vs-warm cache states.
    fn new_probe<'w>(&self, scratch: &'w mut WorkerScratch, zone: &Name, pass: u32) -> Probe<'w> {
        let id_seed = DeterministicDraw::new(
            self.seed ^ 0x9e7e_0012,
            &[b"meter", &zone.to_wire(), &pass.to_be_bytes()],
        )
        .below(1 << 48);
        scratch.begin_zone();
        Probe {
            clock: 0,
            queries: 0,
            stats: RetryStats::default(),
            meter: QueryMeter::with_budget(id_seed, DEFAULT_ZONE_QUERY_BUDGET),
            scratch,
        }
    }

    /// One rate-limited, breaker-guarded query; failures are recorded in
    /// the probe's [`RetryStats`] and charged their real virtual cost.
    fn query(
        &self,
        probe: &mut Probe,
        addr: Addr,
        name: &Name,
        rtype: RecordType,
    ) -> Option<dns_wire::message::Message> {
        if !probe.scratch.breaker.allows(addr, probe.clock) {
            probe.stats.record(ScanError::BreakerOpen);
            return None;
        }
        // Limiters are zone-scoped (so zone results never depend on what
        // other zones did to a shared token bucket), with a small burst:
        // the per-address politeness rate must still dominate within one
        // zone's query fan-out. The buckets themselves are pooled in the
        // worker scratch and lazily re-armed per zone via the epoch tag.
        let epoch = probe.scratch.epoch;
        let (tag, limiter) = probe
            .scratch
            .limiters
            .entry(addr)
            .or_insert_with(|| (epoch, RateLimiter::new(RATE_PER_SEC, 2.0)));
        if *tag != epoch {
            limiter.reset();
            *tag = epoch;
        }
        let wait = limiter.acquire(probe.clock);
        probe.clock += wait;
        probe.queries += 1;
        match self
            .client
            .query_at_with(Some(&probe.meter), probe.clock, addr, name, rtype, true)
        {
            Ok(ex) => {
                probe.clock += ex.elapsed;
                probe.stats.retries += ex.retries;
                if ex.message.rcode() == Rcode::ServFail {
                    probe.stats.servfails += 1;
                }
                probe.scratch.breaker.record_success(addr);
                Some(ex.message)
            }
            Err(e) => {
                probe.clock += e.elapsed;
                probe.stats.retries += e.retries;
                probe.stats.record(match e.kind {
                    ClientErrorKind::Unreachable => ScanError::Unreachable,
                    ClientErrorKind::Timeout => ScanError::Timeout,
                    ClientErrorKind::Malformed => ScanError::Malformed,
                    ClientErrorKind::Rejected => ScanError::Hostile(HostileCause::MismatchedReply),
                    ClientErrorKind::BudgetExceeded => {
                        ScanError::Hostile(HostileCause::BudgetExceeded)
                    }
                });
                probe.scratch.breaker.record_failure(addr, probe.clock);
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
        let keys = Arc::new(self.fetch_keys_uncached(probe, zone, servers, ds)?);
        self.key_cache.insert_tagged(
            zone.clone(),
            Arc::clone(&keys),
            zone.clone(),
            probe.clock.saturating_add(CACHE_TTL_MICROS),
        );
        probe.meter.log_key_insert(zone.clone(), Arc::clone(&keys));
        Some(keys)
    }

    fn fetch_keys_uncached(
        &self,
        probe: &mut Probe,
        zone: &Name,
        servers: &[Addr],
        ds: &[DsData],
    ) -> Option<Vec<DnskeyData>> {
        for &addr in servers {
            let Some(msg) = self.query(probe, addr, zone, RecordType::Dnskey) else {
                continue;
            };
            if msg.rcode().is_error() {
                continue;
            }
            // The first server that answers decides: a reply that
            // fails the DNSKEY rule is not retried elsewhere.
            return verified_dnskeys(&msg, zone, ds, self.now);
        }
        None
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
        let mut scratch = WorkerScratch::new();
        self.scan_zone_pass(&mut scratch, zone, 0).0
    }

    /// Scan one zone as pass `pass` (0 = main, ≥1 = re-scan), returning
    /// the result together with the scan's side effects on shared state.
    fn scan_zone_pass(
        &self,
        scratch: &mut WorkerScratch,
        zone: &Name,
        pass: u32,
    ) -> (ZoneScan, ZoneEffects) {
        let mut probe = self.new_probe(scratch, zone, pass);
        let mut scan = self.scan_zone_inner(zone, &mut probe);
        // Seal: fold the meter's budget totals into the zone's stats and
        // drain the meter's cache-insert log (the resolver attributed
        // every shared-cache insert this zone paid for to its meter).
        let io = probe.meter.io();
        scan.retry_stats.datagrams = io.datagrams as u32;
        scan.retry_stats.tcp_fallbacks = io.tcp_fallbacks as u32;
        scan.retry_stats.bytes_sent = io.bytes_sent;
        scan.retry_stats.bytes_received = io.bytes_received;
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
                        probe.stats.record(ScanError::ResolutionFailed);
                    }
                    // The hardening layer refused the walk: a hostile
                    // casualty, reported under its named cause.
                    ResolverError::Hostile(c) => {
                        probe.stats.record(ScanError::Hostile(c));
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
                .stats
                .record(ScanError::Hostile(HostileCause::LameDelegation));
            return self.unresolvable(zone, probe);
        }
        probe.clock += res.elapsed;
        probe.queries += res.queries;
        let ns_names = last_link.ns_names.clone();
        let chain = self.validate_chain_to_parent(probe, &res);
        let parent_ds = match &chain {
            ChainStatus::DsPresent(ds) => ds.clone(),
            _ => Vec::new(),
        };

        // 2. Addresses, with sampling policy.
        let mut targets: Vec<(Name, Addr)> = Vec::new();
        for ns in &ns_names {
            if let Ok(addrs) =
                self.resolver
                    .addresses_of_at_with(Some(&probe.meter), probe.clock, ns)
            {
                for a in addrs.iter() {
                    targets.push((ns.clone(), *a));
                }
            }
        }
        let sampled = self.apply_sampling(zone, &mut targets);

        // 3. Per-address DNSSEC/CDS observations. Every vector a
        // `ZoneScan` keeps is exactly sized: results live for the whole
        // scan, one per zone.
        let mut observations = Vec::with_capacity(targets.len());
        let mut cds_verdicts = Vec::new();
        for (ns, addr) in &targets {
            observations.push(self.observe_address(probe, zone, ns, *addr, &mut cds_verdicts));
        }

        // Zone DNSKEY validation (for Secured/Invalid/Island split).
        let zone_keys: Option<Vec<DnskeyData>> = if parent_ds.is_empty() {
            // Island check: self-validate against its own keys.
            self.self_validated_keys(&observations)
        } else {
            let servers: Vec<Addr> = targets.iter().map(|(_, a)| *a).collect();
            self.fetch_keys_uncached(probe, zone, &servers, &parent_ds)
        };

        // 4. Signal probes.
        let signal_observations: Vec<SignalObservation> = ns_names
            .iter()
            .map(|ns| self.probe_signal(probe, zone, ns))
            .collect();

        // 5. Classify. First fold in hostile events the client/resolver
        // observed silently (stripped foreign records, loop detections
        // inside nested address walks, budget refusals), so the
        // degradation logic below — and the report — sees them.
        probe.stats.absorb_hostile(&probe.meter.hostile());
        probe.stats.logical_queries = probe.meter.logical_queries();
        let mut dnssec = classify::dnssec_class(&chain, &observations, zone_keys.as_deref());
        // Degradation override: the zone resolved, but then *no* address
        // produced any answer while transient failures were piling up.
        // The evidence is incomplete — refuse to classify rather than
        // report an artificial Unsigned/Invalid.
        let no_evidence = !observations.is_empty() && observations.iter().all(|o| !o.responded);
        if no_evidence && probe.stats.degraded() {
            dnssec = DnssecClass::Indeterminate;
        }
        let cds = classify::cds_class(&observations, zone_keys.as_deref(), dnssec);
        let ab = classify::ab_class(dnssec, cds, &signal_observations, &observations);
        let operator = self.table.identify(&ns_names);

        let degraded = probe.stats.degraded();
        ZoneScan {
            name: zone.clone(),
            ns_names,
            parent_ds,
            ns_observations: observations,
            signal_observations,
            dnssec,
            cds,
            ab,
            operator,
            queries: probe.queries,
            elapsed: probe.clock,
            sampled,
            retry_stats: probe.stats,
            degraded,
        }
    }

    fn unresolvable(&self, zone: &Name, probe: &mut Probe) -> ZoneScan {
        // A zone that failed to resolve *because of network failures* is
        // Indeterminate (evidence incomplete); one that is genuinely
        // undelegated is Unresolvable. Hostile casualties count as
        // degradation, so they land in Indeterminate with their named
        // cause in the stats — never in Unresolvable, which would
        // misread an attack as a property of the world.
        probe.stats.absorb_hostile(&probe.meter.hostile());
        probe.stats.logical_queries = probe.meter.logical_queries();
        let degraded = probe.stats.degraded();
        ZoneScan {
            name: zone.clone(),
            ns_names: Vec::new(),
            parent_ds: Vec::new(),
            ns_observations: Vec::new(),
            signal_observations: Vec::new(),
            dnssec: if degraded {
                DnssecClass::Indeterminate
            } else {
                DnssecClass::Unresolvable
            },
            cds: CdsClass::Absent,
            ab: AbClass::NoSignal,
            operator: crate::operator::Identified::Unknown,
            queries: probe.queries,
            elapsed: probe.clock,
            sampled: false,
            retry_stats: probe.stats,
            degraded,
        }
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
        // Keep 1 IPv4 and 1 IPv6.
        let v4 = targets.iter().find(|(_, a)| !a.is_v6()).cloned();
        let v6 = targets.iter().find(|(_, a)| a.is_v6()).cloned();
        targets.clear();
        targets.extend(v4);
        targets.extend(v6);
        true
    }

    /// Query one address for DNSKEY/CDS/CDNSKEY. `cds_verdicts` holds the
    /// zone's CDS signature checks so far, each with its verdict.
    fn observe_address(
        &self,
        probe: &mut Probe,
        zone: &Name,
        ns: &Name,
        addr: Addr,
        cds_verdicts: &mut Vec<(CdsSigInput, bool)>,
    ) -> NsObservation {
        let mut obs = NsObservation {
            ns_name: ns.clone(),
            addr,
            responded: false,
            soa_present: false,
            cds_query_error: false,
            dnskeys: Vec::new(),
            cds: Vec::new(),
            cds_sig_valid: None,
            csync_present: false,
        };
        // SOA: authoritativeness / lameness probe.
        if let Some(msg) = self.query(probe, addr, zone, RecordType::Soa) {
            obs.responded = true;
            obs.soa_present = msg
                .answers
                .iter()
                .any(|r| r.rtype() == RecordType::Soa && r.name == *zone);
        }
        // DNSKEY.
        if let Some(msg) = self.query(probe, addr, zone, RecordType::Dnskey) {
            obs.responded = true;
            for r in &msg.answers {
                if let RData::Dnskey(d) = &r.rdata {
                    obs.dnskeys.push(d.clone());
                }
            }
        }
        // CDS + CDNSKEY.
        let mut cds_rrsigs: Vec<RrsigData> = Vec::new();
        let mut cds_rdatas: Vec<RData> = Vec::new();
        for rtype in [RecordType::Cds, RecordType::Cdnskey] {
            match self.query(probe, addr, zone, rtype) {
                Some(msg) => {
                    obs.responded = true;
                    if msg.rcode().is_error() {
                        obs.cds_query_error = true;
                        continue;
                    }
                    for r in &msg.answers {
                        match &r.rdata {
                            RData::Cds(d) => {
                                obs.cds.push(CdsSeen::from_ds(d));
                                cds_rdatas.push(r.rdata.clone());
                            }
                            RData::Cdnskey(k) => {
                                obs.cds.push(CdsSeen::from_dnskey(k));
                                cds_rdatas.push(r.rdata.clone());
                            }
                            RData::Rrsig(s) => cds_rrsigs.push(s.clone()),
                            _ => {}
                        }
                    }
                }
                None => {
                    obs.cds_query_error = true;
                }
            }
        }
        obs.dnskeys.shrink_to_fit();
        obs.cds.sort();
        obs.cds.dedup();
        obs.cds.shrink_to_fit();
        // CSYNC (RFC 7477) — the other child→parent channel (paper §6).
        if let Some(msg) = self.query(probe, addr, zone, RecordType::Csync) {
            obs.csync_present = msg
                .answers
                .iter()
                .any(|r| r.rtype() == RecordType::Csync && r.name == *zone);
        }
        // Verify the RRSIG over the CDS RRset against the zone's DNSKEYs
        // as served by this same address — once per distinct input.
        if !cds_rdatas.is_empty() && !obs.dnskeys.is_empty() {
            let seen = cds_verdicts.iter().find(|(seen, _)| {
                seen.rdatas == cds_rdatas
                    && seen.rrsigs == cds_rrsigs
                    && seen.dnskeys == obs.dnskeys
            });
            let valid = match seen {
                Some(&(_, valid)) => valid,
                None => {
                    let input = CdsSigInput {
                        rdatas: cds_rdatas,
                        rrsigs: cds_rrsigs,
                        dnskeys: obs.dnskeys.clone(),
                    };
                    let valid = self.cds_sigs_valid(zone, &input);
                    cds_verdicts.push((input, valid));
                    valid
                }
            };
            obs.cds_sig_valid = Some(valid);
        }
        obs
    }

    /// Whether the CDS and the CDNSKEY RRset in `input` (each, if
    /// present) verify against its DNSKEYs.
    fn cds_sigs_valid(&self, zone: &Name, input: &CdsSigInput) -> bool {
        [RecordType::Cds, RecordType::Cdnskey]
            .into_iter()
            .all(|rtype| {
                let rdatas: Vec<RData> = input
                    .rdatas
                    .iter()
                    .filter(|r| r.rtype() == rtype)
                    .cloned()
                    .collect();
                if rdatas.is_empty() {
                    return true;
                }
                let set = RrSet {
                    name: zone.clone(),
                    class: RecordClass::In,
                    rtype,
                    ttl: 300,
                    rdatas,
                };
                verify_rrset_with_keys(&set, &input.rrsigs, &input.dnskeys, self.now).is_ok()
            })
    }

    /// Keys that self-validate from the NS observations (island check).
    fn self_validated_keys(&self, observations: &[NsObservation]) -> Option<Vec<DnskeyData>> {
        observations
            .iter()
            .find(|o| !o.dnskeys.is_empty())
            .map(|o| o.dnskeys.clone())
    }

    /// Probe the signal name for (zone, ns): resolve its CDS, validate
    /// its chain, and check for zone cuts on the signal path.
    fn probe_signal(&self, probe: &mut Probe, zone: &Name, ns: &Name) -> SignalObservation {
        let mut obs = SignalObservation {
            ns_name: ns.clone(),
            name_unbuildable: false,
            cds: Vec::new(),
            dnssec_valid: None,
            zone_cut: false,
        };
        let Ok(signame) = signal_name(zone, ns) else {
            obs.name_unbuildable = true;
            return obs;
        };
        let res = match self.resolver.resolve_at_with(
            Some(&probe.meter),
            probe.clock,
            &signame,
            RecordType::Cds,
        ) {
            Ok(r) => r,
            Err(ResolverError::Hostile(c)) => {
                // An adversary answering for the signal name (alias
                // loops, referral games) is a hostile casualty of this
                // zone's scan — named, and degrading.
                probe.stats.record(ScanError::Hostile(c));
                return obs;
            }
            Err(_) => return obs,
        };
        probe.clock += res.elapsed;
        probe.queries += res.queries;
        for r in &res.answers {
            match &r.rdata {
                RData::Cds(d) => obs.cds.push(CdsSeen::from_ds(d)),
                RData::Cdnskey(k) => obs.cds.push(CdsSeen::from_dnskey(k)),
                _ => {}
            }
        }
        // CDNSKEY at the same name.
        if let Ok(res2) = self.resolver.resolve_at_with(
            Some(&probe.meter),
            probe.clock,
            &signame,
            RecordType::Cdnskey,
        ) {
            probe.clock += res2.elapsed;
            probe.queries += res2.queries;
            for r in &res2.answers {
                if let RData::Cdnskey(k) = &r.rdata {
                    obs.cds.push(CdsSeen::from_dnskey(k));
                }
            }
        }
        obs.cds.sort();
        obs.cds.dedup();
        obs.cds.shrink_to_fit();
        // Zone-cut probe runs regardless of whether signal records were
        // found: the parked-typo-NS case (§4.4) answers CDS queries with
        // nothing while faking NS RRsets at every label.
        obs.zone_cut = self.detect_zone_cut(probe, &res.zone_apex, &signame, &res.zone_servers);
        if obs.cds.is_empty() {
            return obs;
        }
        // Chain validation of the signal records.
        let chain = self.validate_chain_to_parent(probe, &res);
        let valid = match chain {
            ChainStatus::DsPresent(ds) => {
                // Validate the answering zone's keys and the CDS RRsets.
                let keys = self.validated_keys(probe, &res.zone_apex, &res.zone_servers, &ds);
                match keys {
                    Some(keys) => self.signal_rrsets_valid(&res, &keys),
                    None => false,
                }
            }
            _ => false, // unsigned or broken chain → signal not authenticated
        };
        obs.dnssec_valid = Some(valid);
        obs
    }

    fn signal_rrsets_valid(&self, res: &Resolution, keys: &[DnskeyData]) -> bool {
        let rrsigs: Vec<RrsigData> = res
            .answers
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::Rrsig(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        for set in RrSet::group(&res.answers) {
            if matches!(set.rtype, RecordType::Cds | RecordType::Cdnskey)
                && verify_rrset_with_keys(&set, &rrsigs, keys, self.now).is_err()
            {
                return false;
            }
        }
        true
    }

    /// Probe for NS RRsets between the zone apex and the signal name.
    fn detect_zone_cut(
        &self,
        probe: &mut Probe,
        zone_apex: &Name,
        signame: &Name,
        servers: &[Addr],
    ) -> bool {
        let mut cursor = signame.parent();
        while let Some(p) = cursor {
            if !p.is_strict_subdomain_of(zone_apex) {
                break;
            }
            for &addr in servers {
                if let Some(msg) = self.query(probe, addr, &p, RecordType::Ns) {
                    if msg.rcode() == Rcode::NoError {
                        let has_ns = msg
                            .answers
                            .iter()
                            .any(|r| r.rtype() == RecordType::Ns && r.name == p);
                        if has_ns {
                            return true;
                        }
                    }
                    break;
                }
            }
            cursor = p.parent();
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
            let mut scratch = WorkerScratch::new();
            'passes: for pass in 1..=RESCAN_PASSES {
                let pending: Vec<usize> = zones
                    .iter()
                    .enumerate()
                    .filter(|(_, z)| {
                        (z.degraded || z.dnssec == DnssecClass::Indeterminate)
                            && z.retry_stats.rescans < pass
                    })
                    .map(|(i, _)| i)
                    .collect();
                if pending.is_empty() {
                    break;
                }
                for i in pending {
                    let (mut fresh, effects) =
                        self.scan_zone_pass(&mut scratch, &zones[i].name, pass);
                    let duration_delta = fresh.elapsed;
                    simulated_duration += duration_delta;
                    let old = &zones[i];
                    let rescans = old.retry_stats.rescans + 1;
                    let mut kept = if Self::evidence_rank(&fresh) < Self::evidence_rank(old) {
                        fresh.queries += old.queries;
                        Self::accumulate_io(&mut fresh.retry_stats, &old.retry_stats);
                        fresh
                    } else {
                        let mut kept = old.clone();
                        kept.queries += fresh.queries;
                        Self::accumulate_io(&mut kept.retry_stats, &fresh.retry_stats);
                        kept
                    };
                    kept.retry_stats.rescans = rescans;
                    if let Some(sink) = sink {
                        let event = ZoneEvent {
                            pass,
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
        let mut scratch = WorkerScratch::new();
        while let Some(zone) = seeds.get(next.fetch_add(1, Ordering::Relaxed)) {
            if completed.contains(zone) {
                continue;
            }
            let (scan, effects) = self.scan_zone_pass(&mut scratch, zone, 0);
            elapsed += scan.elapsed;
            let Some(sink) = sink else {
                zones.lock().push(scan);
                continue;
            };
            let event = ZoneEvent {
                pass: 0,
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

    /// Budget counters are cumulative across re-scan passes, whichever
    /// result is kept: the wire traffic happened either way.
    fn accumulate_io(into: &mut RetryStats, other: &RetryStats) {
        into.datagrams += other.datagrams;
        into.tcp_fallbacks += other.tcp_fallbacks;
        into.bytes_sent += other.bytes_sent;
        into.bytes_received += other.bytes_received;
    }

    /// Seed the shared caches with one zone event's inserts, in the
    /// order the scan made them, each valid until `expires_at` on this
    /// scanner's virtual clock. The one walk over key / address /
    /// referral inserts: journal replay (`Recovery::apply_to`) and epoch
    /// carry-over (`CarryLedger::seed_into`) differ only in the expiry
    /// they pass. Every cache entry shares the effects' `Arc` — nothing
    /// is deep-cloned per seed.
    pub fn seed_effects(&self, effects: &ZoneEffects, expires_at: SimMicros) {
        for (zone, keys) in &effects.key_inserts {
            self.key_cache
                .insert_tagged(zone.clone(), Arc::clone(keys), zone.clone(), expires_at);
        }
        for (ns, addrs) in &effects.addr_inserts {
            self.resolver
                .seed_address(ns.clone(), Arc::clone(addrs), None, expires_at);
        }
        for (cut, data) in &effects.referral_inserts {
            self.resolver
                .seed_referral(cut.clone(), Arc::clone(data), None, expires_at);
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
        self.zones.iter().filter(|z| {
            !matches!(
                z.dnssec,
                DnssecClass::Unresolvable | DnssecClass::Indeterminate
            )
        })
    }

    /// Zones whose scan was degraded by transient failures (including
    /// those that still reached a classification).
    pub fn degraded(&self) -> impl Iterator<Item = &ZoneScan> {
        self.zones
            .iter()
            .filter(|z| z.degraded || z.dnssec == DnssecClass::Indeterminate)
    }
}

// Security is re-exported so downstream users need not depend on
// dns-resolver directly.
pub use dns_resolver::validate::Security as ResolverSecurity;
