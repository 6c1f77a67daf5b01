//! One authoritative exchange: query a specific server address.
//!
//! The client distinguishes *why* an exchange failed ([`ClientErrorKind`])
//! and reports the exact virtual time and datagram count the failure cost,
//! so callers charge real elapsed time instead of a guess. An optional
//! [`RetryPolicy`] re-sends timed-out or malformed exchanges with
//! exponential backoff and deterministic jitter.

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

use crate::cachelog::{CacheInsert, CacheLog};
use crate::hostile::{HostileCause, RetryStats};
use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_wire::record::RecordType;
use netsim::{Addr, DeterministicDraw, NetError, Network, SimMicros, Transport};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// The result of one logical query (possibly UDP + TCP retry).
#[derive(Debug, Clone)]
pub struct Exchange {
    pub message: Message,
    /// Virtual time spent, including retries and the TCP fallback.
    pub elapsed: SimMicros,
    /// Datagrams sent (UDP attempts + TCP attempts).
    pub attempts: u32,
    /// How many whole-exchange retries the [`RetryPolicy`] spent before
    /// this answer arrived (0 = first try succeeded).
    pub retries: u32,
}

/// Why a logical query failed, after all configured retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientErrorKind {
    /// Nothing is bound at the address; no datagram was ever sent.
    Unreachable,
    /// Every attempt timed out (loss, black-hole, outage).
    Timeout,
    /// A reply arrived but did not parse as a DNS message.
    Malformed,
    /// A reply parsed but failed the acceptance gate (wrong ID, QNAME or
    /// QTYPE, or not a response at all) on every attempt. Retried like
    /// `Malformed` — the mismatch may be a one-off injection.
    Rejected,
    /// The meter's per-zone work budget was exhausted before the query
    /// was sent; no datagram left, the failure costs nothing.
    BudgetExceeded,
}

/// A failed logical query, with exact cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientError {
    pub kind: ClientErrorKind,
    /// Virtual time burned across all attempts and backoff waits.
    pub elapsed: SimMicros,
    /// Datagrams sent across all attempts.
    pub attempts: u32,
    /// Whole-exchange retries performed (0 = failed on the first try).
    pub retries: u32,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} after {} attempt(s), {} retry(ies), {} µs",
            self.kind, self.attempts, self.retries, self.elapsed
        )
    }
}

impl std::error::Error for ClientError {}

/// Whole-exchange retry schedule: how many times to re-send a timed-out or
/// malformed query, and how long to wait in between.
///
/// The wait before retry `r` (1-based) is `backoff_base * 2^(r-1)` plus a
/// deterministic jitter in `[0, wait/2)` drawn from `(seed, query id, r)`,
/// so identical runs back off identically. `Unreachable` is never retried
/// — no server will appear mid-scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra tries after the first (0 disables retrying).
    pub retries: u32,
    /// Base wait in virtual µs before the first retry; doubles each time.
    pub backoff_base: SimMicros,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retrying at all: fail on the first bad exchange.
    pub const NONE: RetryPolicy = RetryPolicy {
        retries: 0,
        backoff_base: 0,
        seed: 0,
    };

    /// The backoff wait before retry `retry` (1-based) of query `id`.
    pub fn backoff(&self, id: u16, retry: u32) -> SimMicros {
        if retry == 0 || self.backoff_base == 0 {
            return 0;
        }
        let base = self.backoff_base << (retry - 1).min(10);
        let jitter_span = (base / 2).max(1);
        let jitter = DeterministicDraw::new(
            self.seed ^ 0x0bac_0ff5,
            &[&id.to_be_bytes(), &retry.to_be_bytes()],
        )
        .below(jitter_span);
        base + jitter
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::NONE
    }
}

/// The wire counters of a [`QueryMeter`]'s [`RetryStats`], widened:
/// what [`QueryMeter::io`] returns. Nothing stores one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// [`RetryStats::datagrams`].
    pub datagrams: u64,
    /// [`RetryStats::bytes_sent`].
    pub bytes_sent: u64,
    /// [`RetryStats::bytes_received`].
    pub bytes_received: u64,
    /// [`RetryStats::tcp_fallbacks`].
    pub tcp_fallbacks: u64,
}

/// What identifies a logical query within a scope: (server, qname-hash,
/// qtype).
type QueryCoords = (Addr, u64, u16);

/// Per-scope accounting for a group of logical queries.
///
/// The scanner creates one meter per zone so every datagram and byte —
/// including TCP-fallback retransmissions after truncation and the cost
/// of exchanges that ultimately *failed* — is charged to exactly one
/// zone's budget. The meter holds the zone's one [`RetryStats`], and
/// every layer counts straight into it: the client its wire traffic and
/// logical queries, the resolver its hostile detections and failed
/// NS-address lookups, the scanner its breaker skips, SERVFAILs,
/// retries and failures. The scanner's sealed scan takes the record as
/// it stands. The meter also owns the query-ID derivation for its
/// scope: an ID is a pure function of the meter's seed and the query's
/// (server, qname, qtype, occurrence) coordinates, so two zones' wire
/// traffic is independent of scan order, and — crucially for the
/// delegation cache — a query's payload does not change when *other*
/// queries in the same scope are elided by a cache hit. Every query goes
/// out under a meter: the client keeps no ID state of its own.
///
/// The meter also collects the [`CacheLog`] of shared-cache inserts
/// performed on its behalf (resolver and scanner caches alike), so the
/// scanner can journal each zone's exact cache side effects even when
/// workers share the caches.
///
/// A meter belongs to one zone scan on one lane, so it is `!Sync` by
/// construction: `&self` methods update `Cell`s, and no `RefCell` borrow
/// outlives the statement that takes it.
#[derive(Debug)]
pub struct QueryMeter {
    /// Seed for the per-query ID derivation.
    id_seed: u64,
    /// [`QueryCoords`] → how many logical queries with those
    /// coordinates have drawn an ID so far. The occurrence number keeps
    /// repeat queries (health re-probes, CNAME re-walks) distinct while
    /// staying independent of anything *between* them. A zone issues a
    /// few dozen queries, so this is a short list scanned linearly.
    issued: RefCell<Vec<(QueryCoords, u32)>>,
    /// Shared-cache inserts made while working under this meter.
    cache_log: RefCell<CacheLog>,
    /// Hard cap on logical queries (each `query_at_with` call, before
    /// netsim retries fan out into datagrams); 0 = unlimited. Once
    /// reached, further queries fail instantly with
    /// [`ClientErrorKind::BudgetExceeded`] — this is the amplification
    /// cap.
    budget: u64,
    /// The scope's counter record.
    stats: Cell<RetryStats>,
}

impl QueryMeter {
    /// A fresh meter deriving its query IDs from `id_seed`, no budget.
    pub fn new(id_seed: u64) -> Self {
        QueryMeter::with_budget(id_seed, 0)
    }

    /// A fresh meter with a logical-query budget (0 = unlimited).
    pub fn with_budget(id_seed: u64, budget: u64) -> Self {
        QueryMeter {
            id_seed,
            // Sized for a typical zone so the list never regrows mid-scan.
            issued: RefCell::new(Vec::with_capacity(32)),
            cache_log: RefCell::default(),
            budget,
            stats: Cell::default(),
        }
    }

    /// The meter of a call that brings none — a
    /// [`resolve_at_with`](crate::Resolver::resolve_at_with) given `None`
    /// and every [`validate_resolution`](crate::validate_resolution): a
    /// fixed seed and no budget, so such a call sends the same datagrams
    /// whatever the client sent before.
    pub(crate) fn detached() -> Self {
        QueryMeter::new(0)
    }

    /// The ID for one logical query: a deterministic function of the
    /// meter seed and (server, qname, qtype, occurrence). Eliding a query
    /// elsewhere in the scope (a delegation-cache hit skipping the
    /// root/TLD hops) therefore never shifts the IDs — and hence the wire
    /// payloads — of the queries that do go out.
    pub fn id_for(&self, server: Addr, qname: &Name, qtype: RecordType) -> u16 {
        let occurrence = {
            let key = (server, qname.fnv64(), qtype.code());
            let mut issued = self.issued.borrow_mut();
            match issued.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => {
                    *n += 1;
                    *n
                }
                None => {
                    issued.push((key, 1));
                    1
                }
            }
        };
        DeterministicDraw::new(
            self.id_seed ^ 0x1d5e_ed00,
            &[
                &server.to_bytes(),
                &qname.fnv64().to_be_bytes(),
                &qtype.code().to_be_bytes(),
                &occurrence.to_be_bytes(),
            ],
        )
        .below(0x1_0000) as u16
    }

    /// Record a shared-cache insert made on this meter's behalf.
    pub fn log_insert(&self, key: Name, insert: CacheInsert) {
        self.cache_log.borrow_mut().push((key, insert));
    }

    /// Take the cache-insert log accumulated so far, leaving it empty.
    pub fn take_cache_log(&self) -> CacheLog {
        self.cache_log.take()
    }

    /// The configured logical-query budget (0 = unlimited).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Logical queries begun so far.
    pub fn logical_queries(&self) -> u64 {
        u64::from(self.stats.get().logical_queries)
    }

    /// Charge one logical query against the budget. `false` means the
    /// budget is exhausted (the exceed event is tallied once per refusal).
    fn begin_query(&self) -> bool {
        if self.budget != 0 && self.logical_queries() >= self.budget {
            self.note_hostile(HostileCause::BudgetExceeded);
            return false;
        }
        self.tally(|s| s.logical_queries += 1);
        true
    }

    /// Update the counter record in place.
    pub fn tally(&self, update: impl FnOnce(&mut RetryStats)) {
        let mut stats = self.stats.get();
        update(&mut stats);
        self.stats.set(stats);
    }

    /// Tally a hostile event observed while working under this meter.
    pub fn note_hostile(&self, cause: HostileCause) {
        self.tally(|s| s.note_hostile(cause));
    }

    /// The counter record as it stands.
    pub fn stats(&self) -> RetryStats {
        self.stats.get()
    }

    /// The record's wire counters so far.
    pub fn io(&self) -> IoCounters {
        let s = self.stats.get();
        IoCounters {
            datagrams: u64::from(s.datagrams),
            bytes_sent: u64::from(s.bytes_sent),
            bytes_received: u64::from(s.bytes_received),
            tcp_fallbacks: u64::from(s.tcp_fallbacks),
        }
    }
}

/// A thin client over the simulated network.
///
/// Stateless: every query's ID and cost belong to the caller's
/// [`QueryMeter`], so one client is shared freely across scanner workers
/// via `Arc`, and what it sends never depends on what it sent before.
pub struct DnsClient {
    net: Arc<Network>,
    retry: RetryPolicy,
}

impl DnsClient {
    pub fn new(net: Arc<Network>) -> Self {
        DnsClient::with_retry(net, RetryPolicy::NONE)
    }

    /// Same client, but retrying per `policy`.
    pub fn with_retry(net: Arc<Network>, policy: RetryPolicy) -> Self {
        DnsClient { net, retry: policy }
    }

    /// The underlying network (for stats access).
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Send (qname, qtype) to `server` at virtual time `now`, so
    /// time-windowed faults and outages see when each attempt really
    /// lands, and follow truncation over TCP. The ID is `meter`'s, and
    /// every path charges its datagrams and bytes to `meter` — success,
    /// unreachable and exhausted-retry failures alike — so no wire
    /// traffic escapes the caller's budget.
    pub fn query_at_with(
        &self,
        meter: &QueryMeter,
        now: SimMicros,
        server: Addr,
        qname: &Name,
        qtype: RecordType,
        dnssec_ok: bool,
    ) -> Result<Exchange, ClientError> {
        // The amplification cap: once a zone's budget is gone, no
        // further datagram leaves on its behalf.
        if !meter.begin_query() {
            return Err(ClientError {
                kind: ClientErrorKind::BudgetExceeded,
                elapsed: 0,
                attempts: 0,
                retries: 0,
            });
        }
        let id = meter.id_for(server, qname, qtype);
        let q = Message::query(id, qname.clone(), qtype, dnssec_ok);
        let bytes = q.to_bytes();
        let wire_len = bytes.len() as u32;
        let mut elapsed: SimMicros = 0;
        let mut attempts: u32 = 0;
        let mut bytes_received: u32 = 0;
        let mut tcp_fallbacks: u32 = 0;
        let mut kind = ClientErrorKind::Timeout;
        let mut outcome: Option<Result<Exchange, ClientError>> = None;
        for retry in 0..=self.retry.retries {
            elapsed += self.retry.backoff(id, retry);
            match self.exchange_once(now + elapsed, server, &q, &bytes) {
                Ok(once) => {
                    attempts += once.cost.attempts;
                    bytes_received += once.cost.bytes_received;
                    tcp_fallbacks += u32::from(once.cost.used_tcp);
                    if once.foreign > 0 {
                        meter.note_hostile(HostileCause::ForeignRecords);
                    }
                    outcome = Some(Ok(Exchange {
                        message: once.message,
                        elapsed: elapsed + once.cost.elapsed,
                        attempts,
                        retries: retry,
                    }));
                    break;
                }
                Err(once) => {
                    elapsed += once.cost.elapsed;
                    attempts += once.cost.attempts;
                    bytes_received += once.cost.bytes_received;
                    tcp_fallbacks += u32::from(once.cost.used_tcp);
                    kind = once.kind;
                    // No server will appear mid-scan: don't retry.
                    if once.kind == ClientErrorKind::Unreachable {
                        outcome = Some(Err(ClientError {
                            kind: once.kind,
                            elapsed,
                            attempts,
                            retries: retry,
                        }));
                        break;
                    }
                }
            }
        }
        let outcome = outcome.unwrap_or(Err(ClientError {
            kind,
            elapsed,
            attempts,
            retries: self.retry.retries,
        }));
        if outcome
            .as_ref()
            .is_err_and(|e| e.kind == ClientErrorKind::Rejected)
        {
            meter.note_hostile(HostileCause::MismatchedReply);
        }
        // Every attempt re-sends the same payload, the TCP fallback's
        // included.
        meter.tally(|s| {
            s.datagrams += attempts;
            s.bytes_sent += attempts * wire_len;
            s.bytes_received += bytes_received;
            s.tcp_fallbacks += tcp_fallbacks;
        });
        outcome
    }

    /// One UDP exchange plus the TC=1 → TCP fallback, no retrying.
    fn exchange_once(
        &self,
        at: SimMicros,
        server: Addr,
        query: &Message,
        bytes: &[u8],
    ) -> Result<OnceOk, OnceErr> {
        let mut cost = OnceCost::default();
        let (message, foreign) =
            match self.exchange_leg(at, server, query, bytes, Transport::Udp, &mut cost) {
                Ok(accepted) => accepted,
                Err(kind) => return Err(OnceErr { kind, cost }),
            };
        if !message.header.flags.truncated {
            return Ok(OnceOk {
                message,
                foreign,
                cost,
            });
        }
        // TC=1 → retry the same question over TCP. The truncated UDP
        // reply already cost its bytes, and the TCP attempts cost theirs
        // whether or not the fallback ultimately succeeds.
        cost.used_tcp = true;
        match self.exchange_leg(at, server, query, bytes, Transport::Tcp, &mut cost) {
            Ok((message, more)) => Ok(OnceOk {
                message,
                foreign: foreign + more,
                cost,
            }),
            Err(kind) => Err(OnceErr { kind, cost }),
        }
    }

    /// One leg of an exchange: send `bytes` over `transport` once the
    /// legs before it are paid for (`at + cost.elapsed`), decode the
    /// reply and pass it through the acceptance gate. Whatever the leg
    /// spent is added to `cost` whether or not it succeeds — a lost
    /// datagram still cost its attempts, a malformed or rejected reply
    /// still crossed the wire. Returns the accepted message and the
    /// number of foreign records the gate stripped.
    fn exchange_leg(
        &self,
        at: SimMicros,
        server: Addr,
        query: &Message,
        bytes: &[u8],
        transport: Transport,
        cost: &mut OnceCost,
    ) -> Result<(Message, u32), ClientErrorKind> {
        let sent = self
            .net
            .query_at(at + cost.elapsed, server, bytes, transport);
        let (elapsed, attempts) = match &sent {
            Ok(o) => (o.elapsed, o.attempts),
            Err(f) => (f.elapsed, f.attempts),
        };
        cost.elapsed += elapsed;
        cost.attempts += attempts;
        let reply = sent.map_err(|f| kind_of(f.error))?.reply;
        cost.bytes_received += reply.len() as u32;
        let mut message = Message::from_bytes(&reply).map_err(|_| ClientErrorKind::Malformed)?;
        let foreign = accept_reply(query, &mut message).map_err(|()| ClientErrorKind::Rejected)?;
        Ok((message, foreign))
    }
}

/// The response-acceptance gate: a reply is only believed when it is a
/// response to the question we actually asked — QR set, same ID, exactly
/// the echoed question (QNAME + QTYPE). Anything else is `Err(())` →
/// [`ClientErrorKind::Rejected`].
///
/// Accepted replies are additionally scrubbed: answer-section records not
/// owned by the QNAME are stripped before the message reaches any cache or
/// classifier (authoritative servers answer at the name asked; off-name
/// answer records are injection, and an in-zone CNAME chase re-queries the
/// target under its own QNAME). Returns the number of stripped records.
fn accept_reply(query: &Message, reply: &mut Message) -> Result<u32, ()> {
    if !reply.header.flags.response || reply.header.id != query.header.id {
        return Err(());
    }
    let q = match query.questions.first() {
        Some(q) => q,
        None => return Err(()),
    };
    let rq = match reply.questions.first() {
        Some(rq) => rq,
        None => return Err(()),
    };
    if reply.questions.len() != 1 || rq.name != q.name || rq.rtype != q.rtype {
        return Err(());
    }
    let before = reply.answers.len();
    reply.answers.retain(|r| r.name == q.name);
    Ok((before - reply.answers.len()) as u32)
}

/// What one UDP(+TCP) exchange cost, before retry accounting.
#[derive(Default)]
struct OnceCost {
    elapsed: SimMicros,
    attempts: u32,
    bytes_received: u32,
    used_tcp: bool,
}

/// One successful UDP(+TCP) exchange.
struct OnceOk {
    message: Message,
    /// Foreign answer records stripped by the acceptance gate.
    foreign: u32,
    cost: OnceCost,
}

/// One failed UDP(+TCP) exchange.
struct OnceErr {
    kind: ClientErrorKind,
    cost: OnceCost,
}

fn kind_of(e: NetError) -> ClientErrorKind {
    match e {
        NetError::Unreachable => ClientErrorKind::Unreachable,
        NetError::Timeout => ClientErrorKind::Timeout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_server::{AuthServer, ZoneStore};
    use dns_wire::name;
    use dns_wire::rdata::{RData, SoaData};
    use dns_wire::record::Record;
    use dns_zone::Zone;
    use netsim::{FaultKind, FaultPlan, FaultScope, FaultSpec, Window};
    use std::net::Ipv4Addr;

    fn setup() -> (Arc<Network>, Addr) {
        let net = Arc::new(Network::new(1));
        let apex = name!("t.test");
        let mut z = Zone::new(apex.clone());
        z.add(Record::new(
            apex.clone(),
            300,
            RData::Soa(SoaData {
                mname: name!("ns1.t.test"),
                rname: name!("h.t.test"),
                serial: 1,
                refresh: 1,
                retry: 1,
                expire: 1,
                minimum: 300,
            }),
        ));
        for i in 0..15 {
            z.add(Record::new(
                apex.clone(),
                300,
                RData::Txt(vec![vec![b'a' + i; 180]]),
            ));
        }
        z.add(Record::new(
            name!("www.t.test"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let store = Arc::new(ZoneStore::new());
        store.insert(z);
        let sid = net.register(AuthServer::new(store));
        let addr = Addr::V4(Ipv4Addr::new(192, 0, 2, 53));
        net.bind_simple(addr, sid);
        (net, addr)
    }

    /// One query under a fresh meter, starting at virtual time 0.
    fn ask(
        c: &DnsClient,
        server: Addr,
        qname: &Name,
        qtype: RecordType,
    ) -> Result<Exchange, ClientError> {
        c.query_at_with(&QueryMeter::new(0), 0, server, qname, qtype, true)
    }

    /// The wire length of a query for (qname, qtype): every attempt,
    /// UDP or TCP, re-sends this many bytes.
    fn query_len(qname: &Name, qtype: RecordType) -> u64 {
        Message::query(0, qname.clone(), qtype, true)
            .to_bytes()
            .len() as u64
    }

    #[test]
    fn simple_query() {
        let (net, addr) = setup();
        let c = DnsClient::new(Arc::clone(&net));
        let ex = ask(&c, addr, &name!("www.t.test"), RecordType::A).unwrap();
        // One datagram: no TCP fallback followed.
        assert_eq!(net.stats().snapshot().queries, 1);
        assert_eq!(ex.retries, 0);
        assert_eq!(ex.message.answers_of(RecordType::A).len(), 1);
        assert!(ex.elapsed > 0);
    }

    #[test]
    fn truncation_falls_back_to_tcp() {
        let (net, addr) = setup();
        let c = DnsClient::new(Arc::clone(&net));
        let ex = ask(&c, addr, &name!("t.test"), RecordType::Txt).unwrap();
        // The truncated UDP reply, then the TCP one.
        assert_eq!(net.stats().snapshot().replies, 2);
        assert_eq!(ex.message.answers_of(RecordType::Txt).len(), 15);
        assert!(ex.attempts >= 2);
    }

    #[test]
    fn unreachable_propagates_with_zero_cost() {
        let (net, _) = setup();
        let c = DnsClient::new(net);
        let err = ask(
            &c,
            Addr::V4(Ipv4Addr::new(203, 0, 113, 1)),
            &name!("x.test"),
            RecordType::A,
        )
        .unwrap_err();
        assert_eq!(err.kind, ClientErrorKind::Unreachable);
        assert_eq!(err.elapsed, 0);
        assert_eq!(err.attempts, 0);
        assert_eq!(err.retries, 0);
    }

    #[test]
    fn unreachable_is_never_retried() {
        let (net, _) = setup();
        let c = DnsClient::with_retry(
            net,
            RetryPolicy {
                retries: 3,
                backoff_base: 100_000,
                seed: 5,
            },
        );
        let err = ask(
            &c,
            Addr::V4(Ipv4Addr::new(203, 0, 113, 1)),
            &name!("x.test"),
            RecordType::A,
        )
        .unwrap_err();
        assert_eq!(err.kind, ClientErrorKind::Unreachable);
        assert_eq!(err.retries, 0);
        assert_eq!(err.elapsed, 0);
    }

    /// A black-hole covering exactly the first logical exchange: without
    /// retries the query dies; with retries the backoff pushes the second
    /// exchange past the outage and it succeeds.
    fn outage_plan(addr: Addr) -> FaultPlan {
        FaultPlan::new(0).with(FaultSpec {
            scope: FaultScope::to_addr(addr),
            window: Window::Interval {
                start: 0,
                end: 6_000_000,
            },
            kind: FaultKind::BlackHole,
        })
    }

    #[test]
    fn timeout_without_retry_reports_exact_cost() {
        let (net, addr) = setup();
        net.set_faults(outage_plan(addr));
        let c = DnsClient::new(Arc::clone(&net));
        let err = ask(&c, addr, &name!("www.t.test"), RecordType::A).unwrap_err();
        assert_eq!(err.kind, ClientErrorKind::Timeout);
        assert_eq!(err.retries, 0);
        assert_eq!(err.attempts, 3);
        assert_eq!(err.elapsed, 3 * 2_000_000);
    }

    #[test]
    fn retry_recovers_after_transient_outage() {
        let (net, addr) = setup();
        net.set_faults(outage_plan(addr));
        let c = DnsClient::with_retry(
            Arc::clone(&net),
            RetryPolicy {
                retries: 2,
                backoff_base: 500_000,
                seed: 7,
            },
        );
        let ex = ask(&c, addr, &name!("www.t.test"), RecordType::A).unwrap();
        // First exchange burns 3 attempts inside the outage; the backoff
        // lands the second exchange after it ends.
        assert_eq!(ex.retries, 1);
        assert_eq!(ex.attempts, 4);
        assert!(ex.elapsed > 3 * 2_000_000);
        assert_eq!(ex.message.answers_of(RecordType::A).len(), 1);
    }

    #[test]
    fn backoff_is_exponential_and_deterministic() {
        let p = RetryPolicy {
            retries: 4,
            backoff_base: 100_000,
            seed: 42,
        };
        assert_eq!(p.backoff(9, 0), 0);
        for r in 1..=4u32 {
            let base = 100_000u64 << (r - 1);
            let w = p.backoff(9, r);
            assert!(w >= base && w < base + base / 2, "retry {r}: {w}");
            assert_eq!(w, p.backoff(9, r), "jitter must be deterministic");
        }
        // Different query ids jitter differently somewhere.
        assert!((0..50u16).any(|id| p.backoff(id, 1) != p.backoff(id + 50, 1)));
        assert_eq!(RetryPolicy::NONE.backoff(1, 1), 0);
    }

    #[test]
    fn tcp_fallback_bytes_count_against_the_meter() {
        // The truncated TXT query is the budget-accounting regression:
        // the TCP retransmission after TC=1 must be charged to the meter
        // exactly like the UDP attempts, byte for byte.
        let (net, addr) = setup();
        let c = DnsClient::new(Arc::clone(&net));
        let meter = QueryMeter::new(900);
        let ex = c
            .query_at_with(&meter, 0, addr, &name!("t.test"), RecordType::Txt, true)
            .unwrap();
        assert!(ex.attempts >= 2);
        let io = meter.io();
        assert_eq!(io.datagrams, u64::from(ex.attempts));
        assert_eq!(io.tcp_fallbacks, 1);
        assert_eq!(
            io.bytes_sent,
            u64::from(ex.attempts) * query_len(&name!("t.test"), RecordType::Txt)
        );
        // The TXT payloads alone are 15 × 180 bytes: the TCP reply was
        // counted, not only the truncated UDP one.
        assert!(io.bytes_received > 15 * 180, "{io:?}");
        // Exact conservation: the client-side meter equals the wire-level
        // totals the network itself recorded — nothing double-counted,
        // nothing escaped.
        let snap = net.stats().snapshot();
        assert_eq!(snap.replies, 2, "the truncated UDP reply, then the TCP one");
        assert_eq!(io.datagrams, snap.queries);
        assert_eq!(io.bytes_sent, snap.bytes_sent);
        assert_eq!(io.bytes_received, snap.bytes_received);
    }

    #[test]
    fn metered_failures_still_charge_the_budget() {
        // Attempts burned by a timed-out exchange are charged too.
        let (net, addr) = setup();
        net.set_faults(outage_plan(addr));
        let c = DnsClient::new(Arc::clone(&net));
        let meter = QueryMeter::new(1);
        let err = c
            .query_at_with(&meter, 0, addr, &name!("www.t.test"), RecordType::A, true)
            .unwrap_err();
        assert_eq!(err.kind, ClientErrorKind::Timeout);
        let io = meter.io();
        assert_eq!(io.datagrams, u64::from(err.attempts));
        assert_eq!(
            io.bytes_sent,
            u64::from(err.attempts) * query_len(&name!("www.t.test"), RecordType::A)
        );
        assert_eq!(io.bytes_received, 0);
        let snap = net.stats().snapshot();
        assert_eq!(io.datagrams, snap.queries);
        assert_eq!(io.bytes_sent, snap.bytes_sent);

        // …while an unreachable address costs exactly nothing.
        let meter2 = QueryMeter::new(1);
        let err = c
            .query_at_with(
                &meter2,
                0,
                Addr::V4(Ipv4Addr::new(203, 0, 113, 9)),
                &name!("www.t.test"),
                RecordType::A,
                true,
            )
            .unwrap_err();
        assert_eq!(err.kind, ClientErrorKind::Unreachable);
        assert_eq!(meter2.io(), IoCounters::default());
    }

    #[test]
    fn derived_ids_are_stable_coordinates_not_a_sequence() {
        let q = name!("www.t.test");
        let a1 = Addr::V4(Ipv4Addr::new(192, 0, 2, 53));
        let a2 = Addr::V4(Ipv4Addr::new(192, 0, 2, 54));
        let m = QueryMeter::new(7);
        let first = m.id_for(a1, &q, RecordType::A);
        let other_dst = m.id_for(a2, &q, RecordType::A);
        let repeat = m.id_for(a1, &q, RecordType::A);
        // Re-asking the same question draws a fresh occurrence number.
        assert_ne!(first, repeat);
        // A different server's ID stream is independent: asking it did
        // not shift the repeat above, and eliding it entirely leaves the
        // first-server IDs untouched.
        let n = QueryMeter::new(7);
        assert_eq!(n.id_for(a1, &q, RecordType::A), first);
        assert_eq!(n.id_for(a1, &q, RecordType::A), repeat);
        let _ = other_dst;
    }

    #[test]
    fn retried_runs_are_reproducible() {
        let run = || {
            let (net, addr) = setup();
            net.set_faults(outage_plan(addr));
            let c = DnsClient::with_retry(
                Arc::clone(&net),
                RetryPolicy {
                    retries: 2,
                    backoff_base: 500_000,
                    seed: 7,
                },
            );
            let ex = ask(&c, addr, &name!("www.t.test"), RecordType::A).unwrap();
            (ex.elapsed, ex.attempts, ex.retries)
        };
        assert_eq!(run(), run());
    }
}
