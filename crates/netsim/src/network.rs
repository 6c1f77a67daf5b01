//! The network: address bindings, server pools, impairments, exchanges.

use crate::accounting::NetStats;
use crate::faults::{craft_rcode_reply, FaultPlan, ReplyOverride};
use crate::rng::DeterministicDraw;
use crate::SimMicros;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A simulated network address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    V4(Ipv4Addr),
    V6(Ipv6Addr),
}

/// An address's octets (4 or 16), held inline.
#[derive(Debug, Clone, Copy)]
pub struct AddrBytes([u8; 16], usize);

impl std::ops::Deref for AddrBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0[..self.1]
    }
}

impl Addr {
    /// Stable byte representation for hashing into deterministic draws.
    pub fn to_bytes(self) -> AddrBytes {
        match self {
            Addr::V4(a) => {
                let mut buf = [0; 16];
                buf[..4].copy_from_slice(&a.octets());
                AddrBytes(buf, 4)
            }
            Addr::V6(a) => AddrBytes(a.octets(), 16),
        }
    }

    pub fn is_v6(self) -> bool {
        matches!(self, Addr::V6(_))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::V4(a) => write!(f, "{a}"),
            Addr::V6(a) => write!(f, "{a}"),
        }
    }
}

impl From<Ipv4Addr> for Addr {
    fn from(a: Ipv4Addr) -> Self {
        Addr::V4(a)
    }
}

impl From<Ipv6Addr> for Addr {
    fn from(a: Ipv6Addr) -> Self {
        Addr::V6(a)
    }
}

/// Transport for one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Datagram exchange; responses over the advertised payload ceiling
    /// must be truncated *by the server logic* (the network only carries
    /// bytes). One round trip.
    Udp,
    /// Reliable exchange; no size ceiling, costs an extra round trip for
    /// the handshake.
    Tcp,
}

/// What a server does with a datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerResponse {
    /// Respond with these bytes.
    Reply(Vec<u8>),
    /// Silently drop the query (the client will time out).
    Drop,
}

/// A byte-oriented server. DNS semantics live a layer up in `dns-server`;
/// the network only moves datagrams.
pub trait ServerHandler: Send + Sync {
    /// Handle a datagram sent to `dst` over `transport`.
    ///
    /// `backend` identifies which instance of an anycast pool the exchange
    /// reached (0-based), letting pools model per-instance transient
    /// failures. `now` is the virtual time the datagram arrives, so
    /// servers can model scheduled outages and time-windowed misbehaviour.
    fn handle(
        &self,
        query: &[u8],
        dst: Addr,
        transport: Transport,
        backend: u32,
        now: SimMicros,
    ) -> ServerResponse;
}

/// Identifier of a registered server (pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerId(pub u32);

/// Failure modes of an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// No server is bound to the address.
    Unreachable,
    /// Every attempt was lost (client gave up after its retry budget).
    Timeout,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unreachable => write!(f, "destination unreachable"),
            NetError::Timeout => write!(f, "query timed out"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result of a successful exchange.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub reply: Vec<u8>,
    /// Virtual time the exchange took, including lost-attempt timeouts.
    pub elapsed: SimMicros,
    /// Attempts used (1 = first try succeeded).
    pub attempts: u32,
}

/// A failed exchange, with exact accounting so callers can charge the
/// real virtual-time cost instead of a flat estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFailure {
    pub error: NetError,
    /// Virtual time burned before giving up (timeouts on every attempt).
    pub elapsed: SimMicros,
    /// Datagrams actually sent (0 for [`NetError::Unreachable`]).
    pub attempts: u32,
}

impl fmt::Display for QueryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} attempt(s), {} µs",
            self.error, self.attempts, self.elapsed
        )
    }
}

impl std::error::Error for QueryFailure {}

struct Binding {
    handler: Arc<dyn ServerHandler>,
    /// Datagrams sent to this address (the `NetStats` per-destination
    /// counter, shared so the send path touches no map).
    queries: Arc<AtomicU64>,
    /// Base round-trip latency for this address.
    base_rtt: SimMicros,
    /// Jitter ceiling added on top (uniform 0..jitter).
    jitter: SimMicros,
    /// Probability one attempt is lost.
    loss: f64,
    /// Number of backend instances behind this address (anycast pools
    /// spread exchanges across them deterministically).
    backends: u32,
}

struct Inner {
    bindings: HashMap<Addr, Arc<Binding>>,
    servers: Vec<Arc<dyn ServerHandler>>,
}

/// The simulated network. Cheap to clone-share via `Arc`; all methods take
/// `&self` and are thread-safe.
pub struct Network {
    seed: u64,
    /// Client retry budget per query (attempts, not retries).
    max_attempts: u32,
    /// Virtual time charged for a lost attempt before retrying.
    timeout: SimMicros,
    inner: RwLock<Inner>,
    /// Scheduled fault plan (empty by default — no impairments beyond the
    /// per-binding link profile).
    faults: RwLock<Arc<FaultPlan>>,
    stats: NetStats,
}

impl Network {
    /// A network with the given impairment seed and default client
    /// behaviour (3 attempts, 2 s virtual timeout per attempt).
    pub fn new(seed: u64) -> Self {
        Network {
            seed,
            max_attempts: 3,
            timeout: 2_000_000,
            inner: RwLock::new(Inner {
                bindings: HashMap::new(),
                servers: Vec::new(),
            }),
            faults: RwLock::new(Arc::new(FaultPlan::default())),
            stats: NetStats::default(),
        }
    }

    /// Install a fault plan (replacing any previous one).
    pub fn set_faults(&self, plan: FaultPlan) {
        *self.faults.write() = Arc::new(plan);
    }

    /// Remove all scheduled faults.
    pub fn clear_faults(&self) {
        *self.faults.write() = Arc::new(FaultPlan::default());
    }

    /// Every bound address, sorted (for building per-binding fault plans).
    pub fn bound_addrs(&self) -> Vec<Addr> {
        let mut addrs: Vec<Addr> = self.inner.read().bindings.keys().copied().collect();
        addrs.sort();
        addrs
    }

    /// Change the per-query attempt budget.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1);
        self.max_attempts = attempts;
        self
    }

    /// Register a server; bind addresses to it afterwards.
    pub fn register<S: ServerHandler + 'static>(&self, server: S) -> ServerId {
        let mut inner = self.inner.write();
        let id = ServerId(inner.servers.len() as u32);
        inner.servers.push(Arc::new(server));
        id
    }

    /// Bind `addr` to `server` with the given link profile.
    ///
    /// `backends` > 1 makes the address an anycast pool entrance.
    pub fn bind(
        &self,
        addr: Addr,
        server: ServerId,
        base_rtt: SimMicros,
        jitter: SimMicros,
        loss: f64,
        backends: u32,
    ) {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        assert!(backends >= 1);
        let mut inner = self.inner.write();
        let binding = Binding {
            handler: Arc::clone(&inner.servers[server.0 as usize]),
            queries: self.stats.dest_counter(addr),
            base_rtt,
            jitter,
            loss,
            backends,
        };
        inner.bindings.insert(addr, Arc::new(binding));
    }

    /// Put a handler in front of every bound address: `wrap` gets the
    /// address's current handler and returns the handler to serve it
    /// from now on. Link profiles and datagram counters stay as they
    /// are, and addresses bound later are not wrapped. For tests that
    /// record what servers receive, then forward to the handler given.
    pub fn wrap_handlers(
        &self,
        mut wrap: impl FnMut(Arc<dyn ServerHandler>) -> Arc<dyn ServerHandler>,
    ) {
        for binding in self.inner.write().bindings.values_mut() {
            *binding = Arc::new(Binding {
                handler: wrap(Arc::clone(&binding.handler)),
                queries: Arc::clone(&binding.queries),
                ..**binding
            });
        }
    }

    /// Convenience: bind with a clean 10 ms link.
    pub fn bind_simple(&self, addr: Addr, server: ServerId) {
        self.bind(addr, server, 10_000, 2_000, 0.0, 1);
    }

    /// Perform one request/response exchange starting at virtual time 0.
    ///
    /// Losses consume virtual timeout time and retry up to the attempt
    /// budget. The reply bytes are whatever the server handler produced —
    /// truncation and other DNS semantics belong to the caller.
    pub fn query(
        &self,
        dst: Addr,
        payload: &[u8],
        transport: Transport,
    ) -> Result<QueryOutcome, QueryFailure> {
        self.query_at(0, dst, payload, transport)
    }

    /// Perform one exchange starting at virtual time `now`.
    ///
    /// `now` anchors time-windowed faults (scheduled outages, flapping,
    /// bursts) and is forwarded to the server handler; callers that track
    /// a virtual clock should pass it so impairment windows line up with
    /// scan time.
    pub fn query_at(
        &self,
        now: SimMicros,
        dst: Addr,
        payload: &[u8],
        transport: Transport,
    ) -> Result<QueryOutcome, QueryFailure> {
        // One lock acquisition per exchange; the binding is shared out so
        // the lock is not held during the handler call.
        let Some(binding) = self.inner.read().bindings.get(&dst).map(Arc::clone) else {
            return Err(QueryFailure {
                error: NetError::Unreachable,
                elapsed: 0,
                attempts: 0,
            });
        };
        let (base_rtt, jitter) = (binding.base_rtt, binding.jitter);
        let faults = Arc::clone(&self.faults.read());
        let mut elapsed: SimMicros = 0;
        let payload_hash = {
            // Cheap stable hash of the payload for draw derivation.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in payload {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
            h.to_be_bytes()
        };
        for attempt in 0..self.max_attempts {
            let at = now + elapsed;
            let draw = DeterministicDraw::new(
                self.seed,
                &[&dst.to_bytes(), &payload_hash, &attempt.to_be_bytes()],
            );
            let lost = draw.unit() < binding.loss;
            let rtt = base_rtt
                + if jitter > 0 {
                    draw.next().below(jitter)
                } else {
                    0
                }
                + match transport {
                    Transport::Udp => 0,
                    Transport::Tcp => base_rtt, // handshake round trip
                };
            let backend = draw.next().below(binding.backends as u64) as u32;
            let fault = faults.evaluate(at, dst, backend, transport, &payload_hash, attempt);
            self.stats.record_query(&binding.queries, payload.len());
            if lost || fault.dropped {
                elapsed += self.timeout;
                continue;
            }
            let rtt = rtt + fault.extra_latency;
            if let Some(over) = fault.reply_override {
                // The impairment layer answers instead of the server.
                let reply = match over {
                    ReplyOverride::Rcode(rcode) => match craft_rcode_reply(payload, rcode) {
                        Some(r) => r,
                        None => {
                            // Query too mangled to answer: drop instead.
                            elapsed += self.timeout;
                            continue;
                        }
                    },
                    ReplyOverride::Garbage(bytes) => bytes,
                };
                elapsed += rtt;
                self.stats.record_reply(reply.len());
                return Ok(QueryOutcome {
                    reply,
                    elapsed,
                    attempts: attempt + 1,
                });
            }
            match binding.handler.handle(payload, dst, transport, backend, at) {
                ServerResponse::Reply(reply) => {
                    elapsed += rtt;
                    self.stats.record_reply(reply.len());
                    return Ok(QueryOutcome {
                        reply,
                        elapsed,
                        attempts: attempt + 1,
                    });
                }
                ServerResponse::Drop => {
                    elapsed += self.timeout;
                }
            }
        }
        Err(QueryFailure {
            error: NetError::Timeout,
            elapsed,
            attempts: self.max_attempts,
        })
    }

    /// Network-wide accounting.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The impairment seed (exposed for diagnostics).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::faults::{FaultKind, FaultScope, FaultSpec, Window};

    /// Echo server that prefixes replies with the backend index.
    struct Echo;
    impl ServerHandler for Echo {
        fn handle(
            &self,
            q: &[u8],
            _dst: Addr,
            _t: Transport,
            backend: u32,
            _now: SimMicros,
        ) -> ServerResponse {
            let mut r = vec![backend as u8];
            r.extend_from_slice(q);
            ServerResponse::Reply(r)
        }
    }

    /// Server that always drops.
    struct BlackHole;
    impl ServerHandler for BlackHole {
        fn handle(
            &self,
            _q: &[u8],
            _d: Addr,
            _t: Transport,
            _b: u32,
            _now: SimMicros,
        ) -> ServerResponse {
            ServerResponse::Drop
        }
    }

    fn addr(n: u8) -> Addr {
        Addr::V4(Ipv4Addr::new(192, 0, 2, n))
    }

    #[test]
    fn basic_exchange() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind_simple(addr(1), s);
        let out = net.query(addr(1), b"hello", Transport::Udp).unwrap();
        assert_eq!(&out.reply[1..], b"hello");
        assert_eq!(out.attempts, 1);
        assert!(out.elapsed >= 10_000);
    }

    /// Counts the datagrams it forwards to the handler it wraps.
    struct Counted {
        inner: Arc<dyn ServerHandler>,
        seen: Arc<AtomicU64>,
    }
    impl ServerHandler for Counted {
        fn handle(
            &self,
            q: &[u8],
            d: Addr,
            t: Transport,
            b: u32,
            now: SimMicros,
        ) -> ServerResponse {
            self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.handle(q, d, t, b, now)
        }
    }

    #[test]
    fn wrapped_handlers_see_every_datagram_on_the_same_link() {
        let net = Network::new(3);
        let s = net.register(Echo);
        net.bind(addr(1), s, 40_000, 0, 0.0, 4);
        net.bind_simple(addr(2), s);
        let before = net.query(addr(1), b"q", Transport::Udp).unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        net.wrap_handlers(|inner| {
            Arc::new(Counted {
                inner,
                seen: Arc::clone(&seen),
            })
        });
        let after = net.query(addr(1), b"q", Transport::Udp).unwrap();
        net.query(addr(2), b"q", Transport::Udp).unwrap();
        // Same reply (backend byte included) and latency: the link is kept.
        assert_eq!((after.reply, after.elapsed), (before.reply, before.elapsed));
        assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(net.stats().snapshot().queries, 3);
    }

    #[test]
    fn unreachable_address() {
        let net = Network::new(1);
        let err = net.query(addr(9), b"x", Transport::Udp).unwrap_err();
        assert_eq!(err.error, NetError::Unreachable);
        assert_eq!(err.elapsed, 0);
        assert_eq!(err.attempts, 0);
    }

    #[test]
    fn black_hole_times_out() {
        let net = Network::new(1);
        let s = net.register(BlackHole);
        net.bind_simple(addr(1), s);
        let err = net.query(addr(1), b"x", Transport::Udp).unwrap_err();
        assert_eq!(err.error, NetError::Timeout);
        // Exact accounting: 3 attempts, each charged the 2 s timeout.
        assert_eq!(err.attempts, 3);
        assert_eq!(err.elapsed, 3 * 2_000_000);
    }

    #[test]
    fn total_loss_times_out_and_charges_timeouts() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.999999, 1);
        let err = net.query(addr(1), b"x", Transport::Udp).unwrap_err();
        assert_eq!(err.error, NetError::Timeout);
        // 3 attempts were recorded.
        assert_eq!(net.stats().snapshot().queries, 3);
    }

    #[test]
    fn partial_loss_eventually_succeeds() {
        let net = Network::new(2).with_max_attempts(10);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.5, 1);
        // With 10 attempts at 50 % loss nearly every payload succeeds;
        // check several and require success with charged timeouts on some.
        let mut saw_retry = false;
        for i in 0..20u8 {
            let out = net.query(addr(1), &[i], Transport::Udp).unwrap();
            if out.attempts > 1 {
                saw_retry = true;
                assert!(out.elapsed >= 2_000_000);
            }
        }
        assert!(saw_retry);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let net = Network::new(42);
            let s = net.register(Echo);
            net.bind(addr(1), s, 10_000, 5_000, 0.2, 4);
            (0..50u8)
                .map(|i| match net.query(addr(1), &[i], Transport::Udp) {
                    Ok(o) => (o.reply, o.elapsed, o.attempts),
                    Err(_) => (vec![], 0, 0),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tcp_costs_extra_round_trip() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.0, 1);
        let udp = net.query(addr(1), b"x", Transport::Udp).unwrap();
        let tcp = net.query(addr(1), b"x", Transport::Tcp).unwrap();
        assert_eq!(udp.elapsed, 10_000);
        assert_eq!(tcp.elapsed, 20_000);
    }

    #[test]
    fn anycast_spreads_backends() {
        let net = Network::new(3);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.0, 8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u8 {
            let out = net.query(addr(1), &[i], Transport::Udp).unwrap();
            seen.insert(out.reply[0]);
        }
        assert!(seen.len() > 3, "pool spread: {seen:?}");
        assert!(seen.iter().all(|&b| b < 8));
    }

    #[test]
    fn stats_accumulate() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind_simple(addr(1), s);
        net.bind_simple(addr(2), s);
        net.query(addr(1), b"aaaa", Transport::Udp).unwrap();
        net.query(addr(2), b"bb", Transport::Udp).unwrap();
        let snap = net.stats().snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.bytes_sent, 6);
        assert_eq!(snap.per_dest.len(), 2);
    }

    #[test]
    fn per_dest_counters_match_a_locked_map_under_concurrent_writers() {
        // The reference is the accounting this replaced: one mutex-guarded
        // map bumped per datagram (retries included).
        let net = Network::new(9).with_max_attempts(4);
        let s = net.register(Echo);
        for n in 1..=6 {
            net.bind(addr(n), s, 10_000, 0, if n % 2 == 0 { 0.3 } else { 0.0 }, 1);
        }
        net.bind_simple(addr(7), s); // bound, never sent to
        let reference = std::sync::Mutex::new(HashMap::<Addr, u64>::new());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (net, reference, start) = (&net, &reference, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..500u32 {
                        // addr(8) is unbound: unreachable, nothing sent.
                        let dst = addr([1, 2, 3, 4, 5, 6, 8][((i * 5 + t * 3) % 7) as usize]);
                        let payload = [t.to_be_bytes(), i.to_be_bytes()].concat();
                        let sent = match net.query(dst, &payload, Transport::Udp) {
                            Ok(o) => o.attempts,
                            Err(f) => f.attempts,
                        };
                        if sent > 0 {
                            *reference.lock().unwrap().entry(dst).or_insert(0) += sent as u64;
                        }
                    }
                });
            }
        });
        let reference = reference.into_inner().unwrap();
        let snap = net.stats().snapshot();
        assert_eq!(snap.per_dest, reference);
        assert_eq!(snap.queries, reference.values().sum::<u64>());
        assert!(snap.queries > 2000, "lossy bindings retried");
        // 8-byte payloads out, Echo's 9-byte replies back.
        assert_eq!(snap.bytes_sent, snap.queries * 8);
        assert_eq!(snap.bytes_received, snap.replies * 9);
        assert!(!snap.per_dest.contains_key(&addr(7)) && !snap.per_dest.contains_key(&addr(8)));
    }

    #[test]
    fn v6_addresses_work() {
        let net = Network::new(1);
        let s = net.register(Echo);
        let a6 = Addr::V6("2001:db8::53".parse::<Ipv6Addr>().unwrap());
        net.bind_simple(a6, s);
        assert!(net.query(a6, b"x", Transport::Udp).is_ok());
        assert!(a6.is_v6());
    }

    #[test]
    fn bound_addrs_sorted() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind_simple(addr(9), s);
        net.bind_simple(addr(1), s);
        net.bind_simple(addr(5), s);
        assert_eq!(net.bound_addrs(), vec![addr(1), addr(5), addr(9)]);
    }

    #[test]
    fn black_hole_fault_blocks_only_its_window() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.0, 1);
        net.set_faults(FaultPlan::new(7).with(FaultSpec {
            scope: FaultScope::to_addr(addr(1)),
            window: Window::Interval {
                start: 0,
                end: 1_000_000,
            },
            kind: FaultKind::BlackHole,
        }));
        // First attempt (at t=0) is swallowed; the retry lands at
        // t=2 000 000, outside the outage, and succeeds.
        let out = net.query_at(0, addr(1), b"x", Transport::Udp).unwrap();
        assert_eq!(out.attempts, 2);
        assert_eq!(out.elapsed, 2_000_000 + 10_000);
        // Starting after the outage: clean first-try success.
        let out = net
            .query_at(5_000_000, addr(1), b"x", Transport::Udp)
            .unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.elapsed, 10_000);
        // Faults cleared: time 0 works again.
        net.clear_faults();
        let out = net.query_at(0, addr(1), b"x", Transport::Udp).unwrap();
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn permanent_black_hole_fault_exhausts_attempts() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.0, 1);
        net.set_faults(FaultPlan::new(7).with(FaultSpec {
            scope: FaultScope::to_addr(addr(1)),
            window: Window::Always,
            kind: FaultKind::BlackHole,
        }));
        let err = net.query(addr(1), b"x", Transport::Udp).unwrap_err();
        assert_eq!(err.error, NetError::Timeout);
        assert_eq!(err.attempts, 3);
        assert_eq!(err.elapsed, 3 * 2_000_000);
        // Accounting: all 3 datagrams were sent, none answered.
        let snap = net.stats().snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.replies, 0);
        assert_eq!(snap.bytes_sent, 3);
    }

    #[test]
    fn rcode_fault_replies_without_reaching_the_server() {
        let net = Network::new(1);
        let s = net.register(BlackHole); // real server would drop
        net.bind(addr(1), s, 10_000, 0, 0.0, 1);
        net.set_faults(FaultPlan::new(7).with(FaultSpec {
            scope: FaultScope::ANY,
            window: Window::Always,
            kind: FaultKind::ErrorRcode {
                rcode: 2,
                probability: 1.0,
            },
        }));
        // A minimal well-formed query (header + one root-name question).
        let mut q = vec![0xAB, 0xCD, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
        q.extend_from_slice(&[0, 0, 1, 0, 1]);
        let out = net.query(addr(1), &q, Transport::Udp).unwrap();
        assert_eq!(out.attempts, 1);
        assert_ne!(out.reply[2] & 0x80, 0, "QR set");
        assert_eq!(out.reply[3] & 0x0F, 2, "servfail");
        // The reply was recorded in accounting with its exact size.
        let snap = net.stats().snapshot();
        assert_eq!(snap.replies, 1);
        assert_eq!(snap.bytes_received, out.reply.len() as u64);
    }

    #[test]
    fn garbage_fault_returns_unparsable_bytes() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.0, 1);
        net.set_faults(FaultPlan::new(7).with(FaultSpec {
            scope: FaultScope::ANY,
            window: Window::Always,
            kind: FaultKind::Garbage { probability: 1.0 },
        }));
        let out = net.query(addr(1), b"hello", Transport::Udp).unwrap();
        // Not the echo reply: the impairment layer substituted bytes.
        assert_ne!(&out.reply[1..], b"hello");
    }

    #[test]
    fn latency_spike_fault_adds_exact_delay() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.0, 1);
        net.set_faults(FaultPlan::new(7).with(FaultSpec {
            scope: FaultScope::ANY,
            window: Window::Always,
            kind: FaultKind::LatencySpike {
                extra: 123_456,
                probability: 1.0,
            },
        }));
        let udp = net.query(addr(1), b"x", Transport::Udp).unwrap();
        assert_eq!(udp.elapsed, 10_000 + 123_456);
        // TCP-fallback path: handshake RTT and the spike both charge.
        let tcp = net.query(addr(1), b"x", Transport::Tcp).unwrap();
        assert_eq!(tcp.elapsed, 20_000 + 123_456);
    }

    #[test]
    fn transport_scoped_fault_spares_the_other_transport() {
        let net = Network::new(1);
        let s = net.register(Echo);
        net.bind(addr(1), s, 10_000, 0, 0.0, 1);
        net.set_faults(FaultPlan::new(7).with(FaultSpec {
            scope: FaultScope {
                transport: Some(Transport::Udp),
                ..FaultScope::ANY
            },
            window: Window::Always,
            kind: FaultKind::BlackHole,
        }));
        assert!(net.query(addr(1), b"x", Transport::Udp).is_err());
        assert!(net.query(addr(1), b"x", Transport::Tcp).is_ok());
    }

    #[test]
    fn faults_do_not_disturb_baseline_draws() {
        // With an empty fault plan, query_at(t) must behave exactly like
        // the original seeded network: same replies, elapsed, attempts.
        let run = |with_empty_plan: bool| {
            let net = Network::new(42);
            let s = net.register(Echo);
            net.bind(addr(1), s, 10_000, 5_000, 0.2, 4);
            if with_empty_plan {
                net.set_faults(FaultPlan::new(99)); // no specs
            }
            (0..50u8)
                .map(|i| match net.query(addr(1), &[i], Transport::Udp) {
                    Ok(o) => (o.reply, o.elapsed, o.attempts),
                    Err(_) => (vec![], 0, 0),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn chaos_profile_accounting_is_exact_and_reproducible() {
        let run = || {
            let net = Network::new(5);
            let s = net.register(Echo);
            for n in 1..=10 {
                net.bind(addr(n), s, 10_000, 0, 0.0, 1);
            }
            net.set_faults(FaultPlan::standard_chaos(5, &net.bound_addrs()));
            let mut log = Vec::new();
            for i in 0..200u32 {
                let dst = addr(1 + (i % 10) as u8);
                let t = (i as u64) * 50_000;
                match net.query_at(t, dst, &i.to_be_bytes(), Transport::Udp) {
                    Ok(o) => log.push((o.reply, o.elapsed, o.attempts)),
                    Err(e) => log.push((Vec::new(), e.elapsed, e.attempts)),
                }
            }
            (log, net.stats().snapshot())
        };
        let (log_a, snap_a) = run();
        let (log_b, snap_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(snap_a.queries, snap_b.queries);
        assert_eq!(snap_a.bytes_sent, snap_b.bytes_sent);
        assert_eq!(snap_a.bytes_received, snap_b.bytes_received);
        // Conservation: bytes_sent equals 4 bytes per datagram sent.
        assert_eq!(snap_a.bytes_sent, snap_a.queries * 4);
        // The chaos profile actually caused impairments somewhere.
        assert!(snap_a.queries > 200, "some attempts were retried");
    }
}
