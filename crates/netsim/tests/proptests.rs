//! Property-based tests over the network simulator: determinism,
//! rate-limiter conservation, and accounting consistency.

use netsim::{Addr, Network, RateLimiter, ServerHandler, ServerResponse, SimMicros, Transport};
use proptest::prelude::*;
use std::net::Ipv4Addr;

struct Echo;
impl ServerHandler for Echo {
    fn handle(
        &self,
        q: &[u8],
        _d: Addr,
        _t: Transport,
        _b: u32,
        _now: SimMicros,
    ) -> ServerResponse {
        ServerResponse::Reply(q.to_vec())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical (seed, traffic) → identical outcomes, regardless of how
    /// the link is parameterised.
    #[test]
    fn network_fully_deterministic(
        seed in any::<u64>(),
        loss in 0.0f64..0.9,
        jitter in 0u64..20_000,
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..20),
    ) {
        let run = || {
            let net = Network::new(seed);
            let s = net.register(Echo);
            let a = Addr::V4(Ipv4Addr::new(192, 0, 2, 1));
            net.bind(a, s, 10_000, jitter, loss, 4);
            payloads
                .iter()
                .map(|p| match net.query(a, p, Transport::Udp) {
                    Ok(o) => (true, o.elapsed, o.attempts),
                    Err(_) => (false, 0, 0),
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Replies echo the payload whenever the exchange succeeds, and the
    /// stats count exactly the datagrams sent.
    #[test]
    fn accounting_matches_traffic(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..30),
    ) {
        let net = Network::new(7);
        let s = net.register(Echo);
        let a = Addr::V4(Ipv4Addr::new(192, 0, 2, 1));
        net.bind(a, s, 5_000, 0, 0.0, 1);
        let mut bytes = 0u64;
        for p in &payloads {
            let out = net.query(a, p, Transport::Udp).unwrap();
            prop_assert_eq!(&out.reply, p);
            bytes += p.len() as u64;
        }
        let snap = net.stats().snapshot();
        prop_assert_eq!(snap.queries, payloads.len() as u64);
        prop_assert_eq!(snap.bytes_sent, bytes);
        prop_assert_eq!(snap.bytes_received, bytes);
    }

    /// Token bucket conservation: N acquisitions at rate r never complete
    /// faster than (N - burst) / r seconds of virtual time.
    #[test]
    fn limiter_enforces_rate(
        rate in 1.0f64..200.0,
        burst in 1.0f64..20.0,
        n in 1u32..300,
    ) {
        let mut l = RateLimiter::new(rate, burst);
        let mut now = 0u64;
        for _ in 0..n {
            now += l.acquire(now);
        }
        let min_secs = ((n as f64 - burst) / rate).max(0.0);
        let got_secs = now as f64 / 1e6;
        // Allow 1 ms slack for ceil-rounding.
        prop_assert!(got_secs + 0.001 >= min_secs, "{got_secs} < {min_secs}");
    }

    /// The limiter never returns an absurd wait (bounded by one token
    /// time).
    #[test]
    fn limiter_wait_bounded(rate in 1.0f64..200.0, n in 1u32..100) {
        let mut l = RateLimiter::new(rate, 1.0);
        let mut now = 0u64;
        let max_wait = (1.0 / rate * 1e6).ceil() as u64 + 1;
        for _ in 0..n {
            let w = l.acquire(now);
            prop_assert!(w <= max_wait, "wait {w} > {max_wait}");
            now += w;
        }
    }
}
