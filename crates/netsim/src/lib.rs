//! # netsim — a deterministic, simulated request/response network
//!
//! The reproduction cannot (and must not) scan the real Internet, so every
//! DNS exchange in this workspace crosses this crate instead of a socket.
//! Design goals, in the spirit of `smoltcp`: explicit, synchronous,
//! deterministic, no hidden global state.
//!
//! * [`Addr`] — simulated IPv4/IPv6 addresses.
//! * [`Network`] — a registry of byte-oriented [`ServerHandler`]s bound to
//!   addresses. *Anycast* is first-class: many addresses may bind to one
//!   server pool (the Cloudflare situation described in the paper's §3,
//!   where "almost any IP address originated by them will respond to DNS
//!   queries for a zone").
//! * Deterministic impairments: per-binding latency and loss are pure
//!   functions of `(network seed, destination, payload, attempt)`, so runs
//!   are reproducible regardless of thread interleaving.
//! * [`Transport`] — UDP with a payload ceiling (the server signals
//!   truncation at the DNS layer) and TCP, which always carries the full
//!   response at an extra round-trip cost.
//! * Accounting — per-destination query counters and byte counters feed
//!   the paper's Appendix D scan-cost analysis (experiment E7), and a
//!   virtual-time [`RateLimiter`] models the scanner's self-imposed
//!   50 queries/s/NS politeness budget (§3).
//! * Fault injection — a seeded [`FaultPlan`] schedules chaos-grade
//!   impairments (outages, flapping, latency spikes, SERVFAIL bursts,
//!   malformed replies) per binding over virtual time, deterministic and
//!   replayable byte for byte.

pub mod accounting;
pub mod faults;
pub mod limiter;
pub mod network;
pub mod rng;

pub use accounting::{NetStats, StatsSnapshot};
pub use faults::{
    FaultKind, FaultOutcome, FaultPlan, FaultScope, FaultSpec, ReplyOverride, Window,
};
pub use limiter::RateLimiter;
pub use network::{
    Addr, NetError, Network, QueryFailure, QueryOutcome, ServerHandler, ServerId, ServerResponse,
    Transport,
};
pub use rng::DeterministicDraw;

/// Simulated durations are microseconds of virtual time.
pub type SimMicros = u64;
