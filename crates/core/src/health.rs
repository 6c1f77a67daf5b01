//! Per-nameserver circuit breaking.
//!
//! [`CircuitBreaker`] is scoped to *one zone scan* and keyed on the scan's
//! own virtual clock. After `threshold` consecutive failures against one
//! address, further queries to it are skipped for `cooldown` µs of
//! scan-local virtual time, then one probe is let through (half-open).
//! Because the breaker's state never leaves the zone scan, results stay
//! independent of the order in which zones are scanned — byte-identical
//! reports regardless of worker interleaving.
//!
//! What the breaker did to a zone is evidence and travels with it
//! (`RetryStats::{failures, breaker_skips}`). Scan-wide per-address
//! aggregates are not kept: nothing read them, and they belong to the
//! ops telemetry plane (ROADMAP item 4), never to the journal.

use netsim::{Addr, SimMicros};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, Default)]
struct BreakerState {
    consecutive_failures: u32,
    open_until: Option<SimMicros>,
}

/// A deterministic per-scan circuit breaker over server addresses.
#[derive(Debug)]
pub struct CircuitBreaker {
    /// Consecutive failures that open the breaker.
    threshold: u32,
    /// Virtual µs the breaker stays open before a half-open probe.
    cooldown: SimMicros,
    state: BTreeMap<Addr, BreakerState>,
}

impl CircuitBreaker {
    pub fn new(threshold: u32, cooldown: SimMicros) -> Self {
        CircuitBreaker {
            threshold,
            cooldown,
            state: BTreeMap::new(),
        }
    }

    /// May we query `addr` at scan-local time `now`? `false` = skip (the
    /// breaker is open and still cooling down).
    pub fn allows(&mut self, addr: Addr, now: SimMicros) -> bool {
        match self.state.get(&addr).and_then(|s| s.open_until) {
            Some(until) if now < until => false,
            // Past the cooldown: half-open, let one probe through. The
            // deadline is cleared so only a fresh failure re-opens it.
            Some(_) => {
                self.state.get_mut(&addr).unwrap().open_until = None;
                true
            }
            None => true,
        }
    }

    /// Record a successful exchange with `addr`: close the breaker.
    pub fn record_success(&mut self, addr: Addr) {
        if let Some(s) = self.state.get_mut(&addr) {
            *s = BreakerState::default();
        }
    }

    /// Record a failed exchange with `addr` at scan-local time `now`.
    pub fn record_failure(&mut self, addr: Addr, now: SimMicros) {
        let s = self.state.entry(addr).or_default();
        s.consecutive_failures += 1;
        if s.consecutive_failures >= self.threshold {
            s.open_until = Some(now + self.cooldown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addr(x: u8) -> Addr {
        Addr::V4(Ipv4Addr::new(192, 0, 2, x))
    }

    #[test]
    fn breaker_opens_after_threshold() {
        let mut b = CircuitBreaker::new(3, 1_000_000);
        let a = addr(1);
        for now in [0, 10, 20] {
            assert!(b.allows(a, now));
            b.record_failure(a, now);
        }
        assert!(!b.allows(a, 30), "open after 3 consecutive failures");
        assert!(!b.allows(a, 1_000_019), "still inside cooldown");
        assert!(b.allows(a, 1_000_020), "half-open after cooldown");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(3, 1_000_000);
        let a = addr(1);
        b.record_failure(a, 0);
        b.record_failure(a, 1);
        b.record_success(a);
        b.record_failure(a, 2);
        b.record_failure(a, 3);
        assert!(b.allows(a, 4), "streak was reset by the success");
    }

    #[test]
    fn half_open_failure_reopens_immediately() {
        let mut b = CircuitBreaker::new(2, 1_000);
        let a = addr(1);
        b.record_failure(a, 0);
        b.record_failure(a, 0);
        assert!(!b.allows(a, 500));
        assert!(b.allows(a, 2_000), "half-open probe allowed");
        // The probe fails: the streak is still ≥ threshold, so one more
        // failure re-opens without needing `threshold` fresh ones.
        b.record_failure(a, 2_000);
        assert!(!b.allows(a, 2_500));
    }

    #[test]
    fn breakers_are_per_address() {
        let mut b = CircuitBreaker::new(1, 1_000);
        b.record_failure(addr(1), 0);
        assert!(!b.allows(addr(1), 10));
        assert!(b.allows(addr(2), 10));
    }

    #[test]
    fn full_transition_cycle_closed_open_half_open_closed() {
        let mut b = CircuitBreaker::new(3, 1_000);
        let a = addr(1);
        // Closed: everything allowed.
        assert!(b.allows(a, 0));
        // Closed → open at the threshold.
        for now in [0, 1, 2] {
            b.record_failure(a, now);
        }
        assert!(!b.allows(a, 3), "open");
        // Open → half-open after the cooldown: one probe allowed.
        assert!(b.allows(a, 1_002), "half-open probe");
        // Half-open → closed on probe success: a single new failure must
        // NOT re-open (the streak was fully reset).
        b.record_success(a);
        b.record_failure(a, 1_010);
        assert!(
            b.allows(a, 1_011),
            "closed again; one failure is not enough"
        );
        // ... but a fresh full streak re-opens as from scratch.
        b.record_failure(a, 1_012);
        b.record_failure(a, 1_013);
        assert!(
            !b.allows(a, 1_014),
            "re-opened after a fresh threshold streak"
        );
    }
}
