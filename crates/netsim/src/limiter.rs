//! Virtual-time token-bucket rate limiting.
//!
//! The paper's scanners self-limit to 50 queries/s per nameserver (§3).
//! Because the whole stack runs in virtual time, the limiter doesn't
//! sleep — it *reports* how long the caller must advance its virtual clock
//! before the next permitted send, which the scanner adds to its elapsed
//! time. That makes scan-duration estimates (experiment E7) exact and
//! deterministic.

use crate::SimMicros;

/// A token bucket in virtual microseconds, owned by one zone scan and
/// dropped with it.
pub struct RateLimiter {
    /// Tokens added per virtual second.
    rate_per_sec: f64,
    /// Maximum burst.
    burst: f64,
    tokens: f64,
    /// Virtual timestamp of the last update.
    last: SimMicros,
}

impl RateLimiter {
    /// A limiter allowing `rate_per_sec` queries per virtual second with a
    /// burst of `burst`.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0 && burst >= 1.0);
        RateLimiter {
            rate_per_sec,
            burst,
            tokens: burst,
            last: 0,
        }
    }

    /// Acquire one token at virtual time `now`, returning the virtual
    /// delay the caller must charge before sending (0 when under budget).
    pub fn acquire(&mut self, now: SimMicros) -> SimMicros {
        // Refill for elapsed time (clamped: a wait pushes `last` ahead of
        // the caller's clock, and clocks may arrive out of order).
        if now > self.last {
            let dt = (now - self.last) as f64 / 1_000_000.0;
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            0
        } else {
            let deficit = 1.0 - self.tokens;
            let wait = (deficit / self.rate_per_sec * 1_000_000.0).ceil() as SimMicros;
            self.tokens = 0.0;
            self.last = self.last.max(now) + wait;
            wait
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_steady_state() {
        let mut l = RateLimiter::new(50.0, 10.0);
        // First 10 are free.
        for _ in 0..10 {
            assert_eq!(l.acquire(0), 0);
        }
        // The 11th must wait 1/50 s = 20 000 µs.
        let w = l.acquire(0);
        assert_eq!(w, 20_000);
    }

    #[test]
    fn refill_restores_tokens() {
        let mut l = RateLimiter::new(50.0, 10.0);
        for _ in 0..10 {
            l.acquire(0);
        }
        // After 1 virtual second, 50 tokens would refill but burst caps at 10.
        for _ in 0..10 {
            assert_eq!(l.acquire(1_000_000), 0);
        }
        assert!(l.acquire(1_000_000) > 0);
    }

    #[test]
    fn sustained_rate_is_bounded() {
        let mut l = RateLimiter::new(50.0, 1.0);
        let mut now: SimMicros = 0;
        let n = 500;
        for _ in 0..n {
            now += l.acquire(now);
        }
        // 500 queries at 50 qps needs ≈ 10 virtual seconds.
        let secs = now as f64 / 1_000_000.0;
        assert!((9.0..11.5).contains(&secs), "{secs}");
    }

    #[test]
    fn independent_limiters_do_not_interact() {
        let mut a = RateLimiter::new(50.0, 1.0);
        let mut b = RateLimiter::new(50.0, 1.0);
        assert_eq!(a.acquire(0), 0);
        assert_eq!(b.acquire(0), 0);
        assert!(a.acquire(0) > 0);
    }

    #[test]
    fn out_of_order_clocks_do_not_panic() {
        let mut l = RateLimiter::new(50.0, 2.0);
        assert_eq!(l.acquire(1_000_000), 0);
        // A worker with a lagging clock.
        let _ = l.acquire(500_000);
        let _ = l.acquire(0);
    }
}
