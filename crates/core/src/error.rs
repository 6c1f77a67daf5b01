//! Structured failure taxonomy and degradation accounting.
//!
//! Under fault injection the scanner must never silently fold a network
//! failure into a substantive classification: every failed query is
//! recorded here, per zone, and zones whose evidence is incomplete are
//! reported as [`DnssecClass::Indeterminate`](crate::types::DnssecClass)
//! with these statistics attached.

use dns_resolver::hostile::{HostileCause, HostileTally};
use std::fmt;

/// Why one scanner-level query (or whole resolution) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanError {
    /// No server bound at the address; the query cost nothing.
    Unreachable,
    /// Every datagram attempt (and every client retry) timed out.
    Timeout,
    /// A reply arrived but did not parse as a DNS message.
    Malformed,
    /// The circuit breaker skipped the query without sending it.
    BreakerOpen,
    /// Iterative resolution failed because every server of some zone
    /// failed (the resolver-level analogue of a timeout).
    ResolutionFailed,
    /// The hardening layer rejected adversarial behaviour, with a named
    /// cause (DESIGN.md §6c). Hostile casualties follow the same
    /// degradation path as transient faults: explicit, never a silent
    /// misclassification.
    Hostile(HostileCause),
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::Unreachable => f.write_str("unreachable"),
            ScanError::Timeout => f.write_str("timeout"),
            ScanError::Malformed => f.write_str("malformed reply"),
            ScanError::BreakerOpen => f.write_str("circuit breaker open"),
            ScanError::ResolutionFailed => f.write_str("resolution failed"),
            ScanError::Hostile(c) => write!(f, "hostile: {c}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Per-zone retry and failure statistics, carried in every zone scan so
/// degraded classifications are auditable. Every counter is one zone's,
/// across its passes, and bounded by the per-zone query budget, so each
/// is a `u32`: the struct is a quarter of an epoch-table row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Failed logical queries (after client-level retries).
    pub failures: u32,
    /// ... of which exhausted their timeout budget.
    pub timeouts: u32,
    /// ... of which hit an unbound address.
    pub unreachable: u32,
    /// ... of which got an unparsable reply.
    pub malformed: u32,
    /// Logical queries answered with SERVFAIL.
    pub servfails: u32,
    /// Client-level whole-exchange retries spent (successful or not).
    pub retries: u32,
    /// Queries skipped because a per-address circuit breaker was open.
    pub breaker_skips: u32,
    /// Whole-resolution failures (all servers of some zone failed).
    pub resolution_failures: u32,
    /// Re-scan passes this zone went through before its final result.
    pub rescans: u32,
    /// Datagrams put on the wire for this zone (UDP attempts + TCP
    /// attempts, lost ones included), cumulative across re-scan passes.
    pub datagrams: u32,
    /// TC=1 → TCP fallback exchanges, cumulative across re-scan passes.
    pub tcp_fallbacks: u32,
    /// Query bytes sent for this zone, cumulative across re-scan passes.
    pub bytes_sent: u32,
    /// Reply bytes received for this zone, cumulative across re-scan
    /// passes.
    pub bytes_received: u32,
    /// Logical queries begun for this zone (what the amplification cap
    /// bounds), cumulative across re-scan passes.
    pub logical_queries: u32,
    /// Hostile-event evidence per named cause (acceptance-gate
    /// rejections, stripped foreign records, loop/fan-out/alias trips,
    /// budget refusals, lame delegations). Counts are evidence, not
    /// incident totals: a detection may be tallied at more than one
    /// layer, so read each as "≥ 1 means this cause was observed".
    pub hostile_mismatched: u32,
    pub hostile_foreign: u32,
    pub hostile_referral_loops: u32,
    pub hostile_wide_referrals: u32,
    pub hostile_alias_loops: u32,
    pub hostile_budget: u32,
    pub hostile_lame: u32,
}

impl RetryStats {
    /// Record one failed query.
    // E001 (DESIGN.md §8): every failure variant is matched by name, so a
    // new one cannot fold silently into another's tally.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn record(&mut self, e: ScanError) {
        match e {
            ScanError::BreakerOpen => {
                self.breaker_skips += 1;
                return;
            }
            ScanError::Timeout => self.timeouts += 1,
            ScanError::Unreachable => self.unreachable += 1,
            ScanError::Malformed => self.malformed += 1,
            ScanError::ResolutionFailed => self.resolution_failures += 1,
            ScanError::Hostile(c) => self.note_hostile(c),
        }
        self.failures += 1;
    }

    /// Tally one hostile event under its named cause.
    // E001, as for `record`.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn note_hostile(&mut self, cause: HostileCause) {
        match cause {
            HostileCause::MismatchedReply => self.hostile_mismatched += 1,
            HostileCause::ForeignRecords => self.hostile_foreign += 1,
            HostileCause::ReferralLoop => self.hostile_referral_loops += 1,
            HostileCause::WideReferral => self.hostile_wide_referrals += 1,
            HostileCause::AliasLoop => self.hostile_alias_loops += 1,
            HostileCause::BudgetExceeded => self.hostile_budget += 1,
            HostileCause::LameDelegation => self.hostile_lame += 1,
        }
    }

    /// Merge a meter's hostile tally (events observed inside the client
    /// and resolver, which never surfaced as a `ScanError`).
    pub fn absorb_hostile(&mut self, tally: &HostileTally) {
        let add = |into: &mut u32, n: u64| *into = into.saturating_add(narrow(n));
        add(&mut self.hostile_mismatched, tally.mismatched_replies);
        add(&mut self.hostile_foreign, tally.foreign_records);
        add(&mut self.hostile_referral_loops, tally.referral_loops);
        add(&mut self.hostile_wide_referrals, tally.wide_referrals);
        add(&mut self.hostile_alias_loops, tally.alias_loops);
        add(&mut self.hostile_budget, tally.budget_exceeded);
        add(&mut self.hostile_lame, tally.lame_delegations);
    }

    /// Total hostile events across all named causes.
    pub fn hostile_events(&self) -> u64 {
        [
            self.hostile_mismatched,
            self.hostile_foreign,
            self.hostile_referral_loops,
            self.hostile_wide_referrals,
            self.hostile_alias_loops,
            self.hostile_budget,
            self.hostile_lame,
        ]
        .into_iter()
        .map(u64::from)
        .sum()
    }

    /// Whether any evidence-reducing event occurred. `Unreachable` does
    /// not count: an unbound address is a property of the world (a stale
    /// glue record), not a transient impairment. Hostile events always
    /// count: evidence filtered by the acceptance gate is evidence the
    /// classifier did not get to see.
    pub fn degraded(&self) -> bool {
        self.timeouts > 0
            || self.malformed > 0
            || self.breaker_skips > 0
            || self.resolution_failures > 0
            || self.hostile_events() > 0
    }
}

/// A per-zone count taken from a wider meter, saturating: the per-zone
/// query budget keeps every such count far below `u32::MAX`.
pub(crate) fn narrow(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tallies_by_kind() {
        let mut s = RetryStats::default();
        s.record(ScanError::Timeout);
        s.record(ScanError::Timeout);
        s.record(ScanError::Malformed);
        s.record(ScanError::Unreachable);
        s.record(ScanError::BreakerOpen);
        s.record(ScanError::ResolutionFailed);
        assert_eq!(s.timeouts, 2);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.unreachable, 1);
        assert_eq!(s.breaker_skips, 1);
        assert_eq!(s.resolution_failures, 1);
        // Breaker skips are not query failures.
        assert_eq!(s.failures, 5);
    }

    #[test]
    fn unreachable_alone_is_not_degradation() {
        let mut s = RetryStats::default();
        assert!(!s.degraded());
        s.record(ScanError::Unreachable);
        assert!(!s.degraded());
        s.record(ScanError::Timeout);
        assert!(s.degraded());
    }

    #[test]
    fn breaker_skip_alone_is_degradation() {
        let mut s = RetryStats::default();
        s.record(ScanError::BreakerOpen);
        assert!(s.degraded());
        assert_eq!(s.failures, 0);
    }

    #[test]
    fn hostile_records_named_cause_and_degrades() {
        let mut s = RetryStats::default();
        assert!(!s.degraded());
        s.record(ScanError::Hostile(HostileCause::ReferralLoop));
        assert_eq!(s.hostile_referral_loops, 1);
        assert_eq!(s.failures, 1);
        assert_eq!(s.hostile_events(), 1);
        assert!(s.degraded());

        let mut tally = HostileTally::default();
        tally.note(HostileCause::ForeignRecords);
        tally.note(HostileCause::BudgetExceeded);
        s.absorb_hostile(&tally);
        assert_eq!(s.hostile_foreign, 1);
        assert_eq!(s.hostile_budget, 1);
        assert_eq!(s.hostile_events(), 3);

        assert_eq!(
            ScanError::Hostile(HostileCause::LameDelegation).to_string(),
            "hostile: lame-delegation"
        );
    }
}
