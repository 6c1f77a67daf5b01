//! Named causes for adversarial (Byzantine) server behaviour, and the
//! per-zone counter record they are tallied in.
//!
//! The hardening layer never reports a generic "something was off": every
//! rejected response, refused shortcut and tripped budget carries one of
//! these causes, so a zone that an adversary managed to knock out of the
//! measurable set shows up in the report as *hostile casualty with a named
//! cause*, never as a silent misclassification (DESIGN.md §6c).
//!
//! Under fault injection the scanner must likewise never fold a network
//! failure into a substantive classification: every failed query is a
//! [`ScanError`], recorded per zone in a [`RetryStats`], and zones whose
//! evidence is incomplete are reported as indeterminate with those
//! statistics attached. A zone's [`QueryMeter`](crate::client::QueryMeter)
//! holds its one `RetryStats`, and every layer counts straight into it.

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

use std::fmt;

/// Why a response (or a whole resolution) was judged hostile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostileCause {
    /// Reply ID, QNAME or QTYPE did not match the question we asked.
    MismatchedReply,
    /// Records outside the answering server's bailiwick were stripped
    /// from a response (answer names off the QNAME, authority/additional
    /// names outside the zone cut).
    ForeignRecords,
    /// A referral pointed sideways, upwards, back at the current zone, or
    /// an NS hostname's address resolution re-entered itself.
    ReferralLoop,
    /// A referral fanned out past the NS-set width cap (NXNS-style
    /// amplification shape).
    WideReferral,
    /// A CNAME chain at the queried name looped or exceeded the alias
    /// chase limit.
    AliasLoop,
    /// The per-zone work budget (amplification cap) was exhausted.
    BudgetExceeded,
    /// A delegated server answered REFUSED / non-authoritatively for a
    /// zone it is listed for (lame delegation).
    LameDelegation,
}

impl HostileCause {
    /// Every cause, in the order of [`RetryStats`]' hostile counters.
    pub const ALL: [HostileCause; 7] = [
        HostileCause::MismatchedReply,
        HostileCause::ForeignRecords,
        HostileCause::ReferralLoop,
        HostileCause::WideReferral,
        HostileCause::AliasLoop,
        HostileCause::BudgetExceeded,
        HostileCause::LameDelegation,
    ];

    /// Stable human-readable label (used in reports and `Display`).
    pub fn label(self) -> &'static str {
        match self {
            HostileCause::MismatchedReply => "mismatched-reply",
            HostileCause::ForeignRecords => "foreign-records",
            HostileCause::ReferralLoop => "referral-loop",
            HostileCause::WideReferral => "wide-referral",
            HostileCause::AliasLoop => "alias-loop",
            HostileCause::BudgetExceeded => "budget-exceeded",
            HostileCause::LameDelegation => "lame-delegation",
        }
    }
}

impl fmt::Display for HostileCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

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
/// degraded classifications are auditable. Every counter is one zone's
/// and bounded by the per-zone query budget, so each is a `u32`: the
/// struct is a quarter of an epoch-table row. Within one pass the
/// client, the resolver and the scanner all count into the pass's
/// meter; which counters a re-scan then sums across passes is said
/// once, by the scanner's `accumulate_io`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Failed logical queries (after client-level retries).
    pub failures: u32,
    /// ... of which exhausted their timeout budget.
    pub timeouts: u32,
    /// ... of which got an unparsable reply.
    pub malformed: u32,
    /// Logical queries answered with SERVFAIL.
    pub servfails: u32,
    /// Client-level whole-exchange retries spent (successful or not).
    pub retries: u32,
    /// Queries skipped because a per-address circuit breaker was open.
    pub breaker_skips: u32,
    /// Whole-resolution failures (all servers of some zone failed),
    /// NS-address lookups that came back incomplete included.
    pub resolution_failures: u32,
    /// Re-scan passes this zone went through before its final result.
    pub rescans: u32,
    /// Datagrams put on the wire for this zone (UDP attempts + TCP
    /// attempts, lost ones included — a lost datagram still cost its
    /// bytes).
    pub datagrams: u32,
    /// TC=1 → TCP fallback exchanges entered.
    pub tcp_fallbacks: u32,
    /// Query bytes sent for this zone, across every attempt.
    pub bytes_sent: u32,
    /// Reply bytes received for this zone (malformed and truncated
    /// replies included).
    pub bytes_received: u32,
    /// Logical queries begun for this zone (what the amplification cap
    /// bounds), in the pass whose result was kept.
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
            // A failed query, and nothing more: see `degraded`.
            ScanError::Unreachable => {}
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for cause in HostileCause::ALL {
            assert!(seen.insert(cause.label()), "duplicate label");
            assert_eq!(cause.to_string(), cause.label());
        }
    }

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
        assert_eq!(s.failures, 1, "an unbound address is a failed query");
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

        // A hostile event noted without a failed query is evidence only.
        s.note_hostile(HostileCause::ForeignRecords);
        s.note_hostile(HostileCause::BudgetExceeded);
        assert_eq!(s.hostile_foreign, 1);
        assert_eq!(s.hostile_budget, 1);
        assert_eq!(s.hostile_events(), 3);
        assert_eq!(s.failures, 1);

        assert_eq!(
            ScanError::Hostile(HostileCause::LameDelegation).to_string(),
            "hostile: lame-delegation"
        );
    }
}
