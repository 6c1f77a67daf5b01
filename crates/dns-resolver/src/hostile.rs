//! Named causes for adversarial (Byzantine) server behaviour.
//!
//! The hardening layer never reports a generic "something was off": every
//! rejected response, refused shortcut and tripped budget carries one of
//! these causes, so a zone that an adversary managed to knock out of the
//! measurable set shows up in the report as *hostile casualty with a named
//! cause*, never as a silent misclassification (DESIGN.md §6c).

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
    /// Every cause, in [`HostileTally`] field order.
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

/// Per-cause hostile-event counts, snapshotted from a
/// [`QueryMeter`](crate::client::QueryMeter).
///
/// Counts are evidence, not incident totals: a detection that both notes
/// the meter and surfaces as an error may be tallied at more than one
/// layer, so treat each field as "≥ 1 means this cause was observed".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostileTally {
    pub mismatched_replies: u64,
    pub foreign_records: u64,
    pub referral_loops: u64,
    pub wide_referrals: u64,
    pub alias_loops: u64,
    pub budget_exceeded: u64,
    pub lame_delegations: u64,
}

impl HostileTally {
    /// Count for one cause.
    pub fn get(&self, cause: HostileCause) -> u64 {
        match cause {
            HostileCause::MismatchedReply => self.mismatched_replies,
            HostileCause::ForeignRecords => self.foreign_records,
            HostileCause::ReferralLoop => self.referral_loops,
            HostileCause::WideReferral => self.wide_referrals,
            HostileCause::AliasLoop => self.alias_loops,
            HostileCause::BudgetExceeded => self.budget_exceeded,
            HostileCause::LameDelegation => self.lame_delegations,
        }
    }

    /// Bump one cause.
    pub fn note(&mut self, cause: HostileCause) {
        match cause {
            HostileCause::MismatchedReply => self.mismatched_replies += 1,
            HostileCause::ForeignRecords => self.foreign_records += 1,
            HostileCause::ReferralLoop => self.referral_loops += 1,
            HostileCause::WideReferral => self.wide_referrals += 1,
            HostileCause::AliasLoop => self.alias_loops += 1,
            HostileCause::BudgetExceeded => self.budget_exceeded += 1,
            HostileCause::LameDelegation => self.lame_delegations += 1,
        }
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &HostileTally) {
        self.mismatched_replies += other.mismatched_replies;
        self.foreign_records += other.foreign_records;
        self.referral_loops += other.referral_loops;
        self.wide_referrals += other.wide_referrals;
        self.alias_loops += other.alias_loops;
        self.budget_exceeded += other.budget_exceeded;
        self.lame_delegations += other.lame_delegations;
    }

    /// Total events across all causes.
    pub fn total(&self) -> u64 {
        HostileCause::ALL.iter().map(|&c| self.get(c)).sum()
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
    fn tally_note_get_add_total() {
        let mut a = HostileTally::default();
        a.note(HostileCause::ReferralLoop);
        a.note(HostileCause::ReferralLoop);
        a.note(HostileCause::BudgetExceeded);
        assert_eq!(a.get(HostileCause::ReferralLoop), 2);
        assert_eq!(a.total(), 3);
        let mut b = HostileTally::default();
        b.note(HostileCause::AliasLoop);
        b.add(&a);
        assert_eq!(b.total(), 4);
        assert_eq!(b.get(HostileCause::ReferralLoop), 2);
    }
}
