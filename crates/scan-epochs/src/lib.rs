//! # scan-epochs — what a longitudinal study carries and reports
//!
//! The paper is a deployment-over-time study: repeated scans separated
//! by real-world churn, reported as adoption trends. The study *driver*
//! is `scan_continuous::run_continuous` (DESIGN.md §11); this crate holds
//! the two data types every epoch of it passes along (DESIGN.md §10):
//!
//! * [`CarryLedger`] — delegation-, address-, validated-key and
//!   zone-cut cache entries learned by past epochs, seeded into a later
//!   epoch's fresh scanner with their *remaining* virtual-time validity
//!   and dropped when churn invalidates their zone cut.
//!   `run_continuous` rebuilds one per shard from that shard's journals;
//!   [`CarryLedger::partition`] states which entries that is. Carried
//!   caches change *when* datagrams are sent, never what the classifier
//!   concludes.
//! * [`TimeSeries`] — committed [`EpochReport`]s (the full evidence
//!   table as of each epoch, plus what was re-scanned, what churned and
//!   which zones are explicit degraded placeholders) and
//!   [`SkippedEpoch`] markers, with the canonical byte form
//!   ([`canonical_evidence`], [`TimeSeries::canonical_bytes`]) the
//!   equivalence and recovery suites compare, and the per-epoch
//!   adoption-trend table.
//!
//! Nothing here scans, journals or reads a state root.

pub mod ledger;
pub mod report;

pub use ledger::CarryLedger;
pub use report::{canonical_evidence, EpochReport, SkippedEpoch, TimeSeries, TrendRow};
