//! # dns-ecosystem — the synthetic Internet the scanner measures
//!
//! The paper scans 287.6 M real zones; this crate builds a faithful,
//! deterministic stand-in (DESIGN.md §2 documents the substitution):
//!
//! * [`psl`] — a public-suffix model (ICANN suffixes incl. multi-label
//!   ones like `co.uk`), used both by the generator and by the scanner's
//!   seed compilation.
//! * [`truth`] — the ground-truth taxonomy: every generated zone carries a
//!   [`truth::ZoneTruth`] describing exactly what was planted (DNSSEC
//!   state, CDS state, signal state, operator, quirks), so the scanner's
//!   measurements can be validated end-to-end.
//! * [`spec`] — operator behaviour profiles calibrated to the paper's
//!   Tables 1–3 and the §4 census counts, plus [`spec::EcosystemConfig`]
//!   presets (`paper_default`, `tiny` for tests).
//! * [`build()`] — turns a config into a running world: zones built and
//!   signed, signal zones populated, TLD/root zones delegating
//!   everything, servers registered on a [`netsim::Network`], trust
//!   anchors exported.
//! * [`churn`] — the deployment-over-time model: seeded per-epoch
//!   transitions (DNSSEC adoption/abandonment, CDS and RFC 9615 signal
//!   flips, NS migrations) applied as deterministic world mutation with
//!   a ground-truth delta log, feeding the longitudinal scan tier.
//! * [`seeds`] — synthetic seed sources with the paper's structure
//!   (zone files via CZDS/AXFR, top lists, CT-log-derived ccTLD samples
//!   at 43–80 % coverage).

#![forbid(unsafe_code)]

pub mod build;
pub mod churn;
pub mod psl;
pub mod seeds;
pub mod spec;
pub mod truth;

pub use build::{build, Ecosystem, OperatorFlavor, OperatorInfo};
pub use churn::{
    apply_churn, ChurnAction, ChurnConfig, ChurnDelta, ChurnLog, ChurnPlan, TruthSnapshot,
};
pub use psl::PublicSuffixList;
pub use seeds::{shard_of, SeedLists};
pub use spec::{AdversaryArchetype, AdversaryOpSpec, EcosystemConfig, OperatorSpec};
pub use truth::{CdsState, DnssecState, SignalDefect, SignalTruth, ZoneTruth};
