//! # bootscan — the paper's measurement system
//!
//! A from-scratch reproduction of the scanner + analysis pipeline of
//! *"Measuring the Deployment of DNSSEC Bootstrapping Using Authenticated
//! Signals"* (IMC 2025):
//!
//! * [`scanner::Scanner`] — the YoDNS-equivalent: resolves each zone's
//!   delegation, queries every authoritative NS address for
//!   DNSKEY/CDS/CDNSKEY with DNSSEC validation, probes RFC 9615 signal
//!   names, applies the Cloudflare 2-of-12 sampling policy, and rate
//!   limits itself to 50 queries/s per nameserver — all in deterministic
//!   virtual time over [`netsim`].
//! * [`classify`] — the paper's category logic: DNSSEC status (§4.1), CDS
//!   status (§4.2), and the Authenticated-Bootstrapping waterfall
//!   (§4.3/§4.4).
//! * [`operator`] — NS-suffix operator identification with white-label
//!   support (§3).
//! * [`report`] — regenerates Figure 1 and Tables 1–3 plus the CDS
//!   census.
//! * [`budget`] — scan cost and the Appendix D registry-feasibility
//!   estimate.
//! * [`policy`] — the Appendix C bootstrap-policy comparison (the five
//!   RFC 8078 alternatives vs RFC 9615), made quantitative.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dns_ecosystem::{build, EcosystemConfig};
//! use bootscan::{Scanner, ScanPolicy};
//!
//! let eco = build(EcosystemConfig::tiny(42));
//! let scanner = Scanner::for_ecosystem(&eco, ScanPolicy::default());
//! let seeds = eco.seeds.compile(&eco.psl);
//! let results = scanner.scan_all(&seeds);
//! println!("{}", bootscan::report::figure1(&results).render());
//! ```

#![forbid(unsafe_code)]

pub mod budget;
pub mod classify;
pub mod error;
pub mod health;
pub mod operator;
pub mod policy;
pub mod progress;
pub mod report;
pub mod scanner;
pub mod types;

pub use dns_resolver::ReferralData;
pub use error::{RetryStats, ScanError};
pub use health::CircuitBreaker;
pub use operator::{Identified, OperatorTable};
pub use progress::{ProgressSink, ResumeState, ZoneEffects, ZoneEvent};
pub use scanner::{ScanPolicy, ScanResults, Scanner};
pub use types::{AbClass, CannotReason, CdsClass, DnssecClass, SignalViolation, ZoneScan};
