//! # dns-resolver — iterative resolution with DNSSEC validation
//!
//! The measurement stack's view of the DNS tree:
//!
//! * [`DnsClient`] — one authoritative exchange: EDNS+DO query, virtual
//!   timing, truncation → TCP retry.
//! * [`Resolver`] — iterative walk from the root hints: referrals chased,
//!   glue used, out-of-bailiwick NS addresses resolved recursively, and
//!   the full delegation chain recorded ([`ChainLink`] per zone cut).
//! * [`ProvenanceCache`] — the one cache type behind everything the walk
//!   learns: striped, provenance-tagged, expiring in virtual time.
//! * [`RetryStats`] — a zone's one counter record: its [`QueryMeter`]
//!   holds it, and the client, the walk and the scanner count into it.
//! * [`validate`] — RFC 4035 chain validation over the recorded chain:
//!   trust anchor → DS → DNSKEY → RRSIG, producing
//!   [`Security::Secure`] / [`Security::Insecure`] / [`Security::Bogus`] /
//!   [`Security::Indeterminate`] exactly as the paper's classification
//!   needs (signed, unsigned, invalid, island are derived from these plus
//!   the DS/DNSKEY presence data).

pub mod cache;
pub mod cachelog;
pub mod client;
pub mod hostile;
pub mod iterate;
pub mod validate;

pub use cache::ProvenanceCache;
pub use cachelog::{CacheInsert, CacheLog, CutOutcome, ReferralData};
pub use client::{
    ClientError, ClientErrorKind, DnsClient, Exchange, IoCounters, QueryMeter, RetryPolicy,
};
pub use hostile::{HostileCause, RetryStats, ScanError};
pub use iterate::{ChainLink, Resolution, Resolver, ResolverError, RootHints, CACHE_TTL_MICROS};
pub use validate::{validate_resolution, Security};
