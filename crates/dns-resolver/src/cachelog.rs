//! Per-meter cache-effect log: every insert made into a shared cache
//! while working under a [`QueryMeter`] — the resolver's address and
//! delegation caches, the scanner's validated-key and zone-cut probe
//! caches — is recorded here, attributed to exactly the zone whose meter
//! paid for the queries that produced it. The log is one list in
//! insertion order, each entry a cache key and a [`CacheInsert`] naming
//! the cache it went into. The scanner takes the log when it seals a
//! zone and hands it, as is, to the crash-recovery journal (`bootscan`
//! re-exports [`CacheLog`] as `ZoneEffects`), so a resumed scan can
//! replay the exact cache state the uninterrupted run would have seen —
//! even when several lanes share the caches and inserts interleave. The
//! log itself belongs to one meter, hence to one lane: appending takes
//! no lock.
//!
//! Entries hold the same `Arc`s (and, for zone-cut outcomes, the same
//! name buffers) the caches hold, so logging an insert and seeding it
//! back both cost a pointer bump, never a deep clone.
//!
//! [`QueryMeter`]: crate::client::QueryMeter

use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RrsigData};
use netsim::Addr;
use std::sync::Arc;

/// Positive referral data for one zone cut, as learned from the parent:
/// everything a later walk needs to reconstruct the crossed
/// [`ChainLink`](crate::iterate::ChainLink) without re-querying the
/// parent. `ds: None` doubles as the *negative* DS cache — the referral
/// carried no DS records, and that absence is itself an answer (an
/// insecure delegation) that repeat walks must not re-fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferralData {
    /// Apex of the zone that spoke the referral.
    pub parent_apex: Name,
    /// NS target names at the cut.
    pub ns_names: Vec<Name>,
    /// DS RRs at the parent side (`None` = insecure delegation).
    pub ds: Option<Vec<DsData>>,
    /// RRSIGs over the DS RRset.
    pub ds_rrsigs: Vec<RrsigData>,
    /// Server addresses the walk used for the child zone.
    pub child_servers: Vec<Addr>,
}

/// One zone-cut probe outcome: which zone answered the NS question at a
/// label on a signal path, and whether it served an NS RRset there. The
/// label is the cache key; `apex` is also the entry's provenance, and a
/// probe answered by any other apex never reads the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutOutcome {
    /// Apex of the zone whose server answered.
    pub apex: Name,
    /// The answer held an NS RRset owned by the label.
    pub has_ns: bool,
}

/// One shared-cache insert: the value and, by its variant, the cache it
/// went into. The name it is logged with is its cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheInsert {
    /// Validated-key cache: zone apex → its validated DNSKEY set.
    Keys(Arc<Vec<DnskeyData>>),
    /// Address cache: NS hostname → resolved addresses.
    Addrs(Arc<Vec<Addr>>),
    /// Delegation cache: zone cut → referral data learned from its
    /// parent.
    Referral(Arc<ReferralData>),
    /// Zone-cut probe cache: signal-path label → probe outcome.
    Cut(CutOutcome),
}

/// Cache inserts performed under one meter — one zone scan's side
/// effects on shared scanner state — in insertion order.
pub type CacheLog = Vec<(Name, CacheInsert)>;
