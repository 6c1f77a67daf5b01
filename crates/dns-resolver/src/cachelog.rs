//! Per-meter cache-effect log: every insert the resolver makes into its
//! shared caches while working under a [`QueryMeter`] is recorded here,
//! attributed to exactly the zone whose meter paid for the queries that
//! produced it. The scanner drains the log after each zone and writes it
//! to the crash-recovery journal, so a resumed scan can replay the exact
//! cache state the uninterrupted run would have seen — even when several
//! workers share the caches and inserts interleave. The log itself
//! belongs to one meter, hence to one lane: appending takes no lock.
//!
//! Entries hold `Arc`s into the live cache values, so logging costs one
//! pointer bump per insert instead of a deep clone under the cache lock.
//!
//! [`QueryMeter`]: crate::client::QueryMeter

use dns_wire::name::Name;
use dns_wire::rdata::{DsData, RrsigData};
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
    /// Server addresses of the parent zone (for re-querying DS).
    pub parent_servers: Vec<Addr>,
}

/// Cache inserts performed under one meter, in insertion order.
#[derive(Debug, Default)]
pub struct CacheLog {
    /// NS hostname → resolved addresses.
    pub addr_inserts: Vec<(Name, Arc<Vec<Addr>>)>,
    /// Zone cut → referral data learned from its parent.
    pub referral_inserts: Vec<(Name, Arc<ReferralData>)>,
}

impl CacheLog {
    pub fn is_empty(&self) -> bool {
        self.addr_inserts.is_empty() && self.referral_inserts.is_empty()
    }
}
