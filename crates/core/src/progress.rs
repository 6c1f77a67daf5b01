//! Zone-granular scan progress: the event stream a write-ahead journal
//! persists, and the resume state a recovered journal feeds back in.
//!
//! [`Scanner::scan_all_with`](crate::scanner::Scanner::scan_all_with)
//! emits one [`ZoneEvent`] per finished zone scan (main pass and re-scan
//! passes alike) to an optional [`ProgressSink`] *before* folding the
//! result into its in-memory state — write-ahead discipline, so a crash
//! can never leave a zone counted in memory but missing from the journal.
//!
//! Each event carries not just the [`ZoneScan`] but the scan's *side
//! effects* on shared scanner state ([`ZoneEffects`] — the zone meter's
//! own [`CacheLog`](dns_resolver::CacheLog), not a copy of it): one list,
//! in the order the scan made them, of validated-key, address,
//! delegation and zone-cut probe cache inserts, each a
//! [`CacheInsert`](dns_resolver::CacheInsert) under its cache key.
//! Replaying events in order therefore rebuilds the scanner's shared
//! caches exactly, which is what makes resumption deterministic: a
//! resumed zone scan sees the same cache hits and misses it would have
//! seen in the uninterrupted run.

use crate::types::ZoneScan;
use netsim::SimMicros;

/// Side effects one zone scan had on shared scanner state: exactly the
/// cache inserts it paid for, as its meter logged them. Every entry
/// holds the `Arc` the cache holds, so sealing a zone moves the log and
/// seeding it back (`Scanner::seed_effects`) bumps pointers.
pub use dns_resolver::CacheLog as ZoneEffects;

/// One finished zone scan, as emitted to a [`ProgressSink`]. A re-scan
/// event's `scan` is the *kept* (merged) result, stamped with its pass in
/// `retry_stats.rescans`, while its `effects` are those of the fresh
/// probe that actually ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneEvent {
    pub scan: ZoneScan,
    pub effects: ZoneEffects,
    /// This event's contribution to `simulated_duration` (the fresh
    /// probe's elapsed virtual time).
    pub duration_delta: SimMicros,
}

/// Receives zone events as they complete. A scan with a sink is one
/// sequential lane: every `on_zone` call comes from the thread that
/// called `scan_all_with`, one at a time, in seed order — so a sink
/// needs neither `Sync` nor a lock around its own state.
///
/// Returning `false` stops the scan (used by the journal sink on I/O
/// errors, and by the crash harness to simulate process death); the
/// event that got `false` is *not* folded into the in-memory results.
pub trait ProgressSink {
    fn on_zone(&self, event: &ZoneEvent) -> bool;
}

/// Prior progress to resume from, reconstructed from a recovered
/// journal: the latest kept result per completed zone, plus the summed
/// duration deltas of every journaled event.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    pub zones: Vec<ZoneScan>,
    pub duration_so_far: SimMicros,
}
