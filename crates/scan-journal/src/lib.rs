//! # scan-journal — crash-recoverable scan progress
//!
//! A registry-scale scan (§5/Appendix D of the paper) runs for hours;
//! the scanner must survive being killed at *any* instant without
//! losing completed work or, worse, silently trusting corrupt state.
//! This crate provides the persistence layer that makes the
//! [`bootscan`] scanner crash-recoverable:
//!
//! * [`JournalWriter`]/[`read_journal`] — a versioned, checksummed,
//!   append-only **write-ahead journal** of per-zone scan outcomes
//!   ([`ZoneEvent`](bootscan::ZoneEvent)s, including each zone's side
//!   effects on shared scanner caches). Torn tails from a mid-write
//!   crash are detected by CRC, reported, and physically truncated —
//!   never trusted.
//! * [`recover`] — reads the journal back, the only copy of a run's
//!   progress: its checksum-valid frames from seq 0, with a torn tail
//!   truncated on disk; whatever it lost is re-scanned.
//!   [`Recovery::resume_state`] + [`Recovery::apply_to`] then let a
//!   fresh [`Scanner`](bootscan::Scanner) continue mid-queue,
//!   **deterministically**: with a fixed seed and fault plan, a run
//!   killed at any point and resumed produces a byte-identical final
//!   report (`tests/crash_recovery.rs` at the workspace root proves
//!   this at ≥20 cut points).
//! * [`for_each_recovered`] — `recover`'s events streamed one decoded
//!   event at a time, without touching the file: how a continuous
//!   study rebuilds a shard's carried caches from its earlier journals.
//! * [`JournalSink`] — the [`ProgressSink`](bootscan::ProgressSink)
//!   that wires all of this into
//!   [`Scanner::scan_all_with`](bootscan::Scanner::scan_all_with).
//!
//! ```no_run
//! use scan_journal::{fingerprint_names, recover, JournalHeader, JournalSink};
//! # fn demo(scanner: std::sync::Arc<bootscan::Scanner>, seeds: Vec<dns_wire::name::Name>) {
//! let dir = std::path::Path::new("scan-state");
//! let header = JournalHeader { run_id: 42, fingerprint: fingerprint_names(&seeds) };
//! let recovery = recover(dir, header).expect("recovery");
//! recovery.apply_to(&scanner);
//! scanner.scan_all_with(
//!     &seeds,
//!     Some(&JournalSink::resume(dir, &recovery).expect("journal")),
//!     Some(recovery.resume_state()),
//! );
//! # }
//! ```

mod codec;
mod crc;
mod journal;
mod namespace;
mod recover;

pub use codec::{
    decode_event, encode_event, encode_event_into, encode_evidence_into, encode_scan_into,
    CodecError,
};
pub use crc::{crc32, fnv64};
pub use journal::{
    read_journal, truncate_torn_tail, write_atomically, JournalHeader, JournalRead, JournalWriter,
    TailStatus, FORMAT_VERSION, JOURNAL_FILE, JOURNAL_MAGIC,
};
pub use namespace::{Level, Namespace};
pub use recover::{
    fingerprint_names, for_each_recovered, latest_per_zone, recover, JournalSink, Recovery,
};
