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
//! * [`write_checkpoint`]/[`read_checkpoint`] — periodic
//!   **checkpoints**: one journal-format file ([`CHECKPOINT_FILE`])
//!   holding the journal's byte prefix, replaced by atomic rename and
//!   read back by the journal's own reader; a checkpoint of another run
//!   is invisible and a corrupt one ends at its last valid frame (the
//!   journal stays authoritative).
//! * [`recover`] — merges whatever survived into the maximal contiguous
//!   event prefix ([`JournalSink::resume`] then makes the journal file
//!   hold all of it again); [`Recovery::resume_state`] +
//!   [`Recovery::apply_to`] then let a fresh
//!   [`Scanner`](bootscan::Scanner) continue mid-queue,
//!   **deterministically**: with a fixed seed and fault plan, a run
//!   killed at any point and resumed produces a byte-identical final
//!   report (`tests/crash_recovery.rs` at the workspace root proves
//!   this at ≥20 cut points).
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

mod checkpoint;
mod codec;
mod crc;
mod journal;
mod namespace;
mod recover;

pub use checkpoint::{read_checkpoint, write_atomically, write_checkpoint, CHECKPOINT_FILE};
pub use codec::{decode_event, encode_event, encode_event_into, CodecError};
pub use crc::{crc32, fnv64, Fnv64};
pub use journal::{
    read_journal, truncate_torn_tail, JournalHeader, JournalRead, JournalWriter, TailStatus,
    FORMAT_VERSION, JOURNAL_FILE, JOURNAL_MAGIC,
};
pub use namespace::{Level, Namespace};
pub use recover::{fingerprint_names, latest_per_zone, recover, JournalSink, Recovery};
