//! Helpers shared by the integration suites.

use bootscan::{CdsClass, DnssecClass, ProgressSink, ZoneEvent};
use dns_ecosystem::{CdsState, DnssecState, ZoneTruth};
use scan_journal::JOURNAL_FILE;
use std::cell::RefCell;
use std::fmt::Debug;
use std::fs;
use std::path::Path;

/// Assert two zone tables (scans or their evidence) equal in every
/// field: lengths first, then zone by zone, so a failure prints only the
/// first zone that differs.
#[track_caller]
pub fn assert_same_zones<Z: PartialEq + Debug>(expected: &[Z], got: &[Z], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: zone counts differ");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        assert_eq!(e, g, "{what}: zone #{i} differs");
    }
}

/// Size of a journal header (magic, version, run id, fingerprint, CRC;
/// the layout in `scan-journal`'s `journal.rs`).
const HEADER_LEN: usize = 26;

/// Bytes of a journal image `raw` up to the end of its first `frames`
/// frames (each `len u32 | crc u32 | payload`).
pub fn frames_len(raw: &[u8], frames: u64) -> usize {
    let mut len = HEADER_LEN;
    for _ in 0..frames {
        len += 8 + u32::from_le_bytes(raw[len..len + 4].try_into().unwrap()) as usize;
    }
    len
}

/// Leave the journal in `dir` as a death or a power cut can: its header
/// and first `frames` frames.
pub fn keep_frames(dir: &Path, frames: u64) {
    let path = dir.join(JOURNAL_FILE);
    let raw = fs::read(&path).unwrap();
    fs::write(&path, &raw[..frames_len(&raw, frames)]).unwrap();
}

/// The DNSSEC class a perfect scanner must assign to a planted zone.
pub fn expect_dnssec(truth: &ZoneTruth) -> DnssecClass {
    match truth.dnssec {
        DnssecState::Unsigned => DnssecClass::Unsigned,
        DnssecState::Secured => DnssecClass::Secured,
        DnssecState::Invalid => DnssecClass::Invalid,
        DnssecState::Island => DnssecClass::Island,
    }
}

/// The CDS class a perfect scanner must assign to a planted zone.
pub fn expect_cds(truth: &ZoneTruth) -> CdsClass {
    match truth.cds {
        CdsState::None => CdsClass::Absent,
        CdsState::Valid => CdsClass::Valid,
        CdsState::Delete => CdsClass::Delete,
        CdsState::MismatchesDnskey => CdsClass::MismatchesDnskey,
        CdsState::BadSignature => CdsClass::BadSignature,
        CdsState::Inconsistent => CdsClass::Inconsistent,
    }
}

/// Keeps every event a scan emits, in order.
#[derive(Default)]
pub struct EventLog(pub RefCell<Vec<ZoneEvent>>);

impl ProgressSink for EventLog {
    fn on_zone(&self, event: &ZoneEvent) -> bool {
        self.0.borrow_mut().push(event.clone());
        true
    }
}
