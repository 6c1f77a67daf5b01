//! Helpers shared by the integration suites.

use bootscan::ZoneScan;
use scan_journal::{CHECKPOINT_FILE, JOURNAL_FILE};
use std::fs;
use std::path::Path;

/// Assert two zone tables equal in every field: lengths first, then zone
/// by zone, so a failure prints only the first zone that differs.
#[track_caller]
pub fn assert_same_zones(expected: &[ZoneScan], got: &[ZoneScan], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: zone counts differ");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(e, g, "{what}: zone {} differs", e.name);
    }
}

/// Size of a journal header (magic, version, run id, fingerprint, CRC;
/// the layout in `scan-journal`'s `journal.rs`).
const HEADER_LEN: usize = 26;

/// Leave the journal in `dir` as a death or a power cut can: its header
/// and first `frames` frames (each `len u32 | crc u32 | payload`).
/// `checkpoint.bsj` stays as it is when `checkpoint` is set and is
/// deleted otherwise.
pub fn keep_frames(dir: &Path, frames: u64, checkpoint: bool) {
    let path = dir.join(JOURNAL_FILE);
    let raw = fs::read(&path).unwrap();
    let mut len = HEADER_LEN;
    for _ in 0..frames {
        len += 8 + u32::from_le_bytes(raw[len..len + 4].try_into().unwrap()) as usize;
    }
    fs::write(&path, &raw[..len]).unwrap();
    if !checkpoint {
        let _ = fs::remove_file(dir.join(CHECKPOINT_FILE));
    }
}
