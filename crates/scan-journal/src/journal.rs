//! The write-ahead journal: an append-only file of checksummed frames.
//!
//! ## On-disk layout
//!
//! ```text
//! header  := magic "BSJ1" | version u16 LE | run_id u64 LE |
//!            fingerprint u64 LE | crc32(previous 22 bytes) u32 LE
//! frame   := len u32 LE | crc32(payload) u32 LE | payload
//! payload := seq u64 LE | encoded ZoneEvent (codec.rs)
//! ```
//!
//! The `ZoneScan` bytes inside an encoded event
//! ([`encode_scan_into`](crate::encode_scan_into)) are also what the
//! fabric merge's rolling digests hash, link by link.
//!
//! Sequence numbers are assigned by the writer and must be contiguous
//! within a file. Every journal this crate writes starts at seq 0 and
//! holds its whole prefix ([`JournalSink::resume`](crate::recover::JournalSink::resume)
//! rewrites a file that does not), which is what lets a checkpoint be a
//! plain copy of the file's first bytes; the reader itself accepts any
//! first seq. Every append is written before the scanner is allowed to
//! fold the zone into memory — the write-ahead discipline — and costs
//! one encode, one checksum and one `write`: the writer builds each
//! frame in place in a buffer it keeps ([`JournalWriter::append`]).
//! *Durability*
//! is batched (group commit): the caller decides when to
//! [`sync`](JournalWriter::sync), trading a bounded window of re-scannable
//! work on power loss for not paying an `fdatasync` per zone. Every sync
//! is a commit — not even the header is synced on its own.
//! [`JournalSink`](crate::recover::JournalSink) commits at every
//! [`COMMIT_EVERY`](crate::recover::JournalSink::COMMIT_EVERY)th
//! sequence number and when the scan finishes; whatever an unsynced tail
//! loses is exactly what recovery re-scans, so determinism is unaffected.
//! Power loss before the first commit can take the header too; the file
//! then reads as "no journal", and fewer than one commit unit of events
//! stood behind it.
//!
//! ## Torn tails
//!
//! A crash mid-append leaves a torn tail: a truncated frame, a frame
//! whose length survived but whose payload is garbage, or trailing junk.
//! [`read_journal`] never trusts such bytes — it stops at the last frame
//! whose checksum verifies and reports everything after it as
//! [`TailStatus::Torn`]; recovery then physically truncates the file to
//! `valid_len` so the next append starts on a clean boundary. The zones
//! whose events were dropped simply get re-scanned.

use crate::codec::{decode_event, encode_event_into};
use crate::crc::crc32;
use bootscan::ZoneEvent;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Journal file magic ("Bootstrap Scan Journal v1").
pub const JOURNAL_MAGIC: [u8; 4] = *b"BSJ1";
/// Current format version (bumped on any codec or framing change).
/// v2: `RetryStats` grew logical-query and per-cause hostile counters.
/// v3: `ZoneEffects` grew delegation-cache inserts (`referral_inserts`),
///     replayed on resume alongside the address-cache inserts.
/// v4: `ZoneEffects` lost its per-address health deltas (nothing read them).
pub const FORMAT_VERSION: u16 = 4;
/// Default journal file name inside a run directory.
pub const JOURNAL_FILE: &str = "journal.bsj";

/// Size of the file header in bytes.
pub(crate) const HEADER_LEN: u64 = 4 + 2 + 8 + 8 + 4;
/// Upper bound on a single frame payload; a "length" beyond this is
/// treated as tail corruption rather than attempted as an allocation.
const MAX_FRAME: u32 = 1 << 26;

/// Identity of a journal: which run produced it and over which seed
/// list. Recovery refuses to mix journals across runs or seed sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Caller-chosen run identifier (e.g. the scan seed).
    pub run_id: u64,
    /// Fingerprint of the seed-zone list
    /// ([`fingerprint_names`](crate::recover::fingerprint_names)).
    pub fingerprint: u64,
}

impl JournalHeader {
    fn to_bytes(self) -> [u8; HEADER_LEN as usize] {
        let mut b = [0u8; HEADER_LEN as usize];
        b[0..4].copy_from_slice(&JOURNAL_MAGIC);
        b[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        b[6..14].copy_from_slice(&self.run_id.to_le_bytes());
        b[14..22].copy_from_slice(&self.fingerprint.to_le_bytes());
        let crc = crc32(&b[0..22]);
        b[22..26].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// The header of a journal-format byte image, if it carries a valid
    /// one.
    pub(crate) fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < HEADER_LEN as usize
            || b[0..4] != JOURNAL_MAGIC
            || u16::from_le_bytes(b[4..6].try_into().unwrap()) != FORMAT_VERSION
            || u32::from_le_bytes(b[22..26].try_into().unwrap()) != crc32(&b[0..22])
        {
            return None;
        }
        Some(JournalHeader {
            run_id: u64::from_le_bytes(b[6..14].try_into().unwrap()),
            fingerprint: u64::from_le_bytes(b[14..22].try_into().unwrap()),
        })
    }
}

/// Appends framed, checksummed events; durability is explicit via
/// [`sync`](Self::sync) (group commit).
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    next_seq: u64,
    /// Bytes in the file: header plus every frame appended so far.
    len: u64,
    /// The frame being appended, reused from one append to the next.
    frame: Vec<u8>,
}

impl JournalWriter {
    /// Create (truncating) a fresh journal starting at `first_seq`
    /// (0 for every journal [`JournalSink`](crate::recover::JournalSink)
    /// writes). The header is written, not synced: the first
    /// [`sync`](Self::sync) commits it with the first frames.
    pub fn create(path: &Path, header: JournalHeader, first_seq: u64) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(&header.to_bytes())?;
        Ok(JournalWriter {
            file,
            next_seq: first_seq,
            len: HEADER_LEN,
            frame: Vec::new(),
        })
    }

    /// Open an existing (already validated and tail-truncated) journal
    /// for appending; `next_seq` continues the recovered sequence.
    pub fn open_append(path: &Path, next_seq: u64) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(JournalWriter {
            file,
            next_seq,
            len,
            frame: Vec::new(),
        })
    }

    /// The sequence number the next [`append`](Self::append) will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Length of the file in bytes. The file is append-only, so its
    /// first `bytes_written()` bytes never change again: a checkpoint
    /// copies exactly that prefix.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.len
    }

    /// Append one event; returns its sequence number. The frame is
    /// handed to the OS before returning but not `fdatasync`ed — call
    /// [`sync`](Self::sync) to commit a batch.
    ///
    /// The frame is built in place in the writer's one buffer — room
    /// for `len | crc`, then `seq`, then the event encoded straight
    /// behind it, then the two fields filled in — and leaves in one
    /// `write_all`, so an append allocates only while that buffer is
    /// still growing to the largest event seen.
    pub fn append(&mut self, event: &ZoneEvent) -> io::Result<u64> {
        let seq = self.next_seq;
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; 8]);
        frame.extend_from_slice(&seq.to_le_bytes());
        encode_event_into(frame, event);
        let (head, payload) = frame.split_at_mut(8);
        head[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
        self.file.write_all(frame)?;
        self.next_seq = seq + 1;
        self.len += frame.len() as u64;
        Ok(seq)
    }

    /// Commit every appended frame to stable storage (group commit).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// What the end of a journal file looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The file ends exactly on a frame boundary.
    Clean,
    /// Bytes after the last checksum-valid frame were dropped (torn
    /// write, garbage, or a checksum/sequence violation).
    Torn { dropped_bytes: u64 },
}

/// Result of scanning a journal file.
#[derive(Debug)]
pub struct JournalRead {
    /// `None` when the header itself was torn or corrupt — the file
    /// contributes nothing and should be recreated.
    pub header: Option<JournalHeader>,
    /// Checksum-valid, sequence-contiguous entries, in order.
    pub entries: Vec<(u64, ZoneEvent)>,
    pub tail: TailStatus,
    /// Byte offset of the end of the last valid frame (truncation
    /// target when the tail is torn).
    pub valid_len: u64,
}

/// Read a journal, stopping at — never trusting — the first corrupt
/// byte. I/O errors (missing file, permission) surface as `Err`;
/// *corruption is not an error*, it is a [`TailStatus::Torn`] report.
pub fn read_journal(path: &Path) -> io::Result<JournalRead> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    Ok(parse(JournalHeader::from_bytes(&raw), &raw))
}

#[cfg(test)]
thread_local! {
    /// Frames [`parse`] has decoded on this thread: lets a test count
    /// how often a recovery touches each event.
    pub(crate) static FRAMES_DECODED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The one frame reader: walk the journal-format byte image `raw`,
/// whose header the caller has already read as `header`, up to the
/// first byte that cannot be trusted.
pub(crate) fn parse(header: Option<JournalHeader>, raw: &[u8]) -> JournalRead {
    let total = raw.len() as u64;
    let torn = |entries: Vec<(u64, ZoneEvent)>, valid_len: u64| JournalRead {
        header,
        entries,
        tail: TailStatus::Torn {
            dropped_bytes: total - valid_len,
        },
        valid_len,
    };
    if header.is_none() {
        return torn(Vec::new(), 0);
    }

    let mut entries: Vec<(u64, ZoneEvent)> = Vec::new();
    let mut pos = HEADER_LEN as usize;
    loop {
        let valid_len = pos as u64;
        let rest = &raw[pos..];
        if rest.is_empty() {
            return JournalRead {
                header,
                entries,
                tail: TailStatus::Clean,
                valid_len,
            };
        }
        if rest.len() < 8 {
            return torn(entries, valid_len);
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if !(8..=MAX_FRAME).contains(&len) || rest.len() < 8 + len as usize {
            return torn(entries, valid_len);
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            return torn(entries, valid_len);
        }
        let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        if let Some((last, _)) = entries.last() {
            if seq != last + 1 {
                return torn(entries, valid_len);
            }
        }
        match decode_event(&payload[8..]) {
            Ok(event) => entries.push((seq, event)),
            // A checksum-valid but undecodable frame means a format bug;
            // treat it like corruption rather than trusting it.
            Err(_) => return torn(entries, valid_len),
        }
        #[cfg(test)]
        FRAMES_DECODED.with(|n| n.set(n.get() + 1));
        pos += 8 + len as usize;
    }
}

/// Physically truncate a journal whose tail [`read_journal`] reported
/// torn, so the next append starts on a clean frame boundary.
pub fn truncate_torn_tail(path: &Path, valid_len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::rich_event;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("scan-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const HDR: JournalHeader = JournalHeader {
        run_id: 42,
        fingerprint: 0xDEAD_BEEF,
    };

    fn write_n(path: &Path, n: u64) -> Vec<(u64, ZoneEvent)> {
        let mut w = JournalWriter::create(path, HDR, 0).unwrap();
        let mut out = Vec::new();
        for i in 0..n {
            let mut e = rich_event();
            e.scan.queries = i as u32;
            let seq = w.append(&e).unwrap();
            assert_eq!(seq, i);
            out.push((seq, e));
        }
        out
    }

    #[test]
    fn clean_journal_round_trips() {
        let dir = tmpdir("clean");
        let path = dir.join(JOURNAL_FILE);
        let written = write_n(&path, 5);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.header, Some(HDR));
        assert_eq!(read.tail, TailStatus::Clean);
        assert_eq!(read.entries.len(), 5);
        for ((sa, ea), (sb, eb)) in written.iter().zip(&read.entries) {
            assert_eq!(sa, sb);
            assert_eq!(ea.scan.queries, eb.scan.queries);
        }
    }

    #[test]
    fn appended_frame_is_len_crc_seq_event_assembled_the_long_way() {
        use crate::codec::encode_event;
        let dir = tmpdir("framebytes");
        let path = dir.join(JOURNAL_FILE);
        let written = write_n(&path, 2);
        // Every frame from its parts, each in a buffer of its own.
        let mut expected = HDR.to_bytes().to_vec();
        for (seq, event) in &written {
            let mut payload = seq.to_le_bytes().to_vec();
            payload.extend_from_slice(&encode_event(event));
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&crc32(&payload).to_le_bytes());
            expected.extend_from_slice(&payload);
        }
        assert_eq!(std::fs::read(&path).unwrap(), expected);
    }

    #[test]
    fn truncated_tail_is_detected_and_truncatable() {
        let dir = tmpdir("trunc");
        let path = dir.join(JOURNAL_FILE);
        write_n(&path, 3);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Chop bytes off the end: every prefix must parse to ≤3 entries
        // with no panic, and truncation must restore a clean file.
        for cut in 1..40 {
            let mut raw = std::fs::read(&path).unwrap();
            raw.truncate(raw.len() - cut);
            let torn_path = dir.join(format!("torn-{cut}.bsj"));
            std::fs::write(&torn_path, &raw).unwrap();
            let read = read_journal(&torn_path).unwrap();
            assert!(read.entries.len() <= 3);
            if (read.valid_len) < raw.len() as u64 {
                assert!(matches!(read.tail, TailStatus::Torn { .. }));
                truncate_torn_tail(&torn_path, read.valid_len).unwrap();
                let reread = read_journal(&torn_path).unwrap();
                assert_eq!(reread.tail, TailStatus::Clean);
                assert_eq!(reread.entries.len(), read.entries.len());
            }
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    }

    #[test]
    fn corrupt_byte_in_last_frame_drops_only_that_frame() {
        let dir = tmpdir("corrupt");
        let path = dir.join(JOURNAL_FILE);
        write_n(&path, 4);
        let raw = std::fs::read(&path).unwrap();
        // Flip a byte inside the last frame's payload.
        let mut bad = raw.clone();
        let idx = bad.len() - 10;
        bad[idx] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        let read = read_journal(&path).unwrap();
        assert_eq!(read.entries.len(), 3, "last frame must fail its checksum");
        assert!(matches!(read.tail, TailStatus::Torn { .. }));
    }

    #[test]
    fn garbage_appended_after_clean_frames_is_dropped() {
        let dir = tmpdir("garbage");
        let path = dir.join(JOURNAL_FILE);
        write_n(&path, 2);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&[0xAB; 17]);
        std::fs::write(&path, &raw).unwrap();
        let read = read_journal(&path).unwrap();
        assert_eq!(read.entries.len(), 2);
        assert_eq!(
            read.tail,
            TailStatus::Torn { dropped_bytes: 17 },
            "exactly the garbage bytes are dropped"
        );
        assert_eq!(read.valid_len, clean_len);
    }

    #[test]
    fn corrupt_header_yields_no_entries() {
        let dir = tmpdir("hdr");
        let path = dir.join(JOURNAL_FILE);
        write_n(&path, 2);
        let mut raw = std::fs::read(&path).unwrap();
        raw[1] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let read = read_journal(&path).unwrap();
        assert_eq!(read.header, None);
        assert!(read.entries.is_empty());
        assert_eq!(read.valid_len, 0);
    }

    #[test]
    fn append_resumes_sequence_numbers() {
        let dir = tmpdir("resume");
        let path = dir.join(JOURNAL_FILE);
        write_n(&path, 2);
        let mut w = JournalWriter::open_append(&path, 2).unwrap();
        assert_eq!(w.append(&rich_event()).unwrap(), 2);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.entries.len(), 3);
        assert_eq!(read.tail, TailStatus::Clean);
    }

    #[test]
    fn fresh_journal_may_start_at_nonzero_seq() {
        let dir = tmpdir("nonzero");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, HDR, 7).unwrap();
        assert_eq!(w.append(&rich_event()).unwrap(), 7);
        assert_eq!(w.append(&rich_event()).unwrap(), 8);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.entries[0].0, 7);
        assert_eq!(read.entries[1].0, 8);
        assert_eq!(read.tail, TailStatus::Clean);
    }
}
