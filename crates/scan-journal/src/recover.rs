//! Crash recovery: read the journal back into resumable state.
//!
//! [`recover`] is the single entry point a restarted scanner calls. It
//! reads the run directory's journal — the only copy of a run's
//! progress — validates it against the expected run identity, truncates
//! any torn tail on disk, and returns its events. It is also the fabric
//! merge's and the epoch fold's reader, so it touches each event once.
//! [`for_each_recovered`] hands out the same events one at a time and
//! leaves the file alone: a later epoch's shard rebuilds its carried
//! caches from its earlier journals through it.
//! From those events:
//!
//! * [`Recovery::resume_state`] yields the [`ResumeState`] to pass to
//!   [`Scanner::scan_all_with`](bootscan::scanner::Scanner::scan_all_with)
//!   — the latest kept result per completed zone plus the virtual time
//!   already accounted for;
//! * [`Recovery::apply_to`] replays every event's side effects
//!   (validated-key, address, delegation and zone-cut probe cache
//!   inserts) into a
//!   fresh [`Scanner`] in journal order, so resumed zone scans see
//!   exactly the shared-cache state the uninterrupted run would have
//!   had at that point.
//!
//! [`JournalSink`] is the production [`ProgressSink`]: it appends each
//! event to the journal, commits every
//! [`COMMIT_EVERY`](JournalSink::COMMIT_EVERY) events (stopping the scan
//! — returning `false` — if the disk fails), and commits the tail in
//! [`JournalSink::finish`]. A journaled scan is one sequential lane, so
//! the sink is plain single-threaded state: each fabric shard has its
//! own.
//!
//! [`latest_per_zone`] is the one fold from a journal's events to "the
//! kept scan of every zone": resume, the fabric merge and the epoch
//! fold all read a shard journal through it. The merge's digests then
//! hash each kept scan in the journal's own encoding
//! ([`encode_scan_into`](crate::encode_scan_into)), so a field the
//! journal carries is a field the digest covers.
//!
//! Whatever the journal lost — a torn tail, a damaged frame, the whole
//! file — is re-scanned, and the determinism invariant makes the re-scan
//! byte-identical to the lost work.

use crate::crc::fnv64;
use crate::journal::{
    read_journal, truncate_torn_tail, JournalHeader, JournalReader, JournalWriter, TailStatus,
    JOURNAL_FILE,
};
use bootscan::scanner::Scanner;
use bootscan::{ProgressSink, ResumeState, ZoneEvent, ZoneScan};
use dns_wire::name::Name;
use netsim::SimMicros;
use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::Path;

/// Stable fingerprint of a seed-zone list. Stored in the journal header
/// so a journal cannot silently be resumed against a different target
/// list (which would mis-skip or mis-carry zones).
pub fn fingerprint_names(names: &[Name]) -> u64 {
    let wires: Vec<Vec<u8>> = names.iter().map(|n| n.to_wire()).collect();
    let mut chunks: Vec<&[u8]> = Vec::with_capacity(wires.len() * 2);
    for w in &wires {
        chunks.push(&[0xFF]);
        chunks.push(w);
    }
    fnv64(&chunks)
}

/// Fold a journal's events to the latest kept scan per zone, in
/// canonical name order, plus the summed duration deltas of *every*
/// event. A later event supersedes an earlier one for the same zone: a
/// re-scan pass's kept result replaces the main-pass one. The scans are
/// the events' own, shared.
pub fn latest_per_zone(events: &[(u64, ZoneEvent)]) -> (Vec<ZoneScan>, SimMicros) {
    let duration = events.iter().map(|(_, e)| e.duration_delta).sum();
    // Newest first, then a stable sort: the first scan of each run of
    // equal names is the newest, and `dedup_by` keeps the first.
    let mut latest: Vec<ZoneScan> = events.iter().rev().map(|(_, e)| e.scan.clone()).collect();
    latest.sort_by(|a, b| a.name.canonical_cmp(&b.name));
    latest.dedup_by(|older, newest| older.name == newest.name);
    (latest, duration)
}

/// Everything recovered from a run directory.
#[derive(Debug)]
pub struct Recovery {
    header: JournalHeader,
    /// The journal's events from seq 0, in order. When there are any,
    /// the file on disk holds exactly these once `recover` returns.
    pub events: Vec<(u64, ZoneEvent)>,
    /// Tail state of the journal file as found on disk (already
    /// truncated clean by the time `recover` returns).
    pub journal_tail: TailStatus,
}

impl Recovery {
    /// Sequence number the resumed run's next event will get.
    pub fn next_seq(&self) -> u64 {
        self.events.len() as u64
    }

    /// Completed zones (latest kept result each) and accumulated
    /// virtual duration, ready for
    /// [`scan_all_with`](bootscan::scanner::Scanner::scan_all_with).
    pub fn resume_state(&self) -> ResumeState {
        let (latest, duration_so_far) = latest_per_zone(&self.events);
        ResumeState {
            zones: latest,
            duration_so_far,
        }
    }

    /// Replay every recovered event's cache inserts into `scanner`, in
    /// journal order. Must be called on the scanner that will run the
    /// resumed scan, before `scan_all_with`, so resumed zone scans see
    /// exactly the cache state they would have seen in the uninterrupted
    /// run — which is why replayed entries never expire: expiry is an
    /// epoch-level concern.
    pub fn apply_to(&self, scanner: &Scanner) {
        for (_, event) in &self.events {
            scanner.seed_effects(&event.effects, SimMicros::MAX);
        }
    }
}

/// Recover the journal in `dir`: [`read_journal`]'s checksum-valid
/// frames, with a torn tail truncated on disk.
///
/// * no journal → empty recovery (fresh start);
/// * a journal whose header identifies a different run or seed list → a
///   hard error: resuming against the wrong target list must never
///   happen silently;
/// * a header that is torn, corrupt or of another format version, or
///   frames not starting at seq 0 (no sink writes such a file) → empty
///   recovery, and [`JournalSink::resume`] starts the file afresh.
pub fn recover(dir: &Path, expected: JournalHeader) -> io::Result<Recovery> {
    let path = dir.join(JOURNAL_FILE);
    let read = match read_journal(&path) {
        Ok(read) => read,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(Recovery {
                header: expected,
                events: Vec::new(),
                journal_tail: TailStatus::Clean,
            })
        }
        Err(e) => return Err(e),
    };
    check_run(read.header, expected)?;
    if read.header.is_some() && read.tail != TailStatus::Clean {
        truncate_torn_tail(&path, read.valid_len)?;
    }
    let mut events = read.entries;
    if events.first().is_some_and(|(seq, _)| *seq != 0) {
        events.clear();
    }
    Ok(Recovery {
        header: expected,
        events,
        journal_tail: read.tail,
    })
}

/// A journal whose header names another run or seed list is a hard
/// error; an unusable header (`None`) is not.
fn check_run(found: Option<JournalHeader>, expected: JournalHeader) -> io::Result<()> {
    match found {
        Some(h) if h != expected => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "journal belongs to a different run \
                 (found run_id={} fingerprint={:#x}, \
                 expected run_id={} fingerprint={:#x})",
                h.run_id, h.fingerprint, expected.run_id, expected.fingerprint
            ),
        )),
        _ => Ok(()),
    }
}

/// Hand `each` the events [`recover`] would return for `dir`'s journal,
/// in journal order, one decoded event alive at a time, under the same
/// rules: none for a missing journal, an unusable header or frames not
/// starting at seq 0, a hard error for another run's header, and a stop
/// at the first torn frame. The file is only read — a torn tail stays
/// on disk for the `recover` that resumes it.
pub fn for_each_recovered(
    dir: &Path,
    expected: JournalHeader,
    mut each: impl FnMut(ZoneEvent),
) -> io::Result<()> {
    let reader = match JournalReader::open(&dir.join(JOURNAL_FILE)) {
        Ok(reader) => reader,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    check_run(reader.header(), expected)?;
    // The reader keeps the frames contiguous, so only the first can
    // differ here.
    for (want, frame) in (0u64..).zip(reader) {
        let (seq, event) = frame?;
        if seq != want {
            break;
        }
        each(event);
    }
    Ok(())
}

/// The production [`ProgressSink`]: write-ahead journal and group
/// commit. Returns `false` from `on_zone` (stopping the scan) when the
/// journal cannot be written or committed. A scan that ran to the end
/// is durable only once [`finish`](Self::finish) has committed its tail.
///
/// Interior mutability is `RefCell`, not a lock: the scanner calls a
/// sink from one thread, one event at a time.
pub struct JournalSink {
    writer: RefCell<JournalWriter>,
}

impl JournalSink {
    /// The commit unit: `on_zone` `fdatasync`s the journal once its
    /// sequence reaches a multiple of this. Power loss therefore costs
    /// fewer than `COMMIT_EVERY` re-scanned zones per journal.
    pub const COMMIT_EVERY: u64 = 64;

    /// Start a fresh run in `dir` (created if needed), replacing any
    /// journal already there.
    pub fn create(dir: &Path, header: JournalHeader) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let writer = JournalWriter::create(&dir.join(JOURNAL_FILE), header, 0)?;
        Ok(JournalSink {
            writer: RefCell::new(writer),
        })
    }

    /// Continue a recovered run: append behind the events `recover`
    /// left in the journal, or [`create`](Self::create) it afresh when
    /// it recovered none.
    pub fn resume(dir: &Path, recovery: &Recovery) -> io::Result<Self> {
        if recovery.events.is_empty() {
            return Self::create(dir, recovery.header);
        }
        let writer = JournalWriter::open_append(&dir.join(JOURNAL_FILE), recovery.next_seq())?;
        Ok(JournalSink {
            writer: RefCell::new(writer),
        })
    }

    /// Number of events journaled so far (including recovered ones).
    pub fn entries_logged(&self) -> u64 {
        self.writer.borrow().next_seq()
    }

    /// Commit everything journaled so far: what the old checkpoint
    /// entry point now does, kept so its callers still build.
    #[doc(hidden)]
    pub fn checkpoint_now(&self) -> io::Result<()> {
        self.writer.borrow_mut().sync()
    }

    /// Commit the tail the last [`COMMIT_EVERY`](Self::COMMIT_EVERY)
    /// boundary left unsynced. A scan is durable — and may be reported
    /// complete — only once this returns `Ok`; a sink dropped without it
    /// leaves the tail to the OS, like a killed process.
    pub fn finish(self) -> io::Result<()> {
        self.writer.into_inner().sync()
    }
}

impl ProgressSink for JournalSink {
    /// Append; on every [`COMMIT_EVERY`]th sequence number `fdatasync`
    /// (group commit).
    ///
    /// [`COMMIT_EVERY`]: JournalSink::COMMIT_EVERY
    fn on_zone(&self, event: &ZoneEvent) -> bool {
        let mut writer = self.writer.borrow_mut();
        if writer.append(event).is_err() {
            return false;
        }
        if !writer.next_seq().is_multiple_of(Self::COMMIT_EVERY) {
            return true;
        }
        // A failed sync means the WAL can no longer promise durability
        // — stop like a failed append.
        writer.sync().is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_event;
    use crate::codec::tests::rich_event;
    use crate::journal::tests::{tmpdir, TempDir};
    use crate::journal::FORMAT_VERSION;
    use crate::namespace::Namespace;
    use dns_wire::name;

    fn shard_run_id(fabric_run_id: u64, shard: u32) -> u64 {
        Namespace::root("", fabric_run_id).shard(shard).run_id()
    }

    fn shard_header(fabric_run_id: u64, shard: u32, seeds: &[Name]) -> JournalHeader {
        Namespace::root("", fabric_run_id)
            .shard(shard)
            .header(seeds)
    }

    const HDR: JournalHeader = JournalHeader {
        run_id: 1,
        fingerprint: 2,
    };

    fn event_for(zone: &str, pass: u32, micros: u64) -> ZoneEvent {
        let mut e = rich_event();
        let scan = std::sync::Arc::make_mut(&mut e.scan);
        scan.evidence.name = name!(zone);
        scan.retry_stats.rescans = pass;
        e.duration_delta = micros;
        e
    }

    fn journal_events(sink: &JournalSink, events: &[ZoneEvent]) {
        for e in events {
            assert!(sink.on_zone(e));
        }
    }

    /// A sink over `/dev/null`, which takes every write and refuses
    /// `fdatasync` (EINVAL).
    #[cfg(target_os = "linux")]
    fn unsyncable_sink() -> JournalSink {
        let writer = JournalWriter::open_append(Path::new("/dev/null"), 0).unwrap();
        JournalSink {
            writer: RefCell::new(writer),
        }
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmpdir("fresh");
        let rec = recover(&dir, HDR).unwrap();
        assert!(rec.events.is_empty());
        assert_eq!(rec.next_seq(), 0);
        assert_eq!(rec.journal_tail, TailStatus::Clean);
        let rs = rec.resume_state();
        assert!(rs.zones.is_empty());
        assert_eq!(rs.duration_so_far, 0);
    }

    #[test]
    fn recovery_keeps_the_latest_scan_per_zone() {
        let dir = tmpdir("jonly");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(
            &sink,
            &[
                event_for("a.example", 0, 100),
                event_for("b.example", 0, 50),
                event_for("a.example", 1, 30),
            ],
        );
        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.journal_tail, TailStatus::Clean);
        let rs = rec.resume_state();
        // Latest result per zone: a.example's pass-1 event wins.
        assert_eq!(rs.zones.len(), 2);
        assert_eq!(rs.duration_so_far, 180);
        let a = rs
            .zones
            .iter()
            .find(|z| z.name == name!("a.example"))
            .unwrap();
        assert_eq!(
            a.retry_stats,
            event_for("a.example", 1, 30).scan.retry_stats
        );
    }

    /// Once the group commit fails the journal can no longer promise
    /// durability: the sink must stop the scan, not carry on unsynced.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_group_commit_stops_the_scan() {
        let sink = unsyncable_sink();
        let event = event_for("a.example", 0, 1);
        for _ in 1..JournalSink::COMMIT_EVERY {
            assert!(sink.on_zone(&event), "appends before the commit succeed");
        }
        assert!(
            !sink.on_zone(&event),
            "the failed fdatasync must stop the scan"
        );
    }

    /// A scan is durable only once its tail is committed: a `finish`
    /// whose `fdatasync` fails is an error the caller must see, and so
    /// is a failed `checkpoint_now`, which is a commit too.
    #[cfg(target_os = "linux")]
    #[test]
    fn finish_reports_a_failed_tail_commit() {
        let sink = unsyncable_sink();
        assert!(sink.on_zone(&event_for("a.example", 0, 1)));
        assert!(sink.checkpoint_now().is_err());
        assert!(sink.finish().is_err());
    }

    #[test]
    fn journal_loss_recovers_nothing_and_resume_starts_afresh() {
        let dir = tmpdir("lost");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(
            &sink,
            &[event_for("a.example", 0, 10), event_for("b.example", 0, 20)],
        );
        sink.finish().unwrap();
        fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();

        let rec = recover(&dir, HDR).unwrap();
        assert!(rec.events.is_empty());
        let sink = JournalSink::resume(&dir, &rec).unwrap();
        journal_events(&sink, &[event_for("c.example", 0, 30)]);
        drop(sink);
        let rec = recover(&dir, HDR).unwrap();
        let seqs: Vec<u64> = rec.events.iter().map(|e| e.0).collect();
        assert_eq!(seqs, [0]);
        assert_eq!(rec.resume_state().duration_so_far, 30);
    }

    #[test]
    fn torn_tail_is_truncated_on_disk_during_recovery() {
        let dir = tmpdir("torn");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(
            &sink,
            &[event_for("a.example", 0, 10), event_for("b.example", 0, 20)],
        );
        drop(sink);
        let path = dir.join(JOURNAL_FILE);
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut raw = fs::read(&path).unwrap();
        raw.extend_from_slice(&[0x55; 23]); // torn partial frame
        fs::write(&path, &raw).unwrap();

        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.journal_tail, TailStatus::Torn { dropped_bytes: 23 });
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            clean_len,
            "recovery must truncate the torn tail on disk"
        );

        // Appending after truncation yields a clean, contiguous journal.
        let sink = JournalSink::resume(&dir, &rec).unwrap();
        journal_events(&sink, &[event_for("c.example", 0, 30)]);
        drop(sink);
        let rec2 = recover(&dir, HDR).unwrap();
        assert_eq!(rec2.events.len(), 3);
        assert_eq!(rec2.journal_tail, TailStatus::Clean);
    }

    /// A journal of the previous format version is not migrated: its
    /// header does not parse, so it contributes nothing and resume
    /// starts the file afresh — the shard is simply re-scanned.
    #[test]
    fn previous_format_version_contributes_nothing() {
        let dir = tmpdir("oldversion");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(&sink, &[event_for("a.example", 0, 100)]);
        drop(sink);
        let path = dir.join(JOURNAL_FILE);
        let mut raw = fs::read(&path).unwrap();
        raw[4..6].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        let crc = crate::crc::crc32(&raw[0..22]);
        raw[22..26].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &raw).unwrap();

        let read = read_journal(&path).unwrap();
        assert_eq!(read.header, None);
        assert!(read.entries.is_empty());

        let rec = recover(&dir, HDR).unwrap();
        assert!(rec.events.is_empty());
        assert_eq!(rec.next_seq(), 0);
        // Resume starts the file afresh at the current version.
        let sink = JournalSink::resume(&dir, &rec).unwrap();
        journal_events(&sink, &[event_for("b.example", 0, 7)]);
        drop(sink);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.header, Some(HDR));
        assert_eq!(read.entries.len(), 1);
        assert_eq!(read.entries[0].1.scan.name, name!("b.example"));
    }

    #[test]
    fn foreign_journal_is_a_hard_error() {
        let dir = tmpdir("foreignj");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(&sink, &[event_for("a.example", 0, 10)]);
        drop(sink);
        let other = JournalHeader { run_id: 999, ..HDR };
        let err = recover(&dir, other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A directory holding a journal of `events` events.
    fn dir_with(tag: &str, events: u32) -> TempDir {
        let dir = tmpdir(tag);
        let sink = JournalSink::create(&dir, HDR).unwrap();
        for i in 0..events {
            let mut e = event_for("a.example", 0, 1);
            std::sync::Arc::make_mut(&mut e.scan).queries = i;
            assert!(sink.on_zone(&e));
        }
        dir
    }

    fn cut(path: &Path, bytes: u64) {
        let len = fs::metadata(path).unwrap().len();
        truncate_torn_tail(path, len - bytes).unwrap();
    }

    fn flip(path: &Path, at: impl Fn(usize) -> usize) {
        let mut raw = fs::read(path).unwrap();
        let idx = at(raw.len());
        raw[idx] ^= 0xFF;
        fs::write(path, &raw).unwrap();
    }

    /// The events `read_journal` alone finds for the `expected` run, in
    /// the codec's encoding (it carries every field): none for a missing
    /// file or an unusable header, an error for another run's journal.
    fn read_alone(path: &Path, expected: JournalHeader) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let read = match read_journal(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            read => read?,
        };
        match read.header {
            Some(h) if h != expected => Err(io::Error::new(io::ErrorKind::InvalidData, "foreign")),
            _ => Ok(read
                .entries
                .iter()
                .map(|(seq, e)| (*seq, encode_event(e)))
                .collect()),
        }
    }

    #[test]
    fn recover_equals_read_journal_in_every_damage_case() {
        // (journal, bytes in one frame)
        type Damage = fn(&Path, u64);
        // (tag, journal events, damage done after)
        let cases: &[(&str, u32, Damage)] = &[
            ("m-whole", 9, |_, _| {}),
            ("m-empty", 0, |_, _| {}),
            ("m-missing", 9, |j, _| fs::remove_file(j).unwrap()),
            // Power cut: the last frames were never committed.
            ("m-cut-frames", 9, |j, frame| cut(j, 2 * frame)),
            ("m-cut-torn", 9, |j, frame| cut(j, frame + 7)),
            ("m-cut-midframe", 9, |j, _| cut(j, 5)),
            ("m-flipped", 9, |j, _| flip(j, |len| len / 2)),
            ("m-garbage", 9, |j, _| {
                let mut raw = fs::read(j).unwrap();
                raw.extend_from_slice(&[0x55; 23]);
                fs::write(j, &raw).unwrap();
            }),
            ("m-zero", 9, |j, _| fs::write(j, b"").unwrap()),
            ("m-hdr-flipped", 9, |j, _| flip(j, |_| 1)),
            ("m-stub", 9, |j, frame| cut(j, 9 * frame + 15)),
        ];
        for &(tag, events, damage) in cases {
            let dir = dir_with(tag, events);
            let path = dir.join(JOURNAL_FILE);
            let frames = fs::metadata(&path).unwrap().len() - crate::journal::HEADER_LEN;
            let frame = frames / u64::from(events.max(1));
            damage(&path, frame);
            // Under another run's header first (an error, nothing
            // truncated), then under this run's.
            for expected in [JournalHeader { run_id: 999, ..HDR }, HDR] {
                let alone = read_alone(&path, expected);
                match (alone, recover(&dir, expected)) {
                    (Err(alone), Err(rec)) => assert_eq!(alone.kind(), rec.kind(), "{tag}"),
                    (Ok(alone), Ok(rec)) => {
                        let got: Vec<(u64, Vec<u8>)> = rec
                            .events
                            .iter()
                            .map(|(seq, e)| (*seq, encode_event(e)))
                            .collect();
                        assert_eq!(got, alone, "{tag}: events");
                        // Resume appends contiguously behind them.
                        let sink = JournalSink::resume(&dir, &rec).unwrap();
                        journal_events(&sink, &[event_for("z.example", 0, 1)]);
                        drop(sink);
                        let after = read_journal(&path).unwrap();
                        assert_eq!(after.tail, TailStatus::Clean, "{tag}");
                        let seqs: Vec<u64> = after.entries.iter().map(|e| e.0).collect();
                        assert_eq!(seqs, (0..=rec.next_seq()).collect::<Vec<_>>(), "{tag}");
                    }
                    (alone, rec) => {
                        panic!(
                            "{tag}: alone {alone:?}, recover {:?}",
                            rec.map(|r| r.events.len())
                        )
                    }
                }
            }
        }
    }

    /// The events `for_each_recovered` streams out of `dir`, encoded.
    fn streamed(dir: &Path, expected: JournalHeader) -> io::Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        for_each_recovered(dir, expected, |e| out.push(encode_event(&e)))?;
        Ok(out)
    }

    /// The streamed reader is `recover` without the truncation: a
    /// journal cut at every byte offset, one byte flipped in each frame
    /// (its length, its checksum, its sequence number, its event) and in
    /// the header, a missing file and a journal not starting at seq 0
    /// all stream exactly the events `recover` returns, another run's
    /// header is the same hard error, and the file is left byte for byte
    /// as it was, a torn tail included.
    #[test]
    fn streamed_events_equal_recover_and_leave_the_file_alone() {
        let dir = dir_with("stream", 4);
        let path = dir.join(JOURNAL_FILE);
        let whole = fs::read(&path).unwrap();
        let mut frames = Vec::new();
        let mut at = crate::journal::HEADER_LEN as usize;
        while at < whole.len() {
            frames.push(at);
            at += 8 + u32::from_le_bytes(whole[at..at + 4].try_into().unwrap()) as usize;
        }
        assert_eq!(frames.len(), 4);
        let mut images: Vec<(String, Vec<u8>)> = (0..=whole.len())
            .map(|cut| (format!("cut at {cut}"), whole[..cut].to_vec()))
            .collect();
        let mut flips = vec![1];
        for (i, &start) in frames.iter().enumerate() {
            let end = frames.get(i + 1).copied().unwrap_or(whole.len());
            flips.extend([start, start + 5, start + 8, (start + end) / 2]);
        }
        for idx in flips {
            let mut raw = whole.clone();
            raw[idx] ^= 0xFF;
            images.push((format!("flip at {idx}"), raw));
        }
        let nonzero = tmpdir("stream-nonzero");
        let mut w = JournalWriter::create(&nonzero.join(JOURNAL_FILE), HDR, 7).unwrap();
        w.append(&event_for("a.example", 0, 1)).unwrap();
        images.push((
            "first seq 7".into(),
            fs::read(nonzero.join(JOURNAL_FILE)).unwrap(),
        ));

        let foreign = JournalHeader { run_id: 999, ..HDR };
        let mut torn = 0;
        for (what, raw) in &images {
            fs::write(&path, raw).unwrap();
            let stream = streamed(&dir, HDR).unwrap();
            let stream_foreign = streamed(&dir, foreign);
            assert_eq!(&fs::read(&path).unwrap(), raw, "{what}: the reader wrote");
            match (stream_foreign, recover(&dir, foreign)) {
                (Err(s), Err(r)) => {
                    assert_eq!(s.kind(), io::ErrorKind::InvalidData, "{what}");
                    assert_eq!(r.kind(), io::ErrorKind::InvalidData, "{what}");
                }
                (Ok(s), Ok(r)) => {
                    assert!(s.is_empty() && r.events.is_empty(), "{what}: no header")
                }
                (s, r) => panic!("{what}: stream {s:?}, recover {:?}", r.map(|r| r.events)),
            }
            let rec = recover(&dir, HDR).unwrap();
            torn += usize::from(rec.journal_tail != TailStatus::Clean);
            let recovered: Vec<Vec<u8>> = rec.events.iter().map(|(_, e)| encode_event(e)).collect();
            assert_eq!(stream, recovered, "{what}");
        }
        assert!(torn > whole.len() / 2, "the cuts tear most images");
        fs::remove_file(&path).unwrap();
        assert_eq!(streamed(&dir, HDR).unwrap(), Vec::<Vec<u8>>::new());
        assert_eq!(streamed(&dir, foreign).unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn journal_not_starting_at_seq_zero_recovers_nothing() {
        // No sink writes such a file; the reader accepts it, but resume
        // may only append behind a whole prefix.
        let dir = tmpdir("m-nonzero");
        let path = dir.join(JOURNAL_FILE);
        let mut w = JournalWriter::create(&path, HDR, 7).unwrap();
        w.append(&event_for("a.example", 0, 1)).unwrap();
        assert_eq!(read_journal(&path).unwrap().entries.len(), 1);
        let rec = recover(&dir, HDR).unwrap();
        assert!(rec.events.is_empty());
        let sink = JournalSink::resume(&dir, &rec).unwrap();
        journal_events(&sink, &[event_for("b.example", 0, 1)]);
        drop(sink);
        let seqs: Vec<u64> = recover(&dir, HDR)
            .unwrap()
            .events
            .iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(seqs, [0]);
    }

    #[test]
    fn shard_namespacing_keeps_shard_journals_foreign_to_each_other() {
        // Two shards of the same fabric run get distinct run ids…
        assert_ne!(shard_run_id(42, 0), shard_run_id(42, 1));
        // …and the same shard of two fabric runs does too.
        assert_ne!(shard_run_id(42, 0), shard_run_id(43, 0));
        // Stable across calls (it is pure FNV).
        assert_eq!(shard_run_id(42, 3), shard_run_id(42, 3));

        // A journal written under shard 0's header is a *hard error*
        // when recovered with shard 1's header — cross-shard resume can
        // never happen silently.
        let dir = tmpdir("shardns");
        let seeds = vec![name!("a.example"), name!("b.example")];
        let h0 = shard_header(42, 0, &seeds);
        let sink = JournalSink::create(&dir, h0).unwrap();
        journal_events(&sink, &[event_for("a.example", 0, 10)]);
        drop(sink);
        let err = recover(&dir, shard_header(42, 1, &seeds)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Same shard, different seed slice: also foreign.
        let err = recover(&dir, shard_header(42, 0, &seeds[..1])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The matching header recovers cleanly.
        assert_eq!(recover(&dir, h0).unwrap().events.len(), 1);
    }

    #[test]
    fn shard_state_dirs_are_disjoint_and_sorted() {
        let root = Namespace::root("/tmp/fabric", 0);
        assert_eq!(root.shard(0).dir(), Path::new("/tmp/fabric/shard-0000"));
        assert_eq!(root.shard(12).dir(), Path::new("/tmp/fabric/shard-0012"));
        assert_ne!(root.shard(1).dir(), root.shard(10).dir());
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_collision_resistant() {
        let a = vec![name!("a.example"), name!("b.example")];
        let b = vec![name!("b.example"), name!("a.example")];
        assert_ne!(fingerprint_names(&a), fingerprint_names(&b));
        assert_eq!(fingerprint_names(&a), fingerprint_names(&a.clone()));
        // Label-boundary shifts must not collide.
        let c = vec![name!("ab.example")];
        let d = vec![name!("a.bexample")];
        assert_ne!(fingerprint_names(&c), fingerprint_names(&d));
    }
}
