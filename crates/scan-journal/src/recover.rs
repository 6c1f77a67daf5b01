//! Crash recovery: merge checkpoint + journal tail into resumable state.
//!
//! [`recover`] is the single entry point a restarted scanner calls. It
//! reads whatever survived — a checkpoint, a journal, both, or neither —
//! validates everything against the expected run identity, truncates any
//! torn journal tail on disk, and returns the maximal contiguous event
//! prefix. It is also the fabric merge's and the epoch fold's reader, so
//! it touches each event once: both files are read once, and a
//! checkpoint that is a byte prefix of the journal (the normal case —
//! that is what a checkpoint *is*) is compared, not parsed. From that
//! prefix:
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
//! — returning `false` — if the disk fails), checkpoints a committed
//! prefix now and then, and commits the tail in
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
//! **The whole-prefix invariant.** After [`JournalSink::resume`] the
//! journal file holds every recovered event from seq 0, whatever mix of
//! journal and checkpoint it was recovered from. That is what makes a
//! checkpoint a plain copy of the journal's first bytes, and what keeps
//! a resumed append contiguous with the frames already in the file.

use crate::checkpoint::{write_checkpoint, CHECKPOINT_FILE};
use crate::crc::fnv64;
use crate::journal::{
    parse, truncate_torn_tail, JournalHeader, JournalRead, JournalWriter, TailStatus, JOURNAL_FILE,
};
use bootscan::scanner::Scanner;
use bootscan::{ProgressSink, ResumeState, ZoneEvent, ZoneScan};
use dns_wire::name::Name;
use netsim::SimMicros;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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
/// re-scan pass's kept result replaces the main-pass one.
pub fn latest_per_zone(events: &[(u64, ZoneEvent)]) -> (Vec<&ZoneScan>, SimMicros) {
    let duration = events.iter().map(|(_, e)| e.duration_delta).sum();
    // Newest first, then a stable sort: the first scan of each run of
    // equal names is the newest, and `dedup_by` keeps the first.
    let mut latest: Vec<&ZoneScan> = events.iter().rev().map(|(_, e)| &e.scan).collect();
    latest.sort_by(|a, b| a.name.canonical_cmp(&b.name));
    latest.dedup_by(|older, newest| older.name == newest.name);
    (latest, duration)
}

/// Everything recovered from a run directory.
#[derive(Debug)]
pub struct Recovery {
    header: JournalHeader,
    /// The maximal contiguous event prefix (seq 0..len), in order.
    pub events: Vec<(u64, ZoneEvent)>,
    /// Tail state of the journal file as found on disk (already
    /// truncated clean by the time `recover` returns).
    pub journal_tail: TailStatus,
    /// Events only a checkpoint (not the journal file) still held.
    pub checkpoint_only: usize,
    /// The journal file on disk holds exactly `events` (resume appends
    /// to it); otherwise resume rewrites it first.
    journal_whole: bool,
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
            zones: latest.into_iter().cloned().collect(),
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

/// Recover from `dir`. Handles every surviving combination:
///
/// * neither journal nor checkpoint → empty recovery (fresh start);
/// * journal only → replay it (truncating a torn tail on disk);
/// * checkpoint only (journal lost) → restore from the checkpoint;
/// * both → union by sequence number, maximal contiguous prefix.
///
/// A journal whose *header* identifies a different run or seed list is
/// a hard error — resuming against the wrong target list must never
/// happen silently. A foreign or unreadable checkpoint is silently
/// ignored and a corrupt one contributes its valid prefix (the journal
/// is authoritative); a corrupt journal header drops the file's
/// contents (a valid checkpoint still contributes).
///
/// **Each file is read once and, normally, each event parsed once.** A
/// checkpoint is a copy of the journal's first bytes, so when the
/// checkpoint found on disk still *is* a byte prefix of this run's
/// journal — of its checksum-valid bytes — it parses to a prefix of the
/// journal's own frames and holds nothing the journal does not: it is
/// not parsed, and the journal's entries are the recovery. Only when
/// that is not so (journal missing, headerless or not starting at seq
/// 0; checkpoint longer than the valid journal, or different from it)
/// does the union run — the rule [`read_checkpoint`] + [`read_journal`]
/// spell out, over the bytes already in hand.
///
/// [`read_checkpoint`]: crate::read_checkpoint
/// [`read_journal`]: crate::read_journal
pub fn recover(dir: &Path, expected: JournalHeader) -> io::Result<Recovery> {
    let read = |file: &str| match fs::read(dir.join(file)) {
        Ok(raw) => Ok(Some(raw)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    };
    // No checkpoint and a zero-length one contribute the same: nothing.
    let checkpoint_raw = read(CHECKPOINT_FILE)?.unwrap_or_default();
    let journal_raw = read(JOURNAL_FILE)?;

    let journal = match &journal_raw {
        Some(raw) => match JournalHeader::from_bytes(raw) {
            Some(h) if h != expected => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "journal belongs to a different run \
                         (found run_id={} fingerprint={:#x}, \
                         expected run_id={} fingerprint={:#x})",
                        h.run_id, h.fingerprint, expected.run_id, expected.fingerprint
                    ),
                ));
            }
            // `None`: the header itself is torn/corrupt, so nothing in
            // the file can be trusted (no entries); resume rewrites it.
            header => parse(header, raw),
        },
        None => JournalRead {
            header: None,
            entries: Vec::new(),
            tail: TailStatus::Clean,
            valid_len: 0,
        },
    };
    let journal_usable = journal.header.is_some();
    let journal_tail = journal.tail;
    if journal_usable && journal_tail != TailStatus::Clean {
        truncate_torn_tail(&dir.join(JOURNAL_FILE), journal.valid_len)?;
    }

    // The file holds its whole prefix when nothing is missing in front
    // of its frames and (below) nothing recovered lies beyond them.
    let journal_from_zero = journal.entries.first().is_none_or(|e| e.0 == 0);

    let valid = &journal_raw.as_deref().unwrap_or_default()[..journal.valid_len as usize];
    if journal_usable && journal_from_zero && valid.starts_with(&checkpoint_raw) {
        return Ok(Recovery {
            header: expected,
            events: journal.entries,
            journal_tail,
            checkpoint_only: 0,
            journal_whole: true,
        });
    }

    let checkpoint = match JournalHeader::from_bytes(&checkpoint_raw) {
        Some(h) if h == expected => parse(Some(h), &checkpoint_raw).entries,
        _ => Vec::new(),
    };
    let mut merged: BTreeMap<u64, ZoneEvent> = BTreeMap::new();
    let mut checkpoint_only = 0usize;
    for (seq, event) in checkpoint {
        merged.insert(seq, event);
        checkpoint_only += 1;
    }
    for (seq, event) in journal.entries {
        if merged.insert(seq, event).is_some() {
            checkpoint_only -= 1;
        }
    }
    let mut events = Vec::with_capacity(merged.len());
    for want in 0.. {
        match merged.remove(&want) {
            Some(event) => events.push((want, event)),
            None => break,
        }
    }

    Ok(Recovery {
        header: expected,
        events,
        journal_tail,
        checkpoint_only,
        journal_whole: journal_usable && journal_from_zero && checkpoint_only == 0,
    })
}

/// The production [`ProgressSink`]: write-ahead journal, group commit
/// and checkpoints of committed prefixes. Returns `false` from `on_zone`
/// (stopping the scan) only when the journal itself cannot be written
/// or committed — a failed *checkpoint* just leaves the previous one in
/// place, never a reason to stop. A scan that ran to the end is durable
/// only once [`finish`](Self::finish) has committed its tail.
///
/// Interior mutability is `RefCell`/`Cell`, not a lock: the scanner
/// calls a sink from one thread, one event at a time.
pub struct JournalSink {
    dir: PathBuf,
    writer: RefCell<JournalWriter>,
    /// Events the last checkpoint covered (for a resumed sink: the
    /// events recovered, as if checkpointed on resume).
    checkpointed: Cell<u64>,
}

impl JournalSink {
    /// The commit unit: `on_zone` `fdatasync`s the journal once its
    /// sequence reaches a multiple of this. Power loss therefore costs
    /// fewer than `COMMIT_EVERY` re-scanned zones per journal, and every
    /// automatic checkpoint copies a committed prefix.
    pub const COMMIT_EVERY: u64 = 64;

    fn over(dir: &Path, writer: JournalWriter) -> Self {
        JournalSink {
            dir: dir.to_path_buf(),
            checkpointed: Cell::new(writer.next_seq()),
            writer: RefCell::new(writer),
        }
    }

    /// Start a fresh run in `dir` (created if needed). Any stale
    /// checkpoint in the directory is removed so the directory
    /// unambiguously describes this run.
    pub fn create(dir: &Path, header: JournalHeader) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        match fs::remove_file(dir.join(CHECKPOINT_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let writer = JournalWriter::create(&dir.join(JOURNAL_FILE), header, 0)?;
        Ok(Self::over(dir, writer))
    }

    /// Continue a recovered run. Establishes the whole-prefix invariant
    /// first: when the journal file does not hold every recovered event
    /// from seq 0 (it is missing, its header is unusable, or a
    /// checkpoint knew more than it did), it is rewritten from
    /// `recovery.events` — into a `.tmp` sibling, synced, then renamed
    /// over it, so a crash mid-rewrite loses nothing the checkpoint
    /// still holds. Appending after a shorter file instead would leave
    /// a sequence gap that the next read reports as a torn tail.
    pub fn resume(dir: &Path, recovery: &Recovery) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let writer = if recovery.journal_whole {
            JournalWriter::open_append(&path, recovery.next_seq())?
        } else {
            let tmp = path.with_extension("tmp");
            let mut writer = JournalWriter::create(&tmp, recovery.header, 0)?;
            for (_, event) in &recovery.events {
                writer.append(event)?;
            }
            writer.sync()?;
            fs::rename(&tmp, &path)?;
            writer
        };
        Ok(Self::over(dir, writer))
    }

    /// Number of events journaled so far (including recovered ones).
    pub fn entries_logged(&self) -> u64 {
        self.writer.borrow().next_seq()
    }

    /// Force a checkpoint of everything journaled so far, committed or
    /// not.
    pub fn checkpoint_now(&self) -> io::Result<()> {
        write_checkpoint(&self.dir, self.writer.borrow().bytes_written())
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
    /// (group commit) and then, if the journal has grown by half of what
    /// the last checkpoint covered, checkpoint the prefix just committed.
    ///
    /// [`COMMIT_EVERY`]: JournalSink::COMMIT_EVERY
    fn on_zone(&self, event: &ZoneEvent) -> bool {
        let mut writer = self.writer.borrow_mut();
        if writer.append(event).is_err() {
            return false;
        }
        let logged = writer.next_seq();
        if !logged.is_multiple_of(Self::COMMIT_EVERY) {
            return true;
        }
        // A failed sync means the WAL can no longer promise durability
        // — stop like a failed append.
        if writer.sync().is_err() {
            return false;
        }
        // Each checkpoint copies the full prefix, so waiting for the
        // journal to grow by half keeps *total* copy work O(n).
        let covered = self.checkpointed.get();
        if logged - covered >= covered / 2 {
            // Best-effort: the journal remains the source of truth.
            let _ = write_checkpoint(&self.dir, writer.bytes_written());
            self.checkpointed.set(logged);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::read_checkpoint;
    use crate::codec::encode_event;
    use crate::codec::tests::rich_event;
    use crate::journal::{read_journal, FRAMES_DECODED};
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

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("scan-recover-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    const HDR: JournalHeader = JournalHeader {
        run_id: 1,
        fingerprint: 2,
    };

    fn event_for(zone: &str, pass: u32, micros: u64) -> ZoneEvent {
        let mut e = rich_event();
        e.scan.name = name!(zone);
        e.pass = pass;
        e.duration_delta = micros;
        e
    }

    fn journal_events(sink: &JournalSink, events: &[ZoneEvent]) {
        for e in events {
            assert!(sink.on_zone(e));
        }
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmpdir("fresh");
        let rec = recover(&dir, HDR).unwrap();
        assert!(rec.events.is_empty());
        assert_eq!(rec.next_seq(), 0);
        let rs = rec.resume_state();
        assert!(rs.zones.is_empty());
        assert_eq!(rs.duration_so_far, 0);
    }

    #[test]
    fn journal_only_recovery() {
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
    /// `/dev/null` takes every write and refuses `fdatasync` (EINVAL).
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_group_commit_stops_the_scan() {
        let dir = tmpdir("syncfail");
        let writer = JournalWriter::open_append(Path::new("/dev/null"), 0).unwrap();
        let sink = JournalSink::over(&dir, writer);
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
    /// whose `fdatasync` fails is an error the caller must see.
    #[cfg(target_os = "linux")]
    #[test]
    fn finish_reports_a_failed_tail_commit() {
        let dir = tmpdir("finishfail");
        let writer = JournalWriter::open_append(Path::new("/dev/null"), 0).unwrap();
        let sink = JournalSink::over(&dir, writer);
        assert!(sink.on_zone(&event_for("a.example", 0, 1)));
        assert!(sink.finish().is_err());
    }

    #[test]
    fn every_automatic_checkpoint_is_a_committed_prefix() {
        let dir = tmpdir("ckptcommit");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        let journal = dir.join(JOURNAL_FILE);
        let checkpoint = dir.join(CHECKPOINT_FILE);
        let mut committed = vec![];
        let mut checkpoints = vec![];
        for i in 0..20 * JournalSink::COMMIT_EVERY {
            let mut e = event_for("a.example", 0, 1);
            e.scan.queries = i as u32;
            assert!(sink.on_zone(&e));
            if sink
                .entries_logged()
                .is_multiple_of(JournalSink::COMMIT_EVERY)
            {
                committed.push(fs::metadata(&journal).unwrap().len());
            }
            if let Ok(meta) = fs::metadata(&checkpoint) {
                if checkpoints.last() != Some(&meta.len()) {
                    checkpoints.push(meta.len());
                }
            }
        }
        assert!(checkpoints.len() >= 4, "{checkpoints:?}");
        for len in &checkpoints {
            assert!(
                committed.contains(len),
                "checkpoint of {len} bytes is not the journal at any commit"
            );
        }
        let prefix = &fs::read(&journal).unwrap()[..*checkpoints.last().unwrap() as usize];
        assert_eq!(fs::read(&checkpoint).unwrap(), prefix);
        sink.finish().unwrap();
    }

    #[test]
    fn checkpoint_only_recovery_after_journal_loss() {
        let dir = tmpdir("conly");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(
            &sink,
            &[event_for("a.example", 0, 10), event_for("b.example", 0, 20)],
        );
        sink.checkpoint_now().unwrap();
        drop(sink);
        fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();

        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.checkpoint_only, 2);
        assert_eq!(rec.resume_state().zones.len(), 2);

        // Resuming recreates the journal at the recovered sequence; a
        // second recovery then sees checkpoint + new journal seamlessly.
        let sink = JournalSink::resume(&dir, &rec).unwrap();
        journal_events(&sink, &[event_for("c.example", 0, 30)]);
        drop(sink);
        let rec2 = recover(&dir, HDR).unwrap();
        assert_eq!(rec2.events.len(), 3);
        assert_eq!(rec2.resume_state().duration_so_far, 60);
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
    /// rewrites it — the shard is simply re-scanned.
    #[test]
    fn previous_format_version_contributes_nothing() {
        let dir = tmpdir("oldversion");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(&sink, &[event_for("a.example", 0, 100)]);
        drop(sink);
        let path = dir.join(JOURNAL_FILE);
        let mut raw = fs::read(&path).unwrap();
        raw[4..6].copy_from_slice(&3u16.to_le_bytes());
        let crc = crate::crc::crc32(&raw[0..22]);
        raw[22..26].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &raw).unwrap();

        let read = read_journal(&path).unwrap();
        assert_eq!(read.header, None);
        assert!(read.entries.is_empty());

        let rec = recover(&dir, HDR).unwrap();
        assert!(rec.events.is_empty());
        assert_eq!(rec.next_seq(), 0);
        // Resume rewrites the file at the current version.
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

    #[test]
    fn resume_rewrites_a_lost_journal_so_the_checkpoint_is_no_longer_needed() {
        // Checkpoint covers 0..=1; the journal was lost. Resume rewrites
        // it from seq 0, so from then on the journal alone is whole.
        let dir = tmpdir("rewrite");
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(
            &sink,
            &[event_for("a.example", 0, 1), event_for("b.example", 0, 2)],
        );
        sink.checkpoint_now().unwrap();
        drop(sink);
        fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();
        let rec = recover(&dir, HDR).unwrap();
        let sink = JournalSink::resume(&dir, &rec).unwrap();
        assert!(!dir.join("journal.tmp").exists());
        journal_events(&sink, &[event_for("c.example", 0, 3)]);
        drop(sink);

        // Corrupting, then deleting, the checkpoint loses nothing.
        let checkpoint = dir.join(CHECKPOINT_FILE);
        let mut raw = fs::read(&checkpoint).unwrap();
        let idx = raw.len() - 1;
        raw[idx] ^= 0xFF;
        fs::write(&checkpoint, &raw).unwrap();
        for _ in 0..2 {
            let rec = recover(&dir, HDR).unwrap();
            assert_eq!(rec.events.len(), 3);
            assert_eq!(rec.checkpoint_only, 0);
            assert_eq!(rec.resume_state().duration_so_far, 6);
            let _ = fs::remove_file(&checkpoint);
        }
    }

    #[test]
    fn checkpoint_ahead_of_the_journal_leaves_no_sequence_gap() {
        // Power loss after a checkpoint: the checkpoint was synced, the
        // journal's last frame was not. Appending at the recovered
        // sequence behind the shorter file would skip seq 2 in the file,
        // and every later read would report the new frames as torn.
        let dir = tmpdir("seqgap");
        let path = dir.join(JOURNAL_FILE);
        let sink = JournalSink::create(&dir, HDR).unwrap();
        journal_events(
            &sink,
            &[event_for("a.example", 0, 1), event_for("b.example", 0, 2)],
        );
        let two_frames = fs::metadata(&path).unwrap().len();
        journal_events(&sink, &[event_for("c.example", 0, 3)]);
        sink.checkpoint_now().unwrap();
        drop(sink);
        truncate_torn_tail(&path, two_frames).unwrap();
        assert_eq!(read_journal(&path).unwrap().entries.len(), 2);

        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.checkpoint_only, 1);
        let sink = JournalSink::resume(&dir, &rec).unwrap();
        journal_events(&sink, &[event_for("d.example", 0, 4)]);
        drop(sink);

        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 4);
        assert_eq!(rec.journal_tail, TailStatus::Clean);
        let alone = read_journal(&path).unwrap();
        assert_eq!(alone.tail, TailStatus::Clean);
        let seqs: Vec<u64> = alone.entries.iter().map(|e| e.0).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
    }

    /// The events (encoded: the codec carries every field),
    /// `checkpoint_only`, and whether resume may append in place.
    type Recovered = (Vec<(u64, Vec<u8>)>, usize, bool);

    /// What `recover` returned while it still parsed both files whole:
    /// the checkpoint and the journal through their public readers,
    /// every event through the union. Reads only (it does not truncate),
    /// so it can run before `recover` over the same directory.
    fn union_by_the_old_rule(dir: &Path, expected: JournalHeader) -> io::Result<Recovered> {
        let checkpoint = read_checkpoint(dir, expected)?;
        let (journal_entries, journal_usable) = match read_journal(&dir.join(JOURNAL_FILE)) {
            Ok(read) => match read.header {
                Some(h) if h != expected => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "foreign"))
                }
                Some(_) => (read.entries, true),
                None => (Vec::new(), false),
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), false),
            Err(e) => return Err(e),
        };
        let journal_from_zero = journal_entries.first().is_none_or(|e| e.0 == 0);
        let mut merged: BTreeMap<u64, ZoneEvent> = BTreeMap::new();
        let mut checkpoint_only = 0usize;
        for (seq, event) in checkpoint {
            merged.insert(seq, event);
            checkpoint_only += 1;
        }
        for (seq, event) in journal_entries {
            if merged.insert(seq, event).is_some() {
                checkpoint_only -= 1;
            }
        }
        let events = (0..)
            .map_while(|want| Some((want, encode_event(&merged.remove(&want)?))))
            .collect();
        let whole = journal_usable && journal_from_zero && checkpoint_only == 0;
        Ok((events, checkpoint_only, whole))
    }

    /// A directory holding a journal of `journal` events and a
    /// checkpoint of its first `checkpointed`.
    fn dir_with(tag: &str, journal: u32, checkpointed: u32) -> PathBuf {
        let dir = tmpdir(tag);
        let sink = JournalSink::create(&dir, HDR).unwrap();
        for i in 0..journal {
            if i == checkpointed {
                sink.checkpoint_now().unwrap();
            }
            let mut e = event_for("a.example", 0, 1);
            e.scan.queries = i;
            assert!(sink.on_zone(&e));
        }
        if checkpointed >= journal {
            sink.checkpoint_now().unwrap();
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

    #[test]
    fn recover_equals_the_union_of_both_readers_in_every_surviving_combination() {
        // (journal, checkpoint, bytes in one frame)
        type Damage = fn(&Path, &Path, u64);
        // (tag, journal events, checkpointed events, damage done after)
        let cases: &[(&str, u32, u32, Damage)] = &[
            ("m-whole", 9, 9, |_, _, _| {}),
            ("m-stale", 9, 5, |_, _, _| {}),
            ("m-nockpt", 9, 0, |_, c, _| fs::remove_file(c).unwrap()),
            ("m-emptyckpt", 9, 0, |_, _, _| {}),
            ("m-neither", 0, 0, |j, c, _| {
                fs::remove_file(j).unwrap();
                fs::remove_file(c).unwrap();
            }),
            // Power cut: the checkpoint was synced, the journal's last
            // frames were not.
            ("m-ahead", 9, 9, |j, _, frame| cut(j, 2 * frame)),
            ("m-ahead-torn", 9, 9, |j, _, frame| cut(j, frame + 7)),
            ("m-zero", 9, 9, |_, c, _| fs::write(c, b"").unwrap()),
            ("m-stub", 9, 9, |_, c, frame| cut(c, 9 * frame + 15)),
            ("m-cut-midframe", 9, 9, |_, c, _| cut(c, 5)),
            ("m-ckpt-flipped", 9, 9, |_, c, _| flip(c, |len| len / 2)),
            ("m-ckpt-hdr-flipped", 9, 9, |_, c, _| flip(c, |_| 1)),
            ("m-journal-torn", 9, 5, |j, _, _| cut(j, 5)),
            ("m-journal-flipped", 9, 9, |j, _, _| flip(j, |len| len / 2)),
            ("m-both-flipped", 9, 9, |j, c, _| {
                flip(j, |len| len / 2);
                flip(c, |len| len / 2);
            }),
            ("m-journal-garbage", 9, 9, |j, _, _| {
                let mut raw = fs::read(j).unwrap();
                raw.extend_from_slice(&[0x55; 23]);
                fs::write(j, &raw).unwrap();
            }),
            ("m-journal-missing", 9, 9, |j, _, _| {
                fs::remove_file(j).unwrap()
            }),
            ("m-journal-missing-stale", 9, 5, |j, _, _| {
                fs::remove_file(j).unwrap()
            }),
            ("m-journal-hdr-flipped", 9, 5, |j, _, _| flip(j, |_| 1)),
            ("m-journal-stub", 9, 5, |j, _, frame| cut(j, 9 * frame + 15)),
        ];
        for &(tag, journal, checkpointed, damage) in cases {
            let dir = dir_with(tag, journal, checkpointed);
            let journal_path = dir.join(JOURNAL_FILE);
            let frames = fs::metadata(&journal_path).unwrap().len() - crate::journal::HEADER_LEN;
            let frame = frames / u64::from(journal.max(1));
            damage(&journal_path, &dir.join(CHECKPOINT_FILE), frame);
            // Under this run's header, and under another's: a foreign
            // checkpoint is invisible, a foreign journal a hard error.
            for expected in [HDR, JournalHeader { run_id: 999, ..HDR }] {
                let old = union_by_the_old_rule(&dir, expected);
                let new = recover(&dir, expected);
                match (old, new) {
                    (Err(old), Err(new)) => assert_eq!(old.kind(), new.kind(), "{tag}"),
                    (Ok((events, checkpoint_only, whole)), Ok(rec)) => {
                        let got: Vec<(u64, Vec<u8>)> = rec
                            .events
                            .iter()
                            .map(|(seq, e)| (*seq, encode_event(e)))
                            .collect();
                        assert_eq!(got, events, "{tag}: events");
                        assert_eq!(rec.checkpoint_only, checkpoint_only, "{tag}");
                        assert_eq!(rec.journal_whole, whole, "{tag}: resume rewrites");
                    }
                    (old, new) => {
                        panic!("{tag}: old {old:?}, new {:?}", new.map(|r| r.events.len()))
                    }
                }
            }
        }
    }

    #[test]
    fn journal_not_starting_at_seq_zero_recovers_by_the_union_rule() {
        // No sink writes such a file; the reader accepts it, so the
        // prefix shortcut must not mistake its entries for the recovery.
        let dir = tmpdir("m-nonzero");
        let mut w = JournalWriter::create(&dir.join(JOURNAL_FILE), HDR, 7).unwrap();
        w.append(&event_for("a.example", 0, 1)).unwrap();
        let (events, checkpoint_only, whole) = union_by_the_old_rule(&dir, HDR).unwrap();
        let rec = recover(&dir, HDR).unwrap();
        assert!(events.is_empty() && rec.events.is_empty());
        assert_eq!(rec.checkpoint_only, checkpoint_only);
        assert_eq!((rec.journal_whole, whole), (false, false));
    }

    #[test]
    fn a_checkpointed_journal_is_decoded_once() {
        let dir = dir_with("once", 13, 13);
        assert_eq!(read_checkpoint(&dir, HDR).unwrap().len(), 13);
        let before = FRAMES_DECODED.with(|n| n.get());
        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 13);
        assert_eq!(
            FRAMES_DECODED.with(|n| n.get()) - before,
            13,
            "a checkpoint that is a byte prefix of the journal is not parsed"
        );
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
