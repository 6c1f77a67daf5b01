//! Checkpoints: a second, atomically replaced copy of the journal.
//!
//! A checkpoint is a journal-format file, `checkpoint.bsj`: the byte
//! prefix of the journal — header plus every frame appended so far — as
//! it stood when the checkpoint was taken. It is written to a `.tmp`
//! sibling, `fdatasync`ed and renamed over the previous checkpoint: one
//! file, one sync, one rename, and a crash leaves either the old
//! checkpoint or the complete new one.
//!
//! Reading one is [`read_journal`] plus a header comparison. A missing
//! file, an unreadable header or a header naming another run or seed
//! list contributes nothing; a tail that fails its checksum just ends
//! the valid prefix (and, unlike the journal's, is never truncated on
//! disk — the next checkpoint replaces the file whole). Checkpoints are
//! an optimization, never a source of truth the journal doesn't also
//! have — except after journal loss, where a checkpoint alone still
//! restores every zone it covers.

use crate::journal::{read_journal, JournalHeader, JOURNAL_FILE};
use bootscan::ZoneEvent;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::Path;

/// Checkpoint file name inside a run directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bsj";

/// Checkpoint the first `len` bytes of the journal in `dir`. `len` must
/// be a frame boundary the journal has already reached
/// (`JournalWriter::bytes_written`); the journal is append-only, so
/// those bytes are stable while other threads keep appending.
pub fn write_checkpoint(dir: &Path, len: u64) -> io::Result<()> {
    let journal = File::open(dir.join(JOURNAL_FILE))?;
    write_atomically(&dir.join(CHECKPOINT_FILE), |out| {
        if io::copy(&mut journal.take(len), out)? != len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "journal is shorter than the prefix to checkpoint",
            ));
        }
        Ok(())
    })
}

/// Replace `path` with whatever `fill` writes, so that a crash leaves
/// either the old file or the complete new one: fill a sibling `.tmp`,
/// sync its data, rename it over `path`.
pub fn write_atomically(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        fill(&mut f)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)
}

/// The events the checkpoint in `dir` holds for the `expected` run, in
/// sequence order — empty when there is no checkpoint, or none this
/// run may trust; recovery then relies on the journal alone.
pub fn read_checkpoint(dir: &Path, expected: JournalHeader) -> io::Result<Vec<(u64, ZoneEvent)>> {
    match read_journal(&dir.join(CHECKPOINT_FILE)) {
        Ok(read) if read.header == Some(expected) => Ok(read.entries),
        Ok(_) => Ok(Vec::new()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::rich_event;
    use crate::journal::{JournalWriter, TailStatus};
    use crate::recover::recover;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("scan-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    const HDR: JournalHeader = JournalHeader {
        run_id: 7,
        fingerprint: 99,
    };

    /// A fresh journal of `n` events under `header` in `dir`.
    fn journal_of(dir: &Path, header: JournalHeader, n: u32) -> JournalWriter {
        let mut w = JournalWriter::create(&dir.join(JOURNAL_FILE), header, 0).unwrap();
        for i in 0..n {
            let mut e = rich_event();
            e.scan.queries = i;
            w.append(&e).unwrap();
        }
        w
    }

    /// The same, checkpointed whole.
    fn checkpointed(dir: &Path, header: JournalHeader, n: u32) {
        let w = journal_of(dir, header, n);
        write_checkpoint(dir, w.bytes_written()).unwrap();
    }

    #[test]
    fn checkpoint_round_trips_including_the_empty_prefix() {
        let dir = tmpdir("roundtrip");
        checkpointed(&dir, HDR, 0);
        assert!(read_checkpoint(&dir, HDR).unwrap().is_empty());
        assert_eq!(
            read_journal(&dir.join(CHECKPOINT_FILE)).unwrap().header,
            Some(HDR),
            "an empty checkpoint is still a whole journal-format file"
        );

        checkpointed(&dir, HDR, 13);
        let back = read_checkpoint(&dir, HDR).unwrap();
        assert_eq!(back.len(), 13);
        for (i, (seq, e)) in back.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(e.scan.queries, i as u32);
        }
        assert_eq!(
            fs::read(dir.join(CHECKPOINT_FILE)).unwrap(),
            fs::read(dir.join(JOURNAL_FILE)).unwrap(),
            "a checkpoint of the whole journal is the journal's bytes"
        );
        assert!(!dir.join("checkpoint.tmp").exists());
    }

    #[test]
    fn checkpoint_covers_exactly_the_requested_prefix() {
        let dir = tmpdir("prefix");
        let mut w = journal_of(&dir, HDR, 1);
        let one = w.bytes_written();
        w.append(&rich_event()).unwrap();
        write_checkpoint(&dir, one).unwrap();
        assert_eq!(read_checkpoint(&dir, HDR).unwrap().len(), 1);
        // A prefix the journal has not reached is an error, and leaves
        // the previous checkpoint in place.
        assert!(write_checkpoint(&dir, w.bytes_written() + 1).is_err());
        assert_eq!(read_checkpoint(&dir, HDR).unwrap().len(), 1);
    }

    #[test]
    fn later_checkpoint_replaces_earlier() {
        let dir = tmpdir("replace");
        checkpointed(&dir, HDR, 3);
        checkpointed(&dir, HDR, 9);
        assert_eq!(read_checkpoint(&dir, HDR).unwrap().len(), 9);
    }

    #[test]
    fn missing_checkpoint_contributes_nothing() {
        let dir = tmpdir("missing");
        assert!(read_checkpoint(&dir, HDR).unwrap().is_empty());
    }

    #[test]
    fn foreign_checkpoint_is_ignored_but_a_foreign_journal_is_a_hard_error() {
        let dir = tmpdir("foreign");
        checkpointed(&dir, HDR, 3);
        for other in [
            JournalHeader { run_id: 8, ..HDR },
            JournalHeader {
                fingerprint: 100,
                ..HDR
            },
        ] {
            assert!(read_checkpoint(&dir, other).unwrap().is_empty());
            let err = recover(&dir, other).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // A leftover checkpoint of another run beside this run's journal
        // is invisible, not an error.
        let other = JournalHeader { run_id: 8, ..HDR };
        journal_of(&dir, other, 5);
        let rec = recover(&dir, other).unwrap();
        assert_eq!(rec.events.len(), 5);
        assert_eq!(rec.checkpoint_only, 0);
    }

    #[test]
    fn checkpoint_cut_mid_frame_contributes_its_valid_prefix_untouched() {
        let dir = tmpdir("cut");
        checkpointed(&dir, HDR, 6);
        let path = dir.join(CHECKPOINT_FILE);
        let mut raw = fs::read(&path).unwrap();
        raw.truncate(raw.len() - 5);
        fs::write(&path, &raw).unwrap();
        assert_eq!(read_checkpoint(&dir, HDR).unwrap().len(), 5);

        // With the journal gone the checkpoint's valid prefix is the
        // recovery; the torn checkpoint itself is left as found.
        fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();
        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 5);
        assert_eq!(rec.checkpoint_only, 5);
        assert_eq!(fs::read(&path).unwrap(), raw);
        // A flipped byte ends the prefix the same way.
        let idx = raw.len() / 2;
        raw[idx] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        let kept = read_checkpoint(&dir, HDR).unwrap().len();
        assert!(kept < 5, "corruption mid-file must end the prefix early");
        assert_eq!(fs::read(&path).unwrap(), raw);
    }

    #[test]
    fn zero_length_checkpoint_recovers_from_the_journal_alone() {
        // What `KillDuringCheckpoint` leaves: the rename survived, the
        // data did not.
        let dir = tmpdir("zero");
        checkpointed(&dir, HDR, 4);
        fs::write(dir.join(CHECKPOINT_FILE), b"").unwrap();
        assert!(read_checkpoint(&dir, HDR).unwrap().is_empty());
        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 4);
        assert_eq!(rec.checkpoint_only, 0);
        assert_eq!(rec.journal_tail, TailStatus::Clean);
    }

    #[test]
    fn old_layout_checkpoints_are_not_migrated() {
        // A directory written before checkpoints were one file: a
        // manifest and hash-bucketed shard files. They are neither read
        // nor an error; the journal beside them carries the recovery.
        let dir = tmpdir("oldlayout");
        checkpointed(&dir, HDR, 4);
        fs::remove_file(dir.join(CHECKPOINT_FILE)).unwrap();
        fs::write(dir.join("manifest.bsc"), b"BSCM\x03\x00 old manifest").unwrap();
        for k in 0..4 {
            fs::write(
                dir.join(format!("shard-{k}.bsc")),
                b"BSCS\x03\x00 old shard",
            )
            .unwrap();
        }
        let rec = recover(&dir, HDR).unwrap();
        assert_eq!(rec.events.len(), 4);
        assert_eq!(rec.checkpoint_only, 0);
    }
}
