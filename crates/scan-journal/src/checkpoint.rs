//! Sharded checkpoints: periodic compaction of the journal.
//!
//! A checkpoint is a re-encoding of every journaled event so far,
//! sharded across `shard-<k>.bsc` files by a stable hash of the zone
//! name, plus a `manifest.bsc` that names the run, the last sequence
//! number covered, and every shard's entry count (all under a CRC).
//!
//! The manifest is written **last**, via a temp file and an atomic
//! rename: shard files without a matching manifest are invisible, so a
//! crash mid-checkpoint can never produce a half-checkpoint that
//! recovery trusts. Conversely *any* validation failure — bad magic,
//! bad CRC, wrong run id or fingerprint, a missing shard, an entry
//! count mismatch, a non-contiguous sequence — makes
//! [`read_checkpoint`] return `Ok(None)`: the checkpoint is simply
//! ignored and recovery falls back to replaying the journal alone.
//! Checkpoints are an optimization, never a source of truth the journal
//! doesn't also have — except after journal loss, where a valid
//! checkpoint alone still restores every zone it covers.

use crate::codec::{decode_event, encode_event};
use crate::crc::{crc32, fnv64};
use crate::journal::{JournalHeader, FORMAT_VERSION};
use bootscan::ZoneEvent;
use dns_wire::name::Name;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Manifest file name inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.bsc";
const MANIFEST_MAGIC: [u8; 4] = *b"BSCM";
const SHARD_MAGIC: [u8; 4] = *b"BSCS";
const MAX_FRAME: u32 = 1 << 26;

/// Path of shard `k` inside `dir`.
pub fn shard_path(dir: &Path, k: u32) -> PathBuf {
    dir.join(format!("shard-{k}.bsc"))
}

/// Stable shard assignment for a zone: FNV-1a of the canonical wire
/// name, reduced mod `shards`. This is the scheme the distributed scan
/// fabric (`scan-fabric`) generalizes for zone-space partitioning, so
/// it is public: checkpoint buckets and fabric shards agree by
/// construction.
pub fn zone_shard(name: &Name, shards: u32) -> u32 {
    (fnv64(&[&name.to_wire()]) % shards.max(1) as u64) as u32
}

/// Write a checkpoint covering `entries` (which must be the full
/// contiguous journal prefix, in sequence order). Shards first, then
/// the manifest via temp-file + atomic rename.
pub fn write_checkpoint(
    dir: &Path,
    header: JournalHeader,
    entries: &[(u64, ZoneEvent)],
    shards: u32,
) -> io::Result<()> {
    let shards = shards.max(1);
    let mut buckets: Vec<Vec<&(u64, ZoneEvent)>> = vec![Vec::new(); shards as usize];
    for entry in entries {
        buckets[zone_shard(&entry.1.scan.name, shards) as usize].push(entry);
    }

    for (k, bucket) in buckets.iter().enumerate() {
        let mut body = Vec::new();
        body.extend_from_slice(&SHARD_MAGIC);
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&header.run_id.to_le_bytes());
        body.extend_from_slice(&(k as u32).to_le_bytes());
        for (seq, event) in bucket.iter().map(|e| (&e.0, &e.1)) {
            let mut payload = Vec::with_capacity(64);
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.extend_from_slice(&encode_event(event));
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(&crc32(&payload).to_le_bytes());
            body.extend_from_slice(&payload);
        }
        write_atomically(&shard_path(dir, k as u32), &body)?;
    }

    let last_seq = entries.last().map(|e| e.0).unwrap_or(0);
    let mut m = Vec::new();
    m.extend_from_slice(&MANIFEST_MAGIC);
    m.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    m.extend_from_slice(&header.run_id.to_le_bytes());
    m.extend_from_slice(&header.fingerprint.to_le_bytes());
    m.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    m.extend_from_slice(&last_seq.to_le_bytes());
    m.extend_from_slice(&shards.to_le_bytes());
    for bucket in &buckets {
        m.extend_from_slice(&(bucket.len() as u64).to_le_bytes());
    }
    let crc = crc32(&m);
    m.extend_from_slice(&crc.to_le_bytes());
    write_atomically(&dir.join(MANIFEST_FILE), &m)
}

/// Replace `path` with `bytes` so that a crash leaves either the old
/// file or the complete new one: write a sibling `.tmp`, sync its data,
/// rename it over `path`.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)
}

/// Read and validate a checkpoint. `Ok(None)` means "no usable
/// checkpoint" — absent, foreign, or corrupt in any way; recovery then
/// relies on the journal alone. Entries come back in sequence order.
pub fn read_checkpoint(
    dir: &Path,
    expected: JournalHeader,
) -> io::Result<Option<Vec<(u64, ZoneEvent)>>> {
    let raw = match fs::read(dir.join(MANIFEST_FILE)) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    // Manifest: magic(4) version(2) run_id(8) fingerprint(8) total(8)
    // last_seq(8) shards(4) counts(8×shards) crc(4).
    if raw.len() < 46 || raw[0..4] != MANIFEST_MAGIC {
        return Ok(None);
    }
    let body = &raw[..raw.len() - 4];
    let crc = u32::from_le_bytes(raw[raw.len() - 4..].try_into().unwrap());
    if crc32(body) != crc {
        return Ok(None);
    }
    let version = u16::from_le_bytes(raw[4..6].try_into().unwrap());
    let run_id = u64::from_le_bytes(raw[6..14].try_into().unwrap());
    let fingerprint = u64::from_le_bytes(raw[14..22].try_into().unwrap());
    let total = u64::from_le_bytes(raw[22..30].try_into().unwrap());
    let last_seq = u64::from_le_bytes(raw[30..38].try_into().unwrap());
    let shards = u32::from_le_bytes(raw[38..42].try_into().unwrap());
    if version != FORMAT_VERSION
        || run_id != expected.run_id
        || fingerprint != expected.fingerprint
        || shards == 0
        || body.len() != 42 + 8 * shards as usize
    {
        return Ok(None);
    }
    let counts: Vec<u64> = (0..shards as usize)
        .map(|k| u64::from_le_bytes(raw[42 + 8 * k..50 + 8 * k].try_into().unwrap()))
        .collect();
    if counts.iter().sum::<u64>() != total {
        return Ok(None);
    }

    let mut entries: Vec<(u64, ZoneEvent)> = Vec::new();
    for (k, &count) in counts.iter().enumerate() {
        match read_shard(&shard_path(dir, k as u32), run_id, k as u32, count) {
            ShardRead::Entries(mut shard_entries) => entries.append(&mut shard_entries),
            // A shard the manifest says is empty owes recovery nothing:
            // whether its file is missing, zero-length, or a truncated
            // header stub (a worker killed between create and the
            // rename-commit, or a power cut that kept the rename but
            // lost the data), the checkpoint is still whole.
            ShardRead::Absent if count == 0 => {}
            ShardRead::Absent | ShardRead::Invalid => return Ok(None),
        }
    }
    entries.sort_by_key(|e| e.0);
    // The checkpoint must cover exactly the contiguous prefix it claims.
    if entries.len() as u64 != total {
        return Ok(None);
    }
    if total > 0 {
        let first = entries[0].0;
        if entries.last().unwrap().0 != last_seq
            || entries
                .iter()
                .enumerate()
                .any(|(i, e)| e.0 != first + i as u64)
        {
            return Ok(None);
        }
    }
    Ok(Some(entries))
}

/// What a shard file contributed to checkpoint recovery.
enum ShardRead {
    /// A fully validated entry list (matching the manifest's count).
    Entries(Vec<(u64, ZoneEvent)>),
    /// The file is missing or too short to even hold a shard header —
    /// the debris a kill between `File::create` and the rename-commit
    /// (or a power cut reordering rename vs data) leaves behind. Benign
    /// when the manifest expected nothing from this shard.
    Absent,
    /// The file exists with a plausible length but fails validation
    /// (foreign header, bad CRC, count mismatch): the checkpoint as a
    /// whole cannot be trusted.
    Invalid,
}

fn read_shard(path: &Path, run_id: u64, index: u32, count: u64) -> ShardRead {
    let mut raw = Vec::new();
    match File::open(path).and_then(|mut f| f.read_to_end(&mut raw)) {
        Ok(_) => {}
        Err(_) => return ShardRead::Absent,
    }
    if raw.len() < 18 {
        // Zero-length or header-only stub: never committed content.
        return ShardRead::Absent;
    }
    if raw[0..4] != SHARD_MAGIC
        || u16::from_le_bytes(raw[4..6].try_into().unwrap()) != FORMAT_VERSION
        || u64::from_le_bytes(raw[6..14].try_into().unwrap()) != run_id
        || u32::from_le_bytes(raw[14..18].try_into().unwrap()) != index
    {
        return ShardRead::Invalid;
    }
    let mut entries = Vec::new();
    let mut pos = 18usize;
    while pos < raw.len() {
        if raw.len() - pos < 8 {
            return ShardRead::Invalid;
        }
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().unwrap());
        if !(8..=MAX_FRAME).contains(&len) || raw.len() - pos - 8 < len as usize {
            return ShardRead::Invalid;
        }
        let payload = &raw[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            return ShardRead::Invalid;
        }
        let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        let event = match decode_event(&payload[8..]) {
            Ok(event) => event,
            Err(_) => return ShardRead::Invalid,
        };
        entries.push((seq, event));
        pos += 8 + len as usize;
    }
    if entries.len() as u64 != count {
        return ShardRead::Invalid;
    }
    ShardRead::Entries(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::rich_event;
    use dns_wire::name;

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

    fn events(n: u64) -> Vec<(u64, ZoneEvent)> {
        (0..n)
            .map(|i| {
                let mut e = rich_event();
                e.scan.name = name!(&format!("zone-{i}.example"));
                e.scan.queries = i as u32;
                (i, e)
            })
            .collect()
    }

    #[test]
    fn checkpoint_round_trips_across_shards() {
        let dir = tmpdir("roundtrip");
        let entries = events(13);
        write_checkpoint(&dir, HDR, &entries, 4).unwrap();
        // Events really are spread over multiple shard files.
        let populated = (0..4)
            .filter(|&k| fs::metadata(shard_path(&dir, k)).unwrap().len() > 18)
            .count();
        assert!(populated > 1, "13 zones should hash to >1 shard");
        let back = read_checkpoint(&dir, HDR).unwrap().expect("valid");
        assert_eq!(back.len(), 13);
        for (i, (seq, e)) in back.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(e.scan.queries, i as u32);
        }
    }

    #[test]
    fn missing_manifest_means_no_checkpoint() {
        let dir = tmpdir("nomanifest");
        assert!(read_checkpoint(&dir, HDR).unwrap().is_none());
        // Shards without a manifest are invisible.
        write_checkpoint(&dir, HDR, &events(5), 2).unwrap();
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        assert!(read_checkpoint(&dir, HDR).unwrap().is_none());
    }

    #[test]
    fn corrupt_manifest_is_ignored() {
        let dir = tmpdir("badmanifest");
        write_checkpoint(&dir, HDR, &events(5), 2).unwrap();
        let mut raw = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let idx = raw.len() / 2;
        raw[idx] ^= 0x01;
        fs::write(dir.join(MANIFEST_FILE), &raw).unwrap();
        assert!(read_checkpoint(&dir, HDR).unwrap().is_none());
    }

    #[test]
    fn corrupt_shard_invalidates_whole_checkpoint() {
        let dir = tmpdir("badshard");
        write_checkpoint(&dir, HDR, &events(8), 2).unwrap();
        for k in 0..2 {
            let p = shard_path(&dir, k);
            let mut raw = fs::read(&p).unwrap();
            if raw.len() <= 18 {
                continue;
            }
            let idx = raw.len() - 5;
            raw[idx] ^= 0xFF;
            fs::write(&p, &raw).unwrap();
            assert!(read_checkpoint(&dir, HDR).unwrap().is_none());
            // Restore for the next iteration.
            raw[idx] ^= 0xFF;
            fs::write(&p, &raw).unwrap();
        }
        assert!(read_checkpoint(&dir, HDR).unwrap().is_some());
    }

    #[test]
    fn foreign_run_is_ignored() {
        let dir = tmpdir("foreign");
        write_checkpoint(&dir, HDR, &events(3), 2).unwrap();
        let other = JournalHeader { run_id: 8, ..HDR };
        assert!(read_checkpoint(&dir, other).unwrap().is_none());
        let other = JournalHeader {
            fingerprint: 100,
            ..HDR
        };
        assert!(read_checkpoint(&dir, other).unwrap().is_none());
    }

    #[test]
    fn missing_shard_invalidates_checkpoint() {
        let dir = tmpdir("missingshard");
        write_checkpoint(&dir, HDR, &events(8), 3).unwrap();
        fs::remove_file(shard_path(&dir, 1)).unwrap();
        assert!(read_checkpoint(&dir, HDR).unwrap().is_none());
    }

    #[test]
    fn empty_shard_debris_is_tolerated() {
        // A worker killed between `File::create` and the rename-commit
        // (or a power cut that keeps the rename but loses the data)
        // leaves a zero-length or header-stub shard file. When the
        // manifest expected nothing from that shard, the checkpoint is
        // still whole.
        let dir = tmpdir("debris");
        // One event over many shards guarantees empty shards exist.
        write_checkpoint(&dir, HDR, &events(1), 8).unwrap();
        let empty: Vec<u32> = (0..8)
            .filter(|&k| fs::metadata(shard_path(&dir, k)).unwrap().len() == 18)
            .collect();
        assert!(empty.len() >= 3, "1 zone over 8 shards leaves >=3 empty");
        // Zero-length file.
        fs::write(shard_path(&dir, empty[0]), b"").unwrap();
        // Truncated header stub (shorter than the 18-byte header).
        fs::write(shard_path(&dir, empty[1]), &b"BSCS\x03\x00"[..]).unwrap();
        // Missing entirely.
        fs::remove_file(shard_path(&dir, empty[2])).unwrap();
        let back = read_checkpoint(&dir, HDR).unwrap().expect("valid");
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn truncated_populated_shard_invalidates_checkpoint() {
        // The same debris on a shard the manifest says holds entries is
        // real data loss: the checkpoint must be rejected.
        let dir = tmpdir("truncated");
        write_checkpoint(&dir, HDR, &events(8), 2).unwrap();
        let populated = (0..2)
            .find(|&k| fs::metadata(shard_path(&dir, k)).unwrap().len() > 18)
            .expect("some shard holds entries");
        fs::write(shard_path(&dir, populated), b"").unwrap();
        assert!(read_checkpoint(&dir, HDR).unwrap().is_none());
    }

    #[test]
    fn zone_shard_is_total_and_stable() {
        for i in 0..64u32 {
            let n = name!(&format!("zone-{i}.example"));
            let k = zone_shard(&n, 4);
            assert!(k < 4);
            assert_eq!(k, zone_shard(&n, 4), "assignment must be stable");
        }
        // shards == 0 is clamped, not a divide-by-zero.
        assert_eq!(zone_shard(&name!("a.example"), 0), 0);
    }

    #[test]
    fn later_checkpoint_replaces_earlier() {
        let dir = tmpdir("replace");
        write_checkpoint(&dir, HDR, &events(3), 2).unwrap();
        write_checkpoint(&dir, HDR, &events(9), 2).unwrap();
        let back = read_checkpoint(&dir, HDR).unwrap().expect("valid");
        assert_eq!(back.len(), 9);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let dir = tmpdir("empty");
        write_checkpoint(&dir, HDR, &[], 2).unwrap();
        let back = read_checkpoint(&dir, HDR).unwrap().expect("valid");
        assert!(back.is_empty());
    }
}
