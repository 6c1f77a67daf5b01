//! Headline crash-recovery validation: a scan killed at *any* point —
//! between zones, mid-journal-write (torn tail), or after the journal
//! was lost entirely — must resume deterministically and produce a final
//! report **byte-identical** to the uninterrupted run. The journal is
//! the only copy of the run's progress: corrupt journal bytes are
//! detected by checksum and every zone behind them re-scanned; they are
//! never silently trusted and never panic.
//!
//! The world is the standard chaos-profiled tiny ecosystem, so recovery
//! is exercised across retries, open circuit breakers, degraded zones,
//! and re-scan passes — not just the happy path.

#[expect(dead_code, reason = "each suite uses only some of the shared helpers")]
mod common;

use bootscan::report::{self, DegradationReport, Figure1};
use bootscan::{ProgressSink, ScanPolicy, ScanResults, Scanner, ZoneEvent, ZoneScan};
use dns_ecosystem::{build, Ecosystem, EcosystemConfig};
use netsim::{FaultPlan, SimMicros};
use scan_journal::{
    decode_event, encode_event, fingerprint_names, recover, JournalHeader, JournalSink, TailStatus,
    JOURNAL_FILE,
};
use std::fs;
use std::mem::discriminant;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

const WORLD_SEED: u64 = 42;
const CHAOS_SEED: u64 = 0xC4A0;
const RUN_ID: u64 = 0xB007_5CA7;

/// Fresh chaos-profiled world + scanner. `parallelism` is an input
/// because the deterministic-resume guarantee holds for every journaled
/// scan: a scan with a sink is one sequential lane whatever the policy
/// says, so the reference below (parallelism 1) is the reference for all.
fn fresh_world(parallelism: usize) -> (Ecosystem, Arc<Scanner>) {
    let eco = build(EcosystemConfig::tiny(WORLD_SEED));
    let plan = FaultPlan::standard_chaos(CHAOS_SEED, &eco.net.bound_addrs());
    eco.net.set_faults(plan);
    let scanner = Scanner::for_ecosystem(
        &eco,
        ScanPolicy {
            parallelism,
            ..ScanPolicy::default()
        },
    );
    (eco, scanner)
}

fn run_dir(case: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("crash-recovery-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Everything a run's outcome is compared on: every field of every
/// zone, the two reports derived from them, and the scan totals.
struct Outcome {
    zones: Vec<ZoneScan>,
    figure1: Figure1,
    degradation: DegradationReport,
    simulated_duration: u64,
    total_queries: u64,
}

impl Outcome {
    fn of(results: &ScanResults) -> Self {
        Outcome {
            zones: results.zones.clone(),
            figure1: report::figure1(results),
            degradation: report::degradation(results),
            simulated_duration: results.simulated_duration,
            total_queries: results.total_queries,
        }
    }

    fn assert_identical(&self, other: &Outcome, what: &str) {
        common::assert_same_zones(
            &self.zones,
            &other.zones,
            &format!("{what}: per-zone reports differ"),
        );
        assert_eq!(self.figure1, other.figure1, "{what}: figure 1 differs");
        assert_eq!(
            self.degradation, other.degradation,
            "{what}: degradation report differs"
        );
        assert_eq!(
            self.simulated_duration, other.simulated_duration,
            "{what}: simulated duration differs"
        );
        assert_eq!(
            self.total_queries, other.total_queries,
            "{what}: total queries differ"
        );
    }
}

/// Counts events without persisting anything (for the reference run).
struct CountSink(AtomicU64);

impl ProgressSink for CountSink {
    fn on_zone(&self, _event: &ZoneEvent) -> bool {
        self.0.fetch_add(1, Ordering::SeqCst);
        true
    }
}

/// Simulates the process dying after `k` events reached the journal:
/// event `k` (0-based) is rejected *before* it is journaled or folded
/// into memory — exactly what a kill between the scan step and the
/// journal write looks like.
struct KillSwitch<'a> {
    journal: &'a JournalSink,
    remaining: AtomicI64,
}

impl ProgressSink for KillSwitch<'_> {
    fn on_zone(&self, event: &ZoneEvent) -> bool {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return false;
        }
        self.journal.on_zone(event)
    }
}

/// The uninterrupted reference run: its outcome and its event count.
fn reference() -> (Outcome, u64) {
    let (eco, scanner) = fresh_world(1);
    let seeds = eco.seeds.compile(&eco.psl);
    let counter = CountSink(AtomicU64::new(0));
    let results = scanner.scan_all_with(&seeds, Some(&counter), None);
    assert!(!results.zones.is_empty());
    (Outcome::of(&results), counter.0.load(Ordering::SeqCst))
}

fn header(seeds: &[dns_wire::name::Name]) -> JournalHeader {
    JournalHeader {
        run_id: RUN_ID,
        fingerprint: fingerprint_names(seeds),
    }
}

/// Run until `k` events are journaled, then "die". Returns how many
/// events actually made it to disk.
fn run_killed_at(dir: &Path, k: u64, parallelism: usize) -> u64 {
    let (eco, scanner) = fresh_world(parallelism);
    let seeds = eco.seeds.compile(&eco.psl);
    let sink = JournalSink::create(dir, header(&seeds)).expect("create journal");
    let kill = KillSwitch {
        journal: &sink,
        remaining: AtomicI64::new(k as i64),
    };
    let _abandoned = scanner.scan_all_with(&seeds, Some(&kill), None);
    sink.entries_logged()
}

/// Restart from whatever `dir` holds: fresh world, recover, replay
/// effects, resume the scan, keep journaling.
fn resume_from(dir: &Path, parallelism: usize) -> Outcome {
    let (eco, scanner) = fresh_world(parallelism);
    let seeds = eco.seeds.compile(&eco.psl);
    let recovery = recover(dir, header(&seeds)).expect("recovery must not fail");
    recovery.apply_to(&scanner);
    let sink = JournalSink::resume(dir, &recovery).expect("resume journal");
    let results = scanner.scan_all_with(&seeds, Some(&sink), Some(recovery.resume_state()));
    Outcome::of(&results)
}

#[test]
fn killed_at_any_cut_point_resumes_byte_identically() {
    let (expected, n) = reference();
    assert!(
        n > 40,
        "tiny world should emit well over 40 events, got {n}"
    );

    // ≥20 seeded cut points: dense at both edges (empty journal, one
    // event, almost-done, exactly-done) and spread across the middle —
    // including re-scan-pass territory at the high end.
    let mut cuts: Vec<u64> = vec![0, 1, 2, 3, n - 2, n - 1, n];
    let step = (n / 16).max(1);
    cuts.extend((step..n - 2).step_by(step as usize));
    cuts.sort_unstable();
    cuts.dedup();
    assert!(cuts.len() >= 20, "only {} cut points", cuts.len());

    for &k in &cuts {
        let dir = run_dir(&format!("cut-{k}"));
        let journaled = run_killed_at(&dir, k, 4);
        assert_eq!(
            journaled, k,
            "kill switch must stop after exactly {k} events"
        );
        let resumed = resume_from(&dir, 4);
        resumed.assert_identical(&expected, &format!("cut at {k}/{n}"));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn power_loss_at_any_event_costs_less_than_one_commit_unit() {
    const UNIT: u64 = JournalSink::COMMIT_EVERY;
    let (expected, n) = reference();
    assert!(n > UNIT + 1, "the cuts must cross a commit, got {n} events");

    let mut cuts: Vec<u64> = vec![0, 1, UNIT - 1, UNIT, UNIT + 1, n - 1, n];
    cuts.extend((0..n).step_by((n / 20).max(1) as usize));
    cuts.sort_unstable();
    cuts.dedup();
    assert!(cuts.len() >= 24, "only {} cut points", cuts.len());

    for &k in &cuts {
        // Power loss right after the kill keeps what the last commit
        // synced: the first `k - k % UNIT` frames.
        let committed = k - k % UNIT;
        let dir = run_dir(&format!("power-{k}"));
        assert_eq!(run_killed_at(&dir, k, 1), k);
        common::keep_frames(&dir, committed);
        if committed == 0 {
            // Nothing was ever committed, the header included.
            fs::write(dir.join(JOURNAL_FILE), b"").unwrap();
        }

        let (eco, _) = fresh_world(1);
        let seeds = eco.seeds.compile(&eco.psl);
        let rec = recover(&dir, header(&seeds)).expect("recovery after power loss");
        assert!(
            rec.next_seq() + UNIT > k,
            "power loss after {k} events: only {} recovered",
            rec.next_seq()
        );
        resume_from(&dir, 1).assert_identical(&expected, &format!("power loss at {k}/{n}"));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_journal_tails_are_detected_and_survived() {
    let (expected, n) = reference();
    let mid = n / 2;
    // A committed frame mid-journal: the first commit synced frames
    // 0..COMMIT_EVERY, and the journal runs on well past them.
    const DAMAGED: u64 = JournalSink::COMMIT_EVERY / 2;
    assert!(n > JournalSink::COMMIT_EVERY + DAMAGED, "got {n} events");

    // Three ways a crash mid-journal-write mangles the tail, and damage
    // to a committed frame in the middle of the journal. Each must be
    // caught by the frame checksum, truncated to the last valid entry
    // before it, and healed by re-scanning every zone behind it.
    type Mutation = fn(&mut Vec<u8>);
    // (tag, events journaled before the kill, mutation)
    let mutations: [(&str, u64, Mutation); 4] = [
        ("garbage-appended", mid, |raw| {
            raw.extend_from_slice(&[0xAA; 37])
        }),
        ("truncated-mid-frame", mid, |raw| {
            raw.truncate(raw.len() - 5);
        }),
        ("corrupt-byte-in-last-frame", mid, |raw| {
            let idx = raw.len() - 12;
            raw[idx] ^= 0x40;
        }),
        ("corrupt-byte-in-committed-frame", n, |raw| {
            let idx = common::frames_len(raw, DAMAGED) + 12;
            raw[idx] ^= 0x40;
        }),
    ];

    for (tag, kill, mutate) in mutations {
        let dir = run_dir(&format!("torn-{tag}"));
        let journaled = run_killed_at(&dir, kill, 1);
        assert_eq!(journaled, kill);
        let path = dir.join(JOURNAL_FILE);
        let mut raw = fs::read(&path).unwrap();
        let clean_len = raw.len() as u64;
        mutate(&mut raw);
        fs::write(&path, &raw).unwrap();

        // Recovery must flag the torn tail, trust at most the clean
        // prefix, and truncate the file — never panic, never carry
        // corrupt bytes forward.
        let (eco, _) = fresh_world(1);
        let seeds = eco.seeds.compile(&eco.psl);
        let rec = recover(&dir, header(&seeds)).expect("recovery over torn tail");
        assert!(
            matches!(rec.journal_tail, TailStatus::Torn { .. }),
            "{tag}: tail corruption must be reported"
        );
        assert!(
            rec.next_seq() <= kill,
            "{tag}: recovered more events than were written"
        );
        if tag == "corrupt-byte-in-committed-frame" {
            assert_eq!(
                rec.next_seq(),
                DAMAGED,
                "{tag}: recovery must stop at the damaged frame"
            );
        }
        assert!(
            fs::metadata(&path).unwrap().len() <= clean_len,
            "{tag}: torn tail must be physically truncated"
        );

        let resumed = resume_from(&dir, 1);
        resumed.assert_identical(&expected, tag);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn lost_journal_recovers_nothing_and_rescans_identically() {
    let (expected, n) = reference();
    let kill = (n * 2) / 3;
    let dir = run_dir("journal-lost");
    assert_eq!(run_killed_at(&dir, kill, 1), kill);
    fs::remove_file(dir.join(JOURNAL_FILE)).unwrap();

    let (eco, _) = fresh_world(1);
    let seeds = eco.seeds.compile(&eco.psl);
    let rec = recover(&dir, header(&seeds)).expect("recovery without a journal");
    assert_eq!(rec.next_seq(), 0, "nothing but the journal holds progress");

    let resumed = resume_from(&dir, 1);
    resumed.assert_identical(&expected, "journal lost");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resuming_against_a_different_seed_list_is_refused() {
    let dir = run_dir("fingerprint");
    run_killed_at(&dir, 5, 1);

    let (eco, _) = fresh_world(1);
    let mut seeds = eco.seeds.compile(&eco.psl);
    seeds.truncate(seeds.len() - 1); // a different target list
    let err = recover(&dir, header(&seeds)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&dir);
}

/// An event's cache inserts are one list, the kinds interleaved in the
/// order the scan made them, and the codec keeps that order. Decoded,
/// they seed a fresh scanner exactly as the originals do: a re-scan over
/// either answers every cache lookup alike, so it asks the same
/// questions and ends in the same zones, costs included.
#[test]
fn decoded_inserts_seed_the_caches_the_originals_seed() {
    let (eco, scanner) = fresh_world(1);
    let seeds = eco.seeds.compile(&eco.psl);
    let log = common::EventLog::default();
    let cold = scanner.scan_all_with(&seeds, Some(&log), None);
    let events = log.0.into_inner();

    let decoded: Vec<ZoneEvent> = events
        .iter()
        .map(|e| decode_event(&encode_event(e)).expect("codec round trip"))
        .collect();
    assert_eq!(
        decoded, events,
        "the round trip keeps every insert in order"
    );
    let interleaved = |e: &ZoneEvent| {
        let kinds: Vec<_> = e.effects.iter().map(|(_, i)| discriminant(i)).collect();
        kinds.windows(3).any(|w| w[0] == w[2] && w[0] != w[1])
    };
    assert!(
        events.iter().any(interleaved),
        "some event must come back to a cache kind after another"
    );

    let warm = |events: &[ZoneEvent]| {
        let (eco, scanner) = fresh_world(1);
        for e in events {
            scanner.seed_effects(&e.effects, SimMicros::MAX);
        }
        Outcome::of(&scanner.scan_all(&eco.seeds.compile(&eco.psl)))
    };
    let (from_original, from_decoded) = (warm(&events), warm(&decoded));
    from_decoded.assert_identical(&from_original, "seeded from decoded inserts");
    assert!(
        from_original.total_queries < cold.total_queries,
        "the seeded caches answer: {} warm against {} cold queries",
        from_original.total_queries,
        cold.total_queries
    );
}
