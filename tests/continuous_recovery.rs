//! Crash-resumability of the continuous epoch pipeline: a run killed at
//! any point must resume to a **byte-identical**
//! [`TimeSeries::canonical_bytes`] and admission decision stream. There
//! are two kinds of death:
//!
//! * **worker deaths mid-epoch** — injected through
//!   [`ContinuousConfig::epoch_faults`] and survived *live* by the fleet
//!   (the run completes in one invocation; no coordinator resume
//!   involved). Which worker steals which shard when is timing, so CI
//!   runs these tests twice.
//! * **coordinator deaths** — the coordinator writes nothing but shard
//!   journals and `COMMIT` markers, so its death *is* the disk state it
//!   leaves, and this suite builds those states directly instead of
//!   killing a process at hand-picked points. For every admitted epoch
//!   e: e committed and the run stopped there (a death during carry-over
//!   distribution or with a coalesce decision pending leaves exactly
//!   this: neither writes anything); e's shard journals complete
//!   without a `COMMIT` (a death between drain and commit), also with a
//!   zero-length checkpoint beside each journal; and e's shard journals
//!   cut to a frame prefix without a `COMMIT` (a death mid-drive), in
//!   eight shapes. The states are deterministic, so CI runs them once.
//!
//! The schedule is the calibrated overlap from
//! `continuous_equivalence.rs` (spacing = makespan/3, depth 1), so the
//! deaths also land *around* pipelined and coalesced epochs — the
//! cross-epoch journal-fencing surface.

#[expect(dead_code, reason = "`assert_same_zones` serves the scan-level suites")]
mod common;

use bootscan::{DnssecClass, ScanPolicy, Scanner};
use dns_ecosystem::{apply_churn, build, ChurnConfig, ChurnPlan, EcosystemConfig};
use netsim::SimMicros;
use scan_continuous::{render_decisions, run_continuous, ContinuousConfig, ContinuousOutput};
use scan_epochs::{canonical_evidence, TimeSeries};
use scan_fabric::{FabricConfig, FabricFaultPlan, ShardPlan, WorkerFault};
use scan_journal::{read_journal, Namespace, CHECKPOINT_FILE, JOURNAL_FILE};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

const EPOCHS: u32 = 5;
const WORLD_SEED: u64 = 42;
const CHURN_SEED: u64 = 7;
const SHARDS: u32 = 8;
const RUN_ID: u64 = 0xC0_0002;
const WORKERS: usize = 4;

/// A fresh state root, unique per call: tests run on parallel threads
/// and share helpers, so tag and pid alone would let one test's clean-up
/// race another's run.
fn state_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicU32 = AtomicU32::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cont-recov-{tag}-{}-{call}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn policy() -> ScanPolicy {
    ScanPolicy {
        parallelism: 1,
        ..ScanPolicy::default()
    }
}

fn config(spacing: SimMicros) -> ContinuousConfig {
    let mut cfg = ContinuousConfig::new(EPOCHS, CHURN_SEED);
    cfg.run_id = RUN_ID;
    cfg.epoch_spacing = spacing;
    cfg.max_pipeline_depth = 1;
    cfg.fabric = FabricConfig {
        workers: WORKERS,
        shards: SHARDS,
        max_attempts: 4,
        heartbeat_every: 1,
        lease_timeout_polls: 25,
        poll_wait: Duration::from_millis(4),
        max_respawns: 64,
    };
    cfg
}

/// One coordinator incarnation over `dir`.
fn run(cfg: &ContinuousConfig, dir: &Path, what: &str) -> ContinuousOutput {
    run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), cfg, dir)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Run `cfg` to completion in a fresh root, then remove the root.
fn run_fresh(cfg: &ContinuousConfig, tag: &str) -> ContinuousOutput {
    let dir = state_dir(tag);
    let out = run(cfg, &dir, tag);
    let _ = fs::remove_dir_all(&dir);
    out
}

/// Calibrate the overlap schedule: epoch 0's makespan from a 1-epoch
/// no-overlap probe, arrivals every makespan/3, pipeline depth 1.
fn calibrated_spacing() -> SimMicros {
    let mut cfg = config(86_400_000_000);
    cfg.epochs = 1;
    let out = run_fresh(&cfg, "probe");
    (out.series.epochs[0].simulated_duration / 3).max(1)
}

/// Epoch `epoch`'s directory under `root`.
fn epoch_ns(root: &Path, epoch: u32) -> Namespace {
    Namespace::root(root, RUN_ID).epoch(epoch)
}

/// Undo `epoch`'s commit: what a death between its drain and the
/// `COMMIT` rename leaves.
fn uncommit(root: &Path, epoch: u32) {
    fs::remove_file(epoch_ns(root, epoch).dir().join("COMMIT"))
        .unwrap_or_else(|e| panic!("epoch {epoch} had no COMMIT to remove: {e}"));
}

/// Assert a resumed run reproduced the unkilled baseline.
#[track_caller]
fn assert_resumed(baseline: &ContinuousOutput, got: &ContinuousOutput, what: &str) {
    assert_eq!(
        baseline.series.canonical_bytes(),
        got.series.canonical_bytes(),
        "{what}: time series diverged after recovery"
    );
    assert_eq!(
        render_decisions(&baseline.decisions),
        render_decisions(&got.decisions),
        "{what}: admission decisions diverged after recovery"
    );
}

#[test]
fn kill_matrix_resumes_to_byte_identical_series() {
    let spacing = calibrated_spacing();
    let baseline = run_fresh(&config(spacing), "baseline");
    let admitted: Vec<u32> = baseline.series.epochs.iter().map(|e| e.epoch).collect();
    let skipped: Vec<u32> = baseline.series.skipped.iter().map(|s| s.epoch).collect();

    // Derive worker-kill points from epoch 0's actual shard geometry
    // (epoch 0 scans the full seed list, so these always fire).
    let eco = build(EcosystemConfig::tiny(WORLD_SEED));
    let mut seeds = eco.seeds.compile(&eco.psl);
    seeds.sort_by(|a, b| a.canonical_cmp(b));
    seeds.dedup();
    let plan = ShardPlan::new(&seeds, SHARDS);

    // (tag, epoch, fault plan)
    let mut points: Vec<(String, u32, FabricFaultPlan)> = Vec::new();
    for shard in 0..SHARDS {
        let zones = plan.zones(shard).len() as u64;
        if zones == 0 {
            continue;
        }
        let kill =
            |at_event| FabricFaultPlan::none().with_fault(shard, 0, WorkerFault::Kill { at_event });
        points.push((format!("wkill-e0-s{shard}-first"), 0, kill(0)));
        if zones > 1 {
            points.push((format!("wkill-e0-s{shard}-last"), 0, kill(zones - 1)));
        }
    }
    points.push(("wdead-e0".into(), 0, FabricFaultPlan::none().kill_worker(1)));
    // Worker kills inside a *pipelined* epoch (admitted late, scanning
    // under backlog): attempt 0 of every shard of the first admitted
    // epoch after a skip. Deltas can be small; at_event 0 fires
    // whenever the shard is non-empty, and an empty shard makes the
    // point a no-op run that must still byte-match.
    let late = *admitted
        .iter()
        .find(|&&e| skipped.iter().any(|&s| s < e))
        .expect("an admitted epoch after a skip");
    for shard in [0, SHARDS / 2, SHARDS - 1] {
        points.push((
            format!("wkill-e{late}-s{shard}"),
            late,
            FabricFaultPlan::none().with_fault(shard, 0, WorkerFault::Kill { at_event: 0 }),
        ));
    }
    assert!(
        points.len() >= 20,
        "only {} worker-kill points in the matrix",
        points.len()
    );

    for (tag, epoch, faults) in points {
        let mut cfg = config(spacing);
        cfg.epoch_faults.insert(epoch, faults);
        let got = run_fresh(&cfg, &tag);
        assert_resumed(&baseline, &got, &tag);
        if tag.starts_with("wkill-e0") {
            assert!(
                got.ops.workers_lost >= 1,
                "{tag}: injected worker fault never cost a worker"
            );
        }
    }
}

/// What a coordinator death left of one shard's journal.
#[derive(Debug, Clone, Copy)]
enum Left {
    /// The shard never started: no directory.
    NotStarted,
    /// The header and the first `n` frames.
    Frames(u64),
    /// The first `n` frames and part of the next: a death mid-append.
    TornAfter(u64),
    /// The whole journal beside a zero-length `checkpoint.bsj`: a power
    /// cut kept a checkpoint's rename but not its data.
    BesideEmptyCheckpoint,
}

/// An uncommitted epoch: for shard `s`, whose complete journal holds
/// `n` frames, what a coordinator death left of it. The two `drained`
/// states are a death between drain and `COMMIT`, the other eight a
/// death mid-drive.
type Shape = fn(u32, u64) -> Left;
const UNCOMMITTED: [(&str, Shape); 10] = [
    ("drained", |_, n| Left::Frames(n)),
    ("drained-empty-checkpoint", |_, _| {
        Left::BesideEmptyCheckpoint
    }),
    ("header-only", |_, _| Left::Frames(0)),
    ("first-frame", |_, n| Left::Frames(n.min(1))),
    ("half", |_, n| Left::Frames(n / 2)),
    ("all-but-last", |_, n| Left::Frames(n.saturating_sub(1))),
    ("staggered", |s, n| {
        Left::Frames(n * u64::from(s) / u64::from(SHARDS))
    }),
    ("one-in-flight", |s, n| {
        Left::Frames(if s == 0 { n / 2 } else { n })
    }),
    ("torn-append", |_, n| {
        if n == 0 {
            Left::Frames(0)
        } else {
            Left::TornAfter(n / 2)
        }
    }),
    ("half-not-started", |s, n| {
        if s < SHARDS / 2 {
            Left::Frames(n)
        } else {
            Left::NotStarted
        }
    }),
];

/// Run the study through epoch `e` into a fresh root. With a shape,
/// undo `e`'s commit and leave each shard journal as the shape says.
/// Returns the root and how many frames the shape removed.
fn leave(spacing: SimMicros, e: u32, shape: Option<Shape>, tag: &str) -> (PathBuf, u64) {
    let dir = state_dir(tag);
    let mut cfg = config(spacing);
    cfg.epochs = e + 1;
    run(&cfg, &dir, tag);
    let Some(shape) = shape else {
        return (dir, 0);
    };
    uncommit(&dir, e);
    let mut removed = 0;
    for s in 0..SHARDS {
        let ns = epoch_ns(&dir, e).shard(s);
        let shard = ns.dir();
        let frames = read_journal(&shard.join(JOURNAL_FILE))
            .unwrap_or_else(|err| panic!("{tag}: shard {s} journal: {err}"))
            .entries
            .len() as u64;
        match shape(s, frames) {
            Left::NotStarted => {
                fs::remove_dir_all(shard).unwrap();
                removed += frames;
            }
            Left::Frames(k) => {
                common::keep_frames(shard, k, false);
                removed += frames - k;
            }
            Left::TornAfter(k) => {
                common::keep_frames(shard, k + 1, false);
                let journal = fs::OpenOptions::new()
                    .write(true)
                    .open(shard.join(JOURNAL_FILE))
                    .unwrap();
                let len = journal.metadata().unwrap().len();
                journal.set_len(len - 3).unwrap();
                removed += frames - k;
            }
            Left::BesideEmptyCheckpoint => fs::write(shard.join(CHECKPOINT_FILE), b"").unwrap(),
        }
    }
    (dir, removed)
}

#[test]
fn coordinator_deaths_resume_from_every_disk_state() {
    let spacing = calibrated_spacing();
    let baseline = run_fresh(&config(spacing), "states-base");
    assert!(
        !baseline.series.skipped.is_empty(),
        "calibration produced no coalesced epoch — the states need one"
    );
    // `None`: the epoch committed and the run stopped there.
    let states = std::iter::once(("committed", None))
        .chain(UNCOMMITTED.iter().map(|&(name, shape)| (name, Some(shape))));

    let mut points = 0;
    for e in baseline.series.epochs.iter().map(|r| r.epoch) {
        for (name, shape) in states.clone() {
            let tag = format!("e{e}-{name}");
            let (dir, removed) = leave(spacing, e, shape, &tag);
            if e == 0 && !matches!(name, "committed" | "drained" | "drained-empty-checkpoint") {
                // Epoch 0 scans every zone, so each mid-drive shape cuts
                // something.
                assert!(removed > 0, "{tag}: the cut removed nothing");
            }
            let got = run(&config(spacing), &dir, &tag);
            let _ = fs::remove_dir_all(&dir);
            assert_resumed(&baseline, &got, &tag);
            points += 1;
        }
    }
    // The hook-based kill matrix these states replace had 30 points.
    assert!(points >= 30, "only {points} disk states");
}

#[test]
fn chained_kills_across_epoch_boundaries_still_converge() {
    // Three coordinator incarnations over one root: the first dies
    // between epoch 0's drain and its COMMIT, the second with the first
    // coalesce decision pending (every earlier epoch committed, nothing
    // after), the third runs to the end.
    let spacing = calibrated_spacing();
    let baseline = run_fresh(&config(spacing), "chain-base");
    let skipped = baseline
        .series
        .skipped
        .first()
        .expect("a skipped epoch")
        .epoch;

    let dir = state_dir("chain");
    let mut cfg = config(spacing);
    cfg.epochs = 1;
    run(&cfg, &dir, "first incarnation");
    uncommit(&dir, 0);
    cfg.epochs = skipped;
    run(&cfg, &dir, "second incarnation");
    cfg.epochs = EPOCHS;
    let got = run(&cfg, &dir, "final resume");
    let _ = fs::remove_dir_all(&dir);
    assert_resumed(&baseline, &got, "chain");
}

/// The cross-epoch fencing surface, pinned directly: a shard stolen
/// after a mid-epoch worker kill and re-driven in a later incarnation
/// must never leave epoch-N work under epoch-N−1's namespace. The
/// nested namespaces make that structural — epoch N−1's journal cannot
/// satisfy epoch N's header — so it suffices that a run which suffered
/// *both* a worker kill in one epoch and a coordinator death before the
/// next epoch's commit still folds every epoch back byte-identically.
#[test]
fn stolen_shards_never_cross_epoch_namespaces() {
    let spacing = calibrated_spacing();
    let baseline = run_fresh(&config(spacing), "fence-base");
    let second = baseline.series.epochs[1].epoch;

    let dir = state_dir("fence");
    let mut cfg = config(spacing);
    cfg.epoch_faults = BTreeMap::from([(
        0,
        FabricFaultPlan::none()
            .with_fault(0, 0, WorkerFault::Kill { at_event: 0 })
            .with_fault(1, 0, WorkerFault::Kill { at_event: 0 }),
    )]);
    cfg.epochs = second + 1;
    run(&cfg, &dir, "killed incarnation");
    uncommit(&dir, second);
    cfg.epochs = EPOCHS;
    let got = run(&cfg, &dir, "resume");
    let _ = fs::remove_dir_all(&dir);
    assert_resumed(&baseline, &got, "fence");
}

/// The respawn budget is per drive: with one worker and one respawn, a
/// worker death in each of two epochs is survived both times, because
/// the second epoch's fleet starts with the whole budget again.
#[test]
fn a_respawn_budget_lasts_one_epoch() {
    let mut cfg = config(1_800_000_000);
    cfg.epochs = 2;
    cfg.fabric.workers = 1;
    cfg.fabric.max_respawns = 1;
    let clean = run_fresh(&cfg, "budget-clean");
    // The kill comes after the scan, so it fires on an empty shard too.
    let handoff_kill = FabricFaultPlan::none().with_fault(0, 0, WorkerFault::KillBeforeHandoff);
    cfg.epoch_faults = BTreeMap::from([(0, handoff_kill.clone()), (1, handoff_kill)]);
    let got = run_fresh(&cfg, "budget");
    assert_resumed(&clean, &got, "budget");
    assert_eq!(
        got.ops.shards_abandoned, 0,
        "epoch 1's death found the budget spent"
    );
    assert_eq!(got.ops.workers_lost, 2, "one death per epoch");
    assert_eq!(got.ops.workers_spawned, 4, "1 worker + 1 respawn per epoch");
}

/// A death before an epoch's COMMIT must never leak that epoch: a
/// *shorter* re-run over the same root yields exactly the committed
/// prefix (skipped-epoch markers included), and the full-length resume
/// still reproduces the uninterrupted series.
#[test]
fn torn_epoch_never_appears_in_a_later_series() {
    let spacing = calibrated_spacing();
    let expect = run_fresh(&config(spacing), "torn-base").series;
    assert!(
        expect.epochs.iter().any(|e| e.epoch == 2),
        "calibration must admit epoch 2 for the torn epoch to exist"
    );

    let dir = state_dir("torn");
    let mut cfg = config(spacing);
    cfg.epochs = 3;
    run(&cfg, &dir, "torn run");
    uncommit(&dir, 2);

    cfg.epochs = 2;
    let prefix = run(&cfg, &dir, "prefix run").series;
    let expect_prefix = TimeSeries {
        epochs: expect
            .epochs
            .iter()
            .filter(|e| e.epoch < 2)
            .cloned()
            .collect(),
        skipped: expect
            .skipped
            .iter()
            .filter(|s| s.epoch < 2)
            .cloned()
            .collect(),
    };
    assert_eq!(prefix.canonical_bytes(), expect_prefix.canonical_bytes());

    let series = run(&config(spacing), &dir, "full resume").series;
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(series.canonical_bytes(), expect.canonical_bytes());
}

/// Cold-scan the world state as of `epoch`: independent build, same
/// churn plans replayed, full scan with a fresh scanner.
fn cold_reference(epoch: u32) -> String {
    let mut eco = build(EcosystemConfig::tiny(WORLD_SEED));
    for e in 1..=epoch {
        let plan = ChurnPlan::generate(&eco, &ChurnConfig::default(), CHURN_SEED, e);
        apply_churn(&mut eco, &plan);
    }
    let mut seeds = eco.seeds.compile(&eco.psl);
    seeds.sort_by(|a, b| a.canonical_cmp(b));
    seeds.dedup();
    canonical_evidence(
        &Scanner::for_ecosystem(&eco, policy())
            .scan_all(&seeds)
            .zones,
    )
}

/// Honest degradation across epochs: zones that could not be scanned
/// this epoch (their shard exhausted its attempt budget) are reported
/// as explicit degraded `Indeterminate` placeholders — never as old
/// evidence, never dropped — and re-enter the next epoch's delta set.
#[test]
fn abandoned_shard_zones_are_stale_markers_and_rescanned_next_epoch() {
    let eco = build(EcosystemConfig::tiny(WORLD_SEED));
    let mut seeds = eco.seeds.compile(&eco.psl);
    seeds.sort_by(|a, b| a.canonical_cmp(b));
    seeds.dedup();
    let plan = ShardPlan::new(&seeds, SHARDS);
    let doomed = (0..SHARDS)
        .find(|&s| !plan.zones(s).is_empty())
        .expect("a populated shard");

    // Epoch 0's delta is the full seed list; kill every attempt of one
    // populated shard before its first journal append.
    // Half an hour between arrivals: every epoch drains on time, and
    // evidence stays inside its TTL — only weak evidence and churn put a
    // zone back in the delta set.
    let unhurried: SimMicros = 1_800_000_000;
    let mut cfg = config(unhurried);
    let kills = (0..cfg.fabric.max_attempts).fold(FabricFaultPlan::none(), |p, attempt| {
        p.with_fault(doomed, attempt, WorkerFault::Kill { at_event: 0 })
    });
    cfg.epoch_faults.insert(0, kills);
    cfg.epochs = 3;

    let dir = state_dir("abandoned");
    let out = run(
        &cfg,
        &dir,
        "an abandoned shard degrades, it does not fail the study",
    );
    let (e0, e1) = (&out.series.epochs[0], &out.series.epochs[1]);
    assert_eq!(e0.stale, plan.zones(doomed), "exactly the doomed shard");
    assert_eq!(e0.fresh.len() + e0.stale.len(), seeds.len());
    for name in &e0.stale {
        let z = e0
            .zones
            .iter()
            .find(|z| &z.name == name)
            .expect("an unscanned zone stays in the report");
        assert_eq!(z.dnssec, DnssecClass::Indeterminate, "{name}");
        assert!(z.degraded, "{name}: placeholder must flag degradation");
    }
    // The placeholders are weak evidence, so the next admitted epoch
    // re-scans every one of them and is whole again.
    assert_eq!(e1.epoch, 1);
    assert!(e0.stale.iter().all(|n| e1.fresh.contains(n)));
    assert!(e1.stale.is_empty());
    assert_eq!(e1.canonical_evidence(), cold_reference(1));

    // The COMMIT marker's `abandoned` line round-trips through a real
    // run: a re-run over the committed root folds epoch 0 back with the
    // same placeholders, without any fault plan to re-create them.
    let expect = out.series.canonical_bytes();
    let mut clean = config(unhurried);
    clean.epochs = 3;
    let refolded = run(&clean, &dir, "re-run over committed root");
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(refolded.series.canonical_bytes(), expect);

    // And a coordinator that died between that epoch's drain and its
    // COMMIT resumes to the same series.
    let dir = state_dir("abandoned-commit");
    let mut first = cfg.clone();
    first.epochs = 1;
    run(&first, &dir, "drained, not committed");
    uncommit(&dir, 0);
    let resumed = run(&cfg, &dir, "resume");
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(resumed.series.canonical_bytes(), expect);
}

/// A state root written by the deleted sequential epoch driver kept one
/// journal and a COMMIT marker per `epoch-NNNN` directory, with no
/// shard level underneath. This driver reads that marker as "epoch 0
/// committed", finds no shard journals to fold, and must refuse the
/// root — never re-scan over it or report an empty epoch.
#[test]
fn state_root_from_the_old_epoch_driver_is_refused() {
    let dir = state_dir("old-root");
    let epoch0 = epoch_ns(&dir, 0);
    fs::create_dir_all(epoch0.dir()).expect("epoch dir");
    fs::write(epoch0.dir().join("COMMIT"), "epoch 0\n").expect("old-style marker");

    let cfg = config(86_400_000_000);
    let err = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir)
        .expect_err("an old-layout root is a hard error");
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(
        err.to_string().contains("was not abandoned"),
        "unexpected refusal: {err}"
    );
}
