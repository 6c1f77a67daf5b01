//! Crash-resumability of the continuous epoch pipeline: a run killed at
//! any point must resume to a **byte-identical**
//! [`TimeSeries::canonical_bytes`] and admission decision stream. The
//! kill matrix covers all four robustness categories the design names:
//!
//! * **worker kills mid-epoch** — injected through the per-epoch fabric
//!   fault plan and survived *live* by the fleet (the run completes in
//!   one invocation; no coordinator resume involved);
//! * **coordinator kills between epochs** — after an epoch's shards
//!   drained but before its `COMMIT` marker lands;
//! * **kills during carry-over distribution** — after an epoch
//!   committed, once the next admitted epoch's ledger is partitioned
//!   and before that epoch's fleet starts: nothing on disk has changed
//!   since the commit;
//! * **kills while a coalesce decision is pending** — the admission
//!   controller decided to skip an epoch but its explicit marker was
//!   never recorded; resume must re-derive the same decision from the
//!   journal-recoverable drain clock.
//!
//! The schedule is the calibrated overlap from
//! `continuous_equivalence.rs` (spacing = makespan/3, depth 1), so the
//! matrix also exercises kills *around* pipelined and coalesced epochs
//! — the cross-epoch journal-fencing surface.

use bootscan::{DnssecClass, ScanPolicy, Scanner};
use dns_ecosystem::{apply_churn, build, ChurnConfig, ChurnPlan, EcosystemConfig};
use netsim::SimMicros;
use scan_continuous::{
    render_decisions, run_continuous, ContinuousConfig, ContinuousFaultPlan, ContinuousKill,
    ContinuousOutput,
};
use scan_epochs::{canonical_evidence, TimeSeries};
use scan_fabric::{FabricConfig, FabricFaultPlan, ShardPlan, WorkerFault};
use scan_journal::Namespace;
use std::path::PathBuf;
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
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn policy() -> ScanPolicy {
    ScanPolicy {
        parallelism: 1,
        ..ScanPolicy::default()
    }
}

fn config(spacing: SimMicros, faults: ContinuousFaultPlan) -> ContinuousConfig {
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
    cfg.faults = faults;
    cfg
}

/// Calibrate the overlap schedule: epoch 0's makespan from a 1-epoch
/// no-overlap probe, arrivals every makespan/3, pipeline depth 1.
fn calibrated_spacing() -> SimMicros {
    let dir = state_dir("probe");
    let mut cfg = config(86_400_000_000, ContinuousFaultPlan::none());
    cfg.epochs = 1;
    let out =
        run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir).expect("probe run");
    let _ = std::fs::remove_dir_all(&dir);
    (out.series.epochs[0].simulated_duration / 3).max(1)
}

/// Run to completion under `faults`, resuming (faults cleared, same
/// schedule) after every injected coordinator kill. `expect_kills` is
/// how many coordinator kills the plan must actually fire.
fn run_resuming(
    spacing: SimMicros,
    faults: ContinuousFaultPlan,
    expect_kills: usize,
    tag: &str,
) -> ContinuousOutput {
    let dir = state_dir(tag);
    let mut kills = 0usize;
    let mut cfg = config(spacing, faults);
    let out = loop {
        match run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir) {
            Ok(out) => break out,
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted,
                    "{tag}: unexpected failure: {e}"
                );
                kills += 1;
                assert!(kills <= expect_kills, "{tag}: kill fired more than planned");
                // A restarted coordinator: same schedule, fault cleared.
                cfg.faults.kill = None;
            }
        }
    };
    assert_eq!(kills, expect_kills, "{tag}: planned kill(s) never fired");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn kill_matrix_resumes_to_byte_identical_series() {
    let spacing = calibrated_spacing();
    let baseline = run_resuming(spacing, ContinuousFaultPlan::none(), 0, "baseline");
    let expected_bytes = baseline.series.canonical_bytes();
    let expected_decisions = render_decisions(&baseline.decisions);
    assert!(
        !baseline.series.skipped.is_empty(),
        "calibration produced no coalesced epoch — the matrix needs one"
    );
    let admitted: Vec<u32> = baseline.series.epochs.iter().map(|e| e.epoch).collect();
    let skipped: Vec<u32> = baseline.series.skipped.iter().map(|s| s.epoch).collect();

    // Derive worker-kill points from epoch 0's actual shard geometry
    // (epoch 0 scans the full seed list, so these always fire).
    let eco = build(EcosystemConfig::tiny(WORLD_SEED));
    let mut seeds = eco.seeds.compile(&eco.psl);
    seeds.sort_by(|a, b| a.canonical_cmp(b));
    seeds.dedup();
    let plan = ShardPlan::new(&seeds, SHARDS);

    // (tag, fault plan, coordinator kills expected)
    let mut points: Vec<(String, ContinuousFaultPlan, usize)> = Vec::new();

    // -- Category 1: worker kills mid-epoch, survived live. ----------
    for shard in 0..SHARDS {
        let zones = plan.zones(shard).len() as u64;
        if zones == 0 {
            continue;
        }
        points.push((
            format!("wkill-e0-s{shard}-first"),
            ContinuousFaultPlan::none().with_epoch_faults(
                0,
                FabricFaultPlan::none().with_fault(shard, 0, WorkerFault::Kill { at_event: 0 }),
            ),
            0,
        ));
        if zones > 1 {
            points.push((
                format!("wkill-e0-s{shard}-last"),
                ContinuousFaultPlan::none().with_epoch_faults(
                    0,
                    FabricFaultPlan::none().with_fault(
                        shard,
                        0,
                        WorkerFault::Kill {
                            at_event: zones - 1,
                        },
                    ),
                ),
                0,
            ));
        }
    }
    // A torn checkpoint and a permanently dead worker, for texture.
    let populated = (0..SHARDS)
        .find(|&s| !plan.zones(s).is_empty())
        .expect("a populated shard");
    points.push((
        "wkill-e0-ckpt".into(),
        ContinuousFaultPlan::none().with_epoch_faults(
            0,
            FabricFaultPlan::none().with_fault(
                populated,
                0,
                WorkerFault::KillDuringCheckpoint { at_event: 0 },
            ),
        ),
        0,
    ));
    points.push((
        "wdead-e0".into(),
        ContinuousFaultPlan::none().with_epoch_faults(0, FabricFaultPlan::none().kill_worker(1)),
        0,
    ));
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
            ContinuousFaultPlan::none().with_epoch_faults(
                late,
                FabricFaultPlan::none().with_fault(shard, 0, WorkerFault::Kill { at_event: 0 }),
            ),
            0,
        ));
    }

    // -- Category 2: coordinator dies between drain and COMMIT. ------
    for &e in &admitted {
        points.push((
            format!("commit-e{e}"),
            ContinuousFaultPlan::none().with_kill(ContinuousKill::BeforeCommit { epoch: e }),
            1,
        ));
    }

    // -- Category 3: coordinator dies during carry-over distribution.
    // DuringCarryOver{e} fires once the next admitted epoch's ledger is
    // partitioned, before its fleet starts, so the last admitted epoch
    // has no successor to fire under.
    for &e in admitted.iter().take(admitted.len() - 1) {
        points.push((
            format!("carry-e{e}"),
            ContinuousFaultPlan::none().with_kill(ContinuousKill::DuringCarryOver { epoch: e }),
            1,
        ));
    }

    // -- Category 4: coordinator dies with a coalesce decision pending.
    for &e in &skipped {
        points.push((
            format!("coalesce-e{e}"),
            ContinuousFaultPlan::none().with_kill(ContinuousKill::DuringCoalesce { epoch: e }),
            1,
        ));
    }

    // -- Combined: a worker kill survived live in epoch 0, then the
    //    coordinator torn at a later commit boundary in the same run.
    points.push((
        "combo-wkill-commit".into(),
        ContinuousFaultPlan::none()
            .with_epoch_faults(
                0,
                FabricFaultPlan::none().with_fault(populated, 0, WorkerFault::Kill { at_event: 0 }),
            )
            .with_kill(ContinuousKill::BeforeCommit { epoch: late }),
        1,
    ));

    assert!(
        points.len() >= 20,
        "only {} kill points in the matrix",
        points.len()
    );

    for (tag, faults, expect_kills) in points {
        let worker_faults = faults.epochs.values().map(|p| p.injected()).sum::<usize>()
            + faults.epochs.values().filter(|p| p.worker_dead(1)).count();
        let got = run_resuming(spacing, faults, expect_kills, &tag);
        assert_eq!(
            expected_bytes,
            got.series.canonical_bytes(),
            "{tag}: time series diverged after recovery"
        );
        assert_eq!(
            expected_decisions,
            render_decisions(&got.decisions),
            "{tag}: admission decisions diverged after recovery"
        );
        if worker_faults > 0 && tag.starts_with("wkill-e0") {
            assert!(
                got.ops.workers_lost >= 1,
                "{tag}: injected worker fault never cost a worker"
            );
        }
    }
}

#[test]
fn chained_kills_across_epoch_boundaries_still_converge() {
    // Kill at epoch 0's commit boundary, resume into a run that dies
    // again with the coalesce decision pending, resume again to the
    // end: three coordinator incarnations, one byte-identical series.
    let spacing = calibrated_spacing();
    let baseline = run_resuming(spacing, ContinuousFaultPlan::none(), 0, "chain-base");
    let skipped = baseline
        .series
        .skipped
        .first()
        .expect("a skipped epoch")
        .epoch;

    let dir = state_dir("chain");
    let cfg0 = config(
        spacing,
        ContinuousFaultPlan::none().with_kill(ContinuousKill::BeforeCommit { epoch: 0 }),
    );
    let err = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg0, &dir)
        .expect_err("first kill");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);

    let cfg1 = config(
        spacing,
        ContinuousFaultPlan::none().with_kill(ContinuousKill::DuringCoalesce { epoch: skipped }),
    );
    let err = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg1, &dir)
        .expect_err("second kill");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);

    let cfg2 = config(spacing, ContinuousFaultPlan::none());
    let got = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg2, &dir)
        .expect("final resume");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        baseline.series.canonical_bytes(),
        got.series.canonical_bytes()
    );
    assert_eq!(
        render_decisions(&baseline.decisions),
        render_decisions(&got.decisions)
    );
}

/// The cross-epoch fencing surface, pinned directly: a shard stolen
/// after a mid-epoch worker kill and re-driven in a later incarnation
/// must never leave epoch-N work under epoch-N−1's namespace. The
/// nested namespaces make that structural — epoch N−1's journal cannot
/// satisfy epoch N's header — so it suffices that a run which suffered
/// *both* a worker kill in one epoch and a coordinator kill before the
/// next epoch's commit still folds every epoch back byte-identically.
#[test]
fn stolen_shards_never_cross_epoch_namespaces() {
    let spacing = calibrated_spacing();
    let baseline = run_resuming(spacing, ContinuousFaultPlan::none(), 0, "fence-base");
    let second = baseline.series.epochs[1].epoch;

    let faults = ContinuousFaultPlan::none()
        .with_epoch_faults(
            0,
            FabricFaultPlan::none()
                .with_fault(0, 0, WorkerFault::Kill { at_event: 0 })
                .with_fault(1, 0, WorkerFault::Kill { at_event: 0 }),
        )
        .with_kill(ContinuousKill::BeforeCommit { epoch: second });
    let got = run_resuming(spacing, faults, 1, "fence");
    assert_eq!(
        baseline.series.canonical_bytes(),
        got.series.canonical_bytes()
    );
}

/// The respawn budget is per drive: with one worker and one respawn, a
/// worker death in each of two epochs is survived both times, because
/// the second epoch's fleet starts with the whole budget again.
#[test]
fn a_respawn_budget_lasts_one_epoch() {
    let lean = |faults: ContinuousFaultPlan| {
        let mut cfg = config(1_800_000_000, faults);
        cfg.epochs = 2;
        cfg.fabric.workers = 1;
        cfg.fabric.max_respawns = 1;
        cfg
    };
    let run = |cfg: ContinuousConfig, tag: &str| {
        let dir = state_dir(tag);
        let out =
            run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir).expect(tag);
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    // The kill comes after the scan, so it fires on an empty shard too.
    let handoff_kill = FabricFaultPlan::none().with_fault(0, 0, WorkerFault::KillBeforeHandoff);
    let faults = ContinuousFaultPlan::none()
        .with_epoch_faults(0, handoff_kill.clone())
        .with_epoch_faults(1, handoff_kill);

    let clean = run(lean(ContinuousFaultPlan::none()), "budget-clean");
    let got = run(lean(faults), "budget");
    assert_eq!(got.series.canonical_bytes(), clean.series.canonical_bytes());
    assert_eq!(
        render_decisions(&got.decisions),
        render_decisions(&clean.decisions)
    );
    assert_eq!(
        got.ops.shards_abandoned, 0,
        "epoch 1's death found the budget spent"
    );
    assert_eq!(got.ops.workers_lost, 2, "one death per epoch");
    assert_eq!(got.ops.workers_spawned, 4, "1 worker + 1 respawn per epoch");
}

/// A kill before an epoch's COMMIT must never leak that epoch: a
/// *shorter* re-run over the same root yields exactly the committed
/// prefix (skipped-epoch markers included), and the full-length resume
/// still reproduces the uninterrupted series.
#[test]
fn torn_epoch_never_appears_in_a_later_series() {
    let spacing = calibrated_spacing();
    let expect = run_resuming(spacing, ContinuousFaultPlan::none(), 0, "torn-base").series;
    assert!(
        expect.epochs.iter().any(|e| e.epoch == 2),
        "calibration must admit epoch 2 for the kill to fire"
    );

    let dir = state_dir("torn");
    let armed = config(
        spacing,
        ContinuousFaultPlan::none().with_kill(ContinuousKill::BeforeCommit { epoch: 2 }),
    );
    let err = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &armed, &dir)
        .expect_err("fault fires");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);

    let mut short = config(spacing, ContinuousFaultPlan::none());
    short.epochs = 2;
    let prefix = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &short, &dir)
        .expect("prefix run")
        .series;
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

    let full = config(spacing, ContinuousFaultPlan::none());
    let series = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &full, &dir)
        .expect("full resume")
        .series;
    let _ = std::fs::remove_dir_all(&dir);
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
    let max_attempts = config(unhurried, ContinuousFaultPlan::none())
        .fabric
        .max_attempts;
    let kills = (0..max_attempts).fold(FabricFaultPlan::none(), |p, attempt| {
        p.with_fault(doomed, attempt, WorkerFault::Kill { at_event: 0 })
    });
    let faults = ContinuousFaultPlan::none().with_epoch_faults(0, kills);
    let mut cfg = config(unhurried, faults.clone());
    cfg.epochs = 3;

    let dir = state_dir("abandoned");
    let out = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir)
        .expect("an abandoned shard degrades, it does not fail the study");
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
    let mut clean = config(unhurried, ContinuousFaultPlan::none());
    clean.epochs = 3;
    let refolded = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &clean, &dir)
        .expect("re-run over committed root");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(refolded.series.canonical_bytes(), expect);

    // And a coordinator killed between that epoch's drain and its
    // COMMIT resumes to the same series.
    let dir = state_dir("abandoned-commit");
    cfg.faults = faults.with_kill(ContinuousKill::BeforeCommit { epoch: 0 });
    let err = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir)
        .expect_err("fault fires");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    cfg.faults.kill = None;
    let resumed =
        run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir).expect("resume");
    let _ = std::fs::remove_dir_all(&dir);
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
    let epoch0 = Namespace::root(&dir, RUN_ID).epoch(0);
    std::fs::create_dir_all(epoch0.dir()).expect("epoch dir");
    std::fs::write(epoch0.dir().join("COMMIT"), "epoch 0\n").expect("old-style marker");

    let cfg = config(86_400_000_000, ContinuousFaultPlan::none());
    let err = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir)
        .expect_err("an old-layout root is a hard error");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(
        err.to_string().contains("was not abandoned"),
        "unexpected refusal: {err}"
    );
}
