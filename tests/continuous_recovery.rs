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
//!   committed, while the next admitted epoch's partitioned ledger is
//!   being published to the fleet;
//! * **kills while a coalesce decision is pending** — the admission
//!   controller decided to skip an epoch but its explicit marker was
//!   never recorded; resume must re-derive the same decision from the
//!   journal-recoverable drain clock.
//!
//! The schedule is the calibrated overlap from
//! `continuous_equivalence.rs` (spacing = makespan/3, depth 1), so the
//! matrix also exercises kills *around* pipelined and coalesced epochs
//! — the cross-epoch lease-fencing surface.

use bootscan::ScanPolicy;
use dns_ecosystem::{build, EcosystemConfig};
use netsim::SimMicros;
use scan_continuous::{
    render_decisions, run_continuous, ContinuousConfig, ContinuousFaultPlan, ContinuousKill,
    ContinuousOutput,
};
use scan_fabric::{FabricConfig, FabricFaultPlan, ShardPlan, WorkerFault};
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
    // DuringCarryOver{e} fires while the next admitted epoch's ledger
    // partition is being published, so the last admitted epoch has no
    // successor to fire under.
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
