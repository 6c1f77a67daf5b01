//! Epoch-boundary crash-recovery matrix: kill a longitudinal study at
//! every interesting point — mid-epoch (various progress depths),
//! between the last journal checkpoint and the epoch COMMIT marker, and
//! during inter-epoch cache carry-over — then resume with the fault
//! cleared and require the recovered **time series** byte-identical to
//! an uninterrupted run (`TimeSeries::canonical_bytes`, which includes
//! the cost plane; exact at `parallelism = 1`).
//!
//! The torn-epoch guarantee under test: a kill before the COMMIT marker
//! never leaks a partial epoch into the series — resume re-enters the
//! same epoch, replays its journal, and finishes it; a kill after
//! COMMIT re-folds the epoch from its journal without scanning.

use bootscan::ScanPolicy;
use dns_ecosystem::EcosystemConfig;
use scan_epochs::{run_study, KillPoint, StudyConfig, TimeSeries};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

const EPOCHS: u32 = 4;
const WORLD_SEED: u64 = 42;
const CHURN_SEED: u64 = 7;

/// A fresh state root, unique per call: tests run on parallel threads
/// and share helpers, so tag and pid alone would let one test's clean-up
/// race another's run.
fn state_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicU32 = AtomicU32::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("epoch-recover-{tag}-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn study() -> StudyConfig {
    let mut s = StudyConfig::new(EPOCHS, CHURN_SEED);
    // Checkpoint often so mid-epoch kills land between checkpoints too.
    s.checkpoint_every = 4;
    s
}

fn baseline() -> TimeSeries {
    let dir = state_dir("baseline");
    let series = run_study(
        EcosystemConfig::tiny(WORLD_SEED),
        ScanPolicy::default(),
        &study(),
        &dir,
    )
    .expect("uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
    series
}

/// Run with `fault` armed until it fires (or the study survives it —
/// e.g. a `MidEpoch` event index past the epoch's actual event count),
/// then clear the fault and resume from the same state directory.
fn kill_and_resume(tag: &str, fault: KillPoint) -> (bool, TimeSeries) {
    let dir = state_dir(tag);
    let mut armed = study();
    armed.fault = Some(fault);
    let died = match run_study(
        EcosystemConfig::tiny(WORLD_SEED),
        ScanPolicy::default(),
        &armed,
        &dir,
    ) {
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::Interrupted, "{tag}: {e}");
            true
        }
        Ok(_) => false,
    };
    let series = run_study(
        EcosystemConfig::tiny(WORLD_SEED),
        ScanPolicy::default(),
        &study(),
        &dir,
    )
    .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    (died, series)
}

#[test]
fn kill_matrix_resumes_to_identical_time_series() {
    let expect = baseline().canonical_bytes();

    // ≥ 15 kill points across the three structural classes and every
    // epoch: shallow / checkpoint-boundary / deep mid-epoch kills,
    // post-checkpoint pre-COMMIT kills, and carry-over kills.
    let mut matrix: Vec<(String, KillPoint)> = Vec::new();
    for epoch in 0..EPOCHS {
        for at_event in [0, 1, 4, 9] {
            matrix.push((
                format!("mid-e{epoch}-ev{at_event}"),
                KillPoint::MidEpoch { epoch, at_event },
            ));
        }
        matrix.push((
            format!("commit-e{epoch}"),
            KillPoint::BeforeCommit { epoch },
        ));
    }
    for epoch in 1..EPOCHS {
        matrix.push((
            format!("carry-e{epoch}"),
            KillPoint::DuringCarryOver { epoch },
        ));
    }
    assert!(matrix.len() >= 15, "matrix has {} points", matrix.len());

    let mut fired = 0usize;
    for (tag, fault) in matrix {
        let (died, series) = kill_and_resume(&tag, fault);
        fired += died as usize;
        assert_eq!(
            series.canonical_bytes(),
            expect,
            "{tag}: recovered series diverged from the uninterrupted run"
        );
    }
    // A MidEpoch index can exceed an incremental epoch's event count
    // (the fault then never fires — also worth covering), but the bulk
    // of the matrix must actually kill the study.
    assert!(fired >= 12, "only {fired} kill points fired");
}

#[test]
fn double_kill_in_the_same_epoch_still_recovers() {
    // Crash twice inside epoch 1 at different depths, then finish.
    let expect = baseline().canonical_bytes();
    let dir = state_dir("double");
    for at_event in [0, 2] {
        let mut armed = study();
        armed.fault = Some(KillPoint::MidEpoch { epoch: 1, at_event });
        let err = run_study(
            EcosystemConfig::tiny(WORLD_SEED),
            ScanPolicy::default(),
            &armed,
            &dir,
        )
        .expect_err("armed fault fires");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }
    let series = run_study(
        EcosystemConfig::tiny(WORLD_SEED),
        ScanPolicy::default(),
        &study(),
        &dir,
    )
    .expect("final resume");
    assert_eq!(series.canonical_bytes(), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_epoch_never_appears_in_a_later_series() {
    // Kill before epoch 2's COMMIT; the state dir must let a resume
    // reproduce the full series, and a *shorter* re-run (epochs = 2)
    // over the same dir must yield exactly the committed prefix —
    // proving the torn epoch 2 never leaked.
    let dir = state_dir("torn");
    let mut armed = study();
    armed.fault = Some(KillPoint::BeforeCommit { epoch: 2 });
    run_study(
        EcosystemConfig::tiny(WORLD_SEED),
        ScanPolicy::default(),
        &armed,
        &dir,
    )
    .expect_err("fault fires");

    let mut short = study();
    short.epochs = 2;
    let prefix = run_study(
        EcosystemConfig::tiny(WORLD_SEED),
        ScanPolicy::default(),
        &short,
        &dir,
    )
    .expect("prefix run");
    assert_eq!(prefix.epochs.len(), 2);
    let expect = baseline();
    let expect_prefix = TimeSeries {
        epochs: expect.epochs[..2].to_vec(),
        skipped: Vec::new(),
    };
    assert_eq!(prefix.canonical_bytes(), expect_prefix.canonical_bytes());

    // And the full-length resume still completes all epochs exactly.
    let series = run_study(
        EcosystemConfig::tiny(WORLD_SEED),
        ScanPolicy::default(),
        &study(),
        &dir,
    )
    .expect("full resume");
    assert_eq!(series.canonical_bytes(), expect.canonical_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}
