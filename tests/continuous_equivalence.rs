//! Headline contract of the continuous tier (DESIGN.md §11): a
//! fabric-distributed continuous run whose epochs arrive faster than
//! the fleet drains — forcing at least one *pipelined* epoch (admitted
//! with a late start) and at least one *coalesced* epoch (explicit
//! `SkippedEpoch` marker) — must keep **every committed epoch
//! byte-identical to an independent cold scan of the same churned
//! world**, at every worker count. The admission decision stream and
//! the full time series must also be byte-identical across worker
//! counts: the shard count fixes the partition, so the fleet size is a
//! pure throughput knob even under backpressure.
//!
//! The overlap is *calibrated*, not guessed: a no-overlap probe run
//! measures epoch 0's virtual makespan, and the main runs schedule
//! arrivals every `makespan/3` with pipeline depth 1 — epoch 0 admits
//! on time, epoch 1 arrives 2 spacings behind (coalesced), epoch 2
//! arrives 1 spacing behind (pipelined).

use bootscan::{ScanPolicy, Scanner};
use dns_ecosystem::{apply_churn, build, ChurnPlan, Ecosystem, EcosystemConfig};
use netsim::SimMicros;
use scan_continuous::{
    render_decisions, run_continuous, Admission, ContinuousConfig, ContinuousOutput,
};
use scan_epochs::canonical_evidence;
use scan_fabric::FabricConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const EPOCHS: u32 = 5;
const WORLD_SEED: u64 = 42;
const CHURN_SEED: u64 = 7;
const SHARDS: u32 = 8;
const RUN_ID: u64 = 0xC0_0001;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cont-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn policy() -> ScanPolicy {
    ScanPolicy {
        parallelism: 1,
        ..ScanPolicy::default()
    }
}

fn fabric(workers: usize) -> FabricConfig {
    FabricConfig {
        workers,
        shards: SHARDS,
        max_attempts: 4,
        heartbeat_every: 1,
        lease_timeout_polls: 25,
        poll_wait: Duration::from_millis(4),
        max_respawns: 64,
    }
}

fn config(workers: usize, epochs: u32, spacing: SimMicros) -> ContinuousConfig {
    let mut cfg = ContinuousConfig::new(epochs, CHURN_SEED);
    cfg.run_id = RUN_ID;
    cfg.epoch_spacing = spacing;
    cfg.max_pipeline_depth = 1;
    cfg.fabric = fabric(workers);
    cfg
}

fn run(workers: usize, epochs: u32, spacing: SimMicros, tag: &str) -> ContinuousOutput {
    let dir = state_dir(tag);
    let out = run_continuous(
        EcosystemConfig::tiny(WORLD_SEED),
        policy(),
        &config(workers, epochs, spacing),
        &dir,
    )
    .expect("continuous run");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Epoch 0's virtual makespan, measured by a 1-epoch probe run. The
/// initial full scan's makespan is independent of the spacing, so this
/// calibrates an arrival schedule that reliably outpaces the drain.
fn probe_makespan() -> SimMicros {
    let out = run(2, 1, 86_400_000_000, "probe");
    let makespan = out.series.epochs[0].simulated_duration;
    assert!(makespan > 3, "probe makespan too small to calibrate");
    makespan
}

/// Cold-scan the world state as of `epoch`: independent build, same
/// churn plans replayed (including coalesced epochs' windows — the
/// world does not wait for the scanner), full scan, fresh scanner.
fn cold_reference(epoch: u32) -> String {
    let mut eco = build(EcosystemConfig::tiny(WORLD_SEED));
    for e in 1..=epoch {
        let plan = ChurnPlan::generate(&eco, &dns_ecosystem::ChurnConfig::default(), CHURN_SEED, e);
        apply_churn(&mut eco, &plan);
    }
    let scanner = scanner_for(&eco);
    let mut seeds = eco.seeds.compile(&eco.psl);
    seeds.sort_by(|a, b| a.canonical_cmp(b));
    seeds.dedup();
    canonical_evidence(&scanner.scan_all(&seeds).zones)
}

fn scanner_for(eco: &Ecosystem) -> Arc<Scanner> {
    Scanner::for_ecosystem(eco, policy())
}

#[test]
fn overlapping_epochs_match_cold_scans_at_every_worker_count() {
    let spacing = (probe_makespan() / 3).max(1);
    let reference = run(1, EPOCHS, spacing, "w1");

    // The calibrated schedule must actually force both backpressure
    // behaviours: at least one pipelined epoch (admitted late) and at
    // least one coalesced epoch (explicit marker).
    let pipelined = reference
        .decisions
        .iter()
        .filter(|d| matches!(d.admission, Admission::Pipeline { start, .. } if start > d.arrival))
        .count();
    assert!(pipelined >= 1, "calibration produced no pipelined epoch");
    assert!(
        !reference.series.skipped.is_empty(),
        "calibration produced no coalesced epoch"
    );

    // Every scheduled observation is accounted for — committed or
    // explicitly skipped, never silently dropped.
    assert_eq!(
        reference.series.epochs.len() + reference.series.skipped.len(),
        EPOCHS as usize
    );
    assert_eq!(reference.decisions.len(), EPOCHS as usize);

    // A skipped epoch names its window's churn, and the next admitted
    // epoch's delta set absorbed exactly those zones.
    for s in &reference.series.skipped {
        let next = reference
            .series
            .epochs
            .iter()
            .find(|e| e.epoch > s.epoch)
            .expect("a later admitted epoch absorbs the skipped churn");
        for z in &s.churned {
            assert!(
                next.fresh.contains(z),
                "epoch {}: churned zone {z} from skipped epoch {} not re-scanned",
                next.epoch,
                s.epoch
            );
        }
    }
    // The markers surface in both serializations.
    let bytes = reference.series.canonical_bytes();
    assert!(bytes.contains("SKIPPED"), "no explicit marker:\n{bytes}");
    assert!(
        reference
            .series
            .render_trend()
            .contains("coalesced under backpressure"),
        "trend table hides the skipped epoch"
    );

    // Headline: every committed epoch byte-identical to a cold scan of
    // the same churned world state.
    for report in &reference.series.epochs {
        assert!(report.stale.is_empty(), "no faults, no placeholders");
        assert_eq!(
            report.canonical_evidence(),
            cold_reference(report.epoch),
            "epoch {}: continuous report diverged from the cold scan",
            report.epoch
        );
    }

    // Worker count is a pure throughput knob: the time series (evidence
    // *and* journal-folded costs) and the admission decision stream are
    // byte-identical across fleet sizes.
    let decisions = render_decisions(&reference.decisions);
    for workers in [2usize, 4, 8] {
        let got = run(workers, EPOCHS, spacing, &format!("w{workers}"));
        assert_eq!(
            decisions,
            render_decisions(&got.decisions),
            "decision stream diverged at {workers} workers"
        );
        assert_eq!(
            bytes,
            got.series.canonical_bytes(),
            "time series diverged at {workers} workers"
        );
    }
}

#[test]
fn unhurried_schedules_never_pipeline_or_coalesce() {
    // One day between arrivals: every epoch drains long before the next
    // one is due, so the continuous tier degrades to the sequential
    // longitudinal semantics — all on-time admissions, no markers.
    let out = run(4, 3, 86_400_000_000, "unhurried");
    assert_eq!(out.series.epochs.len(), 3);
    assert!(out.series.skipped.is_empty());
    for d in &out.decisions {
        match d.admission {
            Admission::Pipeline { start, behind } => {
                assert_eq!(start, d.arrival, "epoch {} started late", d.epoch);
                assert_eq!(behind, 0, "epoch {} saw backlog", d.epoch);
            }
            Admission::Coalesce { .. } => panic!("epoch {} coalesced", d.epoch),
        }
    }
    // The sequential longitudinal study is this driver with one worker
    // at the default half-hour spacing — unhurried too, and well inside
    // the evidence TTL, so later epochs re-scan only what churned: at
    // most a quarter of the initial full scan's logical queries.
    let seq = run(
        1,
        3,
        ContinuousConfig::new(3, CHURN_SEED).epoch_spacing,
        "seq",
    );
    assert!(seq.series.skipped.is_empty());
    let cold = seq.series.epochs[0].queries;
    for e in &seq.series.epochs[1..] {
        assert!(
            e.queries * 4 <= cold,
            "epoch {}: incremental spent {} of {cold} cold logical queries",
            e.epoch,
            e.queries
        );
    }
    // The trend table carries the paper's quantities, with explicit
    // per-epoch deltas on every row after the first.
    let rows = seq.series.trend();
    assert_eq!(rows.len(), 3);
    assert!(rows[0].secured > 0, "tiny world plants secured zones");
    let rendered = seq.series.render_trend();
    assert!(rendered.contains("bootstrappable"));
    assert!(rendered.contains('('), "delta column missing:\n{rendered}");

    // And a re-run over the same (already committed) state root folds
    // every epoch back without re-scanning, byte-identically.
    let dir = state_dir("unhurried-rerun");
    let cfg = config(4, 3, 86_400_000_000);
    let first =
        run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir).expect("first run");
    let second = run_continuous(EcosystemConfig::tiny(WORLD_SEED), policy(), &cfg, &dir)
        .expect("re-run over committed root");
    assert_eq!(
        first.series.canonical_bytes(),
        second.series.canonical_bytes()
    );
    assert_eq!(
        render_decisions(&first.decisions),
        render_decisions(&second.decisions)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
