//! # scan-continuous — the journaled study driver over epochs
//!
//! The paper's measurement is one scan pipeline run repeatedly over a
//! changing namespace. [`run_continuous`] is that loop: epoch 0 is a
//! full scan, every later epoch applies seeded churn and re-scans only
//! the delta set (churned, expired, degraded or never-scanned zones),
//! carrying caches and prior evidence forward (`scan-epochs` holds the
//! ledger and report types). The sequential study is this driver with
//! `fabric.workers = 1`; a registry-scale one wants the whole fleet per
//! epoch and observations that arrive on a schedule which does not wait
//! for the scanner:
//!
//! 1. **Fabric-distributed epochs.** Each admitted epoch's delta set is
//!    sharded with the same fnv64 [`ShardPlan`] the one-shot fabric uses
//!    and run by one [`drive`] — a fleet that lives for that epoch and is
//!    joined before the next epoch churns. A committed epoch starts no
//!    thread.
//! 2. **Distributed carry-over.** The [`CarryLedger`] is partitioned by
//!    each entry's *source zone* shard
//!    ([`CarryLedger::partition`]), so a carried cache travels with the
//!    shard that will re-scan its zone. Carried caches shape cost, never
//!    classification — distribution cannot change any zone's record.
//! 3. **Explicit backpressure.** Epoch arrivals follow virtual time
//!    (`arrival = epoch × spacing`). The [`admission`] controller — a
//!    pure function of (drain clock, arrival, config) — either
//!    *pipelines* a late epoch behind the draining one or *coalesces* it
//!    into an explicit [`SkippedEpoch`] marker whose churn the next
//!    admitted epoch absorbs. A scheduled observation is never silently
//!    dropped.
//! 4. **Crash-resumable pipeline.** Every `(epoch, shard)` journals
//!    under the nested [`Namespace`] (`epoch-NNNN/shard-NNNN`, chained
//!    run ids), so epoch N−1's journal can never satisfy epoch N's
//!    header — the journals fence across epochs and process
//!    incarnations by construction. An epoch enters the time series
//!    only after its `COMMIT` marker (which also records abandoned
//!    shards) is renamed into place, and nothing else the coordinator
//!    does touches the disk. A coordinator death therefore leaves, for
//!    some epoch e, one of three states: e committed and nothing after
//!    it (a death during carry-over or with a coalesce decision pending
//!    leaves this too); e's shard journals complete without a `COMMIT`;
//!    or e's shard journals cut to a frame prefix without one.
//!    `tests/continuous_recovery.rs` builds each state for every
//!    admitted epoch and resumes it to a byte-identical [`TimeSeries`],
//!    and every committed epoch stays byte-identical to an independent
//!    cold scan of the same churned world at any worker count
//!    (`tests/continuous_equivalence.rs`).

pub mod admission;

pub use admission::{admit, render_decisions, Admission, AdmissionConfig, Decision};

use bootscan::scanner::Scanner;
use bootscan::types::ZoneScan;
use bootscan::ScanPolicy;
use dns_ecosystem::{apply_churn, build, ChurnConfig, ChurnLog, ChurnPlan, EcosystemConfig};
use dns_wire::name::Name;
use netsim::SimMicros;
use scan_epochs::{CarryLedger, EpochReport, SkippedEpoch, TimeSeries};
use scan_fabric::{
    drive, fill_shard, FabricConfig, FabricFaultPlan, FabricOps, ShardJob, ShardPlan,
};
use scan_journal::{latest_per_zone, recover, write_atomically, Namespace};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Evidence validity (24 h of virtual time): zones whose last fresh scan
/// is older than this are re-scanned even without churn.
const EVIDENCE_TTL: SimMicros = 86_400_000_000;

/// Configuration of one continuous study.
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Scheduled observations, including the initial full scan
    /// (epoch 0). Churn applies from epoch 1 onward — also to coalesced
    /// epochs: the world does not wait for the scanner.
    pub epochs: u32,
    /// Seed of the churn model (independent of the world seed).
    pub churn_seed: u64,
    pub churn: ChurnConfig,
    /// Study run id: the root of every epoch × shard journal namespace.
    pub run_id: u64,
    /// Virtual time between scheduled epoch arrivals.
    pub epoch_spacing: SimMicros,
    /// Cache-entry validity, matching the resolver's in-scan TTL.
    pub cache_ttl: SimMicros,
    /// Backpressure bound: how many spacings the pipeline may run
    /// behind before arrivals coalesce (see [`AdmissionConfig`]).
    pub max_pipeline_depth: u32,
    /// Fleet sizing and failure detection. `fabric.shards` fixes the
    /// partition — reports are comparable across worker counts exactly
    /// when the shard count matches.
    pub fabric: FabricConfig,
    /// Worker faults injected into an epoch's drive (test-only); epochs
    /// without an entry run clean.
    pub epoch_faults: BTreeMap<u32, FabricFaultPlan>,
}

impl ContinuousConfig {
    pub fn new(epochs: u32, churn_seed: u64) -> Self {
        ContinuousConfig {
            epochs,
            churn_seed,
            churn: ChurnConfig::default(),
            run_id: 1,
            epoch_spacing: 1_800_000_000,
            cache_ttl: dns_resolver::CACHE_TTL_MICROS,
            max_pipeline_depth: 1,
            fabric: FabricConfig::default(),
            epoch_faults: BTreeMap::new(),
        }
    }

    /// The admission controller's view of this config.
    pub fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            epoch_spacing: self.epoch_spacing,
            max_pipeline_depth: self.max_pipeline_depth,
        }
    }
}

/// Everything a continuous run produces.
#[derive(Debug)]
pub struct ContinuousOutput {
    /// Committed epochs plus explicit skipped-epoch markers.
    pub series: TimeSeries,
    /// One admission decision per scheduled epoch, in epoch order.
    /// [`render_decisions`] of this stream is byte-identical across
    /// worker counts and across crash resumes.
    pub decisions: Vec<Decision>,
    /// Operational (scheduling-dependent) counters, aggregated across
    /// every driven epoch. Never byte-compared.
    pub ops: FabricOps,
}

/// Marker file whose presence commits an epoch into the time series.
/// It also records the shards the fleet abandoned, so a committed epoch
/// folds back with the same explicit Indeterminate placeholders it
/// reported live.
const COMMIT_FILE: &str = "COMMIT";

/// Synced before the rename: a power cut that kept the rename but lost
/// the data would leave an empty marker, which [`read_commit`] refuses
/// forever.
fn write_commit(dir: &Path, epoch: u32, abandoned: &BTreeSet<u32>) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut body = format!("epoch {epoch}\n");
    if !abandoned.is_empty() {
        let ids: Vec<String> = abandoned.iter().map(u32::to_string).collect();
        body.push_str(&format!("abandoned {}\n", ids.join(",")));
    }
    write_atomically(&dir.join(COMMIT_FILE), |f| f.write_all(body.as_bytes()))
}

/// Validate the `epoch N` identity line of a COMMIT marker against the
/// epoch whose directory it was read from. A marker that names a
/// different epoch (a mis-placed copy, a torn write, hand-edited state)
/// must be a hard error, never silently treated as "this epoch
/// committed" — committing the wrong epoch would fold stale results
/// into the time series.
fn validate_commit_epoch(text: &str, expected: u32) -> io::Result<()> {
    let declared = text
        .lines()
        .find_map(|line| line.strip_prefix("epoch "))
        .and_then(|n| n.trim().parse::<u32>().ok());
    match declared {
        Some(epoch) if epoch == expected => Ok(()),
        Some(epoch) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("COMMIT marker declares epoch {epoch}, expected epoch {expected}"),
        )),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt COMMIT marker: missing or unparsable `epoch N` line",
        )),
    }
}

/// `Some(abandoned shards)` if `epoch` committed, `None` otherwise.
/// The marker's declared epoch is validated against the one being
/// resumed ([`validate_commit_epoch`]); a mismatch is a hard error.
fn read_commit(dir: &Path, epoch: u32) -> io::Result<Option<BTreeSet<u32>>> {
    let text = match fs::read_to_string(dir.join(COMMIT_FILE)) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    validate_commit_epoch(&text, epoch)?;
    let mut abandoned = BTreeSet::new();
    for line in text.lines() {
        if let Some(ids) = line.strip_prefix("abandoned ") {
            for id in ids.split(',').filter(|s| !s.is_empty()) {
                abandoned.insert(id.parse::<u32>().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt COMMIT marker: bad shard id {id:?}"),
                    )
                })?);
            }
        }
    }
    Ok(Some(abandoned))
}

/// What folding one epoch's shard journals yields.
struct EpochFold {
    /// Every zone record the epoch produced: journaled scans plus
    /// explicit Indeterminate placeholders for abandoned shards' missing
    /// zones, in shard-major order (re-sorted by the caller).
    zones: Vec<ZoneScan>,
    /// Names that got placeholders, canonical order.
    stale: Vec<Name>,
    /// Logical queries spent (cost plane), summed over kept records.
    queries: u64,
    /// The epoch's virtual makespan: max over shards of journaled
    /// duration. Worker-count-invariant (the shard count fixes the
    /// partition) and journal-recoverable — this is what advances the
    /// admission controller's drain clock.
    makespan: SimMicros,
}

/// Fold one epoch back from its shard journals — the *single* code path
/// for both a freshly driven epoch and a committed epoch found on
/// resume, which is what makes the two byte-identical. Ledger
/// absorption runs in shard-major order (shard id, then journal order
/// within the shard): deterministic and independent of which workers
/// scanned what when.
fn fold_epoch(
    ns_epoch: &Namespace,
    plan: &ShardPlan,
    abandoned: &BTreeSet<u32>,
    ledger: &mut CarryLedger,
    epoch: u32,
) -> io::Result<EpochFold> {
    let mut zones = Vec::new();
    let mut stale = Vec::new();
    let mut queries = 0u64;
    let mut makespan: SimMicros = 0;
    for shard in 0..plan.shards() {
        let shard_zones = plan.zones(shard);
        let ns = ns_epoch.shard(shard);
        let recovery = recover(ns.dir(), ns.header(shard_zones))?;
        for (_, event) in &recovery.events {
            ledger.absorb(epoch, &event.scan.name, &event.effects);
        }
        let (table, duration) = latest_per_zone(&recovery.events);
        makespan = makespan.max(duration);
        // The fabric merge's hole rule: a gap in an abandoned shard is an
        // explicit placeholder, a gap in a completed one is corruption.
        let filled = fill_shard(shard_zones, &table, abandoned.contains(&shard)).map_err(|e| {
            let context = format!("epoch {epoch} shard {shard} was not abandoned: {e}");
            io::Error::new(e.kind(), context)
        })?;
        for zone in filled {
            if let Cow::Owned(placeholder) = &zone {
                stale.push(placeholder.name.clone());
            }
            queries += u64::from(zone.queries);
            zones.push(zone.into_owned());
        }
    }
    stale.sort_by(|a, b| a.canonical_cmp(b));
    Ok(EpochFold {
        zones,
        stale,
        queries,
        makespan,
    })
}

/// Prior evidence for one zone: the kept scan plus the epoch whose
/// fresh scan (or abandoned-shard placeholder) produced it.
struct Evidence {
    scan: ZoneScan,
    epoch: u32,
}

/// Run (or resume) a continuous fabric-distributed study.
///
/// Deterministic end to end at the evidence plane: the world is rebuilt
/// from `world`, each epoch's churn is replayed from `(churn seed,
/// epoch)`, the admission decision stream is recomputed from the
/// journal-recoverable drain clock, committed epochs fold back from
/// their shard journals without re-scanning, and the first uncommitted
/// epoch is resumed exactly where it died. Two invocations over the
/// same arguments and state root — interrupted anywhere, any number of
/// times, at any worker count — produce byte-identical
/// [`TimeSeries::canonical_bytes`] and [`render_decisions`] streams.
pub fn run_continuous(
    world: EcosystemConfig,
    policy: ScanPolicy,
    cfg: &ContinuousConfig,
    state_root: &Path,
) -> io::Result<ContinuousOutput> {
    fs::create_dir_all(state_root)?;
    // The world is a plain local: `apply_churn` takes it `&mut`, so no
    // scanner can read it while an epoch's churn edits it in place.
    let mut eco = build(world);
    let mut seeds = eco.seeds.compile(&eco.psl);
    seeds.sort_by(|a, b| a.canonical_cmp(b));
    seeds.dedup();

    let shards = cfg.fabric.shards.max(1);
    let clean = FabricFaultPlan::none();
    let admission_cfg = cfg.admission();
    let mut ops = FabricOps::default();
    let mut evidence: BTreeMap<Name, Evidence> = BTreeMap::new();
    let mut ledger = CarryLedger::new();
    let mut series = TimeSeries::default();
    let mut decisions: Vec<Decision> = Vec::new();
    // Churned zones from coalesced epochs, awaiting the next admitted
    // epoch's delta set.
    let mut pending_churned: Vec<Name> = Vec::new();
    let mut drain: SimMicros = 0;

    for epoch in 0..cfg.epochs {
        let arrival = (epoch as SimMicros).saturating_mul(cfg.epoch_spacing);

        // -- Churn: the world mutates on schedule, admitted or not. The
        //    previous epoch's `drive` has joined every worker, so nothing
        //    scans while the zones are out of their stores.
        let churn: ChurnLog = if epoch == 0 {
            ChurnLog::default()
        } else {
            let plan = ChurnPlan::generate(&eco, &cfg.churn, cfg.churn_seed, epoch);
            apply_churn(&mut eco, &plan)
        };
        let churned: Vec<Name> = churn
            .churned_zones()
            .into_iter()
            .filter(|z| seeds.binary_search_by(|s| s.canonical_cmp(z)).is_ok())
            .collect();
        // Carried caches hit by this window's churn are dead either
        // way — a coalesced epoch's churn still invalidates.
        ledger.invalidate(&churn.invalidated_cuts);

        // -- Admission: pipeline or coalesce, never silently drop.
        let decision = admit(drain, arrival, &admission_cfg);
        decisions.push(Decision {
            epoch,
            arrival,
            admission: decision,
        });
        let start = match decision {
            Admission::Coalesce { behind } => {
                pending_churned.extend(churned.iter().cloned());
                series.skipped.push(SkippedEpoch {
                    epoch,
                    arrival,
                    behind,
                    churned,
                });
                continue;
            }
            Admission::Pipeline { start, .. } => start,
        };
        let now = start;
        ledger.prune_expired(now, cfg.cache_ttl, cfg.epoch_spacing);

        // -- Delta set: churned (this window + absorbed coalesced
        //    windows), expired, weak, and never-scanned zones.
        let mut delta: Vec<Name> = if epoch == 0 {
            seeds.clone()
        } else {
            let mut d = churned.clone();
            d.append(&mut pending_churned);
            for (name, ev) in &evidence {
                let age = now.saturating_sub((ev.epoch as SimMicros) * cfg.epoch_spacing);
                let expired = age >= EVIDENCE_TTL;
                let weak =
                    ev.scan.degraded || ev.scan.dnssec == bootscan::DnssecClass::Indeterminate;
                if expired || weak {
                    d.push(name.clone());
                }
            }
            for s in &seeds {
                if !evidence.contains_key(s) {
                    d.push(s.clone());
                }
            }
            d
        };
        pending_churned.clear();
        delta.sort_by(|a, b| a.canonical_cmp(b));
        delta.dedup();

        let plan = ShardPlan::new(&delta, shards);
        ops.largest_shard = ops.largest_shard.max(plan.largest_shard());
        let ns_epoch = Namespace::root(state_root, cfg.run_id).epoch(epoch);

        // -- Drive or fold: committed epochs never re-scan.
        let (abandoned, committed) = match read_commit(ns_epoch.dir(), epoch)? {
            Some(abandoned) => (abandoned, true),
            None => {
                // Distribute carry-over: each shard's fresh scanner is
                // pre-seeded with its partition of the ledger.
                let parts = ledger.partition(shards);
                let scanner = |k: u32| {
                    let scanner = Scanner::for_ecosystem(&eco, policy.clone());
                    if let Some(part) = parts.get(k as usize) {
                        part.seed_into(&scanner, now, cfg.cache_ttl, cfg.epoch_spacing);
                    }
                    scanner
                };
                let job = ShardJob {
                    plan: &plan,
                    ns: ns_epoch.clone(),
                    scanner: &scanner,
                    faults: cfg.epoch_faults.get(&epoch).unwrap_or(&clean),
                };
                (drive(&job, &cfg.fabric, &mut ops), false)
            }
        };

        let fold = fold_epoch(&ns_epoch, &plan, &abandoned, &mut ledger, epoch)?;
        if !committed {
            write_commit(ns_epoch.dir(), epoch, &abandoned)?;
        }
        drain = now.saturating_add(fold.makespan);

        // -- Fold evidence: fresh results (and explicit
        //    placeholders) overwrite; everyone else carries forward.
        let stale = fold.stale;
        for z in fold.zones {
            evidence.insert(z.name.clone(), Evidence { scan: z, epoch });
        }
        let mut table: Vec<ZoneScan> = evidence.values().map(|e| e.scan.clone()).collect();
        table.sort_by(|a, b| a.name.canonical_cmp(&b.name));
        ops.peak_resident_zones = ops.peak_resident_zones.max(table.len());
        let fresh: Vec<Name> = delta
            .iter()
            .filter(|n| stale.binary_search_by(|s| s.canonical_cmp(n)).is_err())
            .cloned()
            .collect();
        series.epochs.push(EpochReport {
            epoch,
            zones: table,
            fresh,
            stale,
            churned,
            queries: fold.queries,
            simulated_duration: fold.makespan,
        });
    }

    Ok(ContinuousOutput {
        series,
        decisions,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_marker_roundtrips_abandoned_shards() {
        let dir = std::env::temp_dir().join(format!(
            "scan-continuous-commit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(read_commit(&dir, 3).unwrap(), None, "no marker yet");
        write_commit(&dir, 3, &BTreeSet::new()).unwrap();
        assert_eq!(read_commit(&dir, 3).unwrap(), Some(BTreeSet::new()));
        let abandoned: BTreeSet<u32> = [1, 4, 7].into_iter().collect();
        write_commit(&dir, 3, &abandoned).unwrap();
        assert_eq!(read_commit(&dir, 3).unwrap(), Some(abandoned));
        // A marker that declares a different epoch (mis-placed copy,
        // hand-edited state) is a hard error, not a commit.
        assert!(read_commit(&dir, 4).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The fabric merge's hole rule, through the epoch fold: a completed
    /// shard must cover its whole slice (a hole is corruption, named),
    /// an abandoned one gets an explicit placeholder for it.
    #[test]
    fn hole_in_a_completed_shard_is_invalid_data_naming_the_zone() {
        use bootscan::{ProgressSink, ZoneEvent};
        let root = std::env::temp_dir().join(format!(
            "scan-continuous-hole-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let (a, b) = (
            Name::parse("a.example").unwrap(),
            Name::parse("b.example").unwrap(),
        );
        let plan = ShardPlan::new(&[a.clone(), b.clone()], 1);
        let ns_epoch = Namespace::root(&root, 7).epoch(0);
        let ns = ns_epoch.shard(0);
        // Only a.example reaches the shard's journal.
        let sink = scan_journal::JournalSink::create(ns.dir(), ns.header(plan.zones(0))).unwrap();
        let scan = fill_shard(std::slice::from_ref(&a), &[], true)
            .unwrap()
            .remove(0)
            .into_owned();
        assert!(sink.on_zone(&ZoneEvent {
            pass: 0,
            scan,
            effects: Default::default(),
            duration_delta: 5,
        }));
        drop(sink);

        let completed = fold_epoch(
            &ns_epoch,
            &plan,
            &BTreeSet::new(),
            &mut CarryLedger::new(),
            0,
        );
        let err = completed.err().expect("a hole in a completed shard");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("b.example."), "{err}");

        let abandoned = BTreeSet::from([0]);
        let fold = fold_epoch(&ns_epoch, &plan, &abandoned, &mut CarryLedger::new(), 0).unwrap();
        assert_eq!(fold.stale, vec![b]);
        assert_eq!(fold.zones.len(), 2);
        assert_eq!(fold.makespan, 5);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_commit_marker_is_a_hard_error() {
        let dir = std::env::temp_dir().join(format!(
            "scan-continuous-badcommit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(COMMIT_FILE), "epoch 3\nabandoned 1,x\n").unwrap();
        assert!(read_commit(&dir, 3).is_err());
        // Missing identity line entirely: also a hard error.
        fs::write(dir.join(COMMIT_FILE), "abandoned 1\n").unwrap();
        assert!(read_commit(&dir, 3).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
