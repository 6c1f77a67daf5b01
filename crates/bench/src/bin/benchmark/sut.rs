//! The adapter: the only benchmark file (with its `probes` submodule)
//! that names system-under-test APIs. Everything else in the benchmark
//! sees worlds, workloads and repetitions through the types below, so
//! when the study drivers are collapsed (ROADMAP item 3) this is the one
//! file that follows.
//!
//! It binds to `dns_ecosystem::build`, `Scanner::new/scan_all/scan_zone`,
//! `scan_fabric::run_fabric` and `scan_continuous::run_continuous` —
//! deliberately not to the umbrella `run_study*` wrappers nor to anything
//! in `crates/bench/src/lib.rs`.

pub mod probes;

use bootscan::operator::OperatorTable;
use bootscan::{DnssecClass, ResumeState, ScanPolicy, ScanResults, Scanner, ZoneScan};
use dns_ecosystem::{build, DnssecState, Ecosystem, EcosystemConfig};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::RecordType;
use scan_continuous::{render_decisions, run_continuous, ContinuousConfig, ContinuousOutput};
use scan_epochs::canonical_evidence;
use scan_fabric::{
    run_fabric, CollectSink, FabricConfig, FabricFaultPlan, FabricOps, MergedReport,
};
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Journal run id of every fabric/continuous state root the benchmark
/// creates. Each repetition gets a fresh directory, so one id suffices.
const RUN_ID: u64 = 0xBE_0C4;

/// The four study workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdScan,
    ParallelScan,
    FabricScan,
    ContinuousStudy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdScan,
        Workload::ParallelScan,
        Workload::FabricScan,
        Workload::ContinuousStudy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScan => "cold_scan",
            Workload::ParallelScan => "parallel_scan",
            Workload::FabricScan => "fabric_scan",
            Workload::ContinuousStudy => "continuous_study",
        }
    }

    /// Whether the second call starts from in-memory state rather than
    /// an on-disk state root.
    pub fn resumes_in_memory(self) -> bool {
        matches!(self, Workload::ColdScan | Workload::ParallelScan)
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Recorded in `BENCHMARK.json` and the README: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdScan => {
                "one thread, cold caches, no journal: per-query CPU cost of wire, netsim, server, resolver, crypto and classifier with no contention"
            }
            Workload::ParallelScan => {
                "same scan at parallelism 2: adds the shared-cache stripes, the NetStats mutex and the network read lock, so lock removal moves it and leaves cold_scan flat"
            }
            Workload::FabricScan => {
                "same zones through run_fabric (1 worker, 32 shards, journals on disk): the difference to cold_scan is the fabric's own cost - journal fsync, checkpoints, framing, cold scanner per shard, merge"
            }
            Workload::ContinuousStudy => {
                "4 epochs of run_continuous (2 workers, 8 shards, default churn): incremental re-scans on CarryLedger-seeded caches, churn and re-signing, ledger partition and seeding, admission, commits"
            }
        }
    }
}

/// Which world the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldKind {
    /// `EcosystemConfig::paper_default(scale)`.
    Paper { scale: u64 },
    /// `EcosystemConfig::tiny` — the `--smoke` world.
    Tiny,
}

/// Fabric lease settings. `lease_timeout_polls × poll_wait` must stay
/// ≥ 2 s: with the 25 × 2 ms the older `continuous_pipeline` bench uses,
/// wall-clock jitter alone expires a lease on a busy 2-core host, a
/// shard is abandoned, and the evidence silently changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    pub timeout_polls: u32,
    pub poll_wait_ms: u64,
}

impl Lease {
    pub const SAFE: Lease = Lease {
        timeout_polls: 400,
        poll_wait_ms: 5,
    };
}

/// Everything that fixes a repetition's inputs.
#[derive(Debug, Clone)]
pub struct Settings {
    pub world: WorldKind,
    /// Sets both `EcosystemConfig.seed` and the churn seed.
    pub seed: u64,
    pub lease: Lease,
    /// Epochs of the continuous study (4 for the workload; the traced run
    /// also runs a 1-epoch study to price an incremental epoch).
    pub epochs: u32,
    /// Parent of every state root. On the same real filesystem as the
    /// build directory, never a tmpfs: fsync cost is part of the measure.
    pub state_dir: PathBuf,
}

impl Settings {
    pub fn world_config(&self) -> EcosystemConfig {
        let mut cfg = match self.world {
            WorldKind::Paper { scale } => EcosystemConfig::paper_default(scale),
            WorldKind::Tiny => EcosystemConfig::tiny(self.seed),
        };
        cfg.seed = self.seed;
        cfg
    }

    fn fabric(&self, workers: usize, shards: u32) -> FabricConfig {
        FabricConfig {
            workers,
            shards,
            max_attempts: 4,
            heartbeat_every: 1,
            lease_timeout_polls: self.lease.timeout_polls,
            poll_wait: Duration::from_millis(self.lease.poll_wait_ms),
            max_respawns: 64,
        }
    }

    fn continuous(&self) -> ContinuousConfig {
        let mut cfg = ContinuousConfig::new(self.epochs, self.seed);
        cfg.run_id = RUN_ID;
        cfg.fabric = self.fabric(2, 8);
        cfg
    }
}

/// A freshly built world plus its compiled seed list: what `setup_s`
/// times. Rebuilt for every repetition so caches, limiter state and
/// `NetStats` start cold.
pub struct World {
    eco: Option<Ecosystem>,
    pub seeds: Vec<Name>,
}

impl World {
    pub fn eco(&self) -> &Ecosystem {
        self.eco
            .as_ref()
            .expect("only the continuous study releases its world, and it never reads it back")
    }

    /// Drop the built world, keeping the seed list. `run_continuous`
    /// builds its own world, so the benchmark's copy would only inflate
    /// `peak_rss_mb`.
    pub fn release_eco(&mut self) {
        self.eco = None;
    }
}

pub fn build_world(settings: &Settings) -> World {
    let eco = build(settings.world_config());
    let seeds = eco.seeds.compile(&eco.psl);
    World {
        eco: Some(eco),
        seeds,
    }
}

fn scanner(eco: &Ecosystem, parallelism: usize) -> Arc<Scanner> {
    let table = OperatorTable::from_operators(
        eco.operators
            .iter()
            .map(|o| (o.name.as_str(), o.hosts.as_slice())),
    );
    Arc::new(Scanner::new(
        Arc::clone(&eco.net),
        eco.roots.clone(),
        eco.anchors.clone(),
        table,
        eco.now,
        ScanPolicy {
            parallelism,
            ..ScanPolicy::default()
        },
    ))
}

/// What planted truth says about one zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planted {
    /// The class the scan must come back with; `None` for legacy-NS
    /// zones, which hide their state from the scanner by construction
    /// (as in tests/end_to_end.rs) and are not compared.
    class: Option<DnssecClass>,
    /// The zone's operator has a transient bad-signature quirk (the
    /// paper's "70 transient" artefacts): each of its answers is bad with
    /// a small probability drawn from the query bytes, so what a scan
    /// observes depends on its query ids and cache state — legitimately
    /// different between a cold scan, a sharded one and an incremental
    /// one. Such zones are left out of evidence comparisons, and a
    /// Secured one observed Invalid is residue, not a failure.
    flaky: bool,
}

/// Planted truth reduced to what the output check compares.
pub struct Truth {
    planted: HashMap<Name, Planted>,
}

/// Per-zone verdicts of one scan against planted truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdicts {
    /// Failed operations: placeholders, `Indeterminate` or degraded
    /// results, zones unknown to the truth table, and classes that
    /// disagree with planted truth.
    pub failed: u64,
    /// Disagreements explained by a planted transient-badsig quirk.
    pub residue: u64,
}

impl Truth {
    pub fn of(settings: &Settings, world: &World) -> Truth {
        Truth::of_eco(settings, world.eco())
    }

    fn of_eco(settings: &Settings, eco: &Ecosystem) -> Truth {
        let flaky: BTreeSet<String> = settings
            .world_config()
            .operators
            .iter()
            .filter(|o| o.quirks.transient_badsig > 0.0)
            .map(|o| o.name.clone())
            .collect();
        let is_flaky = |op: usize| {
            eco.operators
                .get(op)
                .is_some_and(|o| flaky.contains(&o.name))
        };
        let planted = eco
            .truth
            .iter()
            .map(|t| {
                let class = (!t.legacy_ns).then_some(match t.dnssec {
                    DnssecState::Unsigned => DnssecClass::Unsigned,
                    DnssecState::Secured => DnssecClass::Secured,
                    DnssecState::Invalid => DnssecClass::Invalid,
                    DnssecState::Island => DnssecClass::Island,
                });
                let flaky = is_flaky(t.operator) || t.second_operator.is_some_and(is_flaky);
                (t.name.clone(), Planted { class, flaky })
            })
            .collect();
        Truth { planted }
    }

    fn judge(&self, zones: &[ZoneScan]) -> Verdicts {
        let mut v = Verdicts::default();
        for z in zones {
            if z.degraded || z.dnssec == DnssecClass::Indeterminate {
                v.failed += 1;
                continue;
            }
            match self.planted.get(&z.name) {
                None => v.failed += 1,
                Some(Planted { class: None, .. }) => {}
                Some(Planted { class: Some(c), .. }) if *c == z.dnssec => {}
                Some(Planted { flaky: true, .. }) if z.dnssec == DnssecClass::Invalid => {
                    v.residue += 1
                }
                Some(_) => v.failed += 1,
            }
        }
        v
    }

    /// Digest and length of `scan_epochs::canonical_evidence` over the
    /// zones whose evidence is a pure function of the world (all but the
    /// flaky operator's). The strings run to tens of MB, so repetitions
    /// and workloads are compared by digest.
    pub fn evidence_digest(&self, zones: &[ZoneScan]) -> (u64, usize) {
        let stable: Vec<ZoneScan> = zones
            .iter()
            .filter(|z| !self.planted.get(&z.name).is_some_and(|p| p.flaky))
            .cloned()
            .collect();
        let text = canonical_evidence(&stable);
        (scan_journal::fnv64(&[text.as_bytes()]), text.len())
    }
}

/// What one call of a workload produced; kept so the output check (and
/// the traced run's second call) can run outside the timed region.
pub enum Output {
    Scan {
        scanner: Arc<Scanner>,
        parallelism: u64,
        results: ScanResults,
    },
    Fabric {
        zones: Vec<ZoneScan>,
        report: Box<MergedReport>,
        ops: FabricOps,
        root: PathBuf,
    },
    Continuous {
        out: ContinuousOutput,
        root: PathBuf,
    },
}

/// The measured call of `workload`, into the fresh state root `tag`. The
/// scan and fabric workloads use the caller's world; `run_continuous`
/// builds its own from the same config, and that rebuild is inside its
/// wall-clock.
pub fn measure(
    workload: Workload,
    settings: &Settings,
    world: &World,
    tag: &str,
) -> Result<Output, String> {
    let root = settings.state_dir.join(tag);
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(|e| format!("clear {}: {e}", root.display()))?;
    }
    match workload {
        Workload::ColdScan | Workload::ParallelScan => {
            let parallelism = if workload == Workload::ColdScan { 1 } else { 2 };
            let scanner = scanner(world.eco(), parallelism);
            let results = scanner.scan_all(&world.seeds);
            Ok(Output::Scan {
                scanner,
                parallelism: parallelism as u64,
                results,
            })
        }
        Workload::FabricScan => fabric_call(settings, world, root),
        Workload::ContinuousStudy => continuous_call(settings, root),
    }
}

fn fabric_call(settings: &Settings, world: &World, root: PathBuf) -> Result<Output, String> {
    let factory = || scanner(world.eco(), 1);
    let mut sink = CollectSink::default();
    let out = run_fabric(
        &factory,
        &world.seeds,
        &root,
        RUN_ID,
        &settings.fabric(1, 32),
        &FabricFaultPlan::none(),
        &mut sink,
    )
    .map_err(|e| format!("run_fabric: {e}"))?;
    Ok(Output::Fabric {
        zones: sink.zones,
        report: Box::new(out.report),
        ops: out.ops,
        root,
    })
}

fn continuous_call(settings: &Settings, root: PathBuf) -> Result<Output, String> {
    let out = run_continuous(
        settings.world_config(),
        ScanPolicy::default(),
        &settings.continuous(),
        &root,
    )
    .map_err(|e| format!("run_continuous: {e}"))?;
    Ok(Output::Continuous { out, root })
}

/// What the second call starts from, prepared outside the timed region.
pub struct ResumeInput(Option<ResumeState>);

pub fn resume_input(first: &Output) -> ResumeInput {
    ResumeInput(match first {
        Output::Scan { results, .. } => Some(ResumeState {
            zones: results.zones.clone(),
            duration_so_far: results.simulated_duration,
        }),
        _ => None,
    })
}

/// The second call over the finished state the first left behind: the
/// on-disk state root for the journaled workloads (recover and fold, no
/// re-scan), the in-memory `ResumeState` for the scan workloads (every
/// zone already complete, so the scanner only carries results forward).
pub fn resume(
    settings: &Settings,
    world: &World,
    first: &Output,
    input: ResumeInput,
) -> Result<Output, String> {
    match first {
        Output::Scan {
            scanner,
            parallelism,
            ..
        } => Ok(Output::Scan {
            scanner: Arc::clone(scanner),
            parallelism: *parallelism,
            results: scanner.scan_all_with(&world.seeds, None, input.0),
        }),
        Output::Fabric { root, .. } => fabric_call(settings, world, root.clone()),
        Output::Continuous { root, .. } => continuous_call(settings, root.clone()),
    }
}

/// Whether the second call reproduced the first's output: every zone's
/// classes and costs plus the totals for a scan, `MergedReport` equality for the fabric,
/// `TimeSeries::canonical_bytes` plus `render_decisions` for the study.
pub fn same_output(first: &Output, second: &Output) -> bool {
    match (first, second) {
        (Output::Scan { results: a, .. }, Output::Scan { results: b, .. }) => {
            a.total_queries == b.total_queries
                && a.simulated_duration == b.simulated_duration
                && a.zones.len() == b.zones.len()
                && a.zones.iter().zip(&b.zones).all(|(x, y)| {
                    x.name == y.name
                        && (x.dnssec, x.cds, x.ab, x.degraded)
                            == (y.dnssec, y.cds, y.ab, y.degraded)
                        && (x.queries, x.elapsed) == (y.queries, y.elapsed)
                })
        }
        (
            Output::Fabric {
                report: a,
                zones: za,
                ..
            },
            Output::Fabric {
                report: b,
                zones: zb,
                ..
            },
        ) => a == b && za.len() == zb.len(),
        (Output::Continuous { out: a, .. }, Output::Continuous { out: b, .. }) => {
            a.series.canonical_bytes() == b.series.canonical_bytes()
                && render_decisions(&a.decisions) == render_decisions(&b.decisions)
        }
        _ => false,
    }
}

/// The facts of one call the metrics and output checks are built from.
/// Counts, never constants: nothing here depends on the seed.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Seeds handed to the workload: the operations attempted.
    pub seeds: u64,
    /// Freshly scanned zones (all epochs for the continuous study).
    pub fresh_zones: u64,
    /// Logical queries spent on them.
    pub queries: u64,
    /// Physical datagrams (retries and TCP fallback included).
    pub datagrams: u64,
    /// Simulated duration: the scanner's own for a sequential scan, the
    /// balanced per-worker share (summed zone time over parallelism) for
    /// the parallel scan, whose makespan is racy by design; the fabric's
    /// makespan, and the sum of epoch makespans for the study.
    pub virtual_us: u64,
    /// Evidence of the full scan (epoch 0 for the continuous study):
    /// must equal the cold scan's on every workload.
    pub evidence: (u64, usize),
    /// Verdicts against planted truth, plus missing or duplicate results
    /// counted as failed.
    pub verdicts: Verdicts,
    /// Set when the call as a whole is void: a lease expired, a shard was
    /// reassigned or abandoned, a worker was lost, a placeholder was
    /// emitted or an epoch was skipped. Every zone of such a repetition
    /// counts as failed — it must never silently change the numbers.
    pub void: Option<String>,
    /// Per-epoch logical queries (continuous study only).
    pub epoch_queries: Vec<u64>,
    pub ops: Option<FabricOps>,
    pub skipped_epochs: u64,
}

fn void_reason(ops: &FabricOps, placeholders: u64, skipped: u64) -> Option<String> {
    let faults = [
        ("lease expiries", u64::from(ops.lease_expiries)),
        ("reassignments", u64::from(ops.reassignments)),
        ("workers lost", u64::from(ops.workers_lost)),
        ("shards abandoned", u64::from(ops.shards_abandoned)),
        ("placeholder zones", placeholders),
        ("skipped epochs", skipped),
    ];
    let hit: Vec<String> = faults
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(what, n)| format!("{n} {what}"))
        .collect();
    (!hit.is_empty()).then(|| hit.join(", "))
}

/// Results that are not exactly one per seed: strays, duplicates, gaps.
fn coverage_gaps(seeds: &[Name], zones: &[ZoneScan]) -> u64 {
    let want: BTreeSet<&Name> = seeds.iter().collect();
    let mut seen: BTreeSet<&Name> = BTreeSet::new();
    let mut bad = 0u64;
    for z in zones {
        if !want.contains(&z.name) || !seen.insert(&z.name) {
            bad += 1;
        }
    }
    bad + want.len().saturating_sub(seen.len()) as u64
}

fn judged(world: &World, truth: &Truth, zones: &[ZoneScan]) -> Verdicts {
    let mut v = truth.judge(zones);
    v.failed += coverage_gaps(&world.seeds, zones);
    v
}

fn datagrams(zones: &[ZoneScan]) -> u64 {
    zones
        .iter()
        .map(|z| u64::from(z.retry_stats.datagrams))
        .sum()
}

/// Reduce a call's output to its [`Facts`] (untimed).
pub fn facts(world: &World, truth: &Truth, output: &Output) -> Facts {
    let seeds = world.seeds.len() as u64;
    match output {
        Output::Scan {
            parallelism,
            results,
            ..
        } => {
            let p = (*parallelism).max(1);
            Facts {
                seeds,
                fresh_zones: results.zones.len() as u64,
                queries: results.total_queries,
                datagrams: datagrams(&results.zones),
                virtual_us: if p == 1 {
                    results.simulated_duration
                } else {
                    results.zones.iter().map(|z| z.elapsed).sum::<u64>() / p
                },
                evidence: truth.evidence_digest(&results.zones),
                verdicts: judged(world, truth, &results.zones),
                ..Facts::default()
            }
        }
        Output::Fabric {
            zones, report, ops, ..
        } => Facts {
            seeds,
            fresh_zones: zones.len() as u64,
            queries: report.total_queries,
            datagrams: datagrams(zones),
            virtual_us: report.virtual_makespan_us,
            evidence: truth.evidence_digest(zones),
            verdicts: judged(world, truth, zones),
            void: void_reason(ops, report.indeterminate_placeholders, 0),
            ops: Some(ops.clone()),
            ..Facts::default()
        },
        Output::Continuous { out, .. } => {
            let epochs = &out.series.epochs;
            let stale: u64 = epochs.iter().map(|e| e.stale.len() as u64).sum();
            let skipped = out.series.skipped.len() as u64;
            let first = epochs.first();
            Facts {
                seeds,
                fresh_zones: epochs.iter().map(|e| e.fresh.len() as u64).sum(),
                queries: epochs.iter().map(|e| e.queries).sum(),
                // A re-scan overwrites the zone's record, so the final
                // table undercounts datagrams of re-scanned zones; this
                // only feeds a per-layer ratio.
                datagrams: epochs.last().map_or(0, |e| datagrams(&e.zones)),
                virtual_us: epochs.iter().map(|e| e.simulated_duration).sum(),
                evidence: first.map_or((0, 0), |e| truth.evidence_digest(&e.zones)),
                // Planted truth is the epoch-0 world's; the last epoch is
                // checked against a cold scan of the churned world in the
                // traced run.
                verdicts: first.map_or(
                    Verdicts {
                        failed: seeds,
                        residue: 0,
                    },
                    |e| judged(world, truth, &e.zones),
                ),
                void: void_reason(&out.ops, stale, skipped),
                epoch_queries: epochs.iter().map(|e| e.queries).collect(),
                ops: Some(out.ops.clone()),
                skipped_epochs: skipped,
            }
        }
    }
}

/// A study epoch's full zone table, opaque outside the adapter.
pub type ZoneTable = Vec<ZoneScan>;

/// The zone table of a study's last epoch, which the traced run compares
/// with a cold scan of its own churn replay.
pub fn last_epoch_zones(output: &Output) -> Option<ZoneTable> {
    match output {
        Output::Continuous { out, .. } => out.series.epochs.last().map(|e| e.zones.clone()),
        _ => None,
    }
}

/// Root+registry datagrams and all datagrams the world's network has
/// carried so far (`NetStats::snapshot`). `run_continuous` keeps its world
/// private, so this exists only for worlds the benchmark owns.
pub fn infra_datagrams(world: &World) -> (u64, u64) {
    let eco = world.eco();
    let snap = eco.net.stats().snapshot();
    let mut infra: BTreeSet<netsim::Addr> = eco.roots.iter().copied().collect();
    infra.extend(registry_addrs(eco));
    let hit = snap
        .per_dest
        .iter()
        .filter(|(a, _)| infra.contains(a))
        .map(|(_, n)| *n)
        .sum();
    (hit, snap.queries)
}

/// Addresses of the registry (TLD and public-suffix) servers: the glue of
/// `ns1.nic.<suffix>` in each registry zone.
fn registry_addrs(eco: &Ecosystem) -> Vec<netsim::Addr> {
    let mut out = Vec::new();
    for (suffix, store) in &eco.registry_stores {
        let Some(zone) = store.get(suffix) else {
            continue;
        };
        let ns = suffix
            .prepend_label(b"nic")
            .and_then(|n| n.prepend_label(b"ns1"));
        let Ok(ns) = ns else { continue };
        for rtype in [RecordType::A, RecordType::Aaaa] {
            let Some(set) = zone.rrset(&ns, rtype) else {
                continue;
            };
            for rdata in &set.rdatas {
                match rdata {
                    RData::A(a) => out.push(netsim::Addr::V4(*a)),
                    RData::Aaaa(a) => out.push(netsim::Addr::V6(*a)),
                    _ => {}
                }
            }
        }
    }
    out
}

/// Remove the state root a call created.
pub fn discard(output: &Output) {
    if let Output::Fabric { root, .. } | Output::Continuous { root, .. } = output {
        let _ = std::fs::remove_dir_all(root);
    }
}
