//! The coordinator: shard dispatch, lease supervision, deterministic
//! work-stealing, and the final merge.
//!
//! Its decisions — which worker gets which shard, when a lease expires,
//! how often a shard is retried — are a pure function of the sequence of
//! events it observes (`Schedule::step`); only the timing of those
//! events varies from run to run. The fabric's determinism lives one
//! layer down: every shard attempt is a sequential scan by a fresh
//! scanner resuming from the shard journal, so the journal's final
//! content (and therefore the merged report) is a pure function of
//! (world, shard plan, policy) no matter what the coordinator did along
//! the way. Scheduling noise lands in [`FabricOps`]; the byte-compared
//! [`MergedReport`] cannot see it.
//!
//! Workers are threads. Each has its own inbox of lease grants, and the
//! fleet shares one channel of `(worker id, report)` back. The
//! coordinator parks on that channel for at most `poll_wait` per tick:
//! a report — shard done, shard given back, worker exited — wakes it at
//! once; a heartbeat never does, because it is a counter on the
//! worker's [`Fence`] that the coordinator reads once per tick. A
//! tick is busy if any report arrived or any counter moved; either
//! resets that worker's quiet-tick count, and only quiet ticks count
//! toward `lease_timeout_polls`.
//!
//! A fleet lives for exactly one [`drive`]: the call spawns its workers
//! inside a `std::thread::scope` and joins every one before it returns.
//! [`run_fabric`] drives one [`ShardJob`] under the root shard
//! namespace and merges; `scan_continuous::run_continuous` drives one
//! per admitted epoch under that epoch's namespace. Leases, fences, the
//! coordinator round and the respawn budget all start fresh in each
//! drive — nothing crosses drives but the journals, whose namespaces
//! keep one drive's directories foreign to every other's headers.

use crate::faults::FabricFaultPlan;
use crate::merge::{FabricOps, MergeSink, MergedReport, StreamingMerge};
use crate::schedule::{Action, Event, Schedule};
use crate::shard::ShardPlan;
use crate::worker::{worker_main, Assign, Fence, Outbox, ScannerFactory, ShardJob, WorkerCtx};
use scan_journal::{recover, Namespace};
use std::collections::BTreeSet;
use std::io;
use std::mem;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Fabric sizing and failure-detection knobs.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Worker threads.
    pub workers: usize,
    /// Zone-space shards. More shards than workers gives the
    /// coordinator stealable units when a worker dies; shard count (not
    /// worker count) fixes the partition, so reports are comparable
    /// across fleet sizes only when `shards` matches.
    pub shards: u32,
    /// Attempts per shard before it is abandoned (its zones then
    /// surface as explicit Indeterminate placeholders).
    pub max_attempts: u32,
    /// Heartbeat every N journaled events (0 = no heartbeats).
    pub heartbeat_every: u64,
    /// Quiet poll ticks (of `poll_wait` each) before a worker's lease
    /// is revoked and its shard stolen.
    pub lease_timeout_polls: u32,
    /// How long one coordinator poll tick parks waiting for worker
    /// reports.
    pub poll_wait: Duration,
    /// Replacement workers one [`drive`] may spawn when workers die
    /// (each replacement gets a fresh worker id, like a new process
    /// pid). A per-drive budget: every drive — every epoch of a
    /// continuous study — starts with all of it. Once exhausted, losses
    /// shrink the fleet; if the fleet empties, unfinished shards are
    /// abandoned — never lost silently.
    pub max_respawns: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: 4,
            shards: 8,
            max_attempts: 4,
            heartbeat_every: 1,
            lease_timeout_polls: 40,
            poll_wait: Duration::from_millis(25),
            max_respawns: 64,
        }
    }
}

/// The fabric's output: the deterministic report and the operational
/// (scheduling-dependent) counters, strictly separated.
#[derive(Debug)]
pub struct FabricOutput {
    pub report: MergedReport,
    pub ops: FabricOps,
}

/// Drive `job` to completion on a fleet that lives for this call only:
/// spawn `config.workers` threads, dispatch shards `0..plan.shards()`,
/// supervise leases, steal from the fallen, respawn within
/// `max_respawns`. Returns the shards abandoned after `max_attempts`
/// (their zones surface as explicit Indeterminate placeholders
/// downstream — never silent loss).
///
/// Every decision is the schedule's (`Schedule::step`); this function
/// only moves values between it and the threads.
///
/// **Join guarantee.** Every worker thread has been joined when this
/// returns — a straggler whose lease expired mid-zone included. So no
/// scanner the job built is still querying, and whatever the job
/// borrows (the world its scanners read) is free to mutate afterwards.
/// The join cannot hang: once the schedule is finished no worker holds
/// a lease that was not revoked, so every worker is parked on its
/// inbox, fenced at its next append, or gone, and dropping the inboxes
/// ends them all.
pub fn drive(job: &ShardJob<'_>, config: &FabricConfig, ops: &mut FabricOps) -> BTreeSet<u32> {
    let (mut schedule, mut actions) = Schedule::new(config, job.plan.shards(), mem::take(ops));
    let (report_tx, reports) = mpsc::channel();
    std::thread::scope(|scope| {
        // Indexed by worker id: each worker's inbox, whose drop is its
        // shutdown, and its write fence.
        let mut fleet: Vec<(mpsc::Sender<Assign>, Arc<Fence>)> = Vec::new();
        loop {
            for action in actions {
                match action {
                    Action::Spawn => {
                        let worker = fleet.len() as u32;
                        let (inbox, worker_inbox) = mpsc::channel();
                        let out = Outbox {
                            worker,
                            tx: report_tx.clone(),
                        };
                        let fence = Arc::new(Fence::default());
                        let thread_fence = Arc::clone(&fence);
                        scope.spawn(move || {
                            let ctx = WorkerCtx {
                                worker,
                                job,
                                fence: &thread_fence,
                                heartbeat_every: config.heartbeat_every,
                            };
                            worker_main(ctx, worker_inbox, out)
                        });
                        fleet.push((inbox, fence));
                    }
                    // A live worker's inbox is open: its receiver goes
                    // only when the thread returns, and then `Exited` is
                    // queued.
                    Action::Assign { worker, assign } => {
                        let _ = fleet[worker as usize].0.send(assign);
                    }
                    Action::Revoke { worker, lease } => {
                        fleet[worker as usize].1.revoke_through(lease);
                    }
                }
            }
            if schedule.finished() {
                break;
            }
            // Park until a report arrives or the tick ends, drain, then
            // read every heartbeat counter.
            let first = reports.recv_timeout(config.poll_wait).ok();
            let mut events: Vec<Event> = first
                .into_iter()
                .chain(reports.try_iter())
                .map(|(worker, report)| Event::Report(worker, report))
                .collect();
            events.extend(
                (0..)
                    .zip(&fleet)
                    .map(|(w, (_, f))| Event::Beat(w, f.beats())),
            );
            actions = schedule.step(&events);
        }
        // `fleet` drops as this closure returns: every inbox closes, each
        // worker returns, and the scope joins it.
    });
    // Every exit is queued now. A worker that died on an assignment whose
    // lease had already expired is counted here.
    let late: Vec<Event> = reports
        .try_iter()
        .map(|(worker, report)| Event::Report(worker, report))
        .collect();
    schedule.step(&late);
    let (abandoned, drive_ops) = schedule.into_outcome();
    *ops = drive_ops;
    abandoned
}

/// Run a full fabric scan: shard `seeds`, dispatch to workers, survive
/// whatever `faults` injects, and stream-merge the shard journals into
/// the final report.
///
/// `state_root` holds one journal directory per shard; rerunning with
/// the same root resumes whatever a previous (killed) fabric run left
/// there, exactly like `scan-journal` resume.
pub fn run_fabric(
    factory: ScannerFactory<'_>,
    seeds: &[dns_wire::name::Name],
    state_root: &Path,
    run_id: u64,
    config: &FabricConfig,
    faults: &FabricFaultPlan,
    sink: &mut dyn MergeSink,
) -> io::Result<FabricOutput> {
    let plan = ShardPlan::new(seeds, config.shards);
    let mut ops = FabricOps {
        largest_shard: plan.largest_shard(),
        ..FabricOps::default()
    };
    let job = ShardJob {
        plan: &plan,
        ns: Namespace::root(state_root, run_id),
        scanner: &|_| Ok(factory()),
        faults,
    };
    let abandoned = drive(&job, config, &mut ops);

    // Merge phase: one shard's journal at a time, in shard-id order.
    let mut merge = StreamingMerge::new();
    for shard in 0..plan.shards() {
        let zones = plan.zones(shard);
        let ns = job.ns.shard(shard);
        let recovery = recover(ns.dir(), ns.header(zones))?;
        merge.absorb_shard(zones, recovery.events, abandoned.contains(&shard), sink)?;
    }
    let (report, peak_resident) = merge.finish();
    ops.peak_resident_zones = peak_resident;
    Ok(FabricOutput { report, ops })
}
