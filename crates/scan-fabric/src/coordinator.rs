//! The coordinator: shard dispatch, lease supervision, deterministic
//! work-stealing, and the final merge.
//!
//! The coordinator is intentionally *not* deterministic in its
//! scheduling — which worker gets which shard, when a lease expires,
//! how often a shard is retried all depend on real thread timing. The
//! fabric's determinism lives one layer down: every shard attempt is a
//! sequential scan by a fresh scanner resuming from the shard journal,
//! so the journal's final content (and therefore the merged report) is
//! a pure function of (world, shard plan, policy) no matter what the
//! coordinator did along the way. Scheduling noise lands in
//! [`FabricOps`]; the byte-compared [`MergedReport`] cannot see it.
//!
//! Workers are threads. Each has its own inbox of lease grants, and the
//! fleet shares one channel of `(worker id, report)` back. The
//! coordinator parks on that channel for at most `poll_wait` per tick:
//! a report — shard done, shard given back, worker exited — wakes it at
//! once; a heartbeat never does, because it is a counter on the
//! worker's [`Fence`] that the coordinator compares once per tick. A
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
use crate::shard::ShardPlan;
use crate::worker::{
    worker_main, Assign, Fence, Outbox, Report, ScannerFactory, ShardJob, WorkerCtx,
};
use scan_journal::{recover, Namespace};
use std::collections::BTreeSet;
use std::io;
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

/// A shard waiting to run: retry round-robin state.
#[derive(Debug, Clone, Copy)]
struct PendingShard {
    shard: u32,
    attempt: u32,
    /// Coordinator round this entry becomes eligible (retry backoff).
    ready_round: u64,
}

/// One drive's shard queue: what waits to run, and what was given up.
struct Queue {
    max_attempts: u32,
    pending: Vec<PendingShard>,
    abandoned: BTreeSet<u32>,
}

impl Queue {
    /// Take `run` back from its worker. Revoke first: after that no
    /// append under the old lease can land, so the shard's journal is
    /// safe to hand elsewhere. Then retry the shard after a capped
    /// exponential backoff, or abandon it once its attempt budget is
    /// spent.
    fn give_back(&mut self, fence: &Fence, run: Assign, round: u64, ops: &mut FabricOps) {
        fence.revoke_through(run.lease);
        let next_attempt = run.attempt + 1;
        if next_attempt >= self.max_attempts {
            self.abandoned.insert(run.shard);
            ops.shards_abandoned += 1;
        } else {
            // Exponential backoff in coordinator rounds, capped.
            let backoff = 1u64 << next_attempt.min(3);
            self.pending.push(PendingShard {
                shard: run.shard,
                attempt: next_attempt,
                ready_round: round + backoff,
            });
            ops.reassignments += 1;
        }
    }
}

/// What a worker slot is doing.
struct WorkerSlot {
    /// The worker's inbox; dropping it is the worker's shutdown.
    inbox: mpsc::Sender<Assign>,
    fence: Arc<Fence>,
    alive: bool,
    running: Option<RunningShard>,
    /// The fence's heartbeat count at the last poll tick.
    beats_seen: u64,
}

#[derive(Debug, Clone, Copy)]
struct RunningShard {
    assign: Assign,
    silent_polls: u32,
}

/// Drive `job` to completion on a fleet that lives for this call only:
/// spawn `config.workers` threads, dispatch shards `0..plan.shards()`,
/// supervise leases, steal from the fallen, respawn within
/// `max_respawns`. Returns the shards abandoned after `max_attempts`
/// (their zones surface as explicit Indeterminate placeholders
/// downstream — never silent loss).
///
/// **Join guarantee.** Every worker thread has been joined when this
/// returns — a straggler whose lease expired mid-zone included. So no
/// scanner the job built is still querying, and whatever the job
/// borrows (the world its scanners read) is free to mutate afterwards.
/// The join cannot hang: at loop exit no slot holds a lease that was
/// not revoked, so every worker is parked on its inbox, fenced at its
/// next append, or gone, and dropping the inboxes ends them all.
pub fn drive(job: &ShardJob<'_>, config: &FabricConfig, ops: &mut FabricOps) -> BTreeSet<u32> {
    let shards = job.plan.shards();
    if ops.attempts.len() < shards as usize {
        ops.attempts.resize(shards as usize, 0);
    }
    std::thread::scope(|scope| {
        let (report_tx, reports) = mpsc::channel();
        // Spawn one worker thread (initial fleet member or replacement)
        // with its own inbox and write fence. Its id is its slot index,
        // so a replacement gets a fresh id, like a new pid.
        let spawn = |slots: &mut Vec<WorkerSlot>| {
            let worker = slots.len() as u32;
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
            slots.push(WorkerSlot {
                inbox,
                fence,
                alive: true,
                running: None,
                beats_seen: 0,
            });
        };
        // Indexed by worker id: slots are only ever appended.
        let mut slots: Vec<WorkerSlot> = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            spawn(&mut slots);
        }
        let mut respawns_left = config.max_respawns;
        let mut lease = 0u64;
        let mut round = 0u64;
        let mut queue = Queue {
            max_attempts: config.max_attempts,
            pending: (0..shards)
                .map(|shard| PendingShard {
                    shard,
                    attempt: 0,
                    ready_round: 0,
                })
                .collect(),
            abandoned: BTreeSet::new(),
        };
        let mut completed: BTreeSet<u32> = BTreeSet::new();

        while (completed.len() + queue.abandoned.len()) < shards as usize {
            // If every worker is gone, nothing pending can ever run.
            if slots.iter().all(|s| !s.alive) {
                for p in queue.pending.drain(..) {
                    if !completed.contains(&p.shard) && queue.abandoned.insert(p.shard) {
                        ops.shards_abandoned += 1;
                    }
                }
                break;
            }

            // Assign eligible pending shards to idle live workers,
            // lowest shard id first (deterministic preference).
            queue.pending.sort_by_key(|p| (p.ready_round, p.shard));
            for slot in slots.iter_mut() {
                if !slot.alive || slot.running.is_some() {
                    continue;
                }
                let Some(pos) = queue.pending.iter().position(|p| p.ready_round <= round) else {
                    break;
                };
                let p = queue.pending.remove(pos);
                lease += 1;
                if let Some(a) = ops.attempts.get_mut(p.shard as usize) {
                    *a += 1;
                }
                let assign = Assign {
                    shard: p.shard,
                    attempt: p.attempt,
                    lease,
                };
                // A live worker's inbox is open: its receiver goes only
                // when the thread returns, and then `Exited` is queued.
                let _ = slot.inbox.send(assign);
                slot.running = Some(RunningShard {
                    assign,
                    silent_polls: 0,
                });
            }

            // Park until a report arrives or the tick ends, then drain.
            let first = reports.recv_timeout(config.poll_wait).ok();
            round += 1;
            let mut busy = false;
            let mut lost_this_round = 0u32;
            for (worker, report) in first.into_iter().chain(reports.try_iter()) {
                busy = true;
                let slot = &mut slots[worker as usize];
                if let Some(run) = slot.running.as_mut() {
                    run.silent_polls = 0;
                }
                let running = slot.running.map(|r| r.assign);
                match report {
                    Report::Done(assign) if running == Some(assign) => {
                        slot.running = None;
                        if completed.insert(assign.shard) {
                            ops.shards_completed += 1;
                        }
                    }
                    Report::GaveBack(assign) if running == Some(assign) => {
                        slot.running = None;
                        queue.give_back(&slot.fence, assign, round, ops);
                    }
                    // Stale (the lease was already revoked and the shard
                    // stolen): the worker is simply idle again, and the
                    // current attempt reports from the same journal.
                    Report::Done(_) | Report::GaveBack(_) => {}
                    Report::Exited => {
                        slot.alive = false;
                        ops.workers_lost += 1;
                        lost_this_round += 1;
                        // Died holding a shard: fence the lease (a
                        // formality — the thread is gone) and steal it.
                        if let Some(run) = slot.running.take() {
                            queue.give_back(&slot.fence, run.assign, round, ops);
                        }
                    }
                }
            }
            for slot in slots.iter_mut().filter(|s| s.alive) {
                let beats = slot.fence.beats();
                if beats != slot.beats_seen {
                    slot.beats_seen = beats;
                    busy = true;
                    if let Some(run) = slot.running.as_mut() {
                        run.silent_polls = 0;
                    }
                }
            }

            // Replace the fallen, budget permitting. Replacements get
            // fresh worker ids (like new pids), so a fault plan that
            // condemned the dead worker does not condemn its successor.
            for _ in 0..lost_this_round {
                if respawns_left == 0 {
                    break;
                }
                respawns_left -= 1;
                spawn(&mut slots);
            }

            // Lease supervision: only quiet ticks count toward expiry,
            // so a busy fabric never expires a slow-but-heartbeating
            // worker.
            if !busy {
                for slot in slots.iter_mut().filter(|s| s.alive) {
                    let Some(run) = slot.running.as_mut() else {
                        continue;
                    };
                    run.silent_polls += 1;
                    if run.silent_polls > config.lease_timeout_polls {
                        let assign = run.assign;
                        slot.running = None;
                        ops.lease_expiries += 1;
                        queue.give_back(&slot.fence, assign, round, ops);
                    }
                }
            }
        }
        ops.workers_spawned += slots.len() as u32;
        // `slots` drops as this closure returns: every inbox closes, each
        // worker returns, and the scope joins it.
        queue.abandoned
    })
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
        scanner: &|_| factory(),
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
