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
//! Two entry points share one engine:
//!
//! * [`run_fabric`] — one epoch, one shard plan, merge at the end (the
//!   PR-6 API, unchanged).
//! * [`with_fleet`] — a persistent worker fleet the caller *drives*
//!   epoch by epoch ([`FleetHandle::drive`]); the continuous study
//!   service pipelines successive epochs through the same fleet.
//!   Leases stay globally monotonic across drives, so cross-epoch
//!   fencing composes with the per-epoch journal namespaces: a shard
//!   stolen in epoch N−1 and resumed in epoch N holds a lease no
//!   epoch-N−1 assignment can outrank, and its epoch-N−1 directory is
//!   foreign to every epoch-N header.

use crate::faults::{FabricFaultPlan, WorkerFault};
use crate::merge::{FabricOps, MergeSink, MergedReport, StreamingMerge};
use crate::shard::ShardPlan;
use crate::worker::{
    worker_main, Assign, Fence, Outbox, Report, ScannerFactory, ShardAssignment, ShardWork,
    WorkerCtx,
};
use scan_journal::{recover, Namespace};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
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
    /// Replacement workers the coordinator may spawn when workers die
    /// (each replacement gets a fresh worker id, like a new process
    /// pid). Once exhausted, losses shrink the fleet; if the fleet
    /// empties, unfinished shards are abandoned — never lost silently.
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
    epoch: u32,
    max_attempts: u32,
    pending: Vec<PendingShard>,
    abandoned: BTreeSet<u32>,
}

impl Queue {
    /// Take `run` back from its worker. Revoke first: after that no
    /// append under the old lease can land, so the shard's journal is
    /// safe to hand elsewhere. Then retry the shard after a capped
    /// exponential backoff, or abandon it once its attempt budget is
    /// spent. A stale-epoch attempt is fenced but never requeued into
    /// this epoch's queue.
    fn give_back(&mut self, fence: &Fence, run: Assign, round: u64, ops: &mut FabricOps) {
        fence.revoke_through(run.lease);
        if run.epoch != self.epoch {
            return;
        }
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
    inbox: Sender<Assign>,
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

/// A live worker fleet the caller drives epoch by epoch. Workers,
/// respawn budget, the lease counter, and the coordinator round all
/// persist across [`drive`](FleetHandle::drive) calls — an idle worker
/// between epochs simply parks on its inbox.
pub struct FleetHandle<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    work: &'env dyn ShardWork,
    config: &'env FabricConfig,
    /// Indexed by worker id: slots are only ever appended.
    slots: Vec<WorkerSlot>,
    /// Cloned into every worker's [`Outbox`].
    report_tx: Sender<(u32, Report)>,
    reports: Receiver<(u32, Report)>,
    respawns_left: u32,
    /// Globally monotonic across epochs: an epoch-N lease always
    /// outranks every epoch-N−1 lease on the same fence.
    lease_counter: u64,
    round: u64,
}

impl<'scope, 'env> FleetHandle<'scope, 'env> {
    fn new(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        work: &'env dyn ShardWork,
        config: &'env FabricConfig,
    ) -> FleetHandle<'scope, 'env> {
        let workers = config.workers.max(1);
        let (report_tx, reports) = mpsc::channel();
        let mut fleet = FleetHandle {
            scope,
            work,
            config,
            slots: Vec::with_capacity(workers),
            report_tx,
            reports,
            respawns_left: config.max_respawns,
            lease_counter: 0,
            round: 0,
        };
        for _ in 0..workers {
            fleet.spawn_one();
        }
        fleet
    }

    /// Spawn one worker thread (initial fleet member or replacement)
    /// with its own inbox and write fence. Its id is its slot index, so
    /// a replacement gets a fresh id, like a new pid.
    fn spawn_one(&mut self) {
        let worker = self.slots.len() as u32;
        let (inbox, worker_inbox) = mpsc::channel();
        let out = Outbox {
            worker,
            tx: self.report_tx.clone(),
        };
        let fence = Arc::new(Fence::default());
        let thread_fence = Arc::clone(&fence);
        let (work, heartbeat_every) = (self.work, self.config.heartbeat_every);
        self.scope.spawn(move || {
            let ctx = WorkerCtx {
                worker,
                work,
                fence: &thread_fence,
                heartbeat_every,
            };
            worker_main(ctx, worker_inbox, out)
        });
        self.slots.push(WorkerSlot {
            inbox,
            fence,
            alive: true,
            running: None,
            beats_seen: 0,
        });
    }

    /// Drive one epoch to completion: dispatch shards `0..shards` of
    /// `epoch` across the fleet, supervise leases, steal from the
    /// fallen, respawn within budget. Returns the shards abandoned
    /// after `max_attempts` (their zones surface as explicit
    /// Indeterminate placeholders downstream — never silent loss).
    pub fn drive(&mut self, epoch: u32, shards: u32, ops: &mut FabricOps) -> BTreeSet<u32> {
        let config = self.config;
        if ops.attempts.len() < shards as usize {
            ops.attempts.resize(shards as usize, 0);
        }
        let mut queue = Queue {
            epoch,
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
            if self.slots.iter().all(|s| !s.alive) {
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
            let round = self.round;
            for slot in self.slots.iter_mut() {
                if !slot.alive || slot.running.is_some() {
                    continue;
                }
                let Some(pos) = queue.pending.iter().position(|p| p.ready_round <= round) else {
                    break;
                };
                let p = queue.pending.remove(pos);
                self.lease_counter += 1;
                if let Some(a) = ops.attempts.get_mut(p.shard as usize) {
                    *a += 1;
                }
                let assign = Assign {
                    epoch,
                    shard: p.shard,
                    attempt: p.attempt,
                    lease: self.lease_counter,
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
            let first = self.reports.recv_timeout(config.poll_wait).ok();
            self.round += 1;
            let round = self.round;
            let mut busy = false;
            let mut lost_this_round = 0u32;
            for (worker, report) in first.into_iter().chain(self.reports.try_iter()) {
                busy = true;
                let slot = &mut self.slots[worker as usize];
                if let Some(run) = slot.running.as_mut() {
                    run.silent_polls = 0;
                }
                let running = slot.running.map(|r| r.assign);
                match report {
                    Report::Done(assign) if running == Some(assign) => {
                        slot.running = None;
                        if assign.epoch == epoch && completed.insert(assign.shard) {
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
            for slot in self.slots.iter_mut().filter(|s| s.alive) {
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
                if self.respawns_left == 0 {
                    break;
                }
                self.respawns_left -= 1;
                self.spawn_one();
            }

            // Lease supervision: only quiet ticks count toward expiry,
            // so a busy fabric never expires a slow-but-heartbeating
            // worker.
            if !busy {
                for slot in self.slots.iter_mut().filter(|s| s.alive) {
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
        ops.workers_spawned = self.slots.len() as u32;
        queue.abandoned
    }
}

/// Run `body` against a live worker fleet scanning `work`. The fleet
/// (threads, respawn budget, monotonic lease counter) persists across
/// every [`FleetHandle::drive`] call the body makes, and is shut down
/// orderly when the body returns — even on error.
pub fn with_fleet<R>(
    work: &dyn ShardWork,
    config: &FabricConfig,
    body: impl FnOnce(&mut FleetHandle<'_, '_>) -> io::Result<R>,
) -> io::Result<R> {
    std::thread::scope(|scope| {
        let mut fleet = FleetHandle::new(scope, work, config);
        // Dropping `fleet` drops every inbox's sender: each worker sees
        // its inbox close and returns before the scope joins it.
        body(&mut fleet)
    })
}

/// The single-epoch [`ShardWork`]: a fixed shard plan under the root
/// shard namespace (`<state_root>/shard-NNNN`), a fresh cold scanner
/// per attempt.
struct OneShotWork<'a> {
    factory: ScannerFactory<'a>,
    plan: &'a ShardPlan,
    state_root: &'a Path,
    run_id: u64,
    faults: &'a FabricFaultPlan,
}

impl ShardWork for OneShotWork<'_> {
    fn assignment(&self, _epoch: u32, shard: u32) -> Option<ShardAssignment> {
        let zones = self.plan.zones(shard).to_vec();
        let ns = Namespace::root(self.state_root, self.run_id).shard(shard);
        Some(ShardAssignment {
            dir: ns.dir().to_path_buf(),
            header: ns.header(&zones),
            zones: Arc::new(zones),
            scanner: (self.factory)(),
        })
    }

    fn fault(&self, _epoch: u32, shard: u32, attempt: u32) -> Option<WorkerFault> {
        self.faults.fault_for(shard, attempt)
    }

    fn worker_dead(&self, worker: u32) -> bool {
        self.faults.worker_dead(worker)
    }
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

    let work = OneShotWork {
        factory,
        plan: &plan,
        state_root,
        run_id,
        faults,
    };
    let abandoned = with_fleet(&work, config, |fleet| {
        Ok(fleet.drive(0, plan.shards(), &mut ops))
    })?;

    // Merge phase: one shard's journal at a time, in shard-id order.
    let mut merge = StreamingMerge::new();
    for shard in 0..plan.shards() {
        let zones = plan.zones(shard);
        let ns = Namespace::root(state_root, run_id).shard(shard);
        let recovery = recover(ns.dir(), ns.header(zones))?;
        merge.absorb_shard(zones, recovery.events, abandoned.contains(&shard), sink)?;
    }
    let (report, peak_resident) = merge.finish();
    ops.peak_resident_zones = peak_resident;
    Ok(FabricOutput { report, ops })
}
