//! The worker side of the fabric: lease-fenced shard scanning.
//!
//! A worker is a thread that owns nothing between assignments. It reads
//! [`Assign`]s from its own inbox — an `mpsc` channel whose one sender
//! the coordinator holds; dropping that sender is the shutdown. For each
//! it builds a **fresh scanner** from its drive's [`ShardJob`] (cold
//! caches — the per-shard determinism contract), recovers the shard's
//! journal from the shard state directory, replays recovered side
//! effects, and scans the shard through [`Scanner::scan_all_with`] —
//! with a sink that is one sequential lane by construction — journaling
//! every zone event write-ahead. It answers on the fleet's shared report
//! channel: [`Report::Done`] once the journal's tail is committed
//! ([`JournalSink::finish`]), or [`Report::GaveBack`] when the attempt
//! ended fenced, on a journal it could not write or commit, or on a
//! scanner its job could not build. Its [`Outbox`]
//! sends [`Report::Exited`] when dropped, so a worker thread that
//! returns — orderly or by an injected kill — is reported exactly once,
//! after everything it sent before.
//!
//! **Heartbeats** are a counter on the worker's [`Fence`], bumped every
//! `heartbeat_every` journaled events and read by the coordinator once
//! per poll tick: nothing is sent, and nothing wakes the coordinator.
//!
//! **Fencing.** Every journal append happens while holding the
//! worker's [`Fence`] lock, and only if the append's lease has not
//! been revoked. The coordinator's revoke takes the same lock — so
//! once `revoke` returns, no append under the old lease can ever land,
//! and the shard's journal can be handed to another worker without
//! torn-write races. A fenced worker is *not* dead: it gives the shard
//! back and waits for new work.

use crate::faults::{FabricFaultPlan, WorkerFault};
use crate::shard::ShardPlan;
use bootscan::scanner::Scanner;
use bootscan::{ProgressSink, ZoneEvent};
use scan_journal::{recover, JournalSink, Namespace};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Builds a fresh scanner for one shard attempt. Fabric workers never
/// share scanner state: cold caches per shard are what make shard
/// results independent of scheduling.
pub type ScannerFactory<'a> = &'a (dyn Fn() -> Arc<Scanner> + Sync);

/// What one [`drive`](crate::drive) scans. Every shard attempt reads
/// its zones, journal and scanner from here, so a shard's result is a
/// pure function of the job, never of scheduling history.
pub struct ShardJob<'a> {
    /// The partition: shard k scans `plan.zones(k)`.
    pub plan: &'a ShardPlan,
    /// Shard k journals under `ns.shard(k)`.
    pub ns: Namespace,
    /// A fresh scanner for shard k, called once per attempt: cold caches
    /// apart from deterministic pre-seeding (such as shard k's
    /// partition of a carry ledger, rebuilt from its earlier journals).
    /// An error — a journal it could not read — gives the attempt back
    /// like a journal it could not write: never a scanner seeded from
    /// less than it should be.
    pub scanner: &'a (dyn Fn(u32) -> io::Result<Arc<Scanner>> + Sync),
    /// The faults this drive injects.
    pub faults: &'a FabricFaultPlan,
}

/// One lease grant: attempt `attempt` of `shard`, fenced by `lease`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Assign {
    pub shard: u32,
    pub attempt: u32,
    pub lease: u64,
}

/// What a worker tells the coordinator. It travels as `(worker id,
/// report)` on the channel the whole fleet shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Report {
    /// The assignment's shard journal is complete.
    Done(Assign),
    /// The attempt ended without completing it; the coordinator decides
    /// retry vs abandon.
    GaveBack(Assign),
    /// The worker thread is gone. Sent only by [`Outbox`]'s drop.
    Exited,
}

/// A worker's end of the fleet's report channel.
pub(crate) struct Outbox {
    pub worker: u32,
    pub tx: Sender<(u32, Report)>,
}

impl Outbox {
    /// Send `report`. Once the coordinator is gone nobody is left to
    /// supervise, so a failed send is dropped.
    fn send(&self, report: Report) {
        let _ = self.tx.send((self.worker, report));
    }
}

impl Drop for Outbox {
    /// The death signal: the worker thread returned — served its last
    /// assignment or died by an injected fault, like a SIGKILL'd
    /// process whose pipe reaches EOF.
    fn drop(&mut self) {
        self.send(Report::Exited);
    }
}

/// Write fence for one worker's current lease, and its heartbeat.
#[derive(Debug, Default)]
pub struct Fence {
    /// Highest revoked lease id (leases are globally unique and
    /// monotonically increasing, so `lease <= revoked` means dead).
    revoked: Mutex<u64>,
    cv: Condvar,
    /// Heartbeats so far. An atomic, not `revoked`: the coordinator
    /// reads it every poll tick and must never wait behind an append's
    /// `fdatasync` to do so.
    beats: AtomicU64,
}

impl Fence {
    /// Run `f` (a journal append) under the fence, unless `lease` has
    /// been revoked. Returns `None` when fenced.
    pub fn with_lease<T>(&self, lease: u64, f: impl FnOnce() -> T) -> Option<T> {
        let revoked = self.revoked.lock().unwrap_or_else(PoisonError::into_inner);
        if lease <= *revoked {
            return None;
        }
        // The lock is held across `f`: a concurrent revoke blocks until
        // this append completes, and every later append sees it.
        Some(f())
    }

    /// Revoke every lease up to and including `lease`. After this
    /// returns, no append under a revoked lease can land.
    pub fn revoke_through(&self, lease: u64) {
        let mut revoked = self.revoked.lock().unwrap_or_else(PoisonError::into_inner);
        if lease > *revoked {
            *revoked = lease;
        }
        drop(revoked);
        self.cv.notify_all();
    }

    /// Block until `lease` is revoked (used by the `Stall` fault to
    /// simulate a hung worker that only "dies" once its lease expires).
    pub fn wait_revoked(&self, lease: u64) {
        let mut revoked = self.revoked.lock().unwrap_or_else(PoisonError::into_inner);
        while lease > *revoked {
            revoked = self
                .cv
                .wait(revoked)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One heartbeat: the worker journaled `heartbeat_every` more events.
    /// `Relaxed` on both sides: the count publishes no other data, and
    /// the coordinator only asks whether it moved.
    pub(crate) fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Heartbeats so far; the coordinator compares it tick to tick.
    pub(crate) fn beats(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }
}

/// Why a shard attempt ended without completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptEnd {
    /// Injected death: the worker thread must exit (simulated SIGKILL).
    Died,
    /// Lease revoked mid-scan.
    Fenced,
    /// Shard journal unwritable, its commit failed, or the scanner
    /// factory could not read what it seeds from.
    JournalIo,
}

/// The per-attempt [`ProgressSink`]: fence-guarded journal append,
/// heartbeats, and fault injection. Called from the one thread that
/// scans the shard, so its own state is two `Cell`s; the only lock on
/// the event path is the [`Fence`], which the coordinator really does
/// take from another thread.
struct ShardSink<'a> {
    inner: JournalSink,
    fence: &'a Fence,
    lease: u64,
    fault: Option<WorkerFault>,
    heartbeat_every: u64,
    /// Events journaled by *this attempt* (resumed events don't count:
    /// fault event-indices are per-attempt, which keeps kill points
    /// meaningful on re-runs).
    events: Cell<u64>,
    end: Cell<Option<AttemptEnd>>,
}

impl ShardSink<'_> {
    /// Record why the attempt ends and stop the scan.
    fn stop(&self, end: AttemptEnd) -> bool {
        self.end.set(Some(end));
        false
    }
}

impl ProgressSink for ShardSink<'_> {
    fn on_zone(&self, event: &ZoneEvent) -> bool {
        let k = self.events.get();
        match self.fault {
            Some(WorkerFault::Kill { at_event }) if k == at_event => {
                return self.stop(AttemptEnd::Died);
            }
            Some(WorkerFault::Stall { at_event }) if k == at_event => {
                // Hang until the coordinator gives up on us, then die.
                self.fence.wait_revoked(self.lease);
                return self.stop(AttemptEnd::Died);
            }
            Some(WorkerFault::SlowDrain) => std::thread::yield_now(),
            _ => {}
        }
        let fence = self.fence;
        // bootscan-allow(L003): the fence must gate append + group
        // commit atomically — a concurrent revoke has to block until
        // this in-flight on_zone lands, or a fenced-off worker could
        // write after its successor started. Holding `revoked` across
        // the sink is the fencing contract, not an oversight.
        let appended = fence.with_lease(self.lease, || self.inner.on_zone(event));
        match appended {
            None => return self.stop(AttemptEnd::Fenced),
            Some(false) => return self.stop(AttemptEnd::JournalIo),
            Some(true) => {}
        }
        let events = k + 1;
        self.events.set(events);
        if self.heartbeat_every > 0 && events.is_multiple_of(self.heartbeat_every) {
            self.fence.beat();
        }
        true
    }
}

/// Everything a worker thread needs.
pub(crate) struct WorkerCtx<'a> {
    pub worker: u32,
    pub job: &'a ShardJob<'a>,
    pub fence: &'a Fence,
    pub heartbeat_every: u64,
}

/// The worker thread body: serve assignments until the coordinator
/// drops the inbox's sender, or until death. Either way returning drops
/// `out`, which reports [`Report::Exited`].
pub(crate) fn worker_main(ctx: WorkerCtx<'_>, inbox: Receiver<Assign>, out: Outbox) {
    for assign in inbox {
        if ctx.job.faults.worker_dead(ctx.worker) {
            // Permanently dead worker: dies the moment it gets work.
            return;
        }
        match run_shard(&ctx, assign) {
            Ok(()) => out.send(Report::Done(assign)),
            Err(AttemptEnd::Died) => return,
            Err(AttemptEnd::Fenced | AttemptEnd::JournalIo) => out.send(Report::GaveBack(assign)),
        }
    }
}

/// One shard attempt: fresh scanner → recover → replay effects →
/// `scan_all_with` the fence-guarded journal sink (one sequential lane).
fn run_shard(ctx: &WorkerCtx<'_>, assign: Assign) -> Result<(), AttemptEnd> {
    let job = ctx.job;
    let zones = job.plan.zones(assign.shard);
    let ns = job.ns.shard(assign.shard);
    let scanner = (job.scanner)(assign.shard).map_err(|_| AttemptEnd::JournalIo)?;
    let recovery = recover(ns.dir(), ns.header(zones)).map_err(|_| AttemptEnd::JournalIo)?;
    recovery.apply_to(&scanner);
    let resume = recovery.resume_state();
    let inner = JournalSink::resume(ns.dir(), &recovery).map_err(|_| AttemptEnd::JournalIo)?;
    let fault = job.faults.fault_for(assign.shard, assign.attempt);
    let sink = ShardSink {
        inner,
        fence: ctx.fence,
        lease: assign.lease,
        fault,
        heartbeat_every: ctx.heartbeat_every,
        events: Cell::new(0),
        end: Cell::new(None),
    };
    scanner.scan_all_with(zones, Some(&sink), Some(resume));
    if let Some(end) = sink.end.get() {
        return Err(end);
    }
    // A shard is `Done` only once its tail is committed; a failed commit
    // hands it back for a retry.
    sink.inner.finish().map_err(|_| AttemptEnd::JournalIo)?;
    if matches!(fault, Some(WorkerFault::KillBeforeHandoff)) {
        // The journal is complete; die before reporting it.
        return Err(AttemptEnd::Died);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn fence_blocks_appends_after_revoke() {
        let fence = Fence::default();
        assert_eq!(fence.with_lease(5, || 1), Some(1));
        fence.revoke_through(5);
        assert_eq!(fence.with_lease(5, || 1), None);
        // A newer lease on the same fence still works.
        assert_eq!(fence.with_lease(6, || 2), Some(2));
    }

    #[test]
    fn wait_revoked_unblocks_on_revoke() {
        let fence = Arc::new(Fence::default());
        let f2 = Arc::clone(&fence);
        let t = std::thread::spawn(move || f2.wait_revoked(3));
        fence.revoke_through(3);
        t.join().unwrap();
        // Already-revoked leases return immediately.
        fence.wait_revoked(2);
    }

    #[test]
    fn heartbeats_move_without_touching_the_lease_lock() {
        let fence = Fence::default();
        assert_eq!(fence.beats(), 0);
        // Beat and read while an append holds `revoked` — neither may
        // wait for it (this would deadlock if they took the lock).
        let inside = fence.with_lease(1, || {
            fence.beat();
            fence.beat();
            fence.beats()
        });
        assert_eq!(inside, Some(2));
        assert_eq!(
            *fence.revoked.lock().unwrap(),
            0,
            "beats leave `revoked` alone"
        );
        // Lease behaviour is unchanged by the counter.
        fence.revoke_through(1);
        assert_eq!(fence.with_lease(1, || ()), None);
        assert_eq!(fence.with_lease(2, || ()), Some(()));
        fence.beat();
        assert_eq!(fence.beats(), 3);
        assert_eq!(*fence.revoked.lock().unwrap(), 1);
    }

    #[test]
    fn dropping_the_outbox_reports_one_exit_after_everything_before_it() {
        let (tx, rx) = mpsc::channel();
        let run = Assign {
            shard: 2,
            attempt: 1,
            lease: 3,
        };
        let worker = std::thread::spawn(move || {
            let out = Outbox { worker: 7, tx };
            out.send(Report::GaveBack(run));
            out.send(Report::Done(run));
            // `out` drops as the thread returns.
        });
        worker.join().unwrap();
        let got: Vec<(u32, Report)> = rx.iter().collect();
        assert_eq!(
            got,
            [
                (7, Report::GaveBack(run)),
                (7, Report::Done(run)),
                (7, Report::Exited)
            ],
            "exactly one exit, last"
        );
    }
}
