//! Every scheduling decision of a [`drive`](crate::drive), as one pure
//! state machine.
//!
//! [`Schedule::step`] takes one poll tick's events — the reports drained
//! from the fleet's channel, then each worker's heartbeat counter — and
//! returns the actions the coordinator's shell executes, in order. It
//! touches no thread, channel, clock or file, so a test can stand in for
//! the fleet: the unit tests below explore every interleaving of a small
//! one.

use crate::coordinator::FabricConfig;
use crate::merge::FabricOps;
use crate::worker::{Assign, Report};
use std::collections::BTreeSet;

/// One observation of a poll tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A `(worker, report)` drained from the fleet's channel.
    Report(u32, Report),
    /// A worker's heartbeat counter as read this tick; only a moved
    /// counter is news.
    Beat(u32, u64),
}

/// What the shell does for the schedule, in the order given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Start a worker. Its id is the number of workers started before it.
    Spawn,
    Assign {
        worker: u32,
        assign: Assign,
    },
    /// `revoke_through(lease)` on the worker's fence.
    Revoke {
        worker: u32,
        lease: u64,
    },
}

/// Where one shard of the drive stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shard {
    /// Waiting for attempt `attempt`, which may start in round
    /// `ready_round` (retry backoff).
    Pending {
        attempt: u32,
        ready_round: u64,
    },
    /// Leased to the worker whose slot holds it.
    Running,
    Completed,
    Abandoned,
}

/// What the schedule knows of one worker.
#[derive(Debug, Clone)]
struct WorkerSlot {
    alive: bool,
    running: Option<RunningShard>,
    /// The heartbeat counter at the last tick.
    beats_seen: u64,
    /// Assignments sent and not yet answered by `Done` or `GaveBack`. A
    /// worker answers every assignment it reads or dies reading it, so an
    /// `Exited` with some unanswered is a death — also one that arrives
    /// after the drive finished, when an orderly exit looks the same.
    unanswered: u32,
}

#[derive(Debug, Clone, Copy)]
struct RunningShard {
    assign: Assign,
    /// Quiet ticks since the assignment, the worker's last report or its
    /// last moved heartbeat.
    silent_polls: u32,
}

/// One drive's scheduling state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Schedule {
    max_attempts: u32,
    lease_timeout_polls: u32,
    respawns_left: u32,
    /// The last lease granted. Leases only grow within a drive.
    lease: u64,
    /// Ticks so far; retry backoff is measured in them.
    round: u64,
    /// Indexed by shard id.
    shards: Vec<Shard>,
    /// Indexed by worker id: slots are only ever appended.
    workers: Vec<WorkerSlot>,
    ops: FabricOps,
}

impl Schedule {
    /// A drive of `shards` shards that adds its counts to `ops`, and the
    /// actions that start it: spawn the fleet, hand out the first shards.
    pub(crate) fn new(
        config: &FabricConfig,
        shards: u32,
        mut ops: FabricOps,
    ) -> (Schedule, Vec<Action>) {
        ops.attempts
            .resize(ops.attempts.len().max(shards as usize), 0);
        let first = Shard::Pending {
            attempt: 0,
            ready_round: 0,
        };
        let mut schedule = Schedule {
            max_attempts: config.max_attempts,
            lease_timeout_polls: config.lease_timeout_polls,
            respawns_left: config.max_respawns,
            shards: vec![first; shards as usize],
            ops,
            ..Schedule::default()
        };
        let mut actions = Vec::new();
        for _ in 0..config.workers.max(1) {
            schedule.spawn(&mut actions);
        }
        schedule.dispatch(&mut actions);
        (schedule, actions)
    }

    /// One poll tick: apply the reports and heartbeats in `events` (an
    /// empty list is a quiet tick), replace the fallen within the respawn
    /// budget, expire leases on a quiet tick, then hand out eligible
    /// shards. Once the drive is finished, a step only counts deaths.
    pub(crate) fn step(&mut self, events: &[Event]) -> Vec<Action> {
        let finished = self.finished();
        let mut actions = Vec::new();
        self.round += 1;
        let mut busy = false;
        let mut lost = 0;
        for &event in events {
            let (worker, report) = match event {
                Event::Report(worker, report) => (worker, Some(report)),
                Event::Beat(worker, beats) => {
                    let slot = &mut self.workers[worker as usize];
                    if !slot.alive || beats == slot.beats_seen {
                        continue;
                    }
                    slot.beats_seen = beats;
                    (worker, None)
                }
            };
            busy = true;
            if let Some(run) = self.workers[worker as usize].running.as_mut() {
                run.silent_polls = 0;
            }
            if let Some(report) = report {
                lost += u32::from(self.report(worker, report, &mut actions) && !finished);
            }
        }

        // Replacements get fresh worker ids (like new pids), so a fault
        // plan that condemned the dead worker does not condemn its
        // successor. A finished drive replaces no one.
        let spawns = lost.min(self.respawns_left);
        self.respawns_left -= spawns;
        for _ in 0..spawns {
            self.spawn(&mut actions);
        }

        // Only quiet ticks count toward expiry, so a busy fabric never
        // expires a slow-but-heartbeating worker.
        for worker in (0..self.workers.len()).filter(|_| !busy) {
            let slot = &mut self.workers[worker];
            let Some(run) = slot.running.as_mut() else {
                continue;
            };
            run.silent_polls += 1;
            if run.silent_polls > self.lease_timeout_polls {
                let assign = run.assign;
                slot.running = None;
                self.ops.lease_expiries += 1;
                self.give_back(worker as u32, assign, &mut actions);
            }
        }
        self.dispatch(&mut actions);
        actions
    }

    /// Whether every shard is completed or abandoned.
    pub(crate) fn finished(&self) -> bool {
        self.shards
            .iter()
            .all(|shard| matches!(shard, Shard::Completed | Shard::Abandoned))
    }

    /// The abandoned shards and the counters with this drive added.
    pub(crate) fn into_outcome(self) -> (BTreeSet<u32>, FabricOps) {
        let abandoned = (0..)
            .zip(&self.shards)
            .filter(|&(_, &shard)| shard == Shard::Abandoned)
            .map(|(id, _)| id)
            .collect();
        (abandoned, self.ops)
    }

    /// Apply one report; returns whether it was a death.
    fn report(&mut self, worker: u32, report: Report, actions: &mut Vec<Action>) -> bool {
        let slot = &mut self.workers[worker as usize];
        let held = slot.running.map(|run| run.assign);
        // A stale `Done` or `GaveBack` (the lease was already revoked and
        // the shard stolen) takes nothing back: the worker is idle again,
        // and the current attempt reports from the same journal.
        let taken = match report {
            Report::Done(answered) | Report::GaveBack(answered) => {
                slot.unanswered = slot.unanswered.saturating_sub(1);
                held.filter(|&run| run == answered)
            }
            Report::Exited => {
                slot.alive = false;
                held
            }
        };
        let died = report == Report::Exited && slot.unanswered > 0;
        if taken.is_some() {
            slot.running = None;
        }
        self.ops.workers_lost += u32::from(died);
        match (report, taken) {
            (Report::Done(_), Some(run)) => {
                self.shards[run.shard as usize] = Shard::Completed;
                self.ops.shards_completed += 1;
            }
            // Given back, or died holding it.
            (_, Some(run)) => self.give_back(worker, run, actions),
            (_, None) => {}
        }
        died
    }

    /// Take `run` back from `worker`. Revoke first: once the shell has
    /// run the revoke, no append under the old lease can land, so the
    /// shard's journal is safe to hand elsewhere. Then retry the shard
    /// after a backoff of 2, 4, 8, 8, … rounds, or abandon it once its
    /// attempt budget is spent.
    fn give_back(&mut self, worker: u32, run: Assign, actions: &mut Vec<Action>) {
        actions.push(Action::Revoke {
            worker,
            lease: run.lease,
        });
        let attempt = run.attempt + 1;
        self.shards[run.shard as usize] = if attempt >= self.max_attempts {
            self.ops.shards_abandoned += 1;
            Shard::Abandoned
        } else {
            self.ops.reassignments += 1;
            Shard::Pending {
                attempt,
                ready_round: self.round + (1 << attempt.min(3)),
            }
        };
    }

    fn spawn(&mut self, actions: &mut Vec<Action>) {
        self.workers.push(WorkerSlot {
            alive: true,
            running: None,
            beats_seen: 0,
            unanswered: 0,
        });
        self.ops.workers_spawned += 1;
        actions.push(Action::Spawn);
    }

    /// Hand eligible shards to idle live workers, earliest-ready then
    /// lowest shard first — or, once no worker is left, abandon them.
    fn dispatch(&mut self, actions: &mut Vec<Action>) {
        if self.workers.iter().all(|slot| !slot.alive) {
            for shard in &mut self.shards {
                if let Shard::Pending { .. } = shard {
                    *shard = Shard::Abandoned;
                    self.ops.shards_abandoned += 1;
                }
            }
        }
        for (worker, slot) in (0..).zip(&mut self.workers) {
            if !slot.alive || slot.running.is_some() {
                continue;
            }
            let eligible = (0..)
                .zip(&self.shards)
                .filter_map(|(shard, &state)| match state {
                    Shard::Pending {
                        attempt,
                        ready_round,
                    } if ready_round <= self.round => Some((ready_round, shard, attempt)),
                    _ => None,
                });
            let Some((_, shard, attempt)) = eligible.min() else {
                break;
            };
            self.shards[shard as usize] = Shard::Running;
            self.lease += 1;
            let assign = Assign {
                shard,
                attempt,
                lease: self.lease,
            };
            self.ops.attempts[shard as usize] += 1;
            slot.running = Some(RunningShard {
                assign,
                silent_polls: 0,
            });
            slot.unanswered += 1;
            actions.push(Action::Assign { worker, assign });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::ops::{Deref, DerefMut};
    use std::time::Duration;

    fn config(
        workers: usize,
        max_attempts: u32,
        max_respawns: u32,
        lease_timeout_polls: u32,
    ) -> FabricConfig {
        FabricConfig {
            workers,
            shards: 3,
            max_attempts,
            heartbeat_every: 1,
            lease_timeout_polls,
            poll_wait: Duration::ZERO,
            max_respawns,
        }
    }

    fn report(worker: u32, report: Report) -> Event {
        Event::Report(worker, report)
    }

    /// The assignments in `actions`, as (worker, shard).
    fn assigned(actions: &[Action]) -> Vec<(u32, u32)> {
        actions
            .iter()
            .filter_map(|a| match *a {
                Action::Assign { worker, assign } => Some((worker, assign.shard)),
                _ => None,
            })
            .collect()
    }

    fn revoked(actions: &[Action]) -> Vec<(u32, u64)> {
        actions
            .iter()
            .filter_map(|a| match *a {
                Action::Revoke { worker, lease } => Some((worker, lease)),
                _ => None,
            })
            .collect()
    }

    fn running(schedule: &Schedule, worker: usize) -> Assign {
        schedule.workers[worker]
            .running
            .expect("the worker holds a lease")
            .assign
    }

    // ---- Focused rules ----------------------------------------------

    #[test]
    fn retry_backoff_is_2_4_8_8_rounds() {
        let (mut s, _) = Schedule::new(&config(1, 5, 0, 100), 1, FabricOps::default());
        let mut gaps = Vec::new();
        for _ in 0..4 {
            let a = running(&s, 0);
            assert!(assigned(&s.step(&[report(0, Report::GaveBack(a))])).is_empty());
            let mut gap = 1;
            while assigned(&s.step(&[])).is_empty() {
                gap += 1;
            }
            gaps.push(gap);
        }
        assert_eq!(gaps, [2, 4, 8, 8]);
        // The fifth attempt is the last.
        let a = running(&s, 0);
        s.step(&[report(0, Report::GaveBack(a))]);
        assert!(s.finished());
        let (abandoned, ops) = s.into_outcome();
        assert_eq!(abandoned, BTreeSet::from([0]));
        assert_eq!((ops.attempts[0], ops.reassignments), (5, 4));
    }

    #[test]
    fn a_lease_expires_on_the_quiet_tick_after_lease_timeout_polls() {
        for polls in 0..4 {
            let (mut s, _) = Schedule::new(&config(1, 4, 0, polls), 1, FabricOps::default());
            let lease = running(&s, 0).lease;
            for tick in 0..polls {
                // The shell reads every counter each tick: one that did
                // not move leaves the tick quiet.
                let unmoved = [Event::Beat(0, 0)];
                let events: &[Event] = if tick % 2 == 0 { &[] } else { &unmoved };
                assert!(revoked(&s.step(events)).is_empty(), "polls {polls}");
            }
            assert_eq!(revoked(&s.step(&[])), [(0, lease)], "polls {polls}");
            assert_eq!(s.ops.lease_expiries, 1);
        }
    }

    #[test]
    fn one_beat_or_report_restarts_the_quiet_count() {
        let (mut s, _) = Schedule::new(&config(1, 4, 0, 2), 1, FabricOps::default());
        let lease = running(&s, 0).lease;
        s.step(&[]);
        s.step(&[]);
        assert!(revoked(&s.step(&[Event::Beat(0, 1)])).is_empty());
        s.step(&[]);
        assert!(revoked(&s.step(&[])).is_empty());
        assert_eq!(revoked(&s.step(&[])), [(0, lease)]);

        // A stale report, for a lease already expired, restarts the count
        // of the lease the worker holds now.
        let (mut s, _) = Schedule::new(&config(1, 4, 0, 1), 2, FabricOps::default());
        let first = running(&s, 0);
        s.step(&[]);
        let actions = s.step(&[]);
        assert_eq!(revoked(&actions), [(0, first.lease)]);
        assert_eq!(assigned(&actions), [(0, 1)], "shard 1 waits no backoff");
        let second = running(&s, 0);
        s.step(&[]);
        assert!(revoked(&s.step(&[report(0, Report::GaveBack(first))])).is_empty());
        assert!(revoked(&s.step(&[])).is_empty());
        assert_eq!(revoked(&s.step(&[])), [(0, second.lease)]);
    }

    /// The rule the benchmark's void-repetition test relies on: with
    /// `lease_timeout_polls = 1` and a fleet that never beats, every
    /// lease expires and every shard is abandoned after `max_attempts`.
    #[test]
    fn a_fleet_that_never_beats_abandons_every_shard_after_max_attempts() {
        let mut cfg = config(1, 4, 64, 1);
        cfg.shards = 32;
        let (mut s, _) = Schedule::new(&cfg, cfg.shards, FabricOps::default());
        let mut ticks = 0;
        while !s.finished() {
            s.step(&[]);
            ticks += 1;
            assert!(ticks < 10_000, "quiet ticks never finished the drive");
        }
        let (abandoned, ops) = s.into_outcome();
        assert_eq!(abandoned, (0..32).collect());
        assert_eq!(ops.attempts, vec![4; 32]);
        assert_eq!(ops.lease_expiries, 4 * 32);
        assert_eq!((ops.shards_completed, ops.shards_abandoned), (0, 32));
        assert_eq!(ops.workers_spawned, 1);
    }

    #[test]
    fn a_fleet_that_empties_with_its_budget_spent_abandons_every_pending_shard() {
        let (mut s, _) = Schedule::new(&config(2, 4, 1, 100), 3, FabricOps::default());
        let actions = s.step(&[report(0, Report::Exited)]);
        assert_eq!(
            actions.first(),
            Some(&Action::Revoke {
                worker: 0,
                lease: 1
            })
        );
        assert!(actions.contains(&Action::Spawn));
        assert_eq!(
            assigned(&actions),
            [(2, 2)],
            "the replacement takes shard 2"
        );
        let actions = s.step(&[report(1, Report::Exited), report(2, Report::Exited)]);
        assert!(!actions.contains(&Action::Spawn), "the budget is spent");
        assert!(s.finished());
        let (abandoned, ops) = s.into_outcome();
        assert_eq!(abandoned, (0..3).collect());
        assert_eq!(
            (ops.workers_spawned, ops.workers_lost, ops.shards_abandoned),
            (3, 3, 3)
        );
    }

    /// The `workers_lost >= 1` flake of `fabric_recovery`'s
    /// permanently-dead-worker test: a dead-on-arrival worker that has
    /// not run yet is silent, so its lease expires and a survivor
    /// completes its shard. The drive can then finish before the exit
    /// arrives; the shell hands the exits that arrive after the join to
    /// one more step, which counts this one.
    #[test]
    fn a_death_reported_after_the_drive_finished_is_counted() {
        let (mut s, _) = Schedule::new(&config(2, 4, 0, 0), 2, FabricOps::default());
        let (done, doomed) = (running(&s, 0), running(&s, 1));
        s.step(&[report(0, Report::Done(done))]);
        assert_eq!(revoked(&s.step(&[])), [(1, doomed.lease)]);
        let mut ticks = 0;
        while assigned(&s.step(&[])).is_empty() {
            ticks += 1;
        }
        assert_eq!(ticks, 1, "backoff 2 rounds");
        let retry = running(&s, 0);
        s.step(&[report(0, Report::Done(retry))]);
        assert!(s.finished());
        assert_eq!(s.ops.workers_lost, 0);

        let late = [report(0, Report::Exited), report(1, Report::Exited)];
        assert!(s.step(&late).is_empty(), "a finished drive only counts");
        let (abandoned, ops) = s.into_outcome();
        assert!(abandoned.is_empty());
        assert_eq!(ops.workers_lost, 1, "the orderly exit is not a loss");
        assert_eq!(ops.workers_spawned, 2);
    }

    // ---- Every interleaving of a small fleet --------------------------

    const SHARDS: u32 = 3;

    /// A vector of at most `N` items, held inline so that cloning a world
    /// copies it without allocating.
    #[derive(Debug, Clone, Copy)]
    struct Inline<T, const N: usize> {
        items: [T; N],
        len: usize,
    }

    impl<T: Copy, const N: usize> Inline<T, N> {
        const fn new(fill: T) -> Self {
            Inline {
                items: [fill; N],
                len: 0,
            }
        }

        fn push(&mut self, item: T) {
            self.items[self.len] = item;
            self.len += 1;
        }

        fn extend<const K: usize>(&mut self, items: [T; K]) {
            for item in items {
                self.push(item);
            }
        }

        fn pop_front(&mut self) {
            self.items.copy_within(1..self.len, 0);
            self.len -= 1;
        }
    }

    impl<T, const N: usize> Deref for Inline<T, N> {
        type Target = [T];
        fn deref(&self) -> &[T] {
            &self.items[..self.len]
        }
    }

    impl<T, const N: usize> DerefMut for Inline<T, N> {
        fn deref_mut(&mut self) -> &mut [T] {
            &mut self.items[..self.len]
        }
    }

    impl<'a, T, const N: usize> IntoIterator for &'a Inline<T, N> {
        type Item = &'a T;
        type IntoIter = std::slice::Iter<'a, T>;
        fn into_iter(self) -> Self::IntoIter {
            self.iter()
        }
    }

    impl<'a, T, const N: usize> IntoIterator for &'a mut Inline<T, N> {
        type Item = &'a mut T;
        type IntoIter = std::slice::IterMut<'a, T>;
        fn into_iter(self) -> Self::IntoIter {
            self.iter_mut()
        }
    }

    /// A model worker: it serves a FIFO inbox, head first.
    #[derive(Debug, Clone, Copy)]
    struct ModelWorker {
        /// Each assignment not yet answered, and whether its lease is
        /// revoked on the worker's fence. A worker holds at most every
        /// attempt of every shard.
        inbox: Inline<(Assign, bool), 12>,
        alive: bool,
    }

    const NEW_WORKER: ModelWorker = ModelWorker {
        inbox: Inline::new((
            Assign {
                shard: 0,
                attempt: 0,
                lease: 0,
            },
            false,
        )),
        alive: true,
    };

    /// The schedule, the fleet it drives, and what the checks remember.
    #[derive(Debug, Clone)]
    struct World {
        schedule: Schedule,
        /// Two workers and one replacement, and room for one more: a
        /// schedule that overspends its budget fails property 6, not a
        /// bounds check.
        fleet: Inline<ModelWorker, 4>,
        /// Per unfinished shard, the (worker, lease) of its last
        /// assignment while that lease is unrevoked.
        last: [Option<(u32, u64)>; SHARDS as usize],
        /// The last lease granted.
        issued: u64,
    }

    impl World {
        fn deaths(&self) -> u32 {
            self.fleet.iter().filter(|m| !m.alive).count() as u32
        }
    }

    /// What one model worker does in one tick.
    #[derive(Debug, Clone, Copy)]
    enum Move {
        Silent,
        Beat,
        Report(Report),
    }

    #[derive(Debug, Default)]
    struct Stats {
        states: usize,
        finished: usize,
        /// Finished states in which a live worker still holds an
        /// assignment it has not answered: it may yet die reading it.
        unanswered_at_finish: usize,
        transitions: usize,
        longest_quiet_finish: u32,
    }

    fn small(x: u64) -> u8 {
        u8::try_from(x).expect("the model's numbers fit a byte")
    }

    /// The 128-bit fingerprint of what decides the future of `world`, and
    /// nothing else (the visited set keeps fingerprints, as explicit-state
    /// model checkers do):
    /// - `round` is factored out: a waiting shard keeps its remaining
    ///   backoff, and the ready ones their order of readiness;
    /// - a lease is its rank among the leases still in play, since only
    ///   their order and equality matter and new ones outrank them all;
    /// - a revoked assignment is only stale: no running lease equals it,
    ///   so whatever the worker answers for it is ignored alike;
    /// - heartbeat counters are left out, since a model worker's counter
    ///   always equals the one last read, and so are the counters in
    ///   `FabricOps`, which `check` tests at every state reached;
    /// - a dead worker is only dead.
    ///
    /// With `schedule_only`, the model fleet is left out too.
    fn key(world: &World, schedule_only: bool) -> u128 {
        let s = &world.schedule;
        let mut leases: Inline<u64, 48> = Inline::new(0);
        for w in &s.workers {
            if let Some(r) = w.running {
                leases.push(r.assign.lease);
            }
        }
        if !schedule_only {
            for m in world.fleet.iter().filter(|m| m.alive) {
                for &(a, revoked) in &m.inbox {
                    if !revoked {
                        leases.push(a.lease);
                    }
                }
            }
            for &(_, lease) in world.last.iter().flatten() {
                leases.push(lease);
            }
        }
        leases.sort_unstable();
        let rank = |lease: u64| small(leases.partition_point(|&l| l < lease) as u64);
        let assign = |a: Assign| {
            [
                small(a.shard.into()),
                small(a.attempt.into()),
                rank(a.lease),
            ]
        };

        let mut buf: Inline<u8, 192> = Inline::new(0);
        for (id, &shard) in s.shards.iter().enumerate() {
            let Shard::Pending {
                attempt,
                ready_round,
            } = shard
            else {
                buf.push(match shard {
                    Shard::Running => u8::MAX,
                    Shard::Completed => u8::MAX - 1,
                    _ => u8::MAX - 2,
                });
                continue;
            };
            // A shard still waiting keeps its wait; among the ready ones
            // only the order of their readiness matters.
            let wait = ready_round.saturating_sub(s.round);
            let ahead = s.shards.iter().enumerate().filter(|&(other, &state)| {
                matches!(state, Shard::Pending { ready_round: r, .. }
                    if r <= s.round && (r, other) < (ready_round, id))
            });
            let order = if wait > 0 { 0 } else { ahead.count() };
            buf.extend([small(attempt.into()), small(wait), small(order as u64)]);
        }
        for w in &s.workers {
            match (w.alive, w.running) {
                (false, _) => buf.push(u8::MAX),
                (true, None) => buf.extend([small(w.unanswered.into()), u8::MAX]),
                (true, Some(r)) => {
                    buf.push(small(w.unanswered.into()));
                    buf.extend(assign(r.assign));
                    buf.push(small(r.silent_polls.into()));
                }
            }
        }
        buf.push(small(s.respawns_left.into()));
        if !schedule_only {
            for m in &world.fleet {
                if !m.alive {
                    buf.push(u8::MAX);
                    continue;
                }
                for &(a, revoked) in &m.inbox {
                    if revoked {
                        buf.push(u8::MAX - 2);
                    } else {
                        buf.extend(assign(a));
                    }
                }
                buf.push(u8::MAX - 1);
            }
            for last in &world.last {
                match *last {
                    Some((worker, lease)) => buf.extend([small(worker.into()), rank(lease)]),
                    None => buf.push(u8::MAX),
                }
            }
        }
        fingerprint(&buf)
    }

    /// Two multiply-rotate lanes over 8-byte words. Inputs of one length
    /// that differ in one word never collide: each round is a bijection.
    fn fingerprint(bytes: &[u8]) -> u128 {
        let len = bytes.len() as u64;
        let (mut a, mut b) = (len, !len);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let w = u64::from_le_bytes(word);
            a = (a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
            b = (b ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(31);
        }
        u128::from(a) << 64 | u128::from(b)
    }

    /// A set of fingerprints, open-addressed: a fingerprint is a hash
    /// already, so a lookup is one probe run over one array.
    #[derive(Default)]
    struct Visited {
        slots: Vec<u128>,
        len: usize,
    }

    impl Visited {
        /// Whether `key` is new. Zero marks an empty slot, so it stands
        /// for one.
        fn insert(&mut self, key: u128) -> bool {
            if 2 * (self.len + 1) > self.slots.len() {
                let grown = vec![0; (self.slots.len() * 2).max(1 << 16)];
                let old = std::mem::replace(&mut self.slots, grown);
                self.len = 0;
                for key in old.into_iter().filter(|&k| k != 0) {
                    self.insert(key);
                }
            }
            let key = key.max(1);
            let mask = self.slots.len() - 1;
            let mut i = key as usize & mask;
            loop {
                match self.slots[i] {
                    0 => break,
                    k if k == key => return false,
                    _ => i = (i + 1) & mask,
                }
            }
            self.slots[i] = key;
            self.len += 1;
            true
        }
    }

    /// What the model fleet did in one tick.
    #[derive(Debug)]
    struct Tick {
        /// The reports, in channel order.
        reports: Inline<(usize, Report), 3>,
        beats: Inline<usize, 3>,
        /// Each worker's running lease before the tick.
        before: Inline<Option<RunningShard>, 4>,
    }

    impl Default for Tick {
        fn default() -> Self {
            Tick {
                reports: Inline::new((0, Report::Exited)),
                beats: Inline::new(0),
                before: Inline::new(None),
            }
        }
    }

    impl Tick {
        fn heard(&self, worker: usize) -> bool {
            self.beats.contains(&worker) || self.reports.iter().any(|&(w, _)| w == worker)
        }

        /// Whether `worker` gave `lease` back this tick, or died.
        fn surrendered(&self, worker: usize, lease: u64) -> bool {
            self.reports.iter().any(|&(w, r)| {
                w == worker
                    && match r {
                        Report::GaveBack(a) => a.lease == lease,
                        Report::Exited => true,
                        Report::Done(_) => false,
                    }
            })
        }
    }

    /// Execute `actions` on the model fleet after `tick`, checking
    /// properties 2 and 3.
    ///
    /// The model keeps no clock for property 3. It checks instead that a
    /// lease's quiet count starts at zero, restarts whenever its worker
    /// is heard and grows by one tick at most, so it never exceeds the
    /// ticks since the worker was last heard; and that a lease expires
    /// only in a tick its worker was silent, once the count had reached
    /// `lease_timeout_polls`. Together: an expired worker had been silent
    /// for more than `lease_timeout_polls` ticks.
    fn execute(world: &mut World, actions: &[Action], tick: &Tick, cfg: &FabricConfig) {
        for &action in actions {
            match action {
                Action::Spawn => world.fleet.push(NEW_WORKER),
                Action::Assign { worker, assign } => {
                    // 2. Leases strictly increase, and a shard's previous
                    //    lease is revoked before its next is granted.
                    assert!(
                        assign.lease > world.issued,
                        "lease not increasing: {actions:?}"
                    );
                    world.issued = assign.lease;
                    let last = &mut world.last[assign.shard as usize];
                    assert_eq!(*last, None, "shard {} reassigned unrevoked", assign.shard);
                    *last = Some((worker, assign.lease));
                    let m = &mut world.fleet[worker as usize];
                    assert!(m.alive, "assigned to a dead worker");
                    m.inbox.push((assign, false));
                }
                Action::Revoke { worker, lease } => {
                    let w = worker as usize;
                    if !tick.surrendered(w, lease) {
                        let held = tick.before.get(w).copied().flatten();
                        assert!(
                            !tick.heard(w)
                                && held.is_some_and(|run| {
                                    run.assign.lease == lease
                                        && run.silent_polls >= cfg.lease_timeout_polls
                                }),
                            "worker {worker} expired early: {held:?}, {tick:?}"
                        );
                    }
                    for (a, revoked) in &mut world.fleet[w].inbox {
                        *revoked |= a.lease <= lease;
                    }
                    for last in &mut world.last {
                        if last.is_some_and(|(w, l)| w == worker && l <= lease) {
                            *last = None;
                        }
                    }
                }
            }
        }
        for (worker, slot) in world.schedule.workers.iter().enumerate() {
            let Some(run) = slot.running else {
                continue;
            };
            let limit = match tick.before.get(worker).copied().flatten() {
                Some(prev) if prev.assign == run.assign && !tick.heard(worker) => {
                    prev.silent_polls + 1
                }
                _ => 0,
            };
            assert!(
                run.silent_polls <= limit,
                "worker {worker}: {run:?} after {tick:?}"
            );
        }
    }

    /// Properties 1, 4 and 6 at one reachable state.
    fn check(world: &World, cfg: &FabricConfig) {
        let s = &world.schedule;
        // 1. At most one unrevoked lease per shard among live workers.
        let mut live = [0u8; SHARDS as usize];
        for m in world.fleet.iter().filter(|m| m.alive) {
            for &(a, revoked) in &m.inbox {
                live[a.shard as usize] += u8::from(!revoked);
            }
        }
        assert!(
            live.iter().all(|&n| n <= 1),
            "unrevoked leases per shard: {live:?}"
        );
        // 4. A shard runs exactly when one worker holds it. A finished
        //    drive has completed or abandoned every shard, and an
        //    abandoned shard spent its attempts or its whole fleet.
        let mut held = [0u8; SHARDS as usize];
        for w in &s.workers {
            if let Some(r) = w.running {
                held[r.assign.shard as usize] += 1;
            }
        }
        let fleet_lost = s.workers.iter().all(|w| !w.alive);
        let (mut completed, mut abandoned) = (0, 0);
        for (shard, &state) in s.shards.iter().enumerate() {
            assert_eq!(
                held[shard],
                u8::from(state == Shard::Running),
                "shard {shard}"
            );
            completed += u32::from(state == Shard::Completed);
            if state == Shard::Abandoned {
                abandoned += 1;
                assert!(fleet_lost || s.ops.attempts[shard] == cfg.max_attempts);
            }
        }
        if s.finished() {
            assert_eq!(completed + abandoned, SHARDS);
        }
        // 6. The counters agree with the state.
        let o = &s.ops;
        assert!(o.workers_spawned as usize <= cfg.workers + cfg.max_respawns as usize);
        assert_eq!(o.workers_spawned as usize, world.fleet.len());
        assert!(o.attempts.iter().all(|&a| a <= cfg.max_attempts));
        assert_eq!(
            (o.shards_completed, o.shards_abandoned),
            (completed, abandoned)
        );
        assert_eq!(
            o.workers_lost,
            world.deaths(),
            "every death is counted at once"
        );
    }

    /// Property 5: quiet ticks alone finish the drive, within `bound` of
    /// them. Distances are memoised per schedule state.
    fn quiet_finish(world: &World, memo: &mut HashMap<u128, u32>, bound: u32) -> u32 {
        let mut world = world.clone();
        let mut chain = Vec::new();
        let mut ticks = loop {
            if world.schedule.finished() {
                break 0;
            }
            let key = key(&world, true);
            if let Some(&ticks) = memo.get(&key) {
                break ticks;
            }
            chain.push(key);
            assert!(chain.len() as u32 <= bound, "quiet ticks never finish");
            world.schedule.step(&[]);
        };
        for key in chain.into_iter().rev() {
            ticks += 1;
            memo.insert(key, ticks);
        }
        assert!(
            ticks <= bound,
            "{ticks} quiet ticks to finish, bound {bound}"
        );
        ticks
    }

    /// Once the drive is finished the shell closes every inbox: each live
    /// worker either answers what it still holds and exits, or dies
    /// reading it. Whichever each chooses, the step over those late
    /// reports counts exactly the deaths, and acts on nothing.
    fn check_finish(world: &World, stats: &mut Stats) {
        let live: Vec<(u32, &ModelWorker)> =
            (0..).zip(&world.fleet).filter(|(_, m)| m.alive).collect();
        let holding = live.iter().any(|(_, m)| !m.inbox.is_empty());
        stats.unanswered_at_finish += usize::from(holding);
        for dies in 0u32..1 << live.len() {
            let mut late = Vec::new();
            let mut deaths = world.deaths();
            for (i, &(worker, m)) in live.iter().enumerate() {
                if dies & 1 << i != 0 && !m.inbox.is_empty() {
                    deaths += 1;
                } else {
                    late.extend(
                        m.inbox
                            .iter()
                            .map(|&(a, _)| report(worker, Report::GaveBack(a))),
                    );
                }
                late.push(report(worker, Report::Exited));
            }
            let mut s = world.schedule.clone();
            assert!(s.step(&late).is_empty(), "a finished drive acted");
            assert_eq!(s.ops.workers_lost, deaths, "a late death went uncounted");
        }
    }

    /// Every order of `n ≤ 3` reports.
    const ORDERS: [&[&[usize]]; 4] = [
        &[&[]],
        &[&[0]],
        &[&[0, 1], &[1, 0]],
        &[
            &[0, 1, 2],
            &[0, 2, 1],
            &[1, 0, 2],
            &[1, 2, 0],
            &[2, 0, 1],
            &[2, 1, 0],
        ],
    ];

    /// Every way one tick can go: each live worker with work stays
    /// silent, beats (while its lease stands), reports on its head
    /// assignment — `Done` or `GaveBack`, stale or not — or exits; the
    /// reports reach the channel in every order.
    fn successors(world: &World, cfg: &FabricConfig, mut visit: impl FnMut(World)) {
        let mut choices: Inline<(usize, Inline<Move, 5>), 3> =
            Inline::new((0, Inline::new(Move::Silent)));
        for (worker, m) in world.fleet.iter().enumerate() {
            let Some(&(head, revoked)) = m.inbox.first().filter(|_| m.alive) else {
                continue;
            };
            let mut moves = Inline::new(Move::Silent);
            moves.push(Move::Silent);
            if !revoked {
                moves.push(Move::Beat);
            }
            for report in [Report::Done(head), Report::GaveBack(head), Report::Exited] {
                moves.push(Move::Report(report));
            }
            choices.push((worker, moves));
        }
        let combos: usize = choices.iter().map(|(_, m)| m.len()).product();
        for combo in 0..combos {
            let mut rest = combo;
            let mut reports = Inline::new((0, Report::Exited));
            let mut beats: Inline<usize, 3> = Inline::new(0);
            for (worker, moves) in choices.iter() {
                match moves[rest % moves.len()] {
                    Move::Silent => {}
                    Move::Beat => beats.push(*worker),
                    Move::Report(r) => reports.push((*worker, r)),
                }
                rest /= moves.len();
            }
            let mut before = Inline::new(None);
            for slot in &world.schedule.workers {
                before.push(slot.running);
            }
            let mut tick = Tick {
                reports,
                beats,
                before,
            };
            for order in ORDERS[reports.len()] {
                let mut next = world.clone();
                let mut events: Inline<Event, 6> = Inline::new(Event::Beat(0, 0));
                for (slot, &i) in tick.reports.iter_mut().zip(*order) {
                    *slot = reports[i];
                    let (worker, r) = reports[i];
                    let m = &mut next.fleet[worker];
                    match r {
                        Report::Exited => m.alive = false,
                        _ => m.inbox.pop_front(),
                    }
                    events.push(Event::Report(worker as u32, r));
                }
                for &worker in beats.iter() {
                    let seen = next.schedule.workers[worker].beats_seen;
                    events.push(Event::Beat(worker as u32, seen + 1));
                }
                let actions = next.schedule.step(&events);
                execute(&mut next, &actions, &tick, cfg);
                // A completed shard has no next lease to wait for.
                for (last, &state) in next.last.iter_mut().zip(&next.schedule.shards) {
                    if state == Shard::Completed {
                        *last = None;
                    }
                }
                visit(next);
            }
        }
    }

    fn explore(cfg: &FabricConfig) -> Stats {
        let (schedule, actions) = Schedule::new(cfg, SHARDS, FabricOps::default());
        let mut world = World {
            schedule,
            fleet: Inline::new(NEW_WORKER),
            last: [None; SHARDS as usize],
            issued: 0,
        };
        execute(&mut world, &actions, &Tick::default(), cfg);
        check(&world, cfg);
        // Each shard runs at most `max_attempts` times; an attempt that
        // hears nothing expires after `lease_timeout_polls + 1` quiet
        // ticks and waits at most 8 rounds of backoff before the next.
        let bound = SHARDS * cfg.max_attempts * (cfg.lease_timeout_polls + 1 + 8);
        let mut stats = Stats::default();
        let mut memo = HashMap::new();
        let mut seen = Visited::default();
        seen.insert(key(&world, false));
        let mut stack = vec![world];
        while let Some(world) = stack.pop() {
            stats.states += 1;
            if world.schedule.finished() {
                stats.finished += 1;
                check_finish(&world, &mut stats);
                continue;
            }
            let quiet = quiet_finish(&world, &mut memo, bound);
            stats.longest_quiet_finish = stats.longest_quiet_finish.max(quiet);
            successors(&world, cfg, |next| {
                stats.transitions += 1;
                check(&next, cfg);
                if seen.insert(key(&next, false)) {
                    stack.push(next);
                }
            });
        }
        stats
    }

    /// Every configuration at one `lease_timeout_polls`. An unoptimised
    /// build (the workspace's plain `cargo test`) stops at two attempts;
    /// `cargo test --release -p scan-fabric` explores four as well, which
    /// holds most of the states.
    fn explore_all(lease_timeout_polls: u32) {
        let attempts: &[u32] = if cfg!(debug_assertions) {
            &[1, 2]
        } else {
            &[1, 2, 4]
        };
        let mut total = 0;
        for &max_attempts in attempts {
            for max_respawns in [0, 1] {
                let cfg = config(2, max_attempts, max_respawns, lease_timeout_polls);
                let stats = explore(&cfg);
                eprintln!(
                    "max_attempts {max_attempts} max_respawns {max_respawns} \
                     lease_timeout_polls {lease_timeout_polls}: {stats:?}"
                );
                assert!(stats.finished > 0);
                // The path behind the flake exists in every
                // configuration; `check_finish` counts its deaths.
                assert!(stats.unanswered_at_finish > 0);
                total += stats.states;
            }
        }
        eprintln!("lease_timeout_polls {lease_timeout_polls}: {total} states in all");
    }

    #[test]
    fn every_interleaving_is_safe_and_live_with_lease_timeout_polls_0() {
        explore_all(0);
    }

    #[test]
    fn every_interleaving_is_safe_and_live_with_lease_timeout_polls_1() {
        explore_all(1);
    }

    #[test]
    fn every_interleaving_is_safe_and_live_with_lease_timeout_polls_2() {
        explore_all(2);
    }
}
