//! Seeded fabric fault plans, mirroring netsim's chaos discipline:
//! every failure a test injects is a pure function of the plan, so a
//! failing seed reproduces exactly.
//!
//! Faults are keyed by **(shard, attempt)**, not by worker: which
//! worker picks up a given (shard, attempt) depends on scheduling, but
//! the fault must not. A `Kill { at_event: 3 }` on (shard 2, attempt 0)
//! kills *whoever* is scanning shard 2's first attempt right before it
//! journals its 4th event — and attempt 1, on whatever worker steals
//! the shard, proceeds from the journal those 3 events left behind.

use netsim::DeterministicDraw;
use std::collections::{BTreeMap, BTreeSet};

/// One injected worker failure, scoped to a (shard, attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Die (simulated SIGKILL: the thread exits, its exit report goes
    /// out) immediately before journaling event number `at_event` of
    /// this attempt.
    Kill { at_event: u64 },
    /// Journal event `at_event`, force a checkpoint, corrupt the
    /// checkpoint the way a power cut does (the file truncated to zero
    /// length), then die. Exercises recovery's fallback to the journal
    /// alone.
    KillDuringCheckpoint { at_event: u64 },
    /// Complete the shard scan and its journal, then die *before*
    /// reporting the shard done — the merge-handoff kill. The next
    /// attempt recovers a complete journal and re-reports instantly.
    KillBeforeHandoff,
    /// Hang (hold the shard without progress) right before journaling
    /// event `at_event`, until the coordinator revokes the lease; then
    /// die. Exercises heartbeat/lease expiry and write fencing.
    Stall { at_event: u64 },
    /// Finish, but yield the CPU between events — a slow worker that
    /// must NOT be treated as dead while it heartbeats.
    SlowDrain,
}

/// The full failure schedule for one fabric run.
#[derive(Debug, Clone, Default)]
pub struct FabricFaultPlan {
    /// Workers that die the moment they receive their first assignment
    /// (permanently dead: their shards must be stolen by survivors).
    dead_workers: BTreeSet<u32>,
    faults: BTreeMap<(u32, u32), WorkerFault>,
}

impl FabricFaultPlan {
    /// No failures.
    pub fn none() -> FabricFaultPlan {
        FabricFaultPlan::default()
    }

    /// Mark `worker` permanently dead (dies on first assignment).
    pub fn kill_worker(mut self, worker: u32) -> FabricFaultPlan {
        self.dead_workers.insert(worker);
        self
    }

    /// Inject `fault` into attempt `attempt` of `shard`.
    pub fn with_fault(mut self, shard: u32, attempt: u32, fault: WorkerFault) -> FabricFaultPlan {
        self.faults.insert((shard, attempt), fault);
        self
    }

    /// A reproducible random-looking plan: roughly half the shards get
    /// a first-attempt fault drawn from the full fault menu, with kill
    /// points spread over `0..max_event`.
    pub fn seeded(seed: u64, shards: u32, max_event: u64) -> FabricFaultPlan {
        let mut plan = FabricFaultPlan::default();
        for shard in 0..shards {
            let d = DeterministicDraw::new(seed, &[b"fabric-fault", &shard.to_le_bytes()]);
            if d.unit() >= 0.5 {
                continue;
            }
            let kind = DeterministicDraw::new(seed, &[b"fabric-kind", &shard.to_le_bytes()]);
            let at = DeterministicDraw::new(seed, &[b"fabric-at", &shard.to_le_bytes()])
                .below(max_event.max(1));
            let fault = match kind.below(4) {
                0 => WorkerFault::Kill { at_event: at },
                1 => WorkerFault::KillDuringCheckpoint { at_event: at },
                2 => WorkerFault::KillBeforeHandoff,
                _ => WorkerFault::SlowDrain,
            };
            plan.faults.insert((shard, 0), fault);
        }
        plan
    }

    /// Is `worker` scheduled to die on first assignment?
    pub fn worker_dead(&self, worker: u32) -> bool {
        self.dead_workers.contains(&worker)
    }

    /// The fault injected into (shard, attempt), if any.
    pub fn fault_for(&self, shard: u32, attempt: u32) -> Option<WorkerFault> {
        self.faults.get(&(shard, attempt)).copied()
    }

    /// Total injected faults (for test assertions on plan shape).
    pub fn injected(&self) -> usize {
        self.faults.len() + self.dead_workers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FabricFaultPlan::seeded(1, 16, 40);
        let b = FabricFaultPlan::seeded(1, 16, 40);
        for shard in 0..16 {
            assert_eq!(a.fault_for(shard, 0), b.fault_for(shard, 0));
        }
        let c = FabricFaultPlan::seeded(2, 16, 40);
        let differs = (0..16).any(|s| a.fault_for(s, 0) != c.fault_for(s, 0));
        assert!(differs, "different seeds should draw different plans");
        assert!(a.injected() > 0, "16 shards at p=0.5 should fault some");
    }

    #[test]
    fn faults_key_on_shard_and_attempt() {
        let plan = FabricFaultPlan::none()
            .with_fault(3, 0, WorkerFault::Kill { at_event: 5 })
            .with_fault(3, 1, WorkerFault::KillBeforeHandoff)
            .kill_worker(2);
        assert_eq!(
            plan.fault_for(3, 0),
            Some(WorkerFault::Kill { at_event: 5 })
        );
        assert_eq!(plan.fault_for(3, 1), Some(WorkerFault::KillBeforeHandoff));
        assert_eq!(plan.fault_for(3, 2), None);
        assert_eq!(plan.fault_for(4, 0), None);
        assert!(plan.worker_dead(2));
        assert!(!plan.worker_dead(0));
        assert_eq!(plan.injected(), 3);
    }
}
