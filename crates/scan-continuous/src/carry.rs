//! Where a shard's carried caches come from: its own earlier journals.
//!
//! The coordinator holds no carried insert. [`CarrySources`] keeps, for
//! each admitted epoch whose inserts can still be valid, the header of
//! each of its shard journals, and each later epoch's invalidated cuts.
//! Shard k's scanner factory rebuilds shard k's carry ledger from these
//! ([`CarrySources::ledger`]): for each kept epoch x in order, the cuts
//! of the epochs up to x, then every event of journal (x, k); then the
//! cuts of the epochs after the last. That is, entry for entry, what
//! [`CarryLedger::partition`] of the whole ledger gives shard k, were
//! the coordinator to keep one (`invalidate` each epoch's cuts,
//! `prune_expired` at each admitted start, `absorb` each admitted epoch
//! shard-major): `partition` routes an entry by `shard_of(source)`, the
//! bucketing `ShardPlan` uses, so every entry of journal (x, k) is shard
//! k's; within a part the order is epoch, then journal order; and an
//! epoch's journals are forgotten by `prune_expired`'s own rule.
//!
//! At most one rebuilt ledger per worker is alive at a time, each only
//! until its scanner is seeded.

use dns_wire::name::Name;
use netsim::SimMicros;
use scan_epochs::CarryLedger;
use scan_fabric::ShardPlan;
use scan_journal::{for_each_recovered, JournalHeader, Namespace};
use std::io;

/// Which journals hold carried inserts, and which churn cuts killed
/// some since — not the inserts themselves.
pub(crate) struct CarrySources {
    /// The study's namespace: epoch x's shard k journals under
    /// `root.epoch(x).shard(k)`.
    root: Namespace,
    /// Admitted epochs whose inserts can still be valid, oldest first,
    /// each with its shard journals' headers in shard order.
    journals: Vec<(u32, Vec<JournalHeader>)>,
    /// Each epoch's invalidated cuts, for the epochs after the oldest
    /// kept journal's: no earlier cut can reach a kept insert.
    cuts: Vec<(u32, Vec<Name>)>,
}

impl CarrySources {
    pub(crate) fn new(root: Namespace) -> Self {
        CarrySources {
            root,
            journals: Vec::new(),
            cuts: Vec::new(),
        }
    }

    /// Epoch `epoch`'s churn invalidated `cuts`, admitted or not. They
    /// reach only inserts learned before `epoch`.
    pub(crate) fn churned(&mut self, epoch: u32, cuts: Vec<Name>) {
        if !self.journals.is_empty() && !cuts.is_empty() {
            self.cuts.push((epoch, cuts));
        }
    }

    /// Forget the epochs whose inserts have all expired at `now` (an
    /// admitted epoch's start) — [`CarryLedger::prune_expired`]'s rule —
    /// and the cuts no kept insert is older than.
    pub(crate) fn prune(&mut self, now: SimMicros, ttl: SimMicros, spacing: SimMicros) {
        self.journals.retain(|(epoch, _)| {
            let learned = (*epoch as SimMicros).saturating_mul(spacing);
            learned.saturating_add(ttl) > now
        });
        let oldest = self.journals.first().map(|(epoch, _)| *epoch);
        self.cuts
            .retain(|(epoch, _)| oldest.is_some_and(|o| *epoch > o));
    }

    /// Epoch `epoch` folded under `plan`: its shard journals hold
    /// carried inserts from now on.
    pub(crate) fn admitted(&mut self, epoch: u32, plan: &ShardPlan) {
        let ns = self.root.epoch(epoch);
        let headers = (0..plan.shards())
            .map(|k| ns.shard(k).header(plan.zones(k)))
            .collect();
        self.journals.push((epoch, headers));
    }

    /// Shard `shard`'s carry ledger, rebuilt from its own journals one
    /// decoded event at a time. A journal that cannot be read is an
    /// error, never a ledger with fewer inserts.
    pub(crate) fn ledger(&self, shard: u32) -> io::Result<CarryLedger> {
        let mut ledger = CarryLedger::new();
        let mut cuts = self.cuts.iter().peekable();
        for (epoch, headers) in &self.journals {
            while let Some((_, dead)) = cuts.next_if(|(at, _)| at <= epoch) {
                ledger.invalidate(dead);
            }
            let Some(&header) = headers.get(shard as usize) else {
                continue;
            };
            let ns = self.root.epoch(*epoch).shard(shard);
            for_each_recovered(ns.dir(), header, |event| {
                ledger.absorb(*epoch, &event.scan.name, &event.effects)
            })?;
        }
        for (_, dead) in cuts {
            ledger.invalidate(dead);
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_continuous, Admission, ContinuousConfig, ContinuousOutput};
    use bootscan::ScanPolicy;
    use dns_ecosystem::{apply_churn, build, ChurnPlan, EcosystemConfig};
    use scan_fabric::{FabricConfig, FabricFaultPlan, WorkerFault};
    use scan_journal::recover;
    use std::time::Duration;

    const SHARDS: u32 = 8;

    fn config(epochs: u32, spacing: SimMicros) -> ContinuousConfig {
        let mut cfg = ContinuousConfig::new(epochs, 7);
        cfg.run_id = 0xCA_0001;
        cfg.epoch_spacing = spacing;
        cfg.fabric = FabricConfig {
            workers: 2,
            shards: SHARDS,
            lease_timeout_polls: 25,
            poll_wait: Duration::from_millis(2),
            ..FabricConfig::default()
        };
        cfg
    }

    /// Run `cfg`'s study into a fresh root, then replay it the old way
    /// beside the new: one whole ledger that `invalidate`s every epoch's
    /// cuts, `prune_expired`s at every admitted start and `absorb`s every
    /// admitted epoch's journals shard-major, against the
    /// [`CarrySources`] `run_continuous` keeps. At every admitted epoch ≥ 1,
    /// each shard's rebuilt ledger must equal, entry for entry, that
    /// shard's part of the whole ledger's `partition`. Returns the study
    /// and the carried inserts compared, the inserts churn invalidated
    /// and the ones pruning dropped.
    fn rebuilt_equals_partitioned(
        tag: &str,
        cfg: &ContinuousConfig,
    ) -> (ContinuousOutput, [usize; 3]) {
        let world = EcosystemConfig::tiny(42);
        let root = std::env::temp_dir().join(format!("carry-oracle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let out = run_continuous(world.clone(), ScanPolicy::default(), cfg, &root).unwrap();

        let ns = Namespace::root(&root, cfg.run_id);
        let mut eco = build(world);
        let mut carry = CarrySources::new(ns.clone());
        let mut whole = CarryLedger::new();
        let (mut compared, mut invalidated, mut pruned) = (0, 0, 0);
        for d in &out.decisions {
            let cuts = if d.epoch == 0 {
                Vec::new()
            } else {
                let plan = ChurnPlan::generate(&eco, &cfg.churn, cfg.churn_seed, d.epoch);
                apply_churn(&mut eco, &plan).invalidated_cuts
            };
            let before = whole.len();
            whole.invalidate(&cuts);
            invalidated += before - whole.len();
            carry.churned(d.epoch, cuts);
            let Admission::Pipeline { start, .. } = d.admission else {
                continue;
            };
            let before = whole.len();
            whole.prune_expired(start, cfg.cache_ttl, cfg.epoch_spacing);
            pruned += before - whole.len();
            carry.prune(start, cfg.cache_ttl, cfg.epoch_spacing);
            if d.epoch > 0 {
                for (k, part) in (0..SHARDS).zip(whole.partition(SHARDS)) {
                    let rebuilt = carry.ledger(k).unwrap();
                    assert_eq!(rebuilt, part, "{tag}: epoch {} shard {k}", d.epoch);
                    compared += rebuilt.len();
                }
            }
            let report = out.series.epochs.iter().find(|e| e.epoch == d.epoch);
            let report = report.expect("an admitted epoch is reported");
            let mut delta: Vec<Name> = report.fresh.iter().chain(&report.stale).cloned().collect();
            delta.sort_by(|a, b| a.canonical_cmp(b));
            let plan = ShardPlan::new(&delta, SHARDS);
            for k in 0..SHARDS {
                let shard = ns.epoch(d.epoch).shard(k);
                let recovery = recover(shard.dir(), shard.header(plan.zones(k))).unwrap();
                for (_, event) in &recovery.events {
                    whole.absorb(d.epoch, &event.scan.name, &event.effects);
                }
            }
            carry.admitted(d.epoch, &plan);
        }
        let _ = std::fs::remove_dir_all(&root);
        (out, [compared, invalidated, pruned])
    }

    /// The calibrated schedule of the cost gate — arrivals every third
    /// of epoch 0's makespan at depth 1, so one epoch is pipelined and
    /// one coalesced — with every attempt of one epoch-0 shard killed
    /// after its first event, so the shard is abandoned with a partial
    /// journal whose inserts carry.
    #[test]
    fn rebuilt_ledgers_equal_the_whole_ledgers_partition() {
        let probe = std::env::temp_dir().join(format!("carry-oracle-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&probe);
        let world = EcosystemConfig::tiny(42);
        let one = run_continuous(
            world,
            ScanPolicy::default(),
            &config(1, 86_400_000_000),
            &probe,
        );
        let makespan0 = one.unwrap().series.epochs[0].simulated_duration;
        let _ = std::fs::remove_dir_all(&probe);

        let mut cfg = config(5, (makespan0 / 3).max(1));
        cfg.max_pipeline_depth = 1;
        let kills = (0..cfg.fabric.max_attempts).fold(FabricFaultPlan::none(), |p, attempt| {
            p.with_fault(3, attempt, WorkerFault::Kill { at_event: 1 })
        });
        cfg.epoch_faults.insert(0, kills);
        let (out, [compared, invalidated, _]) = rebuilt_equals_partitioned("calibrated", &cfg);
        assert!(compared > 0, "nothing carried");
        assert!(invalidated > 0, "no carried insert met a churned cut");
        let pipelined = out.decisions.iter().any(|d| match d.admission {
            Admission::Pipeline { start, .. } => start > d.arrival,
            Admission::Coalesce { .. } => false,
        });
        assert!(pipelined, "none pipelined");
        assert!(!out.series.skipped.is_empty(), "none coalesced");
        assert!(
            !out.series.epochs[0].stale.is_empty(),
            "shard 3 not abandoned"
        );
    }

    /// Arrivals 40 virtual minutes apart under a one-hour cache TTL: each
    /// epoch's inserts expire two epochs later, so pruning drops journals.
    #[test]
    fn rebuilt_ledgers_forget_expired_epochs_like_the_whole_ledger() {
        let (_, [compared, _, pruned]) =
            rebuilt_equals_partitioned("expiring", &config(5, 2_400_000_000));
        assert!(compared > 0, "nothing carried");
        assert!(pruned > 0, "nothing expired");
    }
}
