//! The carry-over ledger: cache effects remembered across epochs.
//!
//! Every journaled [`ZoneEvent`](bootscan::ZoneEvent) carries the cache
//! inserts its zone scan performed ([`ZoneEffects`]). The ledger records
//! them stamped with the epoch that learned them; at the next epoch's
//! start, each entry is seeded into the fresh scanner with its
//! **remaining validity** — `(learn time + TTL) − now` in virtual time —
//! so a carried entry expires at exactly the same virtual instant it
//! would have in one continuous run. Expired entries are never seeded
//! (the lazy-eviction analog of the in-scanner expiry check), and
//! churn-invalidated entries are dropped the moment the churn log names
//! their zone cut. Within-epoch crash resume replays the same effects
//! with no expiry via
//! [`Recovery::apply_to`](scan_journal::Recovery::apply_to) — that path
//! must reproduce the interrupted epoch verbatim.

use bootscan::scanner::Scanner;
use bootscan::ZoneEffects;
use dns_wire::name::Name;
use netsim::SimMicros;

/// One ledger entry: the cache inserts of one zone event (its
/// [`ZoneEffects`]), the epoch that learned them and the **source zone**
/// whose scan made them. The source is what
/// makes the ledger distributable: the continuous service partitions
/// entries by the source zone's fabric shard, so a carried cache travels
/// with the shard that will re-scan its zone.
#[derive(Debug, Clone)]
struct CarriedEntry {
    epoch: u32,
    source: Name,
    inserts: ZoneEffects,
}

/// Cache inserts in one event's effects.
fn insert_count(effects: &ZoneEffects) -> usize {
    effects.key_inserts.len() + effects.addr_inserts.len() + effects.referral_inserts.len()
}

/// Cache inserts carried across epochs, in journal order, each stamped
/// with the epoch that learned it and the zone whose scan learned it.
#[derive(Debug, Clone, Default)]
pub struct CarryLedger {
    entries: Vec<CarriedEntry>,
}

impl CarryLedger {
    pub fn new() -> Self {
        CarryLedger::default()
    }

    /// Number of live cache inserts.
    pub fn len(&self) -> usize {
        self.entries.iter().map(|e| insert_count(&e.inserts)).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record one zone event's cache effects, learned during `epoch` by
    /// the scan of `source`. Order matters: seeding replays entries in
    /// absorption order, so later inserts overwrite earlier ones exactly
    /// as the live caches did.
    pub fn absorb(&mut self, epoch: u32, source: &Name, effects: &ZoneEffects) {
        if insert_count(effects) > 0 {
            self.entries.push(CarriedEntry {
                epoch,
                source: source.clone(),
                inserts: effects.clone(),
            });
        }
    }

    /// Partition the ledger by the fabric shard of each entry's source
    /// zone (`shard_of`, the same fnv64 bucketing `ShardPlan` uses).
    /// Entry order is preserved within each partition, so seeding a
    /// partition replays its inserts in the original journal order. The
    /// evidence plane never reads carried caches (they shape cost, not
    /// classification), so distribution cannot change any zone's record.
    pub fn partition(&self, shards: u32) -> Vec<CarryLedger> {
        let mut parts = vec![CarryLedger::new(); shards.max(1) as usize];
        for entry in &self.entries {
            let shard = dns_ecosystem::shard_of(&entry.source, shards) as usize;
            if let Some(part) = parts.get_mut(shard) {
                part.entries.push(entry.clone());
            }
        }
        parts
    }

    /// Drop every insert at or below one of the churn-invalidated zone
    /// cuts. Called before an epoch's scan with that epoch's
    /// [`ChurnLog::invalidated_cuts`](dns_ecosystem::ChurnLog) — a
    /// churned zone's keys and referral must never be consulted again,
    /// no matter how much validity they had left.
    pub fn invalidate(&mut self, cuts: &[Name]) {
        if cuts.is_empty() {
            return;
        }
        let live = |name: &Name| !cuts.iter().any(|c| name.is_subdomain_of(c));
        self.entries.retain_mut(|e| {
            e.inserts.key_inserts.retain(|(n, _)| live(n));
            e.inserts.addr_inserts.retain(|(n, _)| live(n));
            e.inserts.referral_inserts.retain(|(n, _)| live(n));
            insert_count(&e.inserts) > 0
        });
    }

    /// Drop entries already expired at virtual time `now` (epoch start).
    /// Seeding skips them anyway; pruning keeps the ledger from growing
    /// without bound over long studies.
    pub fn prune_expired(&mut self, now: SimMicros, ttl: SimMicros, spacing: SimMicros) {
        self.entries.retain(|e| {
            let learned = (e.epoch as SimMicros).saturating_mul(spacing);
            learned.saturating_add(ttl) > now
        });
    }

    /// Seed every still-valid entry into a fresh scanner for the epoch
    /// starting at virtual time `now`, through the same
    /// [`Scanner::seed_effects`] walk journal replay uses. The entry's
    /// expiry is translated into the scanner's local clock (which starts
    /// each epoch at 0): `remaining = (learn time + TTL) − now`. Entries
    /// with no validity left are skipped — never consulted, exactly like
    /// an in-scanner expired entry.
    pub fn seed_into(&self, scanner: &Scanner, now: SimMicros, ttl: SimMicros, spacing: SimMicros) {
        for entry in &self.entries {
            let learned = (entry.epoch as SimMicros).saturating_mul(spacing);
            let expires_at_world = learned.saturating_add(ttl);
            if let Some(remaining) = expires_at_world.checked_sub(now).filter(|r| *r > 0) {
                scanner.seed_effects(&entry.inserts, remaining);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_resolver::ReferralData;
    use std::sync::Arc;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn effects(zone: &str) -> ZoneEffects {
        let referral = ReferralData {
            parent_apex: name("example"),
            ns_names: Vec::new(),
            ds: None,
            ds_rrsigs: Vec::new(),
            child_servers: Vec::new(),
            parent_servers: Vec::new(),
        };
        ZoneEffects {
            key_inserts: vec![(name(zone), Arc::default())],
            addr_inserts: Vec::new(),
            referral_inserts: vec![(name(zone), Arc::new(referral))],
        }
    }

    #[test]
    fn invalidation_drops_at_and_below_cut() {
        let mut ledger = CarryLedger::new();
        ledger.absorb(0, &name("a.example"), &effects("a.example"));
        ledger.absorb(0, &name("sub.a.example"), &effects("sub.a.example"));
        ledger.absorb(0, &name("b.example"), &effects("b.example"));
        assert_eq!(ledger.len(), 6);
        ledger.invalidate(&[name("a.example")]);
        assert_eq!(ledger.len(), 2, "a.example and its subdomain dropped");
        ledger.invalidate(&[]);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn pruning_respects_remaining_validity() {
        let spacing = 1_800_000_000; // 30 min
        let ttl = 3_600_000_000; // 1 h
        let mut ledger = CarryLedger::new();
        ledger.absorb(0, &name("a.example"), &effects("a.example"));
        ledger.absorb(1, &name("b.example"), &effects("b.example"));
        // At epoch 2's start (t = 2·spacing = TTL), epoch-0 entries have
        // exactly zero validity left — expired, pruned; epoch-1 entries
        // have half a TTL left.
        ledger.prune_expired(2 * spacing, ttl, spacing);
        assert_eq!(ledger.len(), 2);
        ledger.prune_expired(3 * spacing, ttl, spacing);
        assert_eq!(ledger.len(), 0);
    }

    #[test]
    fn partition_routes_entries_by_source_shard_preserving_order() {
        let shards = 4;
        let sources = ["a.example", "b.example", "c.example", "d.example"];
        let mut ledger = CarryLedger::new();
        for s in sources {
            ledger.absorb(0, &name(s), &effects(s));
        }
        let parts = ledger.partition(shards);
        assert_eq!(parts.len(), shards as usize);
        assert_eq!(
            parts.iter().map(CarryLedger::len).sum::<usize>(),
            ledger.len(),
            "partitioning never drops an entry"
        );
        for s in sources {
            let source = name(s);
            let home = dns_ecosystem::shard_of(&source, shards) as usize;
            for (k, part) in parts.iter().enumerate() {
                let here: usize = part
                    .entries
                    .iter()
                    .filter(|e| e.source == source)
                    .map(|e| insert_count(&e.inserts))
                    .sum();
                assert_eq!(here, if k == home { 2 } else { 0 }, "{s} in shard {k}");
            }
        }
        // Within a partition, absorption order is preserved.
        for part in &parts {
            let mut idx = Vec::new();
            for e in &part.entries {
                idx.push(sources.iter().position(|s| name(s) == e.source).unwrap());
            }
            let mut sorted = idx.clone();
            sorted.sort_unstable();
            assert_eq!(idx, sorted);
        }
    }
}
