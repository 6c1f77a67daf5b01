//! The carry-over ledger: cache effects remembered across epochs.
//!
//! Every journaled [`ZoneEvent`](bootscan::ZoneEvent) carries the cache
//! inserts its zone scan performed ([`ZoneEffects`]: one list in the
//! order they were made, each insert keyed by a name whatever cache it
//! went into). The ledger records them stamped with the epoch that
//! learned them; at a later epoch's start, each entry is seeded into
//! the fresh scanner with its **remaining validity** —
//! `(epoch × spacing + TTL) − now` in virtual time. That is an
//! approximation of one continuous run, not a replay of it: an insert is
//! dated to its epoch's scheduled arrival, not to the instant its scan
//! made it, and the scanner compares the expiry against each zone's own
//! probe clock, which starts at 0 for every zone, so a carried entry
//! stays valid for `remaining` of every later zone's scan rather than
//! up to one study-wide instant. Expired entries are never seeded (the
//! lazy-eviction analog of the in-scanner expiry check), and
//! churn-invalidated entries are dropped the moment the churn log names
//! their zone cut. Within-epoch crash resume replays the same effects
//! with no expiry via
//! [`Recovery::apply_to`](scan_journal::Recovery::apply_to) — that path
//! must reproduce the interrupted epoch verbatim.
//!
//! `run_continuous` holds no ledger between epochs: the journals
//! are the ledger's record. Each shard's scanner factory rebuilds its
//! shard's ledger from its own earlier journals — `invalidate` each
//! epoch's cuts and `absorb` that epoch's journal, in epoch order, then
//! `prune_expired` — which yields, entry for entry, what
//! [`CarryLedger::partition`] of a whole ledger built the same way would
//! give that shard.

use bootscan::scanner::Scanner;
use bootscan::ZoneEffects;
use dns_wire::name::Name;
use netsim::SimMicros;

/// One ledger entry: the cache inserts of one zone event (its
/// [`ZoneEffects`]), the epoch that learned them and the **source zone**
/// whose scan made them. The source is what makes the ledger
/// distributable: an entry belongs to the source zone's fabric shard —
/// the shard whose journal holds it — so a carried cache travels with
/// the shard that will re-scan its zone.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CarriedEntry {
    epoch: u32,
    source: Name,
    inserts: ZoneEffects,
}

/// Cache inserts carried across epochs, in journal order, each stamped
/// with the epoch that learned it and the zone whose scan learned it.
/// Two ledgers are equal when they hold the same entries in the same
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CarryLedger {
    entries: Vec<CarriedEntry>,
}

impl CarryLedger {
    pub fn new() -> Self {
        CarryLedger::default()
    }

    /// Number of live cache inserts.
    pub fn len(&self) -> usize {
        self.entries.iter().map(|e| e.inserts.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry in absorption order: the epoch that learned it, the
    /// zone whose scan made it, and its inserts.
    pub fn entries(&self) -> impl Iterator<Item = (u32, &Name, &ZoneEffects)> {
        self.entries
            .iter()
            .map(|e| (e.epoch, &e.source, &e.inserts))
    }

    /// Record one zone event's cache effects, learned during `epoch` by
    /// the scan of `source`. Order matters: seeding replays entries in
    /// absorption order, so later inserts overwrite earlier ones exactly
    /// as the live caches did.
    pub fn absorb(&mut self, epoch: u32, source: &Name, effects: &ZoneEffects) {
        if !effects.is_empty() {
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
    /// `run_continuous` does not call it: each shard rebuilds its
    /// part from its own journals. It states what that part is.
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

    /// Drop every insert keyed at or below one of the churn-invalidated
    /// zone cuts, whichever cache it is for. Called before an epoch's scan with that epoch's
    /// [`ChurnLog::invalidated_cuts`](dns_ecosystem::ChurnLog) — a
    /// churned zone's keys and referral must never be consulted again,
    /// no matter how much validity they had left. A name is dead when it
    /// or one of its ancestors is a cut: one binary search per label of
    /// the name, not one comparison per cut.
    pub fn invalidate(&mut self, cuts: &[Name]) {
        if cuts.is_empty() {
            return;
        }
        let mut cuts = cuts.to_vec();
        cuts.sort_unstable();
        let live = |name: &Name| {
            !std::iter::successors(Some(name.clone()), Name::parent)
                .any(|a| cuts.binary_search(&a).is_ok())
        };
        self.entries.retain_mut(|e| {
            e.inserts.retain(|(n, _)| live(n));
            !e.inserts.is_empty()
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
    /// expiry is `remaining = (epoch × spacing + TTL) − now`, which the
    /// scanner reads against each zone's probe clock (it starts at 0 for
    /// every zone). Entries with no validity left are skipped — never
    /// consulted, exactly like an in-scanner expired entry.
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
    use dns_resolver::{CacheInsert, CutOutcome, ReferralData};
    use std::sync::Arc;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn effects(zone: &str) -> ZoneEffects {
        effects_at(&name(zone))
    }

    fn effects_at(zone: &Name) -> ZoneEffects {
        let referral = ReferralData {
            parent_apex: name("example"),
            ns_names: Vec::new(),
            ds: None,
            ds_rrsigs: Vec::new(),
            child_servers: Vec::new(),
        };
        let label = zone.prepend_label(b"_signal").unwrap();
        let outcome = CutOutcome {
            apex: zone.clone(),
            has_ns: false,
        };
        vec![
            (zone.clone(), CacheInsert::Keys(Arc::default())),
            (zone.clone(), CacheInsert::Referral(Arc::new(referral))),
            (label, CacheInsert::Cut(outcome)),
        ]
    }

    #[test]
    fn invalidation_drops_at_and_below_cut() {
        let mut ledger = CarryLedger::new();
        ledger.absorb(0, &name("a.example"), &effects("a.example"));
        ledger.absorb(0, &name("sub.a.example"), &effects("sub.a.example"));
        ledger.absorb(0, &name("b.example"), &effects("b.example"));
        assert_eq!(ledger.len(), 9);
        ledger.invalidate(&[name("a.example")]);
        assert_eq!(ledger.len(), 3, "a.example and its subdomain dropped");
        ledger.invalidate(&[]);
        assert_eq!(ledger.len(), 3);
    }

    /// The ancestor walk keeps the plain rule — a name dies when it is at
    /// or below any cut — over every name of up to three labels drawn
    /// from look-alike labels (`xcom.` beside `com.`, `ab.` beside `a.`),
    /// against the root, cuts equal to carried names, cuts below them
    /// and generated cut sets.
    #[test]
    fn invalidation_matches_the_subdomain_rule() {
        let mut names = vec![Name::root()];
        let mut level = names.clone();
        for _ in 0..3 {
            level = level
                .iter()
                .flat_map(|n| ["com", "xcom", "a", "ab"].map(|l| n.prepend_label(l.as_bytes())))
                .map(Result::unwrap)
                .collect();
            names.extend(level.iter().cloned());
        }
        let mut cut_sets = vec![
            vec![Name::root()],
            vec![name("com")],
            vec![name("xcom")],
            vec![name("a.com"), name("ab.xcom")],
            vec![name("com.a.com"), name("com"), name("com")],
        ];
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let k = 1 + (x >> 62) as usize;
            let pick = |i: usize| names[(x >> (i * 12)) as usize % names.len()].clone();
            cut_sets.push((0..k).map(pick).collect());
        }
        for cuts in &cut_sets {
            let mut ledger = CarryLedger::new();
            for n in &names {
                ledger.absorb(0, n, &effects_at(n));
            }
            ledger.invalidate(cuts);
            let kept: Vec<&Name> = ledger.entries.iter().map(|e| &e.source).collect();
            let oracle: Vec<&Name> = names
                .iter()
                .filter(|n| !cuts.iter().any(|c| n.is_subdomain_of(c)))
                .collect();
            assert_eq!(kept, oracle, "cuts {cuts:?}");
        }
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
        assert_eq!(ledger.len(), 3);
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
                    .map(|e| e.inserts.len())
                    .sum();
                assert_eq!(here, if k == home { 3 } else { 0 }, "{s} in shard {k}");
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
