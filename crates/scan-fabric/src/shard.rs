//! Zone-space partitioning: the deterministic shard plan the
//! coordinator dispatches from.
//!
//! Shard assignment is [`dns_ecosystem::seeds::shard_of`] — FNV-1a 64
//! of the canonical wire name mod the shard count — so the partition is a
//! pure function of the seed list and the shard count: independent of
//! worker count, assignment order, and fault history. Within a shard,
//! zones are kept in canonical name order, matching the order
//! `scan_all` sorts its results into.

use dns_ecosystem::seeds::shard_of;
use dns_wire::name::Name;

/// The full partition of a seed list into shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<Vec<Name>>,
    total: usize,
}

impl ShardPlan {
    /// Partition `seeds` into `shards` buckets. Duplicate names are
    /// kept (the compiled seed list is already deduplicated upstream);
    /// every name lands in exactly one bucket.
    pub fn new(seeds: &[Name], shards: u32) -> ShardPlan {
        let shards = shards.max(1);
        let mut buckets: Vec<Vec<Name>> = vec![Vec::new(); shards as usize];
        for name in seeds {
            if let Some(bucket) = buckets.get_mut(shard_of(name, shards) as usize) {
                bucket.push(name.clone());
            }
        }
        for bucket in &mut buckets {
            bucket.sort_by(|a, b| a.canonical_cmp(b));
        }
        ShardPlan {
            total: seeds.len(),
            shards: buckets,
        }
    }

    /// Number of shards (≥ 1).
    pub fn shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The zones of shard `k`, in canonical name order. Out-of-range
    /// shards are empty.
    pub fn zones(&self, k: u32) -> &[Name] {
        self.shards
            .get(k as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total zones across all shards.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Size of the largest shard — the bound on how much evidence the
    /// streaming merge may ever hold at once.
    pub fn largest_shard(&self) -> usize {
        self.shards.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;

    fn seeds(n: usize) -> Vec<Name> {
        (0..n).map(|i| name!(&format!("z{i}.example"))).collect()
    }

    #[test]
    fn plan_partitions_totally_and_stably() {
        let s = seeds(100);
        let plan = ShardPlan::new(&s, 8);
        assert_eq!(plan.shards(), 8);
        assert_eq!(plan.total(), 100);
        let flat: usize = (0..8).map(|k| plan.zones(k).len()).sum();
        assert_eq!(flat, 100, "every zone in exactly one shard");
        // Stable: rebuilding gives identical buckets.
        let again = ShardPlan::new(&s, 8);
        for k in 0..8 {
            assert_eq!(plan.zones(k), again.zones(k));
        }
        // Assignment agrees with shard_of.
        for k in 0..8 {
            for z in plan.zones(k) {
                assert_eq!(shard_of(z, 8), k);
            }
        }
    }

    #[test]
    fn zones_are_canonically_ordered_within_a_shard() {
        let plan = ShardPlan::new(&seeds(50), 4);
        for k in 0..4 {
            let zs = plan.zones(k);
            for w in zs.windows(2) {
                assert!(w[0].canonical_cmp(&w[1]) == std::cmp::Ordering::Less);
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let plan = ShardPlan::new(&seeds(5), 0);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.zones(0).len(), 5);
        assert_eq!(plan.largest_shard(), 5);
    }
}
