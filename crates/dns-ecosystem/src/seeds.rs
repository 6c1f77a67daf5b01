//! Seed-source synthesis (paper §3 "Domains").
//!
//! The paper compiles its 287.6 M-zone target list from: (i) top lists
//! (Tranco, Majestic, Umbrella, Radar), (ii) CZDS gTLD zone files,
//! (iii) AXFR ccTLDs (.ch, .li, .se, .nu, .ee), (iv) privately arranged
//! zone files (.uk, .sk), and (v) OpenINTEL CT-log-derived lists for
//! ccTLDs without zone file access (.de, .nl — §3.1: between 43 % and
//! 80 % coverage). Zones whose NSes are all in-domain are excluded.
//!
//! This module reproduces that structure over the generated ground truth,
//! so the scanner's seed-compilation step (union → PSL filter →
//! in-domain exclusion) does real work.

use crate::psl::PublicSuffixList;
use crate::truth::ZoneTruth;
use dns_wire::name::Name;
use netsim::DeterministicDraw;
use std::collections::{BTreeMap, BTreeSet};

/// One zone-file entry: zone files carry NS information, so the
/// all-in-domain exclusion can be applied pre-scan (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedEntry {
    pub name: Name,
    pub all_in_domain_ns: bool,
}

/// The synthesized seed sources.
#[derive(Debug, Clone, Default)]
pub struct SeedLists {
    /// Full zone files per suffix (CZDS gTLDs, AXFR and private ccTLDs).
    pub zone_files: BTreeMap<Name, Vec<SeedEntry>>,
    /// Four overlapping top lists (Tranco/Majestic/Umbrella/Radar-like).
    pub top_lists: Vec<Vec<Name>>,
    /// CT-log-derived partial lists for suffixes without zone files.
    pub ct_logs: BTreeMap<Name, Vec<Name>>,
}

/// Suffixes covered only via CT logs in the paper (.de, .nl).
fn ct_only(suffix: &Name) -> bool {
    let s = suffix.to_string_fqdn();
    s == "de." || s == "nl."
}

impl SeedLists {
    /// Synthesize seed lists from the ground truth.
    pub fn generate(truths: &[ZoneTruth], psl: &PublicSuffixList, seed: u64) -> SeedLists {
        let mut lists = SeedLists::default();
        for t in truths {
            let Some(suffix) = psl.suffix_of(&t.name) else {
                continue;
            };
            if ct_only(&suffix) {
                // CT coverage between 43 % and 80 %, varying per suffix
                // (§3.1); deterministic per (seed, suffix).
                let cov =
                    0.43 + 0.37 * DeterministicDraw::new(seed, &[b"cov", &suffix.to_wire()]).unit();
                let include =
                    DeterministicDraw::new(seed, &[b"ct", &t.name.to_wire()]).unit() < cov;
                if include && !t.in_domain_ns {
                    lists
                        .ct_logs
                        .entry(suffix)
                        .or_default()
                        .push(t.name.clone());
                }
            } else {
                lists.zone_files.entry(suffix).or_default().push(SeedEntry {
                    name: t.name.clone(),
                    all_in_domain_ns: t.in_domain_ns,
                });
            }
        }
        // Four top lists, each a ~5 % overlapping sample of everything.
        for list_idx in 0..4u64 {
            let mut list = Vec::new();
            for t in truths {
                let d = DeterministicDraw::new(seed ^ list_idx, &[b"top", &t.name.to_wire()]);
                if d.unit() < 0.05 {
                    list.push(t.name.clone());
                }
            }
            lists.top_lists.push(list);
        }
        lists
    }

    /// The paper's seed compilation: union all sources, keep registrable
    /// names directly under a public suffix, drop zones known (from zone
    /// files) to have only in-domain NSes.
    pub fn compile(&self, psl: &PublicSuffixList) -> Vec<Name> {
        let mut excluded: BTreeSet<Name> = BTreeSet::new();
        let mut out: BTreeSet<Name> = BTreeSet::new();
        for entries in self.zone_files.values() {
            for e in entries {
                if e.all_in_domain_ns {
                    excluded.insert(e.name.clone());
                } else if psl.is_registrable(&e.name) {
                    out.insert(e.name.clone());
                }
            }
        }
        for names in self.ct_logs.values() {
            for n in names {
                if psl.is_registrable(n) && !excluded.contains(n) {
                    out.insert(n.clone());
                }
            }
        }
        for list in &self.top_lists {
            for n in list {
                if psl.is_registrable(n) && !excluded.contains(n) {
                    out.insert(n.clone());
                }
            }
        }
        out.into_iter().collect()
    }

    /// [`compile`](Self::compile) restricted to one fabric shard: the
    /// compiled list filtered to zones whose [`shard_of`] assignment is
    /// `shard`, in canonical DNS order — exactly the slice the fabric's
    /// shard plan dispatches, so a worker may compile only its own
    /// shard. The union over `shard in 0..shards` is exactly
    /// `compile()` (same dedup, same exclusions), and the shards are
    /// pairwise disjoint — so a distributed scan over all shards visits
    /// every zone exactly once.
    pub fn compile_shard(&self, psl: &PublicSuffixList, shard: u32, shards: u32) -> Vec<Name> {
        let mut out: Vec<Name> = self
            .compile(psl)
            .into_iter()
            .filter(|n| shard_of(n, shards) == shard)
            .collect();
        out.sort_by(|a, b| a.canonical_cmp(b));
        out
    }

    /// Total raw entries across all sources (before dedup).
    pub fn total_entries(&self) -> usize {
        self.zone_files.values().map(Vec::len).sum::<usize>()
            + self.ct_logs.values().map(Vec::len).sum::<usize>()
            + self.top_lists.iter().map(Vec::len).sum::<usize>()
    }
}

/// Stable shard assignment for a zone: FNV-1a 64 of the canonical wire
/// name, reduced mod `shards`. `Name` caches this hash. This is the
/// fabric's zone-space partition.
pub fn shard_of(name: &Name, shards: u32) -> u32 {
    (name.fnv64() % u64::from(shards.max(1))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{CdsState, DnssecState, SignalTruth};

    fn truth(name: &str, in_domain: bool) -> ZoneTruth {
        ZoneTruth {
            name: Name::parse(name).unwrap(),
            operator: 0,
            second_operator: None,
            dnssec: DnssecState::Unsigned,
            cds: CdsState::None,
            signal: SignalTruth::NotPublished,
            legacy_ns: false,
            in_domain_ns: in_domain,
            adversary: None,
        }
    }

    fn many_truths() -> Vec<ZoneTruth> {
        let mut v = Vec::new();
        for i in 0..200 {
            v.push(truth(&format!("a{i}.com"), false));
            v.push(truth(&format!("b{i}.de"), false));
        }
        v.push(truth("self.com", true));
        v
    }

    #[test]
    fn zone_files_carry_full_com() {
        let psl = PublicSuffixList::simulated();
        let lists = SeedLists::generate(&many_truths(), &psl, 1);
        let com = lists.zone_files[&Name::parse("com").unwrap()].len();
        assert_eq!(com, 201); // 200 + the in-domain one
    }

    #[test]
    fn ct_coverage_is_partial_in_band() {
        let psl = PublicSuffixList::simulated();
        let lists = SeedLists::generate(&many_truths(), &psl, 1);
        let de = lists.ct_logs[&Name::parse("de").unwrap()].len();
        // 43–80 % of 200, with sampling noise allowance.
        assert!((60..180).contains(&de), "de coverage = {de}");
        // And .de must NOT appear in the zone files.
        assert!(!lists.zone_files.contains_key(&Name::parse("de").unwrap()));
    }

    #[test]
    fn compile_excludes_in_domain_and_dedupes() {
        let psl = PublicSuffixList::simulated();
        let lists = SeedLists::generate(&many_truths(), &psl, 1);
        let compiled = lists.compile(&psl);
        assert!(!compiled.contains(&Name::parse("self.com").unwrap()));
        // All com zones survive exactly once.
        let com_count = compiled
            .iter()
            .filter(|n| n.to_string_fqdn().ends_with(".com."))
            .count();
        assert_eq!(com_count, 200);
        // Deduped overall.
        let set: BTreeSet<&Name> = compiled.iter().collect();
        assert_eq!(set.len(), compiled.len());
    }

    #[test]
    fn top_lists_sample_and_overlap_union() {
        let psl = PublicSuffixList::simulated();
        let lists = SeedLists::generate(&many_truths(), &psl, 1);
        assert_eq!(lists.top_lists.len(), 4);
        for l in &lists.top_lists {
            // ~5 % of 401 each; loose band.
            assert!(l.len() < 80, "{}", l.len());
        }
    }

    #[test]
    fn shards_partition_the_compiled_list() {
        let psl = PublicSuffixList::simulated();
        let lists = SeedLists::generate(&many_truths(), &psl, 1);
        let full = lists.compile(&psl);
        for shards in [1u32, 2, 4, 7] {
            let mut union: Vec<Name> = Vec::new();
            let mut seen: BTreeSet<Name> = BTreeSet::new();
            for k in 0..shards {
                let part = lists.compile_shard(&psl, k, shards);
                for n in &part {
                    assert_eq!(shard_of(n, shards), k);
                    assert!(seen.insert(n.clone()), "{n:?} in two shards");
                }
                union.extend(part);
            }
            union.sort_by(|a, b| a.canonical_cmp(b));
            let mut sorted_full = full.clone();
            sorted_full.sort_by(|a, b| a.canonical_cmp(b));
            assert_eq!(union, sorted_full, "shards={shards} union != compile");
        }
    }

    #[test]
    fn shard_of_matches_checkpoint_bucketing() {
        // Same FNV-1a constants and input as scan-journal's checkpoint
        // bucketing: partition agreement is load-bearing for the fabric.
        let n = Name::parse("agreement.example").unwrap();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in n.to_wire() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(shard_of(&n, 8), (h % 8) as u32);
    }

    #[test]
    fn generation_is_deterministic() {
        let psl = PublicSuffixList::simulated();
        let a = SeedLists::generate(&many_truths(), &psl, 9);
        let b = SeedLists::generate(&many_truths(), &psl, 9);
        assert_eq!(a.compile(&psl), b.compile(&psl));
        assert_eq!(a.total_entries(), b.total_entries());
    }
}
