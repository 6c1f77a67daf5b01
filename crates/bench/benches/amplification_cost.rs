//! Amplification ablation: what the hardening layer (DESIGN.md §6c —
//! response-acceptance gate, referral/alias loop detection, fan-out limit,
//! per-zone query budget) buys against the hostile-operator tier.
//!
//! Scans the tiny world plus the full adversary complement twice — once
//! hardened (the default policy), once with the hardening layer and the
//! budget switched off — and prints per-archetype query costs. The
//! hardened per-zone cost must stay within the budget (≈3× the worst
//! benign zone); the unhardened number is the documented counterfactual.

use bench::banner;
use bootscan::{ScanPolicy, ScanResults, Scanner};
use criterion::{criterion_group, criterion_main, Criterion};
use dns_ecosystem::{build, AdversaryArchetype, Ecosystem, EcosystemConfig};
use std::collections::HashMap;

const ADV_PER_ARCHETYPE: usize = 2;

fn scan(policy: ScanPolicy) -> (Ecosystem, ScanResults) {
    let eco = build(EcosystemConfig::tiny(0xa2b).with_adversaries(ADV_PER_ARCHETYPE));
    let scanner = Scanner::for_ecosystem(&eco, policy);
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner.scan_all(&seeds);
    (eco, results)
}

fn per_archetype_cost(
    eco: &Ecosystem,
    results: &ScanResults,
) -> (HashMap<AdversaryArchetype, u64>, u64) {
    let adv: HashMap<_, _> = eco
        .truth
        .iter()
        .filter_map(|t| t.adversary.map(|a| (t.name.clone(), a)))
        .collect();
    let mut worst: HashMap<AdversaryArchetype, u64> = HashMap::new();
    let mut worst_benign = 0u64;
    for z in &results.zones {
        let q = z.retry_stats.logical_queries;
        match adv.get(&z.name) {
            Some(&a) => {
                let e = worst.entry(a).or_insert(0);
                *e = (*e).max(q);
            }
            None => worst_benign = worst_benign.max(q),
        }
    }
    (worst, worst_benign)
}

fn print_amplification_ablation() {
    banner(
        "Ablation — adversarial amplification, hardened vs unhardened",
        "DESIGN.md §6c: per-zone worst-case logical queries per archetype",
    );
    let hardened = ScanPolicy::default();
    let budget = hardened.zone_query_budget;
    let unhardened = ScanPolicy {
        hardened: false,
        zone_query_budget: 0,
        ..ScanPolicy::default()
    };
    let (eco_h, res_h) = scan(hardened);
    let (eco_u, res_u) = scan(unhardened);
    let (cost_h, benign_h) = per_archetype_cost(&eco_h, &res_h);
    let (cost_u, _) = per_archetype_cost(&eco_u, &res_u);

    println!(
        "{:>22} | {:>9} | {:>11} | {:>6}",
        "archetype", "hardened", "unhardened", "ratio"
    );
    let mut worst_ratio = 0.0f64;
    for a in AdversaryArchetype::ALL {
        let h = cost_h.get(&a).copied().unwrap_or(0);
        let u = cost_u.get(&a).copied().unwrap_or(0);
        let ratio = u as f64 / h.max(1) as f64;
        worst_ratio = worst_ratio.max(ratio);
        println!("{:>22} | {h:>9} | {u:>11} | {ratio:>5.1}x", a.label());
    }
    println!(
        "worst benign zone (hardened): {benign_h} logical queries; budget {budget} \
         (cap = 3x benign = {})",
        3 * benign_h
    );
    println!(
        "worst unhardened/hardened amplification ratio: {worst_ratio:.1}x \
         — what the acceptance rules + budget buy"
    );

    // The bench doubles as an executable assertion of the cap.
    for (a, h) in &cost_h {
        assert!(
            *h <= budget && *h <= 3 * benign_h,
            "{}: hardened cost {h} breaks the amplification cap (budget {budget}, \
             3x benign {})",
            a.label(),
            3 * benign_h
        );
    }
}

fn bench(c: &mut Criterion) {
    print_amplification_ablation();
    // Criterion measurement: the hostile-world scan end to end — the cost
    // of scanning through the full adversary complement must stay flat.
    c.bench_function("hostile_world_scan", |b| {
        b.iter(|| std::hint::black_box(scan(ScanPolicy::default()).1.zones.len()))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
