//! E7 — scan cost & registry feasibility (paper §3 + Appendix D), with
//! the Cloudflare-sampling ablation.
//!
//! Paper: ~20 queries per NS per zone; the 2-of-12 sampling policy for
//! 95 % of Cloudflare-hosted zones was required to finish in reasonable
//! time; a registry implementing AB need only fully evaluate ~1.2 M of
//! 287.6 M zones.

use bench::{banner, bench_scale, world};
use bootscan::{budget, ScanPolicy, Scanner};
use criterion::{criterion_group, criterion_main, Criterion};
use dns_ecosystem::{build, EcosystemConfig};
use std::hint::black_box;

fn print_artifact() {
    let w = world();
    banner(
        "E7 — scan cost & feasibility (regenerated)",
        "§3 + Appendix D",
    );
    let cost = budget::scan_cost(&w.results, &w.eco.net.stats().snapshot());
    println!("{}", cost.render());
    println!("{}", budget::registry_feasibility(&w.results).render());

    // Ablation: Cloudflare sampling ON vs OFF, on a fresh world (so the
    // network counters are isolated). Restrict to Cloudflare-hosted zones
    // to highlight the effect the paper describes.
    banner(
        "E7a — ablation: Cloudflare 2-of-12 sampling vs exhaustive",
        "§3 (\"to allow our scans to complete in a reasonable time\")",
    );
    let scale = bench_scale();
    for (label, fraction) in [("sampled (95 %)", 0.95), ("exhaustive (0 %)", 0.0)] {
        let eco = build(EcosystemConfig::paper_default(scale));
        let scanner = Scanner::for_ecosystem(
            &eco,
            ScanPolicy {
                sample_fraction: fraction,
                ..ScanPolicy::default()
            },
        );
        let seeds: Vec<_> = eco
            .seeds
            .compile(&eco.psl)
            .into_iter()
            .filter(|n| {
                // Only Cloudflare-hosted zones, identified via truth.
                eco.truth_of(n)
                    .map(|t| eco.operators[t.operator].name == "Cloudflare")
                    .unwrap_or(false)
            })
            .collect();
        let results = scanner.scan_all(&seeds);
        let cost = budget::scan_cost(&results, &eco.net.stats().snapshot());
        println!(
            "{label:>18}: {} zones, {} queries ({:.1}/zone), simulated {:.1}s, {} zones sampled",
            cost.zones,
            cost.total_queries,
            cost.mean_queries_per_zone,
            cost.simulated_seconds,
            cost.sampled_zones
        );
    }
    println!("(the paper's claim: exhaustive scanning of 12-address pools is the bottleneck)");

    // Consistency validation mirror of the paper's Tranco-1M check: the
    // sampled and exhaustive scans must classify identically.
    banner(
        "E7b — sampling validation (paper: \"No inconsistencies were observed\")",
        "§3",
    );
    let eco_a = build(EcosystemConfig::paper_default(scale));
    let eco_b = build(EcosystemConfig::paper_default(scale));
    let cf_zones: Vec<_> = eco_a
        .seeds
        .compile(&eco_a.psl)
        .into_iter()
        .filter(|n| {
            eco_a
                .truth_of(n)
                .map(|t| eco_a.operators[t.operator].name == "Cloudflare")
                .unwrap_or(false)
        })
        .take(500)
        .collect();
    let sampled = Scanner::for_ecosystem(&eco_a, ScanPolicy::default()).scan_all(&cf_zones);
    let full = Scanner::for_ecosystem(
        &eco_b,
        ScanPolicy {
            sample_fraction: 0.0,
            ..ScanPolicy::default()
        },
    )
    .scan_all(&cf_zones);
    let diffs = sampled
        .zones
        .iter()
        .zip(full.zones.iter())
        .filter(|(a, b)| a.dnssec != b.dnssec || a.cds != b.cds || a.ab != b.ab)
        .count();
    println!(
        "classification differences sampled vs exhaustive over {} zones: {diffs} (paper: 0)",
        cf_zones.len()
    );
}

fn bench(c: &mut Criterion) {
    print_artifact();
    let w = world();
    c.bench_function("e7/scan_cost_aggregation", |b| {
        b.iter(|| black_box(budget::scan_cost(&w.results, &w.eco.net.stats().snapshot())))
    });
    c.bench_function("e7/registry_feasibility", |b| {
        b.iter(|| black_box(budget::registry_feasibility(&w.results)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
