//! Chaos ablation: what the resilience machinery (retries, circuit
//! breaker, re-scan queue) buys under the standard fault profile, and
//! what the faults cost in queries and virtual wall-clock.

use bench::{banner, bench_scale};
use bootscan::{report, DnssecClass, ScanPolicy, ScanResults, Scanner};
use criterion::{criterion_group, criterion_main, Criterion};
use dns_ecosystem::{build, EcosystemConfig};
use netsim::FaultPlan;

fn scan(seed: u64, chaos: bool, policy: ScanPolicy) -> ScanResults {
    let eco = build(EcosystemConfig::paper_default(bench_scale().max(10_000)));
    if chaos {
        eco.net
            .set_faults(FaultPlan::standard_chaos(seed, &eco.net.bound_addrs()));
    }
    let scanner = Scanner::for_ecosystem(&eco, policy);
    let seeds = eco.seeds.compile(&eco.psl);
    scanner.scan_all(&seeds)
}

fn agreement(a: &ScanResults, b: &ScanResults) -> f64 {
    let same = a
        .zones
        .iter()
        .zip(b.zones.iter())
        .filter(|(x, y)| x.dnssec == y.dnssec)
        .count();
    100.0 * same as f64 / a.zones.len().max(1) as f64
}

fn print_chaos_ablation() {
    banner(
        "Ablation — resilience machinery under standard chaos",
        "DESIGN.md §6a: loss + flapping outages + SERVFAIL bursts + garbage",
    );
    let clean = scan(0xab1a, false, ScanPolicy::default());
    let naive = ScanPolicy {
        retries: 0,
        breaker_threshold: 0,
        rescan_passes: 0,
        ..ScanPolicy::default()
    };
    for (label, results) in [
        ("clean network", &clean),
        (
            "chaos, full resilience",
            &scan(0xab1a, true, ScanPolicy::default()),
        ),
        (
            "chaos, no retries/breaker/rescan",
            &scan(0xab1a, true, naive),
        ),
    ] {
        let deg = report::degradation(results);
        let indet = results
            .zones
            .iter()
            .filter(|z| z.dnssec == DnssecClass::Indeterminate)
            .count();
        println!(
            "{label:>34}: {:>6.2}% match clean | {:>4} degraded, {:>4} indeterminate | {:>5} retries, {:>4} rescans | {:>8} queries, {:>8.1}s simulated",
            agreement(results, &clean),
            deg.degraded_zones,
            indet,
            deg.total_retries,
            deg.total_rescans,
            results.total_queries,
            results.simulated_duration as f64 / 1e6,
        );
    }
}

fn bench(c: &mut Criterion) {
    print_chaos_ablation();
    // Keep a tiny criterion measurement so the harness has a benchmark:
    // fault-plan evaluation itself must stay cheap (it sits on the hot
    // path of every simulated datagram).
    let addr = netsim::Addr::V4(std::net::Ipv4Addr::new(192, 0, 2, 53));
    let plan = FaultPlan::standard_chaos(7, &[addr]);
    c.bench_function("fault_plan_evaluate", |b| {
        b.iter(|| {
            std::hint::black_box(plan.evaluate(
                1_234_567,
                addr,
                0,
                netsim::Transport::Udp,
                b"payload",
                1,
            ))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
