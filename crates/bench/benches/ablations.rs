//! Ablations of the design choices DESIGN.md §5 calls out:
//!
//! * NSEC vs NSEC3 zone signing cost (the denial-chain choice),
//! * rate limiting 50 qps vs unbounded (scan wall-clock, §3),
//! * signal probing on/off (what RFC 9615 support costs a scanner),
//! * zone signing as a function of zone size.

use bench::{banner, bench_scale};
use bootscan::{budget, ScanPolicy, Scanner};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dns_ecosystem::{build, EcosystemConfig};
use dns_wire::name::Name;
use dns_wire::rdata::{RData, SoaData};
use dns_wire::record::Record;
use dns_zone::signer::Denial;
use dns_zone::{Zone, ZoneKeys, ZoneSigner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn zone_of(n_names: usize) -> Zone {
    let apex = Name::parse("example.ch").unwrap();
    let mut z = Zone::new(apex.clone());
    z.add(Record::new(
        apex.clone(),
        300,
        RData::Soa(SoaData {
            mname: Name::parse("ns1.example.ch").unwrap(),
            rname: Name::parse("h.example.ch").unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }),
    ));
    z.add(Record::new(
        apex,
        300,
        RData::Ns(Name::parse("ns1.example.ch").unwrap()),
    ));
    for i in 0..n_names {
        z.add(Record::new(
            Name::parse(&format!("h{i}.example.ch")).unwrap(),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, (i % 250) as u8)),
        ));
    }
    z
}

fn print_rate_limit_ablation() {
    banner(
        "Ablation — politeness rate limiting (50 qps/NS vs unbounded)",
        "§3: \"we limited each scan machine to 50 Queries per Second per NS\"",
    );
    let scale = (bench_scale() * 4).max(100_000);
    for (label, rate) in [("50 qps (paper)", 50.0), ("unbounded", 1e9)] {
        let eco = build(EcosystemConfig::paper_default(scale));
        let scanner = Scanner::for_ecosystem(
            &eco,
            ScanPolicy {
                rate_per_sec: rate,
                ..ScanPolicy::default()
            },
        );
        let seeds = eco.seeds.compile(&eco.psl);
        let results = scanner.scan_all(&seeds);
        let cost = budget::scan_cost(&results, &eco.net.stats().snapshot());
        println!(
            "{label:>16}: {} zones, simulated scan duration {:>9.1}s, {:.1} queries/zone",
            cost.zones, cost.simulated_seconds, cost.mean_queries_per_zone
        );
    }
}

fn print_signal_probe_ablation() {
    banner(
        "Ablation — RFC 9615 signal probing on/off",
        "Appendix D: what AB support costs a scanner per zone",
    );
    let scale = (bench_scale() * 4).max(100_000);
    for (label, probe) in [("with signal probes", true), ("without", false)] {
        let eco = build(EcosystemConfig::paper_default(scale));
        let scanner = Scanner::for_ecosystem(
            &eco,
            ScanPolicy {
                probe_signal: probe,
                ..ScanPolicy::default()
            },
        );
        let seeds = eco.seeds.compile(&eco.psl);
        let results = scanner.scan_all(&seeds);
        let cost = budget::scan_cost(&results, &eco.net.stats().snapshot());
        println!(
            "{label:>20}: {:.1} queries/zone, {} total",
            cost.mean_queries_per_zone, cost.total_queries
        );
    }
}

fn bench(c: &mut Criterion) {
    print_rate_limit_ablation();
    print_signal_probe_ablation();

    banner("Ablation — NSEC vs NSEC3 signing cost", "DESIGN.md §5");
    let mut rng = StdRng::seed_from_u64(1);
    let keys = ZoneKeys::generate(&mut rng, dns_crypto::Algorithm::EcdsaP256Sha256);
    let mut group = c.benchmark_group("sign_zone");
    for size in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("nsec", size), &size, |b, &s| {
            b.iter_with_setup(
                || zone_of(s),
                |mut z| {
                    ZoneSigner::new(1_000_000).sign(&mut z, &keys);
                    black_box(z)
                },
            )
        });
        group.bench_with_input(BenchmarkId::new("nsec3", size), &size, |b, &s| {
            b.iter_with_setup(
                || zone_of(s),
                |mut z| {
                    ZoneSigner::new(1_000_000)
                        .with_denial(Denial::Nsec3 {
                            iterations: 0,
                            salt: [0xde, 0xad, 0xbe, 0xef],
                        })
                        .sign(&mut z, &keys);
                    black_box(z)
                },
            )
        });
        group.bench_with_input(BenchmarkId::new("no_denial", size), &size, |b, &s| {
            b.iter_with_setup(
                || zone_of(s),
                |mut z| {
                    ZoneSigner::new(1_000_000)
                        .with_denial(Denial::None)
                        .sign(&mut z, &keys);
                    black_box(z)
                },
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
