//! Durability-tax ablation: what the write-ahead journal and the sharded
//! checkpoints cost in scan throughput (DESIGN.md §6b).
//!
//! Pins the headline number: journaling **plus** checkpointing at the
//! default (amortized) cadence must cost ≤ 10 % wall-clock over a
//! journal-less scan. Run with `cargo bench --bench checkpoint_overhead`.

use bench::{banner, bench_scale};
use bootscan::{ScanPolicy, ScanResults, Scanner};
use criterion::{criterion_group, criterion_main, Criterion};
use dns_ecosystem::{build, Ecosystem, EcosystemConfig};
use scan_journal::{fingerprint_names, JournalHeader, JournalSink};
use std::path::PathBuf;
use std::time::Duration;

/// Journal configuration for one ablation case.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No sink at all — the baseline.
    Off,
    /// Journal + checkpoints at the default amortized cadence (the
    /// production configuration; this is the pinned case).
    Default,
    /// Journal on, strict checkpoint interval (0 = journaling only).
    Every(u64),
}

fn state_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("checkpoint-overhead-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One full scan over a fresh scanner under the given journal mode.
fn scan(eco: &Ecosystem, seeds: &[dns_wire::Name], mode: Mode) -> (Duration, ScanResults) {
    let scanner = Scanner::for_ecosystem(eco, ScanPolicy::default());
    let t0 = std::time::Instant::now();
    let results = match mode {
        Mode::Off => scanner.scan_all(seeds),
        Mode::Default | Mode::Every(_) => {
            let tag = match mode {
                Mode::Every(n) => format!("every-{n}"),
                _ => "default".to_string(),
            };
            let dir = state_dir(&tag);
            let header = JournalHeader {
                run_id: 0xbe9c,
                fingerprint: fingerprint_names(seeds),
            };
            let mut sink = JournalSink::create(&dir, header).expect("journal dir");
            if let Mode::Every(n) = mode {
                sink = sink.with_checkpoint_every(n);
            }
            let results = scanner.scan_all_with(seeds, Some(&sink), None);
            drop(sink);
            let _ = std::fs::remove_dir_all(&dir);
            results
        }
    };
    (t0.elapsed(), results)
}

/// Best-of-3 wall clock, to keep the pinned ratio stable under noise.
fn best_of(eco: &Ecosystem, seeds: &[dns_wire::Name], mode: Mode) -> Duration {
    (0..3).map(|_| scan(eco, seeds, mode).0).min().unwrap()
}

fn print_overhead_ablation() {
    banner(
        "Durability tax — journaling off / on / on + checkpoints",
        "DESIGN.md §6b: WAL + sharded checkpoints, ≤10 % over journal-less",
    );
    let eco = build(EcosystemConfig::paper_default(bench_scale().max(10_000)));
    let seeds = eco.seeds.compile(&eco.psl);

    let base = best_of(&eco, &seeds, Mode::Off);
    let cases = [
        ("journal off (baseline)", Mode::Off),
        ("journal on, no checkpoints", Mode::Every(0)),
        ("journal on + amortized checkpoints", Mode::Default),
        ("journal on + strict every 256", Mode::Every(256)),
        ("journal on + strict every 32", Mode::Every(32)),
    ];
    let mut default_overhead = 0.0;
    for (label, mode) in cases {
        let d = if mode == Mode::Off {
            base
        } else {
            best_of(&eco, &seeds, mode)
        };
        let overhead = 100.0 * (d.as_secs_f64() / base.as_secs_f64() - 1.0);
        if mode == Mode::Default {
            default_overhead = overhead;
        }
        println!(
            "{label:>34}: {:>8.1} ms for {} zones ({:+6.2} % vs baseline)",
            d.as_secs_f64() * 1e3,
            seeds.len(),
            overhead,
        );
    }
    // The pinned acceptance number: the full durability stack at its
    // default cadence stays within 10 % of a journal-less scan.
    assert!(
        default_overhead <= 10.0,
        "journal + default checkpoints cost {default_overhead:.2} % (> 10 % budget)"
    );
    println!("pinned: default-cadence overhead {default_overhead:+.2} % (budget +10 %)");
}

fn bench(c: &mut Criterion) {
    print_overhead_ablation();
    // Criterion measurement for the hot per-event path: encode + frame +
    // buffered append (the work on_zone does before any group commit).
    let dir = state_dir("criterion");
    std::fs::create_dir_all(&dir).expect("bench dir");
    let header = JournalHeader {
        run_id: 1,
        fingerprint: 2,
    };
    let mut writer =
        scan_journal::JournalWriter::create(&dir.join(scan_journal::JOURNAL_FILE), header, 0)
            .expect("journal file");
    let eco = build(EcosystemConfig::tiny(42));
    let scanner = Scanner::for_ecosystem(&eco, ScanPolicy::default());
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner.scan_all(&seeds);
    let event = bootscan::ZoneEvent {
        pass: 0,
        scan: results.zones[0].clone(),
        effects: Default::default(),
        duration_delta: 1234,
    };
    c.bench_function("journal_append_one_event", |b| {
        b.iter(|| std::hint::black_box(writer.append(std::hint::black_box(&event)).unwrap()))
    });
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
