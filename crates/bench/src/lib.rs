//! Shared scaffolding for the experiment benches.
//!
//! Each `eN_*` bench binary:
//! 1. builds the calibrated ecosystem once (scale from `BOOTSCAN_SCALE`,
//!    default 1:10 000 so a bench run stays fast; use 1000 for the
//!    paper-scale numbers),
//! 2. runs the full scan once and **prints the regenerated table/figure**
//!    next to the paper's values (this output is the reproduction
//!    artifact, captured by `cargo bench | tee bench_output.txt`),
//! 3. registers Criterion measurements for the computational pieces
//!    (classification, report aggregation, per-zone scanning).

#![forbid(unsafe_code)]

use bootscan::{ScanPolicy, ScanResults, Scanner};
use dns_ecosystem::{build, Ecosystem, EcosystemConfig};
use std::sync::{Arc, OnceLock};

/// The built world + scan results, shared within one bench process.
pub struct World {
    pub eco: Ecosystem,
    pub scanner: Arc<Scanner>,
    pub seeds: Vec<dns_wire::Name>,
    pub results: ScanResults,
}

static WORLD: OnceLock<World> = OnceLock::new();

/// Scale divisor for bench worlds (`BOOTSCAN_SCALE`, default 10 000).
pub fn bench_scale() -> u64 {
    std::env::var("BOOTSCAN_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// Build (once) and scan (once) the calibrated world.
pub fn world() -> &'static World {
    WORLD.get_or_init(|| {
        let scale = bench_scale();
        eprintln!("[bench] building paper ecosystem at 1:{scale} …");
        let t = std::time::Instant::now();
        let eco = build(EcosystemConfig::paper_default(scale));
        let scanner = Scanner::for_ecosystem(&eco, ScanPolicy::default());
        let seeds = eco.seeds.compile(&eco.psl);
        let results = scanner.scan_all(&seeds);
        eprintln!(
            "[bench] {} zones scanned in {:.1}s real time",
            results.zones.len(),
            t.elapsed().as_secs_f64()
        );
        World {
            eco,
            scanner,
            seeds,
            results,
        }
    })
}

/// Banner for the printed artifact sections.
pub fn banner(title: &str, paper: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("paper reference: {paper}");
    println!("================================================================");
}
