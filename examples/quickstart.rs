//! Quickstart: build a small synthetic DNS world, scan it, print the
//! headline breakdown.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bootscan::{report, ScanPolicy};
use dns_ecosystem::EcosystemConfig;
use dnssec_bootstrap::run_study;

fn main() {
    // A few hundred zones with every DNSSEC/CDS/AB category present.
    let (eco, results) = run_study(EcosystemConfig::tiny(42), ScanPolicy::default());

    println!(
        "scanned {} zones on {} operators\n",
        results.zones.len(),
        eco.operators.len()
    );
    println!("{}", report::figure1(&results).render());
    println!("{}", report::cds_census(&results).render());
    println!(
        "{}",
        report::table3(&results, &["SignalSoft", "CleanCorp"]).render()
    );

    // Per-zone detail for the first zone with a fully correct
    // Authenticated Bootstrapping setup.
    if let Some(z) = results
        .zones
        .iter()
        .find(|z| z.ab == bootscan::AbClass::SignalCorrect)
    {
        println!("example of a correctly bootstrappable zone: {}", z.name);
        println!("  operator: {:?}", z.operator);
        println!(
            "  NS set:   {:?}",
            z.ns_names.iter().map(|n| n.to_string()).collect::<Vec<_>>()
        );
        for s in z.signal_observations.iter() {
            println!(
                "  signal under {}: {} records, DNSSEC valid: {:?}",
                s.ns_name,
                s.cds.len(),
                s.dnssec_valid
            );
        }
    }
}
