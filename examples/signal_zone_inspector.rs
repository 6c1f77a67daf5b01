//! Signal-zone inspector: a diagnostic tool that shows one zone's
//! RFC 9615 setup — the signal name and what was found under each NS —
//! and the classifier's verdict, which names the first requirement the
//! setup fails: the kind of tooling a DNS operator would use before
//! enabling Authenticated Bootstrapping.
//!
//! ```sh
//! cargo run --release --example signal_zone_inspector            # pick zones automatically
//! cargo run --release --example signal_zone_inspector d0000042.com
//! ```

use bootscan::{AbClass, ScanPolicy, Scanner};
use dns_ecosystem::{build, EcosystemConfig};
use dns_wire::Name;
use dns_zone::signal::signal_name;

fn main() {
    let eco = build(EcosystemConfig::tiny(42));
    let scanner = Scanner::for_ecosystem(&eco, ScanPolicy::default());

    let args: Vec<String> = std::env::args().skip(1).collect();
    let zones: Vec<Name> = if args.is_empty() {
        // Pick an interesting spread: one correct setup plus every defect
        // class present in the world.
        let seeds = eco.seeds.compile(&eco.psl);
        let results = scanner.scan_all(&seeds);
        let mut picks = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for z in &results.zones {
            let key = format!("{:?}", z.ab);
            if z.ab != AbClass::NoSignal && seen.insert(key) {
                picks.push(z.name.clone());
            }
        }
        picks
    } else {
        args.iter()
            .map(|a| Name::parse(a).expect("valid zone name"))
            .collect()
    };

    for zone in zones {
        inspect(&scanner, &zone);
        println!();
    }
}

fn inspect(scanner: &Scanner, zone: &Name) {
    println!("=== {} ===", zone);
    let scan = scanner.scan_zone(zone);
    println!("operator:      {:?}", scan.operator);
    println!("DNSSEC status: {:?}", scan.dnssec);
    println!("CDS status:    {:?}", scan.cds);
    println!("parent DS RRs: {}", scan.parent_ds.len());

    println!("signal names:");
    for ns in scan.ns_names.iter() {
        match signal_name(zone, ns) {
            Ok(s) => println!("  via {}: {}", ns, s),
            Err(e) => println!("  via {}: UNBUILDABLE ({e})", ns),
        }
    }
    println!("signal observations:");
    for s in scan.signal_observations.iter() {
        println!(
            "  under {}: {} signal records, dnssec {:?}, zone cut: {}",
            s.ns_name,
            s.cds.len(),
            s.dnssec_valid,
            s.zone_cut
        );
    }
    println!("verdict: {:?}", scan.ab);
    match scan.ab {
        AbClass::SignalCorrect => {
            println!("→ the parent registry can install the DS records with full");
            println!("  cryptographic assurance (RFC 9615 §3).")
        }
        AbClass::SignalIncorrect(v) => {
            println!("→ bootstrapping must NOT proceed: violation {v:?}.")
        }
        AbClass::CannotBootstrap(r) => println!("→ not a bootstrapping candidate: {r:?}."),
        AbClass::AlreadySecured => println!("→ already secured; only rollovers apply (RFC 7344)."),
        AbClass::NoSignal => println!("→ the operator publishes no authenticated signal."),
    }
}
