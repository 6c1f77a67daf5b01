//! Signal-zone inspector: a diagnostic tool that walks one zone's
//! RFC 9615 setup step by step and explains each requirement check —
//! the kind of tooling a DNS operator would use before enabling
//! Authenticated Bootstrapping.
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

    println!("requirement (RFC 9615 / paper §2):");
    println!(
        "  (i)   zone not already secured ............ {}",
        yesno(scan.dnssec != bootscan::DnssecClass::Secured)
    );
    let consistent = scan.cds != bootscan::CdsClass::Inconsistent;
    println!(
        "  (ii)  all NSes serve the same CDS .......... {}",
        yesno(consistent)
    );
    for ns in &scan.ns_names {
        match signal_name(zone, ns) {
            Ok(s) => println!("        signal name via {}: {}", ns, s),
            Err(e) => println!("        signal name via {}: UNBUILDABLE ({e})", ns),
        }
    }
    let under_every = scan.signal_observations.iter().all(|s| !s.cds.is_empty());
    println!(
        "  (iii) signal RRs under every NS ............ {}",
        yesno(under_every && !scan.signal_observations.is_empty())
    );
    let all_valid = scan
        .signal_observations
        .iter()
        .all(|s| s.dnssec_valid == Some(true));
    println!(
        "  (iv)  signal RRs secured with DNSSEC ....... {}",
        yesno(all_valid && under_every)
    );
    let no_cuts = scan.signal_observations.iter().all(|s| !s.zone_cut);
    println!(
        "  (v)   no zone cuts on the signal path ...... {}",
        yesno(no_cuts)
    );
    for s in &scan.signal_observations {
        println!(
            "        under {}: {} signal records, dnssec {:?}, zone cut: {}",
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

fn yesno(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}
