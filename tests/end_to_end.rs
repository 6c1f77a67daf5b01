//! End-to-end validation: the generator plants ground truth, the servers
//! serve real DNS messages over the simulated network, the scanner
//! measures, and the classifications must match what was planted.

#[expect(dead_code, reason = "each suite uses only some of the shared helpers")]
mod common;

use bootscan::{AbClass, CannotReason, ScanPolicy, Scanner, SignalViolation};
use dns_ecosystem::{
    build, CdsState, DnssecState, Ecosystem, EcosystemConfig, SignalDefect, SignalTruth,
};

fn scan_world(eco: &Ecosystem, policy: ScanPolicy) -> bootscan::ScanResults {
    let scanner = Scanner::for_ecosystem(eco, policy);
    let seeds = eco.seeds.compile(&eco.psl);
    assert!(!seeds.is_empty(), "seed compilation produced zones");
    scanner.scan_all(&seeds)
}

#[test]
fn scanner_recovers_planted_truth() {
    let eco = build(EcosystemConfig::tiny(42));
    let results = scan_world(&eco, ScanPolicy::default());

    let mut mismatches: Vec<String> = Vec::new();
    let mut checked = 0;
    for scan in &results.zones {
        let Some(truth) = eco.truth_of(&scan.name) else {
            mismatches.push(format!("{}: scanned but not in truth table", scan.name));
            continue;
        };
        checked += 1;

        // Legacy-NS zones: the scanner cannot see DNSKEYs (the servers
        // error on them), so it classifies them Unsigned with CDS query
        // failures — which is exactly what the paper reports for them.
        if truth.legacy_ns {
            assert!(
                scan.cds_query_failures(),
                "{}: legacy NS must surface CDS query failures",
                scan.name
            );
            continue;
        }

        let want_dnssec = common::expect_dnssec(truth);
        if scan.dnssec != want_dnssec {
            mismatches.push(format!(
                "{}: dnssec {:?}, want {:?}",
                scan.name, scan.dnssec, want_dnssec
            ));
            continue;
        }
        let want_cds = common::expect_cds(truth);
        if scan.cds != want_cds {
            mismatches.push(format!(
                "{}: cds {:?}, want {:?} (dnssec {:?})",
                scan.name, scan.cds, want_cds, scan.dnssec
            ));
        }

        // AB classification versus planted signal truth.
        match truth.signal {
            SignalTruth::NotPublished => {
                if scan.ab != AbClass::NoSignal {
                    mismatches.push(format!("{}: ab {:?}, want NoSignal", scan.name, scan.ab));
                }
            }
            SignalTruth::Published(defect) => {
                let ok = match (truth.dnssec, truth.cds, defect) {
                    (DnssecState::Secured, _, _) => scan.ab == AbClass::AlreadySecured,
                    (_, CdsState::Delete, _) => {
                        scan.ab == AbClass::CannotBootstrap(CannotReason::DeletionRequest)
                    }
                    (DnssecState::Unsigned, _, _) => {
                        scan.ab == AbClass::CannotBootstrap(CannotReason::ZoneUnsigned)
                    }
                    (DnssecState::Invalid, _, _) => {
                        scan.ab == AbClass::CannotBootstrap(CannotReason::ZoneInvalidDnssec)
                    }
                    (_, CdsState::Inconsistent, _) => {
                        scan.ab == AbClass::CannotBootstrap(CannotReason::CdsInconsistent)
                    }
                    (_, CdsState::BadSignature, _) => {
                        scan.ab == AbClass::CannotBootstrap(CannotReason::CdsBadSignature)
                    }
                    (_, _, SignalDefect::None) => scan.ab == AbClass::SignalCorrect,
                    (_, _, SignalDefect::ZoneCut) => {
                        scan.ab == AbClass::SignalIncorrect(SignalViolation::ZoneCut)
                    }
                    (_, _, SignalDefect::MissingUnderSomeNs) => {
                        scan.ab == AbClass::SignalIncorrect(SignalViolation::NotUnderEveryNs)
                    }
                    (_, _, SignalDefect::BadSignature | SignalDefect::ExpiredSignature) => {
                        scan.ab == AbClass::SignalIncorrect(SignalViolation::InvalidDnssec)
                    }
                    (_, _, SignalDefect::Inconsistent) => matches!(
                        scan.ab,
                        AbClass::CannotBootstrap(CannotReason::CdsInconsistent)
                    ),
                };
                if !ok {
                    mismatches.push(format!(
                        "{}: ab {:?} does not match planted signal {:?} (dnssec {:?}, cds {:?})",
                        scan.name, scan.ab, defect, truth.dnssec, truth.cds
                    ));
                }
            }
        }
    }

    assert!(checked > 50, "checked only {checked} zones");
    assert!(
        mismatches.is_empty(),
        "{} mismatches:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn in_domain_zones_never_scanned() {
    let eco = build(EcosystemConfig::tiny(42));
    let seeds = eco.seeds.compile(&eco.psl);
    for t in eco.truth.iter().filter(|t| t.in_domain_ns) {
        assert!(
            !seeds.contains(&t.name),
            "{} has only in-domain NSes and must be excluded",
            t.name
        );
    }
}

#[test]
fn operator_identification_matches_planted_operator() {
    let eco = build(EcosystemConfig::tiny(42));
    let results = scan_world(&eco, ScanPolicy::default());
    let mut checked = 0;
    for scan in &results.zones {
        let truth = eco.truth_of(&scan.name).unwrap();
        if truth.second_operator.is_some()
            || truth.signal == SignalTruth::Published(SignalDefect::ZoneCut)
        {
            continue; // multi-operator / typo'd-NS zones identify differently
        }
        let want = &eco.operators[truth.operator].name;
        match &scan.operator {
            bootscan::Identified::Single(op) => {
                assert_eq!(**op, **want, "{}", scan.name);
                checked += 1;
            }
            other => panic!("{}: expected single operator, got {:?}", scan.name, other),
        }
    }
    assert!(checked > 50);
}

#[test]
fn reports_reflect_truth_summary() {
    let eco = build(EcosystemConfig::tiny(42));
    let results = scan_world(&eco, ScanPolicy::default());
    let fig1 = bootscan::report::figure1(&results);

    // Compare against the planted truth restricted to scanned,
    // non-legacy zones (legacy zones hide their state from the scanner by
    // construction).
    let scanned: Vec<&dns_ecosystem::ZoneTruth> = results
        .zones
        .iter()
        .filter_map(|z| eco.truth_of(&z.name))
        .collect();
    let planted_islands = scanned
        .iter()
        .filter(|t| t.dnssec == DnssecState::Island)
        .count() as u64;
    let planted_secured = scanned
        .iter()
        .filter(|t| t.dnssec == DnssecState::Secured)
        .count() as u64;
    assert_eq!(fig1.islands, planted_islands);
    assert_eq!(fig1.secured, planted_secured);
    assert_eq!(fig1.resolved, scanned.len() as u64);

    let boot = scanned
        .iter()
        .filter(|t| t.traditionally_bootstrappable())
        .count() as u64;
    assert_eq!(fig1.island_bootstrappable, boot);
}

#[test]
fn scan_is_deterministic() {
    let eco1 = build(EcosystemConfig::tiny(9));
    let r1 = scan_world(&eco1, ScanPolicy::default());
    let eco2 = build(EcosystemConfig::tiny(9));
    let r2 = scan_world(&eco2, ScanPolicy::default());
    assert_eq!(r1.zones.len(), r2.zones.len());
    assert_eq!(r1.total_queries, r2.total_queries);
    for (a, b) in r1.zones.iter().zip(r2.zones.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.dnssec, b.dnssec);
        assert_eq!(a.cds, b.cds);
        assert_eq!(a.ab, b.ab);
    }
}

#[test]
fn parallel_scan_matches_sequential() {
    let eco = build(EcosystemConfig::tiny(7));
    let seq = scan_world(&eco, ScanPolicy::default());
    let eco2 = build(EcosystemConfig::tiny(7));
    let par = scan_world(
        &eco2,
        ScanPolicy {
            parallelism: 4,
            ..ScanPolicy::default()
        },
    );
    assert_eq!(seq.zones.len(), par.zones.len());
    for (a, b) in seq.zones.iter().zip(par.zones.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.dnssec, b.dnssec, "{}", a.name);
        assert_eq!(a.cds, b.cds, "{}", a.name);
        assert_eq!(a.ab, b.ab, "{}", a.name);
    }
}
