//! Churn-model determinism contract (DESIGN.md §10).
//!
//! Three invariants back the longitudinal tier:
//!
//! 1. **Purity** — a [`ChurnPlan`] is a pure function of
//!    `(world truth, seed, epoch)`.
//! 2. **Delta fidelity** — the [`ChurnLog`] deltas match the applied
//!    mutation *exactly*: the truth table, the zone stores, the TLD DS
//!    sets and the published signal records all agree with each delta's
//!    `after` snapshot, and two identically-built worlds churned by the
//!    same plans end up byte-identical.
//! 3. **Locality** — zones the plan does not touch keep byte-identical
//!    zone files (incremental re-signing never perturbs them).
//!
//! Plus the end-to-end smoke that makes churn *meaningful*: a cold scan
//! of a churned world recovers the *updated* truth table.

use bootscan::{AbClass, CannotReason, CdsClass, DnssecClass, ScanPolicy, Scanner};
use dns_ecosystem::{
    apply_churn, build, CdsState, ChurnConfig, ChurnLog, ChurnPlan, DnssecState, Ecosystem,
    EcosystemConfig, SignalDefect, SignalTruth,
};
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::record::RecordType;
use dns_zone::signal::signal_name;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn world() -> &'static Ecosystem {
    static WORLD: OnceLock<Ecosystem> = OnceLock::new();
    WORLD.get_or_init(|| build(EcosystemConfig::tiny(42)))
}

/// Apply `epochs` epochs of default-rate churn to a fresh tiny world.
fn churned_world(world_seed: u64, churn_seed: u64, epochs: u32) -> (Ecosystem, Vec<ChurnLog>) {
    let mut eco = build(EcosystemConfig::tiny(world_seed));
    let cfg = ChurnConfig::default();
    let mut logs = Vec::new();
    for epoch in 0..epochs {
        let plan = ChurnPlan::generate(&eco, &cfg, churn_seed, epoch);
        logs.push(apply_churn(&mut eco, &plan));
    }
    (eco, logs)
}

/// Every zone file served anywhere in the world, keyed by
/// `(tier, server, apex)` — the byte-level world fingerprint.
fn world_zone_files(eco: &Ecosystem) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (op_idx, stores) in eco.operator_stores.iter().enumerate() {
        for (host_idx, store) in stores.iter().enumerate() {
            let mut apexes = store.apexes();
            apexes.sort_by(|a, b| a.canonical_cmp(b));
            for apex in apexes {
                let z = store.get(&apex).unwrap();
                out.insert(
                    format!("op{op_idx}/host{host_idx}/{apex}"),
                    z.to_zone_file(),
                );
            }
        }
    }
    for (tld, store) in &eco.registry_stores {
        let mut apexes = store.apexes();
        apexes.sort_by(|a, b| a.canonical_cmp(b));
        for apex in apexes {
            let z = store.get(&apex).unwrap();
            out.insert(format!("registry/{tld}/{apex}"), z.to_zone_file());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A plan is a pure function of `(truth, seed, epoch)` — regenerating
    /// it can never disagree with itself.
    #[test]
    fn plan_is_pure(seed in any::<u64>(), epoch in 0u32..8) {
        let eco = world();
        let cfg = ChurnConfig::default();
        let a = ChurnPlan::generate(eco, &cfg, seed, epoch);
        let b = ChurnPlan::generate(eco, &cfg, seed, epoch);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn identical_worlds_churned_identically_stay_byte_identical() {
    let (a, logs_a) = churned_world(42, 7, 3);
    let (b, logs_b) = churned_world(42, 7, 3);
    assert_eq!(logs_a, logs_b, "churn logs diverged between identical runs");
    assert!(
        logs_a.iter().any(|l| !l.deltas.is_empty()),
        "three tiny-world epochs must churn something"
    );
    assert_eq!(a.truth, b.truth, "truth tables diverged");
    let fa = world_zone_files(&a);
    let fb = world_zone_files(&b);
    assert_eq!(
        fa.keys().collect::<Vec<_>>(),
        fb.keys().collect::<Vec<_>>(),
        "zone placement diverged"
    );
    for (k, va) in &fa {
        assert_eq!(Some(va), fb.get(k), "{k}: zone bytes diverged");
    }
}

#[test]
fn deltas_match_applied_mutation_exactly() {
    let mut eco = build(EcosystemConfig::tiny(42));
    let cfg = ChurnConfig::default();
    let plan = ChurnPlan::generate(&eco, &cfg, 7, 0);
    let log = apply_churn(&mut eco, &plan);
    assert!(!log.deltas.is_empty(), "epoch 0 must churn something");

    for d in &log.deltas {
        let zone = &d.zone;
        let t = eco.truth_of(zone).expect("churned zone in truth table");
        let after = &d.after;
        assert_eq!(
            (t.operator, t.dnssec, t.cds, t.signal),
            (after.operator, after.dnssec, after.cds, after.signal),
            "{zone}: truth table disagrees with the logged delta"
        );
        // The zone cut of every delta is in the invalidation set unless the
        // transition only touched signal records (which live off-zone).
        let signal_only = d.before.dnssec == after.dnssec
            && d.before.cds == after.cds
            && d.before.operator == after.operator;
        if !signal_only {
            assert!(
                log.invalidated_cuts.contains(zone),
                "{zone}: churned but not invalidated"
            );
        }

        // Served zone content agrees with the new truth.
        let z = eco.operator_stores[after.operator]
            .iter()
            .find_map(|s| s.get(zone))
            .unwrap_or_else(|| panic!("{zone}: not served by its new operator"));
        let signed = matches!(after.dnssec, DnssecState::Secured | DnssecState::Island);
        assert_eq!(
            z.rrset(zone, RecordType::Dnskey).is_some(),
            signed,
            "{zone}: DNSKEY presence vs dnssec {:?}",
            after.dnssec
        );
        assert_eq!(
            z.rrset(zone, RecordType::Cds).is_some(),
            after.cds == CdsState::Valid,
            "{zone}: CDS presence vs cds {:?}",
            after.cds
        );

        // DS at the parent agrees — and, for Secured zones, matches the
        // zone's own keys (a re-keyed rebuild must re-install its DS).
        let tld = zone.parent().expect("customer zones live under TLDs");
        let tldz = eco
            .registry_stores
            .get(&tld)
            .and_then(|s| s.get(&tld))
            .expect("TLD zone exists");
        let ds = tldz.rrset(zone, RecordType::Ds);
        assert_eq!(
            ds.is_some(),
            after.dnssec == DnssecState::Secured,
            "{zone}: DS presence vs dnssec {:?}",
            after.dnssec
        );
        if let Some(ds) = ds {
            let dnskeys: Vec<_> = z
                .rrset(zone, RecordType::Dnskey)
                .expect("secured zone has DNSKEYs")
                .rdatas
                .iter()
                .filter_map(|rd| match rd {
                    RData::Dnskey(k) => {
                        let mut rdata = Vec::with_capacity(4 + k.public_key.len());
                        rdata.extend_from_slice(&k.flags.to_be_bytes());
                        rdata.push(k.protocol);
                        rdata.push(k.algorithm);
                        rdata.extend_from_slice(&k.public_key);
                        Some(dns_crypto::key_tag(&rdata))
                    }
                    _ => None,
                })
                .collect();
            for rd in &ds.rdatas {
                if let RData::Ds(d) = rd {
                    assert!(
                        dnskeys.contains(&d.key_tag),
                        "{zone}: DS tag {} matches no served DNSKEY",
                        d.key_tag
                    );
                }
            }
        }

        // Signal records at the operator's base zones agree.
        let op = &eco.operators[after.operator];
        let serving: Vec<&Name> = op
            .hosts
            .iter()
            .enumerate()
            .filter(|(i, _)| eco.operator_stores[after.operator][*i].get(zone).is_some())
            .map(|(_, h)| h)
            .collect();
        assert!(!serving.is_empty(), "{zone}: no serving hosts");
        let published = after.signal == SignalTruth::Published(SignalDefect::None);
        for host in serving {
            let sig = signal_name(zone, host).expect("signal name forms");
            let found = eco.operator_stores[after.operator]
                .iter()
                .filter_map(|s| s.find(&sig))
                .any(|bz| bz.rrset(&sig, RecordType::Cds).is_some());
            assert_eq!(
                found, published,
                "{zone}: signal under {host} vs signal {:?}",
                after.signal
            );
        }
    }
}

#[test]
fn untouched_zones_stay_byte_identical() {
    let mut eco = build(EcosystemConfig::tiny(42));
    let before = world_zone_files(&eco);
    let cfg = ChurnConfig::default();
    let plan = ChurnPlan::generate(&eco, &cfg, 7, 0);
    let log = apply_churn(&mut eco, &plan);
    let after = world_zone_files(&eco);

    let churned: Vec<Name> = log.churned_zones();
    assert!(!churned.is_empty());

    // Base zones legitimately change when signal records move; TLD zones
    // when a DS or delegation changes. Everything else must be untouched.
    let tlds: Vec<Name> = churned.iter().filter_map(|z| z.parent()).collect();
    let mut checked = 0usize;
    for (key, bytes) in &before {
        let apex = key.rsplit('/').next().unwrap();
        let apex = Name::parse(apex).unwrap();
        if churned.contains(&apex) || tlds.contains(&apex) {
            continue;
        }
        // Operator base zones (signal carriers) may be re-signed; they are
        // exactly the apexes that are some operator's base.
        if eco.base_keys.contains_key(&apex) {
            continue;
        }
        let now = after
            .get(key)
            .unwrap_or_else(|| panic!("{key}: zone vanished"));
        assert_eq!(bytes, now, "{key}: untouched zone changed");
        checked += 1;
    }
    assert!(checked > 20, "checked only {checked} untouched zones");
}

/// Expected scanner classification for a (post-churn) planted truth.
fn expect_dnssec(truth: &dns_ecosystem::ZoneTruth) -> DnssecClass {
    match truth.dnssec {
        DnssecState::Unsigned => DnssecClass::Unsigned,
        DnssecState::Secured => DnssecClass::Secured,
        DnssecState::Invalid => DnssecClass::Invalid,
        DnssecState::Island => DnssecClass::Island,
    }
}

fn expect_cds(truth: &dns_ecosystem::ZoneTruth) -> CdsClass {
    match truth.cds {
        CdsState::None => CdsClass::Absent,
        CdsState::Valid => CdsClass::Valid,
        CdsState::Delete => CdsClass::Delete,
        CdsState::MismatchesDnskey => CdsClass::MismatchesDnskey,
        CdsState::BadSignature => CdsClass::BadSignature,
        CdsState::Inconsistent => CdsClass::Inconsistent,
    }
}

#[test]
fn churned_world_scans_to_updated_truth() {
    let (eco, logs) = churned_world(42, 7, 3);
    let churned_total: usize = logs.iter().map(|l| l.deltas.len()).sum();
    assert!(
        churned_total > 5,
        "only {churned_total} transitions in 3 epochs"
    );

    let scanner = Scanner::for_ecosystem(&eco, ScanPolicy::default());
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner.scan_all(&seeds);

    let mut mismatches = Vec::new();
    let mut churned_checked = 0usize;
    let churned: Vec<Name> = logs.iter().flat_map(|l| l.churned_zones()).collect();
    for scan in &results.zones {
        let Some(truth) = eco.truth_of(&scan.name) else {
            continue;
        };
        if truth.legacy_ns {
            continue;
        }
        if churned.contains(&scan.name) {
            churned_checked += 1;
        }
        if scan.dnssec != expect_dnssec(truth) {
            mismatches.push(format!(
                "{}: dnssec {:?}, want {:?}",
                scan.name,
                scan.dnssec,
                expect_dnssec(truth)
            ));
        }
        if scan.cds != expect_cds(truth) {
            mismatches.push(format!(
                "{}: cds {:?}, want {:?}",
                scan.name,
                scan.cds,
                expect_cds(truth)
            ));
        }
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
                    _ => true, // planted defect tiers are churn-ineligible
                };
                if !ok {
                    mismatches.push(format!(
                        "{}: ab {:?} vs signal {:?} (dnssec {:?}, cds {:?})",
                        scan.name, scan.ab, defect, truth.dnssec, truth.cds
                    ));
                }
            }
        }
    }
    assert!(
        churned_checked > 0,
        "no churned zone appeared in the scan set"
    );
    assert!(
        mismatches.is_empty(),
        "{} truth mismatches after churn:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
