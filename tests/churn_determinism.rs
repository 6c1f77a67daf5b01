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
//!    zone files, and inside an edited operator base zone every owner
//!    outside *changed ∪ NSEC predecessors* keeps byte-identical records.
//! 4. **The re-sign oracle** — re-signing only those owners is an
//!    optimisation, never a difference: after every `apply_churn`, each
//!    signed base zone equals, record for record, the same content
//!    stripped of all DNSSEC records and signed whole, planted signature
//!    defects re-applied.
//!
//! Plus the end-to-end smoke that makes churn *meaningful*: a cold scan
//! of a churned world recovers the *updated* truth table.

#[expect(dead_code, reason = "each suite uses only some of the shared helpers")]
mod common;

use bootscan::{AbClass, CannotReason, ScanPolicy, Scanner};
use dns_ecosystem::{
    apply_churn, build, CdsState, ChurnConfig, ChurnLog, ChurnPlan, DnssecState, Ecosystem,
    EcosystemConfig, SignalDefect, SignalTruth,
};
use dns_server::ZoneStore;
use dns_wire::name::Name;
use dns_wire::rdata::{RData, RrsigData};
use dns_wire::record::{Record, RecordType};
use dns_zone::signal::signal_name;
use dns_zone::{Zone, ZoneSigner};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

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

/// Every zone served anywhere in the world, keyed by
/// `(tier, server, apex)`: operators and their hosts by index, then the
/// registries in canonical suffix order; each store's apexes in
/// canonical order. A zone several stores share appears once per store.
fn world_zones(eco: &Ecosystem) -> Vec<(String, Arc<Zone>)> {
    let mut out = Vec::new();
    let mut add = |tier: String, store: &ZoneStore| {
        let mut apexes = store.apexes();
        apexes.sort_by(|a, b| a.canonical_cmp(b));
        for apex in apexes {
            let z = store.get(&apex).unwrap();
            out.push((format!("{tier}/{apex}"), z));
        }
    };
    for (op_idx, stores) in eco.operator_stores.iter().enumerate() {
        for (host_idx, store) in stores.iter().enumerate() {
            add(format!("op{op_idx}/host{host_idx}"), store);
        }
    }
    let mut tlds: Vec<&Name> = eco.registry_stores.keys().collect();
    tlds.sort_by(|a, b| a.canonical_cmp(b));
    for tld in tlds {
        add(format!("registry/{tld}"), &eco.registry_stores[tld]);
    }
    out
}

/// Every zone file served anywhere in the world, keyed by
/// `(tier, server, apex)` — the byte-level world fingerprint.
fn world_zone_files(eco: &Ecosystem) -> BTreeMap<String, String> {
    world_zones(eco)
        .into_iter()
        .map(|(key, z)| (key, z.to_zone_file()))
        .collect()
}

/// The world fingerprint as one FNV-1a 64 digest, in [`world_zones`]
/// order: each key, then the zone file of the first key holding that
/// `Arc`, or for a later holder the first holder's key. A world that
/// renders the same files from the same stores keeps its digest,
/// however its RRsets are laid out in memory.
fn world_digest(eco: &Ecosystem) -> u64 {
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let mut first: HashMap<*const Zone, String> = HashMap::new();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (key, z) in world_zones(eco) {
        h = fnv(h, key.as_bytes());
        h = fnv(h, b"\0");
        match first.get(&Arc::as_ptr(&z)) {
            Some(holder) => h = fnv(h, holder.as_bytes()),
            None => {
                h = fnv(h, z.to_zone_file().as_bytes());
                first.insert(Arc::as_ptr(&z), key);
            }
        }
        h = fnv(h, b"\0");
    }
    h
}

/// World fingerprints taken from the build before RRset bodies were
/// shared: how the builder lays RRsets out in memory must never show in
/// what the world serves.
const TINY_DIGESTS: [(u64, u64); 3] = [
    (7, 0xcca4_19a5_bb8a_d644),
    (42, 0x1fdd_a873_098a_9f2d),
    (1234, 0xbf11_b70a_0018_3d18),
];

#[test]
fn world_fingerprint_is_pinned() {
    let got =
        TINY_DIGESTS.map(|(seed, _)| (seed, world_digest(&build(EcosystemConfig::tiny(seed)))));
    assert_eq!(got, TINY_DIGESTS, "tiny world digests: {got:#x?}");
}

/// The same at paper scale (`paper_default(100_000)`, the benchmark's
/// world).
#[test]
#[ignore = "paper-scale world: seconds in release, minutes in debug"]
fn world_fingerprint_is_pinned_at_paper_scale() {
    let got = world_digest(&build(EcosystemConfig::paper_default(100_000)));
    assert_eq!(
        got, 0xa4b3_955d_4fc5_3248,
        "paper_default(100_000): world digest {got:#018x}"
    );
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
                    RData::Dnskey(k) => Some(dns_crypto::key_tag(
                        k.flags,
                        k.protocol,
                        k.algorithm,
                        &k.public_key,
                    )),
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
        // Operator base zones (signal carriers) are held to the finer
        // rule below, owner by owner.
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

/// Inside a re-signed base zone the edit stays local too: only a changed
/// signal owner, and the predecessor whose NSEC links to it, may differ
/// in any byte — every other owner keeps its records, RRSIGs included.
#[test]
fn untouched_owners_of_an_edited_base_zone_stay_byte_identical() {
    let mut eco = build(EcosystemConfig::tiny(42));
    let before: Vec<_> = signed_bases(&eco)
        .into_iter()
        .map(|(base, zone)| (base, by_owner(&zone)))
        .collect();
    let plan = ChurnPlan::generate(&eco, &ChurnConfig::default(), 7, 0);
    let log = apply_churn(&mut eco, &plan);
    assert!(log.signal_owners_changed > 0, "epoch 0 must move a signal");

    let (mut kept, mut changed_total) = (0usize, 0usize);
    for ((base, was), (_, zone)) in before.iter().zip(signed_bases(&eco)) {
        let (changed, dirty) = expected_dirty(was, &zone);
        changed_total += changed.len();
        let now = by_owner(&zone);
        for owner in was.keys().chain(now.keys()) {
            if changed.contains(owner) || dirty.contains(owner) {
                continue;
            }
            assert_eq!(
                was.get(owner),
                now.get(owner),
                "{base}: {owner} is neither changed nor a predecessor, yet its records moved"
            );
            kept += 1;
        }
    }
    assert_eq!(changed_total, log.signal_owners_changed);
    assert!(kept > 20, "only {kept} untouched base-zone owners checked");
}

/// Every signed operator base zone: `(apex, zone)`, operator order. The
/// `Arc` is dropped before returning — a handle held across
/// `apply_churn` would push it onto its clone fallback.
fn signed_bases(eco: &Ecosystem) -> Vec<(Name, Zone)> {
    let mut out = Vec::new();
    for (op_idx, op) in eco.operators.iter().enumerate() {
        if !eco.operator_flavors[op_idx].signal_enabled {
            continue;
        }
        let bases: BTreeSet<Name> = op
            .hosts
            .iter()
            .filter_map(|h| eco.psl.registrable_part(h))
            .collect();
        for base in bases {
            let zone = eco.operator_stores[op_idx][0]
                .get(&base)
                .unwrap_or_else(|| panic!("{base}: base zone not in its operator's first store"));
            out.push((base, (*zone).clone()));
        }
    }
    out
}

fn by_owner(zone: &Zone) -> BTreeMap<Name, Vec<Record>> {
    let mut out: BTreeMap<Name, Vec<Record>> = BTreeMap::new();
    for r in zone.records() {
        out.entry(r.name.clone()).or_default().push(r);
    }
    out
}

fn is_dnssec(r: &Record) -> bool {
    matches!(
        r.rtype(),
        RecordType::Rrsig
            | RecordType::Nsec
            | RecordType::Nsec3
            | RecordType::Nsec3param
            | RecordType::Dnskey
    )
}

/// The dirty-set rule, restated from the zone's content alone: `changed`
/// are the owners whose unsigned records differ between `was` and `now`;
/// `dirty` are the changed owners still present plus, for each changed
/// owner, its strict canonical predecessor in `now` (wrapping).
fn expected_dirty(
    was: &BTreeMap<Name, Vec<Record>>,
    now: &Zone,
) -> (BTreeSet<Name>, BTreeSet<Name>) {
    let unsigned = |recs: Option<&Vec<Record>>| -> Vec<Record> {
        recs.into_iter()
            .flatten()
            .filter(|r| !is_dnssec(r))
            .cloned()
            .collect()
    };
    let now_by_owner = by_owner(now);
    let changed: BTreeSet<Name> = was
        .keys()
        .chain(now_by_owner.keys())
        .filter(|o| unsigned(was.get(*o)) != unsigned(now_by_owner.get(*o)))
        .cloned()
        .collect();
    let order: Vec<&Name> = now.names().collect();
    let mut dirty = BTreeSet::new();
    for owner in &changed {
        let at = order.partition_point(|n| n.canonical_cmp(owner).is_lt());
        if order.get(at) == Some(&owner) {
            dirty.insert(owner.clone());
        }
        dirty.insert(order[(at + order.len() - 1) % order.len()].clone());
    }
    (changed, dirty)
}

/// Rewrite the RRSIGs at `owner` through `edit` — the test's own
/// statement of how the builder plants a signature defect.
fn rewrite_rrsigs_at(zone: &mut Zone, owner: &Name, edit: impl Fn(&mut RrsigData)) {
    let Some(set) = zone.remove_rrset(owner, RecordType::Rrsig) else {
        return;
    };
    for mut r in set.records() {
        if let RData::Rrsig(sig) = &mut r.rdata {
            edit(sig);
        }
        zone.add(r);
    }
}

/// The bad-signature defect: XOR every signature byte of an RRSIG over
/// a signal type with 0x77. Its own inverse.
fn flip_signal_signature(sig: &mut RrsigData) {
    let covers_signal_type = [RecordType::Cds, RecordType::Cdnskey]
        .iter()
        .any(|t| t.code() == sig.type_covered);
    if covers_signal_type {
        sig.signature.iter_mut().for_each(|b| *b ^= 0x77);
    }
}

/// The oracle: `zone` with every DNSSEC record stripped, signed whole
/// with the base's retained keys at `eco.now`, planted defects applied —
/// what `apply_churn` did to every edited base zone before it learnt to
/// re-sign only what changed.
fn full_resign(eco: &Ecosystem, base: &Name, zone: &Zone) -> Zone {
    let mut out = Zone::new(zone.apex().clone());
    for r in zone.records().into_iter().filter(|r| !is_dnssec(r)) {
        out.add(r);
    }
    ZoneSigner::new(eco.now).sign(&mut out, &eco.base_keys[base]);
    let (badsig, expired) = &eco.base_defects[base];
    for n in badsig {
        rewrite_rrsigs_at(&mut out, n, flip_signal_signature);
    }
    for n in expired {
        rewrite_rrsigs_at(&mut out, n, |sig| {
            sig.inception = 0;
            sig.expiration = eco.now.saturating_sub(86_400).max(1);
        });
    }
    out
}

/// Churn `cfg`'s world through epochs 1–4 and hold every signed base
/// zone to the oracle after each. Returns, summed over the epochs:
/// signal owners changed, RRsets signed, and the records the signed base
/// zones held (what re-signing them whole would have rewritten).
fn assert_oracle_holds(cfg: EcosystemConfig, churn: &ChurnConfig, churn_seed: u64) -> [usize; 3] {
    let mut eco = build(cfg);
    let mut totals = [0usize; 3];
    for epoch in 1..=4 {
        let plan = ChurnPlan::generate(&eco, churn, churn_seed, epoch);
        let log = apply_churn(&mut eco, &plan);
        totals[0] += log.signal_owners_changed;
        totals[1] += log.base_rrsets_signed;
        for (base, zone) in signed_bases(&eco) {
            let full = full_resign(&eco, &base, &zone);
            assert!(
                zone.records() == full.records(),
                "{base}: epoch {epoch}: incremental re-sign differs from the full re-sign\n\
                 --- incremental\n{}\n--- full\n{}",
                zone.to_zone_file(),
                full.to_zone_file()
            );
            totals[2] += zone.record_count();
        }
    }
    totals
}

#[test]
fn incremental_resign_equals_full_resign() {
    for world_seed in [42, 7, 11] {
        let [changed, ..] = assert_oracle_holds(
            EcosystemConfig::tiny(world_seed),
            &ChurnConfig::default(),
            7,
        );
        assert!(changed > 0, "world {world_seed}: no signal owner moved");
    }
}

/// The same at paper scale (`paper_default(100_000)`, the benchmark's
/// world): CI's release job runs it; it prints the counts CHANGES.md
/// quotes.
#[test]
#[ignore = "paper-scale world: seconds in release, minutes in debug"]
fn incremental_resign_equals_full_resign_at_paper_scale() {
    let mut cfg = EcosystemConfig::paper_default(100_000);
    cfg.seed = 101;
    let [changed, signed, held] = assert_oracle_holds(cfg, &ChurnConfig::default(), 101);
    println!(
        "4 epochs: {changed} signal owners changed, {signed} RRsets signed, \
         {held} base-zone records the full re-sign would have rewritten"
    );
    assert!(signed > 0 && signed < held / 10);
}

/// `corrupt_rrsigs_at` is an XOR: applied to an owner that kept its old
/// (already flipped) RRSIGs it would silently *repair* them. No shipped
/// config plants a bad-signature signal owner, so this one does, churns
/// signals hard enough that the owner is some epochs a re-signed NSEC
/// predecessor and some epochs untouched, and checks the flipped bytes
/// are there either way (the oracle re-flips a fresh signature, so
/// equality with it is the same statement for the whole zone).
#[test]
fn planted_bad_signature_survives_resigned_and_untouched_epochs() {
    let mut cfg = EcosystemConfig::tiny(42);
    let soft = cfg
        .operators
        .iter_mut()
        .find(|o| o.name == "SignalSoft")
        .expect("tiny has SignalSoft");
    soft.signal_defects.badsig = 1;
    let churn = ChurnConfig {
        signal_flip: 0.25,
        ..ChurnConfig::default()
    };
    assert_oracle_holds(cfg.clone(), &churn, 7);

    let mut eco = build(cfg);
    let (base, bad) = eco
        .base_defects
        .iter()
        .find_map(|(base, (badsig, _))| Some((base.clone(), badsig.first()?.clone())))
        .expect("a bad-signature signal owner was planted");
    let base_zone = |eco: &Ecosystem| -> Zone {
        let served = signed_bases(eco).into_iter().find(|(b, _)| *b == base);
        served.expect("base zone served").1
    };
    let (mut resigned_epochs, mut untouched_epochs) = (0, 0);
    for epoch in 1..=8 {
        let was = by_owner(&base_zone(&eco));
        let plan = ChurnPlan::generate(&eco, &churn, 7, epoch);
        apply_churn(&mut eco, &plan);
        let zone = base_zone(&eco);
        let (changed, dirty) = expected_dirty(&was, &zone);
        assert!(!changed.contains(&bad), "defective zones do not churn");
        if dirty.contains(&bad) {
            resigned_epochs += 1;
        } else {
            untouched_epochs += 1;
        }

        // Flipped as served; genuine once flipped back.
        let dnskeys: Vec<_> = zone
            .rrset(&base, RecordType::Dnskey)
            .expect("signed base")
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Dnskey(k) => Some(k.clone()),
                _ => None,
            })
            .collect();
        let cds = zone.rrset(&bad, RecordType::Cds).expect("signal CDS");
        let served: Vec<RrsigData> = zone
            .rrset(&bad, RecordType::Rrsig)
            .expect("signal RRSIGs")
            .rdatas
            .iter()
            .filter_map(|rd| match rd {
                RData::Rrsig(sig) => Some(sig.clone()),
                _ => None,
            })
            .collect();
        let mut unflipped = served.clone();
        unflipped.iter_mut().for_each(flip_signal_signature);
        let verify = |sigs| dns_zone::signer::verify_rrset_with_keys(cds, sigs, &dnskeys, eco.now);
        assert!(
            verify(&served).is_err(),
            "epoch {epoch}: the planted bad signature was repaired"
        );
        assert!(
            verify(&unflipped).is_ok(),
            "epoch {epoch}: the bad signature is not the genuine one flipped"
        );
    }
    assert!(
        resigned_epochs > 0 && untouched_epochs > 0,
        "want both cases: {resigned_epochs} re-signed, {untouched_epochs} untouched epochs"
    );
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
        if scan.dnssec != common::expect_dnssec(truth) {
            mismatches.push(format!(
                "{}: dnssec {:?}, want {:?}",
                scan.name,
                scan.dnssec,
                common::expect_dnssec(truth)
            ));
        }
        if scan.cds != common::expect_cds(truth) {
            mismatches.push(format!(
                "{}: cds {:?}, want {:?}",
                scan.name,
                scan.cds,
                common::expect_cds(truth)
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
