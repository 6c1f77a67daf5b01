//! The scanner against the RFCs (DESIGN.md §5a): every configuration of
//! the scenario space is served over netsim, scanned by the real
//! `Scanner`, and its three classes compared with `rfc_oracle`, which
//! derives them from the RFCs alone. The release build walks the whole
//! space (≤ 2 NS, ≤ 2 operators); an unoptimised build walks its
//! one-NS part. The named points replace the classifier's hand-made
//! observation fixtures.

#[expect(dead_code, reason = "the helpers for the other suites' named points")]
mod scenario;

use bootscan::scanner::DEFAULT_ZONE_QUERY_BUDGET;
use bootscan::{AbClass, CannotReason, CdsClass, DnssecClass, SignalViolation, ZoneScan};
use scenario::oracle::rfc_oracle;
use scenario::{enumerate, named, zone_name, CdsSet, Config, Point, World};
use std::collections::{BTreeMap, HashMap, HashSet};

type Classes = (DnssecClass, CdsClass, AbClass);

/// Configs per shared world.
const BATCH: usize = 2048;

/// Configs scanned again, each alone in its own world: this many spread
/// over the tier, and this many more over its flaky configs.
const ISOLATION_SAMPLE: (usize, usize) = (50, 20);

/// The one rule the classifier knowingly gets wrong: `cds_class` matches
/// a CDS to a DNSKEY by key tag and algorithm, so a CDS with a wrong
/// digest reads as valid (RFC 4034 §5.1.4 and RFC 4035 §5.2 match by
/// digest; ROADMAP 6(b) carries the fix).
fn expected_disagreement(c: &Config, want: &Classes) -> bool {
    want.1 == CdsClass::MismatchesDnskey && c.ns.iter().any(|n| n.cds == CdsSet::WrongDigest)
}

fn classes(z: &ZoneScan) -> Classes {
    (z.dnssec, z.cds, z.ab)
}

/// Every variant of the three classes, by name.
fn variants() -> Vec<String> {
    use CannotReason as R;
    use SignalViolation as V;
    let mut all: Vec<String> = [
        DnssecClass::Unsigned,
        DnssecClass::Secured,
        DnssecClass::Invalid,
        DnssecClass::Island,
        DnssecClass::Unresolvable,
        DnssecClass::Indeterminate,
    ]
    .iter()
    .map(|c| format!("{c:?}"))
    .collect();
    all.extend(
        [
            CdsClass::Absent,
            CdsClass::Valid,
            CdsClass::Delete,
            CdsClass::Inconsistent,
            CdsClass::MismatchesDnskey,
            CdsClass::BadSignature,
        ]
        .iter()
        .map(|c| format!("Cds::{c:?}")),
    );
    let mut ab = vec![
        AbClass::NoSignal,
        AbClass::AlreadySecured,
        AbClass::SignalCorrect,
    ];
    for r in [
        R::DeletionRequest,
        R::ZoneUnsigned,
        R::ZoneInvalidDnssec,
        R::CdsInconsistent,
        R::CdsBadSignature,
        R::CdsMismatch,
    ] {
        ab.push(AbClass::CannotBootstrap(r));
    }
    for v in [
        V::ZoneCut,
        V::NotUnderEveryNs,
        V::InvalidDnssec,
        V::ContentMismatch,
    ] {
        ab.push(AbClass::SignalIncorrect(v));
    }
    all.extend(ab.iter().map(|c| format!("{c:?}")));
    all
}

/// Why a variant no config of this tier reaches is out of reach.
fn unreached_because(variant: &str, two_ns: bool) -> Option<&'static str> {
    match variant {
        "Unresolvable" => Some("every config is delegated"),
        "Indeterminate" => Some("the one flaky lookup is retried by the re-scan pass"),
        "Cds::Inconsistent" | "CannotBootstrap(CdsInconsistent)" if !two_ns => {
            Some("one NS cannot disagree with itself")
        }
        "SignalIncorrect(NotUnderEveryNs)" if !two_ns => Some("one NS with a signal is every NS"),
        _ => None,
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the suite reports its own wall time; nothing it asserts reads the clock"
)]
fn every_config_classifies_as_the_rfcs_say() {
    let started = std::time::Instant::now();
    let space = enumerate();
    let two_ns = !cfg!(debug_assertions);
    let tier: Vec<(usize, &Config)> = space
        .iter()
        .enumerate()
        .filter(|(_, c)| two_ns || c.ns.len() == 1)
        .collect();
    let is_flaky = |c: &Config| c.ns.iter().any(|n| n.flaky);
    let flaky: Vec<usize> = tier
        .iter()
        .filter(|(_, c)| is_flaky(c))
        .map(|(i, _)| *i)
        .collect();
    let (spread, flaky_spread) = ISOLATION_SAMPLE;
    let sample: HashSet<usize> = (tier.iter().map(|(i, _)| *i))
        .step_by(tier.len() / spread)
        .chain(flaky.iter().copied().step_by(flaky.len() / flaky_spread))
        .collect();

    let mut reached: BTreeMap<String, usize> = variants().into_iter().map(|v| (v, 0)).collect();
    let (mut disagreements, mut expected) = (Vec::new(), 0);
    let (mut isolated, mut isolated_flaky) = (0, 0);
    // Logical queries per zone: in the shared world, and cold (alone).
    let (mut max_shared, mut max_cold) = (0, 0);
    for batch in tier.chunks(BATCH) {
        let world = World::build(batch);
        let by_name: HashMap<_, _> = batch.iter().map(|&(i, c)| (zone_name(i), (i, c))).collect();
        let names: Vec<_> = batch.iter().map(|&(i, _)| zone_name(i)).collect();
        let results = world.scanner(2).scan_all(&names);
        assert_eq!(results.zones.len(), batch.len());
        for z in &results.zones {
            let (index, c) = by_name[&z.name];
            let (got, want) = (classes(z), rfc_oracle(c));
            let names = [
                format!("{:?}", got.0),
                format!("Cds::{:?}", got.1),
                format!("{:?}", got.2),
            ];
            for v in names {
                *reached.get_mut(&v).unwrap() += 1;
            }
            assert_eq!(z.retry_stats.hostile_budget, 0, "{}: refused", z.name);
            max_shared = max_shared.max(u64::from(z.retry_stats.logical_queries));
            let listed = expected_disagreement(c, &want);
            expected += usize::from(listed);
            if listed && got.1 != CdsClass::Valid || !listed && got != want {
                disagreements.push(format!("{} {c:?}: scanner {got:?}, RFCs {want:?}", z.name));
            }
            if sample.contains(&index) {
                let point = Point::at(index, c.clone());
                let cold = &point
                    .scanner()
                    .scan_all(std::slice::from_ref(&z.name))
                    .zones[0];
                assert_eq!(cold.evidence(), z.evidence(), "{c:?}: alone ≠ shared");
                max_cold = max_cold.max(u64::from(cold.retry_stats.logical_queries));
                isolated += 1;
                isolated_flaky += usize::from(is_flaky(c));
            }
        }
    }

    let tier_name = if two_ns {
        "release: ≤ 2 NS"
    } else {
        "debug: 1 NS"
    };
    println!(
        "rfc_space: {} configs ({} before symmetry reduction), {} in this tier ({tier_name})",
        space.len(),
        scenario::unreduced_len(),
        tier.len(),
    );
    for (variant, n) in &reached {
        match unreached_because(variant, two_ns) {
            Some(why) if *n == 0 => println!("  {variant:<36} 0  unreached: {why}"),
            _ => println!("  {variant:<36} {n}"),
        }
    }
    println!(
        "  max logical queries per zone: {max_shared} shared, {max_cold} alone \
         (budget {DEFAULT_ZONE_QUERY_BUDGET}, no refusal); {expected} expected disagreements; \
         {isolated} configs ({isolated_flaky} flaky) alone ≡ shared; wall {:.1} s",
        started.elapsed().as_secs_f64()
    );
    for d in &disagreements {
        println!("  DISAGREE {d}");
    }
    assert!(disagreements.is_empty(), "{}", disagreements.len());
    for (variant, n) in &reached {
        let excused = unreached_because(variant, two_ns).is_some();
        assert_eq!(*n == 0, excused, "{variant}: reached {n} times");
    }
    assert!(
        expected > 0,
        "no wrong-digest config reached the classifier"
    );
    assert!(
        isolated >= 50 && isolated_flaky > 0,
        "{isolated} alone, {isolated_flaky} flaky"
    );
    assert!(max_shared.max(max_cold) < DEFAULT_ZONE_QUERY_BUDGET);
}

/// The classes the classifier's unit fixtures asserted, one named point
/// each (DESIGN.md §5a maps every deleted assertion to its point), then
/// the points of the classifier fixes the oracle found.
fn named_classes() -> [(&'static str, Classes); 24] {
    use AbClass::{CannotBootstrap, NoSignal, SignalIncorrect};
    use CdsClass as C;
    use DnssecClass::{Invalid, Island, Secured, Unsigned};
    let island_cannot = |c, r| (Island, c, CannotBootstrap(r));
    let signal_incorrect = |v| (Island, C::Valid, SignalIncorrect(v));
    [
        ("secured", (Secured, C::Absent, NoSignal)),
        ("broken-self-signature", (Invalid, C::Absent, NoSignal)),
        ("island", (Island, C::Absent, NoSignal)),
        ("sibling-glueless", (Unsigned, C::Absent, NoSignal)),
        ("island-cds", (Island, C::Valid, NoSignal)),
        ("island-split-cds", (Island, C::Inconsistent, NoSignal)),
        ("island-cds-legacy-peer", (Island, C::Valid, NoSignal)),
        ("island-delete", (Island, C::Delete, NoSignal)),
        ("island-bad-rrsig", (Island, C::BadSignature, NoSignal)),
        (
            "island-foreign-cds",
            (Island, C::MismatchesDnskey, NoSignal),
        ),
        ("unsigned-cds", (Unsigned, C::Valid, NoSignal)),
        (
            "secured-signal",
            (Secured, C::Valid, AbClass::AlreadySecured),
        ),
        (
            "island-delete-signal",
            island_cannot(C::Delete, CannotReason::DeletionRequest),
        ),
        (
            "unsigned-signal",
            (
                Unsigned,
                C::Absent,
                CannotBootstrap(CannotReason::ZoneUnsigned),
            ),
        ),
        ("bootstrappable", (Island, C::Valid, AbClass::SignalCorrect)),
        ("signal-cut", signal_incorrect(SignalViolation::ZoneCut)),
        (
            "signal-missing-under-one",
            signal_incorrect(SignalViolation::NotUnderEveryNs),
        ),
        (
            "signal-bogus",
            signal_incorrect(SignalViolation::InvalidDnssec),
        ),
        (
            "signal-different",
            signal_incorrect(SignalViolation::ContentMismatch),
        ),
        // A failed NS address lookup read as Unresolvable or Invalid until
        // it degraded the scan; an island's CDS was checked against keys
        // nothing authenticated; a CDNSKEY-only signal went unvalidated; a
        // zone cut reached through a referral went unseen.
        ("flaky-host", (Unsigned, C::Absent, NoSignal)),
        ("flaky-in-bailiwick", (Secured, C::Absent, NoSignal)),
        (
            "island-broken-self-signature",
            (Island, C::BadSignature, NoSignal),
        ),
        (
            "signal-bogus-cdnskey",
            signal_incorrect(SignalViolation::InvalidDnssec),
        ),
        (
            "signal-cut-referral",
            signal_incorrect(SignalViolation::ZoneCut),
        ),
    ]
}

#[test]
fn every_named_point_is_in_the_space() {
    let space = enumerate();
    for (point, _) in named_classes() {
        assert!(space.contains(&named(point)), "{point}");
    }
}

#[test]
fn named_points_classify_as_their_fixtures_did() {
    for (name, want) in named_classes() {
        let point = Point::named(name);
        let scan = point.scanner().scan_all(std::slice::from_ref(&point.zone));
        assert_eq!(classes(&scan.zones[0]), want, "{name}");
        assert_eq!(rfc_oracle(&point.config), want, "{name}: the oracle");
    }
}
