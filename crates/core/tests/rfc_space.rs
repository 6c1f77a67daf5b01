//! The scanner against the RFCs (DESIGN.md §5a): every configuration of
//! the scenario space is served over netsim, scanned by the real
//! `Scanner`, and its three classes compared with `rfc_oracle`, which
//! derives them from the RFCs alone. The release build walks the whole
//! space (≤ 2 NS, ≤ 2 operators) and checks its symmetry reduction
//! against the mirrored configs; an unoptimised build walks its one-NS
//! part. The named points replace the classifier's hand-made observation
//! fixtures.

#[expect(dead_code, reason = "the helpers for the other suites' named points")]
mod scenario;

use bootscan::scanner::DEFAULT_ZONE_QUERY_BUDGET;
use bootscan::types::{NsObservation, SignalObservation};
use bootscan::{AbClass, CannotReason, CdsClass, DnssecClass, Evidence, SignalViolation, ZoneScan};
use dns_wire::name::Name;
use netsim::Addr;
use scenario::oracle::rfc_oracle;
use scenario::{enumerate, hosts, named, zone_name, Config, Point, World, OFF_SPACE};
use std::collections::{BTreeMap, HashMap, HashSet};

type Classes = (DnssecClass, CdsClass, AbClass);

/// Configs per shared world.
const BATCH: usize = 2048;

/// Configs scanned again, each alone in its own world: this many spread
/// over the tier, and this many more over its flaky configs.
const ISOLATION_SAMPLE: (usize, usize) = (50, 20);

/// The release tier mirrors the configs whose index this divides; all of
/// them would double its time (DESIGN.md §5a).
const MIRROR_EVERY: usize = 2;

fn classes(z: &ZoneScan) -> Classes {
    (z.dnssec, z.cds, z.ab)
}

/// `z`'s evidence with its NS hostnames and addresses renamed (those
/// `names` and `addrs` leave out stay), re-sealed: the evidence up to NS
/// order.
fn up_to_ns_order(
    z: &ZoneScan,
    names: &HashMap<Name, Name>,
    addrs: &HashMap<Addr, Addr>,
) -> Evidence {
    let name = |n: &Name| names.get(n).unwrap_or(n).clone();
    let mut e = z.evidence.clone();
    e.ns_names = z.ns_names.iter().map(name).collect();
    e.ns_observations = z
        .ns_observations
        .iter()
        .map(|o| NsObservation {
            ns_name: name(&o.ns_name),
            addr: *addrs.get(&o.addr).unwrap_or(&o.addr),
            ..o.clone()
        })
        .collect();
    e.signal_observations = z
        .signal_observations
        .iter()
        .map(|s| SignalObservation {
            ns_name: name(&s.ns_name),
            ..s.clone()
        })
        .collect();
    e.seal()
}

/// Serve the mirror of every sampled config in `batch` that has one, in
/// one world, and assert that each mirror's evidence equals its canonical
/// config's scan in `canonical`, up to NS order. Returns how many it
/// checked.
fn check_mirrors(batch: &[(usize, &Config)], canonical: &HashMap<Name, &ZoneScan>) -> usize {
    let mirrors: Vec<(usize, Config)> = batch
        .iter()
        .filter(|(i, _)| i % MIRROR_EVERY == 0)
        .filter_map(|&(i, c)| Some((i, c.mirror()?)))
        .collect();
    let served: Vec<(usize, &Config)> = mirrors.iter().map(|(i, m)| (*i, m)).collect();
    let names: Vec<Name> = served.iter().map(|&(i, _)| zone_name(i)).collect();
    let results = World::build(&served).scanner(2).scan_all(&names);
    assert_eq!(results.zones.len(), served.len());
    let by_name: HashMap<_, _> = served
        .iter()
        .map(|&(i, m)| (zone_name(i), (i, m)))
        .collect();
    for z in &results.zones {
        let (index, mirror) = by_name[&z.name];
        // The mirror's NS i is the canonical config's NS 1 - i.
        let to = mirror.mirror().expect("a mirror mirrors back");
        let (names, addrs): (HashMap<_, _>, HashMap<_, _>) = hosts(index, mirror)
            .into_iter()
            .zip(hosts(index, &to).into_iter().rev())
            .map(|((n, a), (cn, ca))| ((n, cn), (a, ca)))
            .unzip();
        assert_eq!(
            up_to_ns_order(z, &names, &addrs),
            canonical[&z.name].evidence,
            "{mirror:?}: the mirror ≠ its canonical config"
        );
    }
    served.len()
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
    let mut disagreements = Vec::new();
    let (mut isolated, mut isolated_flaky, mut mirrored) = (0, 0, 0);
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
            if got != want {
                disagreements.push(format!("{} {c:?}: scanner {got:?}, RFCs {want:?}", z.name));
            }
            if sample.contains(&index) {
                let point = Point::at(index, c.clone());
                let cold = &point
                    .scanner()
                    .scan_all(std::slice::from_ref(&z.name))
                    .zones[0];
                assert_eq!(cold.evidence, z.evidence, "{c:?}: alone ≠ shared");
                max_cold = max_cold.max(u64::from(cold.retry_stats.logical_queries));
                isolated += 1;
                isolated_flaky += usize::from(is_flaky(c));
            }
        }
        if two_ns {
            let canonical = results.zones.iter().map(|z| (z.name.clone(), z)).collect();
            mirrored += check_mirrors(batch, &canonical);
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
         (budget {DEFAULT_ZONE_QUERY_BUDGET}, no refusal); {isolated} configs ({isolated_flaky} \
         flaky) alone ≡ shared; {mirrored} of the {} mirrors (1 in {MIRROR_EVERY}) ≡ canonical \
         up to NS order; wall {:.1} s",
        scenario::unreduced_len() - space.len(),
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
        isolated >= 50 && isolated_flaky > 0,
        "{isolated} alone, {isolated_flaky} flaky"
    );
    assert!(max_shared.max(max_cold) < DEFAULT_ZONE_QUERY_BUDGET);
}

/// The classes the classifier's unit fixtures asserted, one named point
/// each (DESIGN.md §5a maps every deleted assertion to its point), then
/// the points of the classifier fixes the oracle found.
fn named_classes() -> [(&'static str, Classes); 28] {
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
        // A CDS read as matching by key tag and algorithm alone, and a
        // CDNSKEY without its flags (DESIGN.md §5a, disagreement 5) or
        // its protocol; a rollover's extra CDS is no mismatch (the ruling
        // on partial sets).
        (
            "island-wrong-digest",
            (Island, C::MismatchesDnskey, NoSignal),
        ),
        (
            "island-cdnskey-zsk-flags",
            (Island, C::MismatchesDnskey, NoSignal),
        ),
        (
            "island-cdnskey-protocol",
            (Island, C::MismatchesDnskey, NoSignal),
        ),
        ("island-mixed-digest", (Island, C::Valid, NoSignal)),
    ]
}

#[test]
fn named_points_are_in_the_space_unless_off_space() {
    let space = enumerate();
    for (point, _) in named_classes() {
        let off_space = OFF_SPACE.contains(&point);
        assert_eq!(space.contains(&named(point)), !off_space, "{point}");
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
