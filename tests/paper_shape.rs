//! Paper-shape assertions against planted ground truth.
//!
//! These run a shrunken-but-structurally-complete `paper_default` world
//! (every planted phenomenon present, the unscaled rare-event pools cut
//! down so the whole thing stays debug-runnable) and assert that the
//! regenerated reports match the generator's own truth table *exactly*:
//! the §4.1 DNSSEC class mix (Figure 1) and the Table 3 AB waterfall are
//! recomputed from `ZoneTruth` and compared count-for-count, and every
//! non-legacy zone's recovered DNSSEC/CDS classification must equal what
//! was planted.

#[expect(dead_code, reason = "each suite uses only some of the shared helpers")]
mod common;

use std::collections::BTreeMap;

use bootscan::{report, AbClass, Identified, ScanPolicy};
use dns_ecosystem::{CdsState, DnssecState, EcosystemConfig, SignalDefect, SignalTruth, ZoneTruth};
use dnssec_bootstrap::run_study;

/// `paper_default` at 1:200 000 with the *unscaled* pools (deSEC, Canal
/// Dominios, the misc test operators, the 128-operator longtail) shrunk
/// so the world lands at ≈1 800 zones. Every planted category keeps a
/// nonzero population, Cloudflare keeps >100 zones (for the sampling
/// test), and GoDaddy stays the largest single operator (for Table 1).
fn shrunken_paper_config() -> EcosystemConfig {
    let mut cfg = EcosystemConfig::paper_default(200_000);
    // 14 longtail operators carry the residual mass; the other 114 add
    // nothing structurally new at this scale.
    cfg.operators.retain(|o| {
        !o.name.starts_with("longtail")
            || o.name
                .trim_start_matches("longtail")
                .parse::<u32>()
                .map(|i| i <= 14)
                .unwrap_or(true)
    });
    for o in &mut cfg.operators {
        match o.name.as_str() {
            // Keep the bulk operators bulk-dominated: at 1:200 000 the
            // unscaled rare-event plants (e.g. Cloudflare's 47 bad-sig
            // islands) would otherwise swamp the portfolio mix that the
            // sampling policy's economics rely on.
            "GoDaddy" => o.counts.unsigned = 400,
            "Cloudflare" => {
                o.counts.unsigned = 300;
                o.counts.island_cds_badsig = 12;
            }
            "deSEC" => {
                o.counts.secured_with_cds = 150;
                o.counts.invalid_with_signal = 2;
                o.counts.island_cds = 60;
                o.signal_defects.missing_under_ns = 6;
                // zone_cut: 1 stays — the parked-typo-NS plant.
                // The transient-badsig artefact probability would make the
                // recovered-vs-planted equality below flaky; the chaos
                // suite covers transient faults.
                o.quirks.transient_badsig = 0.0;
            }
            "Glauca Digital" => o.counts.secured_with_cds = 100,
            "misc-signal-tests" => {
                o.counts.secured_with_cds = 40;
                o.counts.invalid_with_signal = 30;
            }
            "Canal Dominios" => o.counts.unsigned_with_cds = 50,
            "misc-cds-tests" => {
                o.counts.unsigned_with_cds = 40;
                o.counts.unsigned_with_cds_delete = 4;
            }
            _ => {}
        }
    }
    cfg
}

#[test]
fn headline_shapes_hold() {
    let (eco, results) = run_study(shrunken_paper_config(), ScanPolicy::default());

    // Every scanned zone exists in the ground truth, and on a clean
    // network every zone resolves.
    let truths: Vec<&ZoneTruth> = results
        .zones
        .iter()
        .map(|z| {
            eco.truth_of(&z.name)
                .unwrap_or_else(|| panic!("no truth for {}", z.name))
        })
        .collect();
    let f = report::figure1(&results);
    assert_eq!(f.indeterminate, 0, "{f:?}");
    assert_eq!(f.resolved, results.zones.len() as u64, "{f:?}");

    // §4.1 / Figure 1 — the recovered DNSSEC class mix equals the planted
    // mix, count for count.
    let count = |p: &dyn Fn(&ZoneTruth) -> bool| truths.iter().filter(|t| p(t)).count() as u64;
    assert_eq!(f.unsigned, count(&|t| t.dnssec == DnssecState::Unsigned));
    assert_eq!(f.secured, count(&|t| t.dnssec == DnssecState::Secured));
    assert_eq!(f.invalid, count(&|t| t.dnssec == DnssecState::Invalid));
    assert_eq!(f.islands, count(&|t| t.dnssec == DnssecState::Island));
    // …including the island CDS breakdown (Figure 1's right-hand side).
    let island = |t: &ZoneTruth| t.dnssec == DnssecState::Island;
    assert_eq!(
        f.island_without_cds,
        count(&|t| island(t) && t.cds == CdsState::None)
    );
    assert_eq!(
        f.island_cds_delete,
        count(&|t| island(t) && t.cds == CdsState::Delete)
    );
    assert_eq!(
        f.island_bootstrappable,
        count(&|t| t.traditionally_bootstrappable())
    );
    assert_eq!(
        f.island_invalid_cds,
        count(&|t| island(t)
            && matches!(
                t.cds,
                CdsState::MismatchesDnskey | CdsState::BadSignature | CdsState::Inconsistent
            ))
    );

    // Per-zone: the recovered DNSSEC class equals the planted one for
    // every zone whose NSes answer CDS probes (legacy NSes degrade the
    // evidence trail by design).
    for (z, t) in results.zones.iter().zip(&truths) {
        if !t.legacy_ns {
            assert_eq!(
                z.dnssec,
                common::expect_dnssec(t),
                "{}: scanner {:?} vs planted {:?}",
                z.name,
                z.dnssec,
                t.dnssec
            );
        }
    }

    // §4.4 / Table 3 — the AB waterfall, recomputed from truth. A zone
    // appears in the table iff the generator published signal RRs for it.
    let t3 = report::table3(&results, &["Cloudflare", "deSEC", "Glauca Digital"]);
    let mut expected: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
    for t in &truths {
        if !t.has_signal() {
            continue;
        }
        // Multi-operator setups are identified as `Multi` and land in the
        // "Others" column, as do single operators outside the named set.
        // The zone-cut plant's parked-typo NS sits outside its operator's
        // domain, so single-operator attribution correctly degrades too.
        let zone_cut = t.signal == SignalTruth::Published(SignalDefect::ZoneCut);
        let col = if t.second_operator.is_none() && !zone_cut {
            match eco.operators[t.operator].name.as_str() {
                n @ ("Cloudflare" | "deSEC" | "Glauca Digital") => n.to_string(),
                _ => "Others".to_string(),
            }
        } else {
            "Others".to_string()
        };
        let e = expected.entry(col).or_default();
        e.0 += 1; // with_signal_cds
        if t.dnssec == DnssecState::Secured {
            e.1 += 1; // already_secured
        }
        if t.traditionally_bootstrappable() {
            e.2 += 1; // potential
            if t.signal == SignalTruth::Published(SignalDefect::None) {
                e.3 += 1; // signal_correct
            }
        }
    }
    let got: BTreeMap<String, (u64, u64, u64, u64)> = t3
        .columns
        .iter()
        .map(|(n, c)| {
            (
                n.clone(),
                (
                    c.with_signal_cds,
                    c.already_secured,
                    c.potential,
                    c.signal_correct,
                ),
            )
        })
        .collect();
    assert_eq!(
        got, expected,
        "Table 3 waterfall diverges from planted truth"
    );
    // The named operators all made the table.
    for name in ["Cloudflare", "deSEC", "Glauca Digital"] {
        assert!(got.contains_key(name), "{name} missing from Table 3");
    }
    // §4.3's headline, phrased against truth: the AB-correct subset of
    // the bootstrappable islands matches the planted defect census.
    let correct: u64 = t3.columns.iter().map(|(_, c)| c.signal_correct).sum();
    assert_eq!(correct, count(&|t| t.ab_correct()));

    // §4.2 — CDS inconsistencies are predominantly multi-operator, and
    // the rare-event plants are visible.
    let census = report::cds_census(&results);
    assert!(
        census.inconsistent_multi_operator * 2 > census.inconsistent,
        "{census:?}"
    );
    assert!(census.delete_in_unsigned >= 1);
    assert!(census.cds_without_matching_dnskey >= 1);

    // Table 1 shape — GoDaddy is still the biggest single operator and is
    // overwhelmingly unsigned; a DNSSEC-by-default operator exists.
    let t1 = report::table1(&results, 20);
    assert_eq!(t1[0].operator, "GoDaddy");
    assert!(t1[0].unsigned * 100 >= t1[0].domains * 95, "{:?}", t1[0]);
    assert!(
        t1.iter().any(|r| r.secured * 100 >= r.domains * 40),
        "no DNSSEC-by-default operator in top 20"
    );

    // The AB violation taxonomy is populated: the planted zone-cut and
    // not-under-every-NS defects surface as distinct violations.
    let mut seen = std::collections::HashSet::new();
    for z in results.resolved() {
        if let AbClass::SignalIncorrect(v) = z.ab {
            seen.insert(format!("{v:?}"));
        }
    }
    assert!(seen.contains("ZoneCut"), "{seen:?}");
    assert!(seen.contains("NotUnderEveryNs"), "{seen:?}");

    // Sanity on operator identification: multi-operator plants exist and
    // were recognised as such.
    assert!(
        results
            .zones
            .iter()
            .any(|z| matches!(z.operator, Identified::Multi(_))),
        "no multi-operator zone identified"
    );
}

#[test]
fn sampled_scan_is_cheaper_than_exhaustive_on_cloudflare() {
    // Appendix D / §3: the sampling policy is what made the scan feasible.
    let eco = dns_ecosystem::build(shrunken_paper_config());
    let cf_zones: Vec<_> = eco
        .seeds
        .compile(&eco.psl)
        .into_iter()
        .filter(|n| {
            eco.truth_of(n)
                .map(|t| {
                    // Single-operator Cloudflare zones: multi-operator
                    // setups mix NS fleets, so their targets are never
                    // pooled under *.ns.cloudflare.com.
                    eco.operators[t.operator].name == "Cloudflare" && t.second_operator.is_none()
                })
                .unwrap_or(false)
        })
        .collect();
    assert!(cf_zones.len() > 100);

    let make = |fraction: f64| {
        bootscan::Scanner::for_ecosystem(
            &eco,
            ScanPolicy {
                sample_fraction: fraction,
                ..ScanPolicy::default()
            },
        )
    };
    let sampled = make(0.95).scan_all(&cf_zones);
    let full = make(0.0).scan_all(&cf_zones);
    // ~95 % of the pooled-NS zones must actually be sampled down…
    let sampled_zones = sampled.zones.iter().filter(|z| z.sampled).count();
    assert!(
        sampled_zones * 100 >= sampled.zones.len() * 85,
        "only {sampled_zones}/{} zones sampled",
        sampled.zones.len()
    );
    // …cutting the per-address probe load (12 addresses → 1+1) by >3×
    // and the end-to-end query count by >40 % — the fixed per-zone costs
    // (delegation chain, NS address lookups, signal probes) are shared.
    let obs = |r: &bootscan::ScanResults| -> usize {
        r.zones.iter().map(|z| z.ns_observations.len()).sum()
    };
    assert!(
        obs(&sampled) * 3 < obs(&full),
        "address probes: {} vs {}",
        obs(&sampled),
        obs(&full)
    );
    assert!(
        sampled.total_queries * 5 < full.total_queries * 3,
        "sampling must cut the Cloudflare query load by >40 %: {} vs {}",
        sampled.total_queries,
        full.total_queries
    );
    // …without changing a single classification (the Tranco-1M check).
    for (a, b) in sampled.zones.iter().zip(full.zones.iter()) {
        assert_eq!(a.dnssec, b.dnssec, "{}", a.name);
        assert_eq!(a.cds, b.cds, "{}", a.name);
        assert_eq!(a.ab, b.ab, "{}", a.name);
    }
}
