//! Deterministic cost gates on the tiny world: logical queries, root+TLD
//! datagrams and virtual time are pure functions of (world, policy,
//! schedule), so they gate efficiency regressions on any runner.
//! Wall-clock belongs to the repo benchmark (`BENCHMARK.json`), not here.
//!
//! Each gate computes a `key=value` map and fails when a gated counter
//! exceeds its committed baseline in `crates/bench/baselines/` by more
//! than 20 %. A failure prints the full current map: to re-baseline
//! after an intended change, paste it over the baseline file.

use bootscan::{ScanPolicy, Scanner};
use dns_ecosystem::{apply_churn, build, ChurnConfig, ChurnPlan, Ecosystem, EcosystemConfig};
use dns_wire::rdata::RData;
use dns_wire::record::RecordType;
use netsim::Addr;
use scan_continuous::{run_continuous, ContinuousConfig, ContinuousOutput};
use scan_fabric::FabricConfig;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::Duration;

const WORLD_SEED: u64 = 42;
const CHURN_SEED: u64 = 7;

fn parse(text: &str) -> BTreeMap<&str, u64> {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect()
}

/// Compare `current` (the rendered map) against `baseline`: `gated`
/// keys may not exceed the baseline by more than 20 %, `exact` keys may
/// not differ at all, and either kind must be present on both sides.
fn gate(current: &str, baseline: &str, gated: impl Fn(&str) -> bool, exact: impl Fn(&str) -> bool) {
    let (base, cur) = (parse(baseline), parse(current));
    let keys: BTreeSet<&str> = base.keys().chain(cur.keys()).copied().collect();
    let mut failures = Vec::new();
    for key in keys.into_iter().filter(|k| gated(k) || exact(k)) {
        match (cur.get(key), base.get(key)) {
            (Some(&now), Some(&was)) if exact(key) && now != was => {
                failures.push(format!("{key}: {now} vs baseline {was} (must not change)"))
            }
            (Some(&now), Some(&was)) if gated(key) && now * 5 > was * 6 => {
                failures.push(format!("{key}: {now} vs baseline {was} (>20% regression)"))
            }
            (Some(_), Some(_)) => {}
            _ => failures.push(format!("{key}: measured or baselined, not both")),
        }
    }
    assert!(
        failures.is_empty(),
        "cost regression:\n  {}\ncurrent map (paste over the baseline to accept):\n{current}",
        failures.join("\n  ")
    );
}

/// Root + registry (TLD) server addresses — the infrastructure a shared
/// delegation cache is supposed to shield. Registry server glue is
/// authoritative in each registry zone at `ns1.nic.<suffix>`.
fn infra_addrs(eco: &Ecosystem) -> HashSet<Addr> {
    let mut set: HashSet<Addr> = eco.roots.iter().copied().collect();
    for (suffix, store) in &eco.registry_stores {
        let ns = suffix
            .prepend_label(b"nic")
            .and_then(|n| n.prepend_label(b"ns1"))
            .expect("registry NS name");
        let Some(zone) = store.get(suffix) else {
            continue;
        };
        for rt in [RecordType::A, RecordType::Aaaa] {
            for rd in zone.rrset(&ns, rt).iter().flat_map(|r| &r.rdatas) {
                match rd {
                    RData::A(a) => set.insert(Addr::V4(*a)),
                    RData::Aaaa(a) => set.insert(Addr::V6(*a)),
                    _ => false,
                };
            }
        }
    }
    set
}

/// One cold scan per parallelism level, each over a freshly built world
/// so netsim's per-destination accounting starts from zero.
#[test]
fn cold_scan_costs_stay_within_baseline() {
    let mut current = String::from("world=tiny\n");
    for p in [1usize, 4, 8] {
        let eco = build(EcosystemConfig::tiny(WORLD_SEED));
        let infra = infra_addrs(&eco);
        let seeds = eco.seeds.compile(&eco.psl);
        let policy = ScanPolicy {
            parallelism: p,
            ..ScanPolicy::default()
        };
        let results = Scanner::for_ecosystem(&eco, policy).scan_all(&seeds);
        let snap = eco.net.stats().snapshot();
        let root_tld: u64 = snap
            .per_dest
            .iter()
            .filter(|(addr, _)| infra.contains(addr))
            .map(|(_, n)| *n)
            .sum();
        current.push_str(&format!(
            "p{p}.zones={}\np{p}.total_queries={}\np{p}.simulated_duration_us={}\n\
             p{p}.total_datagrams={}\np{p}.root_tld_datagrams={root_tld}\n",
            results.zones.len(),
            results.total_queries,
            results.simulated_duration,
            snap.queries,
        ));
    }
    gate(
        &current,
        include_str!("../crates/bench/baselines/scan_tiny.txt"),
        // Simulated duration is the max worker's virtual time: above
        // p = 1 it depends on the racy zone→worker assignment, so only
        // the p = 1 value is gated.
        |key| {
            key.ends_with(".total_queries")
                || key.ends_with(".root_tld_datagrams")
                || key == "p1.simulated_duration_us"
        },
        |_| false,
    );
}

fn study(epochs: u32, spacing: u64) -> ContinuousOutput {
    let mut cfg = ContinuousConfig::new(epochs, CHURN_SEED);
    cfg.run_id = 0xBE_0001;
    cfg.epoch_spacing = spacing;
    cfg.max_pipeline_depth = 1;
    cfg.fabric = FabricConfig {
        workers: 1,
        shards: 8,
        max_attempts: 4,
        heartbeat_every: 1,
        lease_timeout_polls: 25,
        poll_wait: Duration::from_millis(2),
        max_respawns: 64,
    };
    let state = std::env::temp_dir().join(format!(
        "cost-gates-{epochs}-{spacing}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&state);
    let out = run_continuous(
        EcosystemConfig::tiny(WORLD_SEED),
        ScanPolicy::default(),
        &cfg,
        &state,
    )
    .expect("continuous study");
    let _ = std::fs::remove_dir_all(&state);
    out
}

/// Five epochs under calibrated backpressure: a one-epoch probe measures
/// epoch 0's virtual makespan, arrivals are scheduled every third of it
/// at pipeline depth 1, which forces a pipelined and a coalesced epoch.
/// The skipped-epoch count is pinned exactly — a change in admission
/// behaviour is a semantic change, not a cost wobble.
#[test]
fn continuous_study_costs_stay_within_baseline() {
    let makespan0 = study(1, 86_400_000_000).series.epochs[0].simulated_duration;
    let out = study(5, (makespan0 / 3).max(1));

    let mut current = format!("world=tiny\nskipped={}\n", out.series.skipped.len());
    for e in &out.series.epochs {
        current.push_str(&format!(
            "e{0}.queries={1}\ne{0}.fresh={2}\ne{0}.makespan={3}\n",
            e.epoch,
            e.queries,
            e.fresh.len(),
            e.simulated_duration
        ));
    }
    gate(
        &current,
        include_str!("../crates/bench/baselines/continuous_tiny.txt"),
        |key| key.starts_with('e'),
        |key| key == "skipped",
    );
}

/// Churn costs what it changes: the RRsets `apply_churn` signs in
/// operator base zones are bounded by the signal owners it moved — each
/// re-signs itself and one NSEC predecessor, no node here holds more
/// than four signable RRsets — and not by the size of the zones, which
/// a strip-and-re-sign of every edited base would pay for.
#[test]
fn churn_signing_is_bounded_by_changed_owners() {
    let mut eco = build(EcosystemConfig::tiny(WORLD_SEED));
    // What re-signing every signed base zone whole signs: one RRSIG each.
    let mut whole = 0;
    for (op, stores) in eco.operator_stores.iter().enumerate() {
        if !eco.operator_flavors[op].signal_enabled {
            continue;
        }
        for zone in eco.base_keys.keys().filter_map(|b| stores[0].get(b)) {
            let records = zone.records();
            whole += records
                .iter()
                .filter(|r| r.rtype() == RecordType::Rrsig)
                .count();
        }
    }
    let (mut changed, mut signed) = (0, 0);
    for epoch in 1..=4 {
        let plan = ChurnPlan::generate(&eco, &ChurnConfig::default(), CHURN_SEED, epoch);
        let log = apply_churn(&mut eco, &plan);
        assert!(
            log.base_rrsets_signed <= 8 * log.signal_owners_changed,
            "epoch {epoch}: {} RRsets signed for {} changed signal owners",
            log.base_rrsets_signed,
            log.signal_owners_changed
        );
        changed += log.signal_owners_changed;
        signed += log.base_rrsets_signed;
    }
    assert!(changed > 0, "four tiny epochs must move a signal owner");
    assert!(
        signed * 2 < whole,
        "{signed} RRsets signed over four epochs; one whole re-sign is {whole}"
    );
}

/// The measured side of ROADMAP item 1: every perf PR appends its
/// parent and change rows to `BENCH_trajectory.json`. Nothing here
/// parses JSON: the file must be there, hold rows, and name every
/// workload and both revisions of each PR that appended to it.
#[test]
fn bench_trajectory_names_every_workload_and_both_revisions() {
    let text = include_str!("../BENCH_trajectory.json");
    for needle in [
        "\"rows\"",
        "\"cold_scan\"",
        "\"parallel_scan\"",
        "\"fabric_scan\"",
        "\"continuous_study\"",
        "\"revision\": \"b5f7e62\"",
        "\"revision\": \"PR 23\"",
        "\"revision\": \"fdd6e4a\"",
        "\"revision\": \"PR 24\"",
        "\"cpu_ns_per_query\"",
    ] {
        assert!(
            text.contains(needle),
            "BENCH_trajectory.json lacks {needle}"
        );
    }
}
