//! Deterministic cost gates on the tiny world: logical queries, root+TLD
//! datagrams and virtual time are pure functions of (world, policy,
//! schedule), so they gate efficiency regressions on any runner.
//! Wall-clock belongs to the repo benchmark (`BENCHMARK.json`), not here.
//! So do vector slots: the footprint gate counts the slots every zone and
//! scan result holds, and pins their spare slots at zero.
//!
//! Each gate computes a `key=value` map and fails when a gated counter
//! exceeds its committed baseline in `crates/bench/baselines/` by more
//! than 20 %. A failure prints the full current map: to re-baseline
//! after an intended change, paste it over the baseline file.

use bootscan::types::{CdsSeen, NsObservation, SignalObservation};
use bootscan::{Identified, ProgressSink, ReferralData, ScanPolicy, Scanner, ZoneEvent, ZoneScan};
use dns_ecosystem::{apply_churn, build, ChurnConfig, ChurnPlan, Ecosystem, EcosystemConfig};
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RData, RrsigData};
use dns_wire::record::{RecordType, RrSet};
use dns_zone::Zone;
use netsim::Addr;
use scan_continuous::{run_continuous, ContinuousConfig, ContinuousOutput};
use scan_fabric::FabricConfig;
use scan_journal::{decode_event, encode_event};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
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

/// Every zone reachable from the world's public stores, each once (hosts
/// of one operator share `Arc`s), classed as a customer zone (in the
/// planted truth), an operator base zone, a registry (TLD) zone, or
/// anything else an operator store holds (parking, hostile tiers).
fn stored_zones(eco: &Ecosystem) -> BTreeMap<&'static str, Vec<Arc<Zone>>> {
    let customers: HashSet<&Name> = eco.truth.iter().map(|t| &t.name).collect();
    let mut seen = HashSet::new();
    let mut out: BTreeMap<&'static str, Vec<Arc<Zone>>> = BTreeMap::new();
    let registry = eco.registry_stores.values().map(|s| (true, s));
    let operators = eco.operator_stores.iter().flatten().map(|s| (false, s));
    for (is_registry, store) in registry.chain(operators) {
        for apex in store.apexes() {
            let Some(zone) = store.get(&apex) else {
                continue;
            };
            if !seen.insert(Arc::as_ptr(&zone)) {
                continue;
            }
            let owner = if is_registry {
                "registry"
            } else if customers.contains(&apex) {
                "customer"
            } else if eco.base_keys.contains_key(&apex) {
                "base"
            } else {
                "other"
            };
            out.entry(owner).or_default().push(zone);
        }
    }
    out
}

/// Capacity and length totals over a family of vectors.
#[derive(Default)]
struct Slots {
    slots: usize,
    len: usize,
}

impl Slots {
    fn of<T>(&mut self, v: &Vec<T>) {
        self.slots += v.capacity();
        self.len += v.len();
    }

    fn render(&self, key: &str) -> String {
        format!(
            "{key}_slots={}\n{key}_spare={}\n",
            self.slots,
            self.slots - self.len
        )
    }
}

/// RRset slots (each node's `rrsets`) and RDATA slots (each RRset's
/// `rdatas`) over `zones`.
fn zone_slots(zones: &[Arc<Zone>]) -> (Slots, Slots) {
    let (mut rrsets, mut rdatas) = (Slots::default(), Slots::default());
    for (_, node) in zones.iter().flat_map(|z| z.nodes()) {
        rrsets.of(node.rrsets());
        for set in node.rrsets() {
            rdatas.of(&set.rdatas);
        }
    }
    (rrsets, rdatas)
}

/// Item slots of every vector a `ZoneScan` keeps, nested ones included.
fn scan_slots(scan: &ZoneScan, s: &mut Slots) {
    s.of(&scan.ns_names);
    s.of(&scan.parent_ds);
    s.of(&scan.ns_observations);
    s.of(&scan.signal_observations);
    for o in &scan.ns_observations {
        s.of(&o.dnskeys);
        s.of(&o.cds);
    }
    for o in &scan.signal_observations {
        s.of(&o.cds);
    }
    if let Identified::Multi(ops) = &scan.operator {
        s.of(ops);
    }
}

/// The zone stores' footprint map: RRset and RDATA slots per owner class.
fn render_zones(eco: &Ecosystem, stage: &str) -> String {
    let mut out = String::new();
    for (owner, zones) in stored_zones(eco) {
        let (rrsets, rdatas) = zone_slots(&zones);
        out.push_str(&format!("{stage}.{owner}.zones={}\n", zones.len()));
        out.push_str(&rrsets.render(&format!("{stage}.{owner}.rrset")));
        out.push_str(&rdatas.render(&format!("{stage}.{owner}.rdata")));
    }
    out
}

/// A zone and a scan result hold no spare vector slot: every RRset and
/// node is exactly sized by `Zone::add` and `Zone::remove_rrset` (so
/// also after churn's edits), and every `ZoneScan` vector by the scanner
/// and by the journal decoder. Spare slots must stay 0; slot totals may
/// grow 20 % over `crates/bench/baselines/footprint_tiny.txt`.
#[test]
fn footprint_is_exact() {
    let mut eco = build(EcosystemConfig::tiny(WORLD_SEED));
    let mut current = String::from("world=tiny\n");
    current.push_str(&render_zones(&eco, "build"));

    let seeds = eco.seeds.compile(&eco.psl);
    let results = Scanner::for_ecosystem(&eco, ScanPolicy::default()).scan_all(&seeds);
    let (mut scan, mut journal) = (Slots::default(), Slots::default());
    scan.of(&results.zones);
    for z in &results.zones {
        scan_slots(z, &mut scan);
        let event = ZoneEvent {
            pass: 0,
            scan: z.clone(),
            effects: Default::default(),
            duration_delta: 0,
        };
        let back = decode_event(&encode_event(&event)).expect("codec round trip");
        scan_slots(&back.scan, &mut journal);
    }
    current.push_str(&scan.render("scan"));
    current.push_str(&journal.render("journal"));

    let plan = ChurnPlan::generate(&eco, &ChurnConfig::default(), CHURN_SEED, 1);
    apply_churn(&mut eco, &plan);
    current.push_str(&render_zones(&eco, "churn"));

    gate(
        &current,
        include_str!("../crates/bench/baselines/footprint_tiny.txt"),
        |key| key.ends_with("_slots"),
        |key| key.ends_with("_spare"),
    );
}

/// Bytes by owner, `size_of` × capacity, on `paper_default(100_000)`
/// (the benchmark's world): the attribution behind DESIGN §7's "Bytes
/// per zone" table. Zone bytes count `RData` and `RrSet` slots, RRSIG
/// signature and DNSKEY/CDNSKEY key bytes, and each distinct owner name's
/// buffer once (an `Arc<[u8]>`: 16 header bytes plus the wire form).
/// Scan results count every `ZoneScan` slot and nested vector; the
/// scanner caches count the entries a cold scan's cache log inserted,
/// last write per name, values at their capacity. Prints; gates nothing:
/// `cargo test --release --test cost_gates -- --ignored --nocapture`.
#[test]
#[ignore = "paper-scale attribution, prints only"]
fn footprint_by_owner() {
    use std::mem::size_of;
    let eco = build(EcosystemConfig::paper_default(100_000));
    let seeds = eco.seeds.compile(&eco.psl);
    let mut rows: Vec<(String, &str, usize)> = Vec::new();
    for (owner, zones) in stored_zones(&eco) {
        let (rrsets, rdatas) = zone_slots(&zones);
        let (mut sig, mut key) = (0, 0);
        let mut names = HashSet::new();
        for (name, node) in zones.iter().flat_map(|z| z.nodes()) {
            names.insert(name.clone());
            for rd in node.rrsets().iter().flat_map(|s| &s.rdatas) {
                match rd {
                    RData::Rrsig(s) => sig += s.signature.capacity(),
                    RData::Dnskey(k) | RData::Cdnskey(k) => key += k.public_key.capacity(),
                    _ => {}
                }
            }
        }
        let name_bytes: usize = names.iter().map(|n| 16 + n.wire_len()).sum();
        let zones = format!("{owner} zones ({})", zones.len());
        rows.push((
            zones.clone(),
            "RData slots",
            rdatas.slots * size_of::<RData>(),
        ));
        rows.push((
            zones.clone(),
            "RrSet slots",
            rrsets.slots * size_of::<RrSet>(),
        ));
        rows.push((zones.clone(), "signature bytes", sig));
        rows.push((zones.clone(), "key bytes", key));
        rows.push((zones, "owner names", name_bytes));
    }

    let log = CacheLogSink::default();
    let results =
        Scanner::for_ecosystem(&eco, ScanPolicy::default()).scan_all_with(&seeds, Some(&log), None);
    let mut items = Slots::default();
    let mut bytes = size_of::<ZoneScan>() * results.zones.capacity();
    for z in &results.zones {
        scan_slots(z, &mut items);
        bytes += z.ns_names.capacity() * size_of::<Name>()
            + z.parent_ds.capacity() * size_of::<DsData>()
            + z.ns_observations.capacity() * size_of::<NsObservation>()
            + z.signal_observations.capacity() * size_of::<SignalObservation>();
        for o in &z.ns_observations {
            bytes += o.dnskeys.capacity() * size_of::<DnskeyData>()
                + o.dnskeys
                    .iter()
                    .map(|k| k.public_key.capacity())
                    .sum::<usize>()
                + o.cds.capacity() * size_of::<CdsSeen>();
        }
        for o in &z.signal_observations {
            bytes += o.cds.capacity() * size_of::<CdsSeen>();
        }
    }
    let scans = format!("scan results ({} zones)", results.zones.len());
    rows.push((scans.clone(), "ZoneScan and nested slots", bytes));
    rows.push((scans, "spare nested slots (count)", items.slots - items.len));
    for (cache, b) in log.bytes() {
        rows.push(("scanner caches".into(), cache, b));
    }

    let per_zone = seeds.len().max(1);
    println!("footprint by owner, paper_default(100_000), {per_zone} seeds");
    println!(
        "{:<34} {:<28} {:>12} {:>10}",
        "owner", "what", "bytes", "B/seed"
    );
    for (owner, what, b) in &rows {
        println!(
            "{owner:<34} {what:<28} {b:>12} {:>10.1}",
            *b as f64 / per_zone as f64
        );
    }
    let total: usize = rows
        .iter()
        .filter(|(_, what, _)| !what.ends_with("(count)"))
        .map(|(_, _, b)| b)
        .sum();
    println!(
        "{:<34} {:<28} {total:>12} {:>10.1}",
        "total",
        "",
        total as f64 / per_zone as f64
    );
}

/// Keeps the last value each cache insert of a scan wrote per name.
#[derive(Default)]
struct CacheLogSink {
    keys: RefCell<HashMap<Name, Arc<Vec<DnskeyData>>>>,
    addrs: RefCell<HashMap<Name, Arc<Vec<Addr>>>>,
    referrals: RefCell<HashMap<Name, Arc<ReferralData>>>,
}

impl ProgressSink for CacheLogSink {
    fn on_zone(&self, event: &ZoneEvent) -> bool {
        let e = &event.effects;
        self.keys.borrow_mut().extend(e.key_inserts.iter().cloned());
        self.addrs
            .borrow_mut()
            .extend(e.addr_inserts.iter().cloned());
        self.referrals
            .borrow_mut()
            .extend(e.referral_inserts.iter().cloned());
        true
    }
}

impl CacheLogSink {
    /// Bytes per cache: one entry (key name, provenance name, value `Arc`
    /// and expiry) per name plus the value's heap at its capacity.
    fn bytes(&self) -> [(&'static str, usize); 3] {
        use std::mem::size_of;
        let entry = 2 * size_of::<Name>() + size_of::<Arc<()>>() + size_of::<u64>();
        let arc = 16;
        let keys = self.keys.borrow();
        let addrs = self.addrs.borrow();
        let referrals = self.referrals.borrow();
        let key_bytes = keys
            .values()
            .map(|k| {
                entry
                    + arc
                    + size_of::<Vec<DnskeyData>>()
                    + k.capacity() * size_of::<DnskeyData>()
                    + k.iter().map(|d| d.public_key.capacity()).sum::<usize>()
            })
            .sum();
        let addr_bytes = addrs
            .values()
            .map(|a| entry + arc + size_of::<Vec<Addr>>() + a.capacity() * size_of::<Addr>())
            .sum();
        let referral_bytes = referrals
            .values()
            .map(|r| {
                entry
                    + arc
                    + size_of::<ReferralData>()
                    + r.ns_names.capacity() * size_of::<Name>()
                    + r.ds
                        .as_ref()
                        .map_or(0, |d| d.capacity() * size_of::<DsData>())
                    + r.ds_rrsigs.capacity() * size_of::<RrsigData>()
                    + r.ds_rrsigs
                        .iter()
                        .map(|s| s.signature.capacity())
                        .sum::<usize>()
                    + (r.child_servers.capacity() + r.parent_servers.capacity()) * size_of::<Addr>()
            })
            .sum();
        [
            ("validated keys", key_bytes),
            ("addresses", addr_bytes),
            ("referrals", referral_bytes),
        ]
    }
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
