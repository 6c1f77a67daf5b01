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

#[expect(dead_code, reason = "each suite uses only some of the shared helpers")]
mod common;

use bootscan::{
    CacheInsert, CutOutcome, Identified, ProgressSink, ReferralData, ScanPolicy, ScanRecord,
    Scanner, ZoneEffects, ZoneEvent, ZoneScan,
};
use dns_ecosystem::{
    apply_churn, build, ChurnAction, ChurnConfig, ChurnPlan, Ecosystem, EcosystemConfig,
};
use dns_wire::name::Name;
use dns_wire::rdata::{DnskeyData, DsData, RData, RrsigData};
use dns_wire::record::{Rdatas, RecordType, RrSet};
use dns_zone::signal::child_from_signal_name;
use dns_zone::Zone;
use netsim::Addr;
use scan_continuous::{run_continuous, ContinuousConfig, ContinuousOutput};
use scan_epochs::CarryLedger;
use scan_fabric::{FabricConfig, ShardPlan};
use scan_journal::{decode_event, encode_event, for_each_recovered, Namespace};
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
    let baseline = include_str!("../crates/bench/baselines/scan_tiny.txt");
    let mut current = String::from("world=tiny\n");
    let mut raced = Vec::new();
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
        current.push_str(&format!("p{p}.zones={}\n", results.zones.len()));
        // Above p = 1 the simulated duration is the max worker's virtual
        // time, and the query and datagram counts include the lookups
        // two workers raced to: all depend on the zone→worker
        // assignment, so only the p = 1 values are rendered, and each
        // raced count is gated against the baseline's p = 1 count.
        let counts = [
            ("total_queries", results.total_queries),
            ("root_tld_datagrams", root_tld),
        ];
        if p == 1 {
            current.push_str(&format!(
                "p1.simulated_duration_us={}\np1.total_datagrams={}\n",
                results.simulated_duration, snap.queries,
            ));
            for (key, n) in counts {
                current.push_str(&format!("p1.{key}={n}\n"));
            }
        } else {
            raced.extend(counts.map(|(key, n)| (p, key, n)));
        }
    }
    gate(
        &current,
        baseline,
        |key| {
            key.ends_with(".total_queries")
                || key.ends_with(".root_tld_datagrams")
                || key == "p1.simulated_duration_us"
        },
        |_| false,
    );
    let base = parse(baseline);
    for (p, key, now) in raced {
        let was = base[&*format!("p1.{key}")];
        assert!(
            now * 5 <= was * 6,
            "p{p}.{key}: {now} vs baseline p1.{key}={was} (>20% regression)"
        );
    }
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
/// Every counter is pinned exactly. The skipped-epoch count is
/// admission behaviour, a semantic change, not a cost wobble; and at
/// one worker each epoch's queries, delta size and makespan are
/// deterministic, so a carried cache insert lost or gained anywhere
/// moves one of them — a 20 % slack would hide a fifth of the carry.
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
        |_| false,
        |key| key == "skipped" || key.starts_with('e'),
    );
}

/// A sealed `ZoneScan` is shared, not copied: every row an epoch table
/// carries forward (its zone was not re-scanned that epoch) is the
/// previous table's row, one pointer to one scan body. A copy of the
/// body anywhere on the carry path fails `Arc::ptr_eq` here.
#[test]
fn carried_rows_are_shared() {
    // The default spacing: 30 virtual minutes, inside the evidence TTL,
    // so unchurned zones carry.
    let out = study(3, 1_800_000_000);
    assert!(out.series.skipped.is_empty(), "no epoch may coalesce");
    let mut carried = 0;
    for pair in out.series.epochs.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        assert!(cur.stale.is_empty(), "epoch {}: a clean run", cur.epoch);
        let fresh: HashSet<&Name> = cur.fresh.iter().collect();
        let before: HashMap<&Name, &ZoneScan> = prev.zones.iter().map(|z| (&z.name, z)).collect();
        for z in cur.zones.iter().filter(|z| !fresh.contains(&z.name)) {
            assert!(
                Arc::ptr_eq(z, before[&z.name]),
                "epoch {}: carried row {} copies its scan",
                cur.epoch,
                z.name
            );
            carried += 1;
        }
    }
    assert!(carried > 0, "three tiny epochs must carry a row");
}

/// A live scan seals its observations shared: within one zone, equal
/// key lists are one `Arc`, and so are equal CDS lists, in-zone and
/// signal alike. A per-observation copy fails `Arc::ptr_eq` here.
#[test]
fn sealed_scans_share_equal_lists() {
    let eco = build(EcosystemConfig::tiny(WORLD_SEED));
    let seeds = eco.seeds.compile(&eco.psl);
    let results = Scanner::for_ecosystem(&eco, ScanPolicy::default()).scan_all(&seeds);
    let mut shared = 0;
    for z in &results.zones {
        let keys: Vec<&Arc<Vec<DnskeyData>>> =
            z.ns_observations.iter().map(|o| &o.dnskeys).collect();
        let cds: Vec<_> = z
            .ns_observations
            .iter()
            .map(|o| &o.cds)
            .chain(z.signal_observations.iter().map(|s| &s.cds))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[..i] {
                assert_eq!(
                    a == b,
                    Arc::ptr_eq(a, b),
                    "{}: an equal key list is copied",
                    z.name
                );
                shared += usize::from(Arc::ptr_eq(a, b) && !a.is_empty());
            }
        }
        for (i, a) in cds.iter().enumerate() {
            for b in &cds[..i] {
                assert_eq!(
                    a == b,
                    Arc::ptr_eq(a, b),
                    "{}: an equal CDS list is copied",
                    z.name
                );
            }
        }
    }
    assert!(
        shared > 0,
        "some tiny zone serves one key set from two addresses"
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

/// RRset bodies are built once and shared across the world (DESIGN §7,
/// "RRset bodies are shared"): every zone's SOA is one allocation, and
/// so is every CSYNC; a child apex whose NS set equals its delegation's
/// holds the delegation's body; a signal owner whose CDS or CDNSKEY set
/// equals its zone's holds the zone's body. Checked on the built world
/// and again after one `apply_churn`, which must leave untouched zones
/// sharing and give the zones it rebuilds the same constructors. A
/// copied body fails `Rdatas::ptr_eq` here.
#[test]
fn world_rrset_bodies_are_shared() {
    let mut eco = build(EcosystemConfig::tiny(WORLD_SEED));
    let built = body_sharing(&eco);
    assert_eq!(
        built.ns_bodies, built.ns_contents,
        "the builder makes one NS body per host tuple"
    );
    let plan = ChurnPlan::generate(&eco, &ChurnConfig::default(), CHURN_SEED, 1);
    let log = apply_churn(&mut eco, &plan);
    let churned = body_sharing(&eco);
    let rebuilt: Vec<&Name> = log
        .deltas
        .iter()
        .filter(|d| {
            !matches!(
                d.action,
                ChurnAction::CompleteBootstrap
                    | ChurnAction::PublishSignal
                    | ChurnAction::WithdrawSignal
            )
        })
        .map(|d| &d.zone)
        .collect();
    assert!(!rebuilt.is_empty(), "epoch 1 must rebuild a zone");
    for zone in rebuilt {
        assert!(
            churned.ns_shared_apexes.contains(zone),
            "{zone}: rebuilt apex NS is not its delegation's body"
        );
    }
}

/// What [`body_sharing`] saw.
struct Sharing {
    /// Distinct NS bodies and distinct NS contents at customer apexes.
    ns_bodies: usize,
    ns_contents: usize,
    /// Customer apexes whose NS body is the delegation's.
    ns_shared_apexes: HashSet<Name>,
}

/// Assert the sharing rules of [`world_rrset_bodies_are_shared`] over
/// every stored zone.
fn body_sharing(eco: &Ecosystem) -> Sharing {
    let zones: Vec<Arc<Zone>> = stored_zones(eco).into_values().flatten().collect();
    let body = |z: &Zone, name: &Name, rtype| z.rrset(name, rtype).map(|s| s.rdatas.clone());
    for rtype in [RecordType::Soa, RecordType::Csync] {
        let bodies: Vec<Rdatas> = zones
            .iter()
            .filter_map(|z| body(z, z.apex(), rtype))
            .collect();
        assert!(!bodies.is_empty(), "no {rtype} in the world");
        for b in &bodies {
            assert!(
                Rdatas::ptr_eq(b, &bodies[0]),
                "{rtype} bodies are not one allocation"
            );
        }
    }

    let tld_zone = |apex: &Name| {
        let tld = apex.parent()?;
        eco.registry_stores.get(&tld)?.get(&tld)
    };
    let customers: HashSet<&Name> = eco.truth.iter().map(|t| &t.name).collect();
    let (mut ptrs, mut contents) = (HashSet::new(), HashSet::new());
    let mut ns_shared_apexes = HashSet::new();
    for z in &zones {
        let (Some(apex_ns), Some(tldz)) = (body(z, z.apex(), RecordType::Ns), tld_zone(z.apex()))
        else {
            continue;
        };
        if customers.contains(z.apex()) {
            ptrs.insert(apex_ns.as_ptr());
            contents.insert(apex_ns.iter().map(RData::presentation).collect::<Vec<_>>());
        }
        let Some(delegation) = body(&tldz, z.apex(), RecordType::Ns) else {
            continue;
        };
        if delegation == apex_ns {
            assert!(
                Rdatas::ptr_eq(&delegation, &apex_ns),
                "{}: apex NS copies its delegation's",
                z.apex()
            );
            ns_shared_apexes.insert(z.apex().clone());
        }
    }
    assert!(ns_shared_apexes.len() * 10 > customers.len() * 9);

    let mut signal_sets = 0;
    for z in &zones {
        for (owner, node) in z.nodes() {
            let Some(child) = child_from_signal_name(owner) else {
                continue;
            };
            for set in node
                .rrsets()
                .iter()
                .filter(|s| matches!(s.rtype, RecordType::Cds | RecordType::Cdnskey))
            {
                for holder in zones.iter().filter(|c| c.apex() == &child) {
                    if body(holder, &child, set.rtype).as_ref() == Some(&set.rdatas) {
                        let own = body(holder, &child, set.rtype).unwrap();
                        assert!(
                            Rdatas::ptr_eq(&own, &set.rdatas),
                            "{owner}: signal {} copies its zone's",
                            set.rtype
                        );
                        signal_sets += 1;
                    }
                }
            }
        }
    }
    assert!(signal_sets > 0, "no signal set shares its zone's body");
    Sharing {
        ns_bodies: ptrs.len(),
        ns_contents: contents.len(),
        ns_shared_apexes,
    }
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

/// Capacity and length totals over a family of vectors and shared
/// slices.
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

    /// A shared `Arc<[T]>` list: exactly its length, no spare capacity.
    fn of_slice<T>(&mut self, v: &[T]) {
        self.slots += v.len();
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
/// `rdatas`, counted per set as held, shared bodies too) over `zones`.
fn zone_slots(zones: &[Arc<Zone>]) -> (Slots, Slots) {
    let (mut rrsets, mut rdatas) = (Slots::default(), Slots::default());
    for (_, node) in zones.iter().flat_map(|z| z.nodes()) {
        rrsets.of(node.rrsets());
        for set in node.rrsets() {
            rdatas.of_slice(&set.rdatas);
        }
    }
    (rrsets, rdatas)
}

/// Item slots of every list a `ZoneScan` keeps, nested ones included.
fn scan_slots(scan: &ZoneScan, s: &mut Slots) {
    s.of_slice(&scan.ns_names);
    s.of_slice(&scan.parent_ds);
    s.of_slice(&scan.ns_observations);
    s.of_slice(&scan.signal_observations);
    for o in scan.ns_observations.iter() {
        s.of(&o.dnskeys);
        s.of_slice(&o.cds);
    }
    for o in scan.signal_observations.iter() {
        s.of_slice(&o.cds);
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

/// The stored zones whose only owner is the apex, and the name-index
/// slots (`Zone::index_slots`, map and set together) they hold.
fn render_one_owner(eco: &Ecosystem, stage: &str) -> String {
    let (mut zones, mut slots) = (0, 0);
    for zone in stored_zones(eco).values().flatten() {
        if zone.names().count() == 1 {
            let (map, set) = zone.index_slots();
            zones += 1;
            slots += map + set;
        }
    }
    format!("{stage}.one_owner.zones={zones}\n{stage}.one_owner.index_slots={slots}\n")
}

/// A zone and a scan result hold no spare vector slot: every RRset and
/// node is exactly sized by `Zone::add` and `Zone::remove_rrset` (so
/// also after churn's edits), and every `ZoneScan` vector by the scanner
/// and by the journal decoder. Spare slots must stay 0; slot totals may
/// grow 20 % over `crates/bench/baselines/footprint_tiny.txt`. A zone
/// whose only owner is the apex holds no name index at all
/// (`*.one_owner.index_slots`, exact), built and after churn.
#[test]
fn footprint_is_exact() {
    let mut eco = build(EcosystemConfig::tiny(WORLD_SEED));
    let mut current = String::from("world=tiny\n");
    current.push_str(&render_zones(&eco, "build"));
    current.push_str(&render_one_owner(&eco, "build"));

    let seeds = eco.seeds.compile(&eco.psl);
    let events = common::EventLog::default();
    let results = Scanner::for_ecosystem(&eco, ScanPolicy::default()).scan_all_with(
        &seeds,
        Some(&events),
        None,
    );
    let (mut scan, mut journal) = (Slots::default(), Slots::default());
    scan.of(&results.zones);
    for z in &results.zones {
        scan_slots(z, &mut scan);
    }
    // Every event as the journal writes it: the next field an event
    // grows moves `journal.payload_bytes`.
    let mut payload_bytes = 0;
    for event in events.0.borrow().iter() {
        let payload = encode_event(event);
        payload_bytes += payload.len();
        let back = decode_event(&payload).expect("codec round trip");
        scan_slots(&back.scan, &mut journal);
    }
    current.push_str(&scan.render("scan"));
    current.push_str(&journal.render("journal"));
    current.push_str(&format!("journal.payload_bytes={payload_bytes}\n"));

    let plan = ChurnPlan::generate(&eco, &ChurnConfig::default(), CHURN_SEED, 1);
    apply_churn(&mut eco, &plan);
    current.push_str(&render_zones(&eco, "churn"));
    current.push_str(&render_one_owner(&eco, "churn"));

    gate(
        &current,
        include_str!("../crates/bench/baselines/footprint_tiny.txt"),
        |key| key.ends_with("_slots"),
        |key| {
            key.ends_with("_spare")
                || key.ends_with(".index_slots")
                || key == "journal.payload_bytes"
        },
    );
}

/// Bytes by owner, `size_of` × capacity, on `paper_default(100_000)`
/// (the benchmark's world): the attribution behind DESIGN §7's "Bytes
/// per zone" table. Zone bytes count `RrSet` slots, each RRset body once
/// however many sets share it (an `Arc<[RData]>`: 16 header bytes plus
/// its `RData` slots, and the RRSIG signature and DNSKEY/CDNSKEY key
/// bytes inside it), and each distinct owner name's buffer once (an
/// `Arc<[u8]>`: 16 header bytes plus the wire form); a body or name two
/// owner classes share counts in the first.
/// Scan results count every row pointer and the scan body behind it;
/// the scanner caches count the entries a cold scan's cache log
/// inserted, last write per name, values at their capacity; the epoch
/// tables of a 4-epoch `run_continuous` count every row pointer and each
/// shared scan body once; the carry-ledger rows price, with
/// `ledger_bytes`, the ledger the coordinator held after epoch 0's fold
/// until the journals became the ledger, and the largest one a shard
/// rebuilds from them for epoch 1. Rows labelled "(count)" or
/// "(what-if)" are not bytes held and stay out of the total; "index
/// slots (count)" is each class's `Zone::index_slots`, map capacity plus
/// set length. Prints; gates nothing:
/// `cargo test --release --test cost_gates -- --ignored --nocapture`.
#[test]
#[ignore = "paper-scale attribution, prints only"]
fn footprint_by_owner() {
    use std::mem::size_of;
    let eco = build(EcosystemConfig::paper_default(100_000));
    let seeds = eco.seeds.compile(&eco.psl);
    let mut rows: Vec<(String, &str, usize)> = Vec::new();
    let (mut bodies_seen, mut names_seen) = (HashSet::new(), HashSet::new());
    for (owner, zones) in stored_zones(&eco) {
        let (rrsets, _) = zone_slots(&zones);
        let index: usize = zones
            .iter()
            .map(|z| z.index_slots())
            .map(|(map, set)| map + set)
            .sum();
        let (mut bodies, mut unshared, mut sig, mut key, mut names) = (0, 0, 0, 0, 0);
        for (name, node) in zones.iter().flat_map(|z| z.nodes()) {
            if names_seen.insert(name.clone()) {
                names += 16 + name.wire_len();
            }
            for set in node.rrsets() {
                let body = 16 + set.rdatas.len() * size_of::<RData>();
                unshared += body;
                if !bodies_seen.insert(set.rdatas.as_ptr()) {
                    continue;
                }
                bodies += body;
                for rd in &set.rdatas {
                    match rd {
                        RData::Rrsig(s) => sig += s.signature.capacity(),
                        RData::Dnskey(k) | RData::Cdnskey(k) => key += k.public_key.capacity(),
                        _ => {}
                    }
                }
            }
        }
        let zones = format!("{owner} zones ({})", zones.len());
        rows.push((zones.clone(), "RData bodies, each once", bodies));
        rows.push((zones.clone(), "bodies if unshared (what-if)", unshared));
        rows.push((
            zones.clone(),
            "RrSet slots",
            rrsets.slots * size_of::<RrSet>(),
        ));
        rows.push((zones.clone(), "signature bytes", sig));
        rows.push((zones.clone(), "key bytes", key));
        rows.push((zones.clone(), "owner names", names));
        rows.push((zones, "index slots (count)", index));
    }

    let log = CacheLogSink::default();
    let results =
        Scanner::for_ecosystem(&eco, ScanPolicy::default()).scan_all_with(&seeds, Some(&log), None);
    let mut items = Slots::default();
    let mut bodies = 0;
    let mut seen = HashSet::new();
    for z in &results.zones {
        scan_slots(z, &mut items);
        bodies += body_bytes(z, &mut seen);
    }
    let scans = format!("scan results ({} zones)", results.zones.len());
    let pointers = size_of::<ZoneScan>() * results.zones.capacity();
    rows.push((scans.clone(), "row pointers", pointers));
    rows.push((scans.clone(), "scan bodies", bodies));
    rows.push((scans, "spare nested slots (count)", items.slots - items.len));
    for (cache, b) in log.bytes() {
        rows.push(("scanner caches".into(), cache, b));
    }
    let per_zone = seeds.len().max(1);
    drop((results, log, eco));

    // The continuous study's four epoch tables, as the benchmark's
    // `continuous_study` runs it (2 workers, 8 shards, default churn).
    // A scan body carried from one table to the next counts once; the
    // deep-copy row prices the same tables with each table owning its
    // bodies, and is not part of the total.
    let mut cfg = ContinuousConfig::new(4, CHURN_SEED);
    cfg.fabric = FabricConfig {
        workers: 2,
        ..FabricConfig::default()
    };
    let state = std::env::temp_dir().join(format!("footprint-epochs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let out = run_continuous(
        EcosystemConfig::paper_default(100_000),
        ScanPolicy::default(),
        &cfg,
        &state,
    )
    .expect("continuous study");
    // Epoch 0's shard journals, absorbed shard-major into one ledger (the
    // one the coordinator held after epoch 0's fold, before it stopped
    // keeping one) and each alone (what shard k rebuilds for epoch 1,
    // before epoch 1's churn cuts drop from it).
    let e0 = &out.series.epochs[0];
    let mut delta: Vec<Name> = e0.fresh.iter().chain(&e0.stale).cloned().collect();
    delta.sort_by(|a, b| a.canonical_cmp(b));
    let plan = ShardPlan::new(&delta, cfg.fabric.shards);
    let ns = Namespace::root(&state, cfg.run_id).epoch(0);
    let (mut whole, mut largest) = (CarryLedger::new(), 0);
    for k in 0..plan.shards() {
        let shard = ns.shard(k);
        let mut part = CarryLedger::new();
        for_each_recovered(shard.dir(), shard.header(plan.zones(k)), |event| {
            whole.absorb(0, &event.scan.name, &event.effects);
            part.absorb(0, &event.scan.name, &event.effects);
        })
        .expect("epoch 0 journal");
        largest = largest.max(ledger_bytes(&part));
    }
    let carry = "carry ledger (epoch 0's inserts)";
    rows.push((
        carry.into(),
        "held after e0 fold (what-if)",
        ledger_bytes(&whole),
    ));
    rows.push((carry.into(), "largest shard rebuild", largest));
    let _ = std::fs::remove_dir_all(&state);
    let (mut table_rows, mut shared, mut deep) = (0, 0, 0);
    let mut seen = HashSet::new();
    for e in &out.series.epochs {
        table_rows += size_of::<ZoneScan>() * e.zones.capacity();
        let mut own = HashSet::new();
        for z in &e.zones {
            shared += body_bytes(z, &mut seen);
            deep += body_bytes(z, &mut own);
        }
    }
    let tables = format!("epoch tables ({} epochs)", out.series.epochs.len());
    rows.push((tables.clone(), "row pointers", table_rows));
    rows.push((tables.clone(), "scan bodies, each once", shared));
    rows.push((tables, "scan bodies if deep (what-if)", deep));
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
        .filter(|(_, what, _)| !what.ends_with(')'))
        .map(|(_, _, b)| b)
        .sum();
    println!(
        "{:<34} {:<28} {total:>12} {:>10.1}",
        "total",
        "",
        total as f64 / per_zone as f64
    );
}

/// Heap bytes of a scan body: the record behind its `Arc` (16 header
/// bytes plus the `ScanRecord`), the four boxed lists it owns, and the
/// key and CDS `Arc` bodies its observations point at. Each `Arc` body
/// counts once per `seen` set (by `Arc::as_ptr`): a scan held by several
/// tables, or a key list shared by several observations or scans, once.
fn body_bytes(z: &ZoneScan, seen: &mut HashSet<*const u8>) -> usize {
    use std::mem::{size_of, size_of_val};
    fn cds<T>(v: &Arc<[T]>, seen: &mut HashSet<*const u8>) -> usize {
        if seen.insert(Arc::as_ptr(v).cast()) {
            16 + size_of_val(&**v)
        } else {
            0
        }
    }
    fn keys(v: &Arc<Vec<DnskeyData>>, seen: &mut HashSet<*const u8>) -> usize {
        arc_once(v, seen, keys_heap)
    }
    if !seen.insert(Arc::as_ptr(z).cast()) {
        return 0;
    }
    let mut bytes = 16
        + size_of::<ScanRecord>()
        + size_of_val(&*z.ns_names)
        + size_of_val(&*z.parent_ds)
        + size_of_val(&*z.ns_observations)
        + size_of_val(&*z.signal_observations);
    for o in z.ns_observations.iter() {
        bytes += keys(&o.dnskeys, seen) + cds(&o.cds, seen);
    }
    for o in z.signal_observations.iter() {
        bytes += cds(&o.cds, seen);
    }
    bytes
}

/// 16 `Arc` header bytes plus `heap` of the body behind `v`, or 0 when
/// `seen` already holds that body.
fn arc_once<T>(v: &Arc<T>, seen: &mut HashSet<*const u8>, heap: fn(&T) -> usize) -> usize {
    if seen.insert(Arc::as_ptr(v).cast()) {
        16 + heap(v)
    } else {
        0
    }
}

/// A validated key set at its capacity, key bytes included.
fn keys_heap(k: &Vec<DnskeyData>) -> usize {
    use std::mem::size_of;
    size_of::<Vec<DnskeyData>>()
        + k.capacity() * size_of::<DnskeyData>()
        + k.iter().map(|d| d.public_key.capacity()).sum::<usize>()
}

/// An address list at its capacity.
fn addrs_heap(a: &Vec<Addr>) -> usize {
    use std::mem::size_of;
    size_of::<Vec<Addr>>() + a.capacity() * size_of::<Addr>()
}

/// A referral and its lists at their capacities, signature bytes
/// included.
fn referral_heap(r: &ReferralData) -> usize {
    use std::mem::size_of;
    size_of::<ReferralData>()
        + r.ns_names.capacity() * size_of::<Name>()
        + r.ds
            .as_ref()
            .map_or(0, |d| d.capacity() * size_of::<DsData>())
        + r.ds_rrsigs.capacity() * size_of::<RrsigData>()
        + r.ds_rrsigs
            .iter()
            .map(|s| s.signature.capacity())
            .sum::<usize>()
        + r.child_servers.capacity() * size_of::<Addr>()
}

/// Heap bytes of a carry ledger: each entry (its epoch, source name and
/// insert list, inline) and its insert slots, each value `Arc` body once
/// (by `Arc::as_ptr`), and each distinct name's buffer once (16 header
/// bytes plus its wire form) — source zones, cache keys and cut apexes.
fn ledger_bytes(ledger: &CarryLedger) -> usize {
    use std::mem::size_of;
    let (mut seen, mut names) = (HashSet::new(), HashSet::new());
    let mut name = |n: &Name| {
        if names.insert(n.clone()) {
            16 + n.wire_len()
        } else {
            0
        }
    };
    let mut bytes = 0;
    for (_, source, inserts) in ledger.entries() {
        bytes += size_of::<(u32, Name, ZoneEffects)>()
            + inserts.capacity() * size_of::<(Name, CacheInsert)>()
            + name(source);
        for (key, insert) in inserts {
            bytes += name(key)
                + match insert {
                    CacheInsert::Keys(k) => arc_once(k, &mut seen, keys_heap),
                    CacheInsert::Addrs(a) => arc_once(a, &mut seen, addrs_heap),
                    CacheInsert::Referral(r) => arc_once(r, &mut seen, referral_heap),
                    CacheInsert::Cut(c) => name(&c.apex),
                };
        }
    }
    bytes
}

/// Keeps the last value each cache insert of a scan wrote per name.
#[derive(Default)]
struct CacheLogSink {
    keys: RefCell<HashMap<Name, Arc<Vec<DnskeyData>>>>,
    addrs: RefCell<HashMap<Name, Arc<Vec<Addr>>>>,
    referrals: RefCell<HashMap<Name, Arc<ReferralData>>>,
    cuts: RefCell<HashMap<Name, CutOutcome>>,
}

impl ProgressSink for CacheLogSink {
    fn on_zone(&self, event: &ZoneEvent) -> bool {
        for (key, insert) in &event.effects {
            let key = key.clone();
            match insert.clone() {
                CacheInsert::Keys(keys) => {
                    self.keys.borrow_mut().insert(key, keys);
                }
                CacheInsert::Addrs(addrs) => {
                    self.addrs.borrow_mut().insert(key, addrs);
                }
                CacheInsert::Referral(data) => {
                    self.referrals.borrow_mut().insert(key, data);
                }
                CacheInsert::Cut(outcome) => {
                    self.cuts.borrow_mut().insert(key, outcome);
                }
            }
        }
        true
    }
}

impl CacheLogSink {
    /// Bytes per cache: one entry (key name, provenance name, value `Arc`
    /// and expiry) per name plus the value's heap at its capacity. A
    /// zone-cut entry holds its value inline, and its label's buffer is
    /// its own (no zone or scan shares a signal-path label).
    fn bytes(&self) -> [(&'static str, usize); 4] {
        use std::mem::size_of;
        let entry = 2 * size_of::<Name>() + size_of::<Arc<()>>() + size_of::<u64>();
        let arc = 16;
        let keys = self.keys.borrow();
        let addrs = self.addrs.borrow();
        let referrals = self.referrals.borrow();
        let key_bytes = keys.values().map(|k| entry + arc + keys_heap(k)).sum();
        let addr_bytes = addrs.values().map(|a| entry + arc + addrs_heap(a)).sum();
        let referral_bytes = referrals
            .values()
            .map(|r| entry + arc + referral_heap(r))
            .sum();
        let cut_entry = 2 * size_of::<Name>() + size_of::<CutOutcome>() + size_of::<u64>();
        let cut_bytes = self
            .cuts
            .borrow()
            .keys()
            .map(|label| cut_entry + 16 + label.wire_len())
            .sum();
        [
            ("validated keys", key_bytes),
            ("addresses", addr_bytes),
            ("referrals", referral_bytes),
            ("zone-cut probes", cut_bytes),
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
