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

use bootscan::{
    CutOutcome, Identified, ProgressSink, ReferralData, ScanPolicy, Scanner, ZoneEvent, ZoneScan,
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
            "p{p}.zones={}\np{p}.total_queries={}\n",
            results.zones.len(),
            results.total_queries,
        ));
        // Simulated duration is the max worker's virtual time, and a
        // datagram count above p = 1 includes the lookups two workers
        // raced to: both depend on the zone→worker assignment, so only
        // the p = 1 values are rendered (and the duration gated).
        if p == 1 {
            current.push_str(&format!(
                "p1.simulated_duration_us={}\np1.total_datagrams={}\n",
                results.simulated_duration, snap.queries,
            ));
        }
        current.push_str(&format!("p{p}.root_tld_datagrams={root_tld}\n"));
    }
    gate(
        &current,
        include_str!("../crates/bench/baselines/scan_tiny.txt"),
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

/// A sealed `ZoneScan` is shared, not copied: every row an epoch table
/// carries forward (its zone was not re-scanned that epoch) points at
/// the previous table's bodies on all four lists. A deep clone anywhere
/// on the carry path fails `Arc::ptr_eq` here.
#[test]
fn carried_rows_share_their_lists() {
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
            let was = before[&z.name];
            assert!(
                Arc::ptr_eq(&z.ns_names, &was.ns_names)
                    && Arc::ptr_eq(&z.parent_ds, &was.parent_ds)
                    && Arc::ptr_eq(&z.ns_observations, &was.ns_observations)
                    && Arc::ptr_eq(&z.signal_observations, &was.signal_observations),
                "epoch {}: carried row {} copies its lists",
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
    current.push_str(&render_one_owner(&eco, "churn"));

    gate(
        &current,
        include_str!("../crates/bench/baselines/footprint_tiny.txt"),
        |key| key.ends_with("_slots"),
        |key| key.ends_with("_spare") || key.ends_with(".index_slots"),
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
/// Scan results count every `ZoneScan` slot and nested vector; the
/// scanner caches count the entries a cold scan's cache log inserted,
/// last write per name, values at their capacity; the epoch tables of a
/// 4-epoch `run_continuous` count every row and each shared list body
/// once. Rows labelled "(count)" or "(what-if)" are not bytes held and
/// stay out of the total; "index slots (count)" is each class's
/// `Zone::index_slots`, map capacity plus set length. Prints; gates nothing:
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
    let mut bytes = size_of::<ZoneScan>() * results.zones.capacity();
    let mut seen = HashSet::new();
    for z in &results.zones {
        scan_slots(z, &mut items);
        bytes += list_bytes(z, &mut seen);
    }
    let scans = format!("scan results ({} zones)", results.zones.len());
    rows.push((scans.clone(), "ZoneScan and nested slots", bytes));
    rows.push((scans, "spare nested slots (count)", items.slots - items.len));
    for (cache, b) in log.bytes() {
        rows.push(("scanner caches".into(), cache, b));
    }
    let per_zone = seeds.len().max(1);
    drop((results, log, eco));

    // The continuous study's four epoch tables, as the benchmark's
    // `continuous_study` runs it (2 workers, 8 shards, default churn).
    // A list body carried from one table to the next counts once; the
    // deep-copy row prices the same tables with every row owning its
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
    let _ = std::fs::remove_dir_all(&state);
    let (mut table_rows, mut shared, mut deep) = (0, 0, 0);
    let mut seen = HashSet::new();
    for e in &out.series.epochs {
        table_rows += size_of::<ZoneScan>() * e.zones.capacity();
        let mut own = HashSet::new();
        for z in &e.zones {
            shared += list_bytes(z, &mut seen);
            deep += list_bytes(z, &mut own);
        }
    }
    let tables = format!("epoch tables ({} epochs)", out.series.epochs.len());
    rows.push((tables.clone(), "ZoneScan slots", table_rows));
    rows.push((tables.clone(), "list bodies, each once", shared));
    rows.push((tables, "list bodies if deep (what-if)", deep));
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

/// Heap bytes of a scan's four shared lists and the lists they nest.
/// Each `Arc` body counts once per `seen` set (by `Arc::as_ptr`): its
/// 16 header bytes (the two reference counts) plus its slots — a key
/// list shared by several observations, or by several scans, once.
fn list_bytes(z: &ZoneScan, seen: &mut HashSet<*const u8>) -> usize {
    use std::mem::size_of;
    fn body<T>(v: &Arc<[T]>, seen: &mut HashSet<*const u8>) -> usize {
        if seen.insert(Arc::as_ptr(v).cast()) {
            16 + v.len() * size_of::<T>()
        } else {
            0
        }
    }
    fn keys(v: &Arc<Vec<DnskeyData>>, seen: &mut HashSet<*const u8>) -> usize {
        if !seen.insert(Arc::as_ptr(v).cast()) {
            return 0;
        }
        16 + size_of::<Vec<DnskeyData>>()
            + v.capacity() * size_of::<DnskeyData>()
            + v.iter().map(|k| k.public_key.capacity()).sum::<usize>()
    }
    let mut bytes = body(&z.ns_names, seen) + body(&z.parent_ds, seen);
    let ns = body(&z.ns_observations, seen);
    if ns > 0 {
        bytes += ns;
        for o in z.ns_observations.iter() {
            bytes += keys(&o.dnskeys, seen) + body(&o.cds, seen);
        }
    }
    let signals = body(&z.signal_observations, seen);
    if signals > 0 {
        bytes += signals;
        for o in z.signal_observations.iter() {
            bytes += body(&o.cds, seen);
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
        let e = &event.effects;
        self.keys.borrow_mut().extend(e.key_inserts.iter().cloned());
        self.addrs
            .borrow_mut()
            .extend(e.addr_inserts.iter().cloned());
        self.referrals
            .borrow_mut()
            .extend(e.referral_inserts.iter().cloned());
        self.cuts.borrow_mut().extend(e.cut_inserts.iter().cloned());
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
