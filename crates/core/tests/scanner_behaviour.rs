//! Scanner behaviour tests: sampling policy, key and zone-cut probe
//! caching, CSYNC probes, per-zone I/O accounting — the §3 scan
//! mechanics, isolated.

use bootscan::scanner::DEFAULT_ZONE_QUERY_BUDGET;
use bootscan::{RetryStats, ScanPolicy, ScanResults, Scanner};
use dns_ecosystem::spec::{CategoryCounts, EcosystemConfig};
use dns_ecosystem::{build, Ecosystem};
use dns_server::AuthServer;
use dns_wire::message::Message;
use dns_wire::record::RecordType;
use dns_wire::Name;
use dns_zone::signal::signal_name;
use netsim::{Addr, FaultPlan, ServerHandler, ServerResponse, SimMicros, Transport};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};

fn scanner_with(eco: &Ecosystem, policy: ScanPolicy) -> Arc<Scanner> {
    Scanner::for_ecosystem(eco, policy)
}

/// A config with a Cloudflare-style anycast operator (12 addresses per
/// zone, NS names under the sampled `ns.cloudflare.com`) so the
/// sampling policy has something to bite on.
fn anycast_config(seed: u64) -> EcosystemConfig {
    let mut cfg = EcosystemConfig::tiny(seed);
    let mut cf = cfg.operators[0].clone();
    cf.name = "PoolCorp".into();
    cf.ns_base = "ns.cloudflare.com".into();
    cf.ns_hosts = 6;
    cf.addrs_per_host = (3, 3);
    cf.backends = 16;
    cf.counts = CategoryCounts {
        unsigned: 30,
        island_cds: 10,
        ..Default::default()
    };
    cfg.operators.push(cf);
    cfg
}

fn poolcorp_zones(eco: &Ecosystem) -> Vec<Name> {
    let compiled = eco.seeds.compile(&eco.psl);
    eco.truth
        .iter()
        .filter(|t| eco.operators[t.operator].name == "PoolCorp" && compiled.contains(&t.name))
        .map(|t| t.name.clone())
        .collect()
}

#[test]
fn sampling_reduces_addresses_for_pooled_operators() {
    let eco = build(anycast_config(3));
    let zones = poolcorp_zones(&eco);
    assert!(zones.len() > 20);
    // 80 % sampling so both buckets are well-populated at this zone count.
    let policy = ScanPolicy {
        sample_fraction: 0.8,
        ..ScanPolicy::default()
    };
    let scanner = scanner_with(&eco, policy);
    let mut sampled = 0;
    let mut full = 0;
    for z in &zones {
        let scan = scanner.scan_zone(z);
        if scan.sampled {
            sampled += 1;
            // 1 IPv4 + 1 IPv6 observation only.
            assert_eq!(scan.ns_observations.len(), 2, "{z}");
            assert!(scan.ns_observations.iter().any(|o| o.addr.is_v6()));
            assert!(scan.ns_observations.iter().any(|o| !o.addr.is_v6()));
        } else {
            full += 1;
            // Two NS hostnames × (3 v4 + 3 v6) = 12 addresses.
            assert_eq!(scan.ns_observations.len(), 12, "{z}");
        }
    }
    // ~80 % sampled, the rest scanned exhaustively.
    assert!(sampled > full, "sampled={sampled} full={full}");
    assert!(full >= 1, "the exhaustive bucket must exist");
}

#[test]
fn sampling_does_not_change_classification() {
    let eco_a = build(anycast_config(3));
    let zones = poolcorp_zones(&eco_a);
    let sampled = scanner_with(&eco_a, ScanPolicy::default()).scan_all(&zones);
    let eco_b = build(anycast_config(3));
    let exhaustive = scanner_with(
        &eco_b,
        ScanPolicy {
            sample_fraction: 0.0,
            ..ScanPolicy::default()
        },
    )
    .scan_all(&zones);
    for (a, b) in sampled.zones.iter().zip(exhaustive.zones.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.dnssec, b.dnssec, "{}", a.name);
        assert_eq!(a.cds, b.cds, "{}", a.name);
        assert_eq!(a.ab, b.ab, "{}", a.name);
    }
    // And it saves queries — the paper's motivation.
    assert!(
        sampled.total_queries < exhaustive.total_queries,
        "{} !< {}",
        sampled.total_queries,
        exhaustive.total_queries
    );
}

#[test]
fn key_cache_amortises_tld_validation() {
    let eco = build(dns_ecosystem::EcosystemConfig::tiny(5));
    let scanner = scanner_with(&eco, ScanPolicy::default());
    let seeds = eco.seeds.compile(&eco.psl);
    let com: Vec<&Name> = seeds
        .iter()
        .filter(|n| n.to_string_fqdn().ends_with(".com."))
        .take(3)
        .collect();
    assert!(com.len() >= 2);
    let first = scanner.scan_zone(com[0]);
    let second = scanner.scan_zone(com[1]);
    // The second zone under the same TLD skips the root/TLD DNSKEY
    // fetches (cached), so it must use strictly fewer queries unless the
    // zones differ wildly in signal fan-out; compare conservatively.
    assert!(
        second.queries < first.queries + 5,
        "first={} second={}",
        first.queries,
        second.queries
    );
}

/// An operator host's server with a tally in front: NS queries for each
/// of the names it was built with are counted, then answered as usual.
struct NsTally {
    inner: AuthServer,
    asked: Arc<Vec<(Name, AtomicU32)>>,
}

impl ServerHandler for NsTally {
    fn handle(&self, q: &[u8], dst: Addr, t: Transport, b: u32, now: SimMicros) -> ServerResponse {
        if let Ok(msg) = Message::from_bytes(q) {
            if let Some(q) = msg.questions.first().filter(|q| q.rtype == RecordType::Ns) {
                if let Some((_, n)) = self.asked.iter().find(|(name, _)| *name == q.name) {
                    n.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.inner.handle(q, dst, t, b, now)
    }
}

/// The labels a zone-cut probe walks for `zone` under NS `host`: from
/// the zone-specific `<zone>._signal.<host>` up to, not including, the
/// operator base zone that answers for the signal name.
fn signal_path_labels(eco: &Ecosystem, zone: &Name, host: &Name) -> Vec<Name> {
    let base = eco.psl.registrable_part(host).expect("operator base");
    let zone_label = signal_name(zone, host).unwrap().parent();
    std::iter::successors(zone_label, Name::parent)
        .take_while(|l| l.is_strict_subdomain_of(&base))
        .collect()
}

/// Every label above the zone-specific one on a signal path is shared by
/// the zones with that NS host and parent suffix: the first zone's probe
/// asks it, the second's reads the cached outcome, and a warm re-scan
/// asks none of them. The zone-specific label is asked on every scan.
#[test]
fn zones_sharing_an_ns_host_and_suffix_ask_each_shared_cut_label_once() {
    let cfg = EcosystemConfig::tiny(11);
    // Two undegraded zones of one operator under one suffix, with the
    // same NS set and a signal probe under every NS.
    let survey = build(cfg.clone());
    let scans =
        scanner_with(&survey, ScanPolicy::default()).scan_all(&survey.seeds.compile(&survey.psl));
    let single_operator = |z: &bootscan::ZoneScan| {
        survey
            .operators
            .iter()
            .position(|o| z.ns_names.iter().all(|n| o.hosts.contains(n)))
    };
    let eligible: Vec<&bootscan::ZoneScan> = scans
        .zones
        .iter()
        .filter(|z| !z.degraded && !z.ns_names.is_empty() && single_operator(z).is_some())
        .filter(|z| {
            z.signal_observations
                .iter()
                .all(|s| !s.zone_cut && !s.name_unbuildable)
        })
        .collect();
    let (a, b) = eligible
        .iter()
        .enumerate()
        .find_map(|(i, a)| {
            let b = eligible[i + 1..]
                .iter()
                .find(|b| b.ns_names == a.ns_names && b.name.parent() == a.name.parent())?;
            Some((*a, *b))
        })
        .expect("two zones sharing an NS set and a suffix");
    let op = single_operator(a).unwrap();
    let ns_names = a.ns_names.clone();
    let (a, b) = (a.name.clone(), b.name.clone());

    let (mut specific, mut shared) = (Vec::new(), Vec::new());
    for ns in ns_names.iter() {
        for zone in [&a, &b] {
            let labels = signal_path_labels(&survey, zone, ns);
            specific.push((zone.clone(), labels[0].clone()));
            for l in &labels[1..] {
                if !shared.contains(l) {
                    shared.push(l.clone());
                }
            }
        }
    }
    assert!(!shared.is_empty(), "{a}: the signal path has shared labels");

    // A fresh world whose operator hosts tally the NS questions.
    let eco = build(cfg);
    let names = specific.iter().map(|(_, l)| l).chain(&shared);
    let asked: Arc<Vec<(Name, AtomicU32)>> =
        Arc::new(names.map(|l| (l.clone(), AtomicU32::new(0))).collect());
    for (store, addrs) in eco.operator_stores[op]
        .iter()
        .zip(&eco.operators[op].host_addrs)
    {
        let sid = eco.net.register(NsTally {
            inner: AuthServer::new(Arc::clone(store)),
            asked: Arc::clone(&asked),
        });
        for &addr in addrs {
            eco.net.bind_simple(addr, sid);
        }
    }
    let count = |label: &Name| {
        let (_, n) = asked.iter().find(|(l, _)| l == label).unwrap();
        n.load(Ordering::Relaxed)
    };
    let totals = || {
        (
            shared.iter().map(count).collect::<Vec<_>>(),
            specific.iter().map(|(_, l)| count(l)).collect::<Vec<_>>(),
        )
    };

    let scanner = scanner_with(&eco, ScanPolicy::default());
    scanner.scan_zone(&a);
    let (after_a, specific_a) = totals();
    assert!(
        after_a.iter().all(|&n| n > 0),
        "{a}: shared labels asked {after_a:?}"
    );
    scanner.scan_zone(&b);
    let (after_b, specific_b) = totals();
    assert_eq!(after_b, after_a, "{b}: asked a label {a} already asked");
    for (i, (zone, label)) in specific.iter().enumerate() {
        let asked_by_b = specific_b[i] - specific_a[i];
        let expected = if *zone == b {
            asked_by_b > 0
        } else {
            asked_by_b == 0
        };
        assert!(expected, "{b}: asked {label} {asked_by_b} times");
    }
    for zone in [&a, &b] {
        scanner.scan_zone(zone);
    }
    let (warm, specific_warm) = totals();
    assert_eq!(warm, after_a, "a warm re-scan asked a shared label");
    assert!(
        specific_warm.iter().zip(&specific_b).all(|(w, c)| w > c),
        "a warm re-scan still asks every zone-specific label"
    );
}

/// Any server with a recorder in front: every question it receives is
/// sent down a channel with its destination, then answered as usual.
struct Recorder {
    inner: Arc<dyn ServerHandler>,
    received: mpsc::Sender<(Addr, Name, RecordType)>,
}

impl ServerHandler for Recorder {
    fn handle(&self, q: &[u8], dst: Addr, t: Transport, b: u32, now: SimMicros) -> ServerResponse {
        if let Ok(msg) = Message::from_bytes(q) {
            if let Some(q) = msg.questions.first() {
                self.received.send((dst, q.name.clone(), q.rtype)).unwrap();
            }
        }
        self.inner.handle(q, dst, t, b, now)
    }
}

/// A cold scan sends each question once: the SOA the resolution already
/// asked the answering server is not asked again, and neither is the
/// DNSKEY an address already answered for a DS-secured zone's key check.
#[test]
fn every_question_goes_out_once() {
    let eco = build(EcosystemConfig::tiny(4));
    let (tx, rx) = mpsc::channel();
    eco.net.wrap_handlers(|inner| {
        Arc::new(Recorder {
            inner,
            received: tx.clone(),
        })
    });
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner_with(&eco, ScanPolicy::default()).scan_all(&seeds);
    assert!(
        results.zones.iter().all(|z| !z.degraded),
        "a fault-free scan re-scans nothing"
    );
    let resolved = results.resolved().count();
    let ds_secured = results
        .resolved()
        .filter(|z| !z.parent_ds.is_empty())
        .count();
    assert!(ds_secured > 0);

    let mut received: HashMap<(Addr, Name, RecordType), u32> = HashMap::new();
    for question in rx.try_iter() {
        *received.entry(question).or_default() += 1;
    }
    // Every logical query of the scan reached a recorder.
    let logical: u64 = results
        .zones
        .iter()
        .map(|z| u64::from(z.retry_stats.logical_queries))
        .sum();
    let delivered: u32 = received.values().sum();
    assert_eq!(u64::from(delivered), logical);
    let mut repeats: BTreeMap<RecordType, usize> = BTreeMap::new();
    for ((_, _, rtype), _) in received.iter().filter(|(_, &n)| n > 1) {
        *repeats.entry(*rtype).or_default() += 1;
    }
    assert!(
        repeats.is_empty(),
        "questions asked more than once, by type: {repeats:?} ({resolved} zones resolved, \
         {ds_secured} with a DS)"
    );
}

#[test]
fn csync_probe_counts_pilot_zones() {
    // tiny(): SignalSoft publishes CSYNC on its signed zones.
    let eco = build(dns_ecosystem::EcosystemConfig::tiny(4));
    let scanner = scanner_with(&eco, ScanPolicy::default());
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner.scan_all(&seeds);
    let census = bootscan::report::cds_census(&results);
    assert!(census.with_csync > 0, "CSYNC pilot zones must be observed");
    // CSYNC only appears on zones (co-)operated by SignalSoft; the
    // multi-operator and typo'd-NS plants identify as Multi/Unknown.
    for z in &results.zones {
        if z.ns_observations.iter().any(|o| o.csync_present) {
            match &z.operator {
                bootscan::Identified::Single(op) => assert_eq!(&**op, "SignalSoft", "{}", z.name),
                bootscan::Identified::Multi(ops) => {
                    assert!(ops.iter().any(|o| &**o == "SignalSoft"), "{}", z.name)
                }
                bootscan::Identified::Unknown => {
                    let t = eco.truth_of(&z.name).unwrap();
                    assert_eq!(eco.operators[t.operator].name, "SignalSoft", "{}", z.name);
                }
            }
        }
    }
}

/// Conservation invariant: summing each zone's metered datagram and
/// byte counters must reproduce the network's own global statistics
/// exactly — no query the scanner sends escapes per-zone budget
/// attribution, and nothing is double-counted.
fn assert_conserves_netsim_totals(eco: &Ecosystem, results: &ScanResults, what: &str) {
    let snap = eco.net.stats().snapshot();
    let sum = |count: fn(&RetryStats) -> u32| -> u64 {
        results
            .zones
            .iter()
            .map(|z| u64::from(count(&z.retry_stats)))
            .sum()
    };
    let datagrams = sum(|r| r.datagrams);
    assert!(datagrams > 0, "{what}");
    assert_eq!(
        datagrams, snap.queries,
        "{what}: datagrams vs netsim queries"
    );
    assert_eq!(sum(|r| r.bytes_sent), snap.bytes_sent, "{what}: bytes sent");
    assert_eq!(
        sum(|r| r.bytes_received),
        snap.bytes_received,
        "{what}: bytes received"
    );
}

#[test]
fn per_zone_io_accounting_conserves_netsim_totals() {
    // The client-level version of this lives in dns-resolver; this is
    // the whole-scan closure over resolution, DNSKEY/CDS probing and
    // signal probing — first on a clean network, then under chaos, with
    // and without hostile operators, where lost, truncated and rejected
    // exchanges and the re-scan passes' traffic must all be charged too.
    let eco = build(EcosystemConfig::tiny(11));
    let results = scanner_with(&eco, ScanPolicy::default()).scan_all(&eco.seeds.compile(&eco.psl));
    assert_conserves_netsim_totals(&eco, &results, "clean");

    for (world_seed, chaos_seed) in [(11, 7), (3, 5), (42, 99)] {
        for adversaries in [false, true] {
            let what = format!("world {world_seed}, chaos {chaos_seed}, adversaries {adversaries}");
            let mut cfg = EcosystemConfig::tiny(world_seed);
            if adversaries {
                cfg = cfg.with_adversaries(2);
            }
            let eco = build(cfg);
            eco.net.set_faults(FaultPlan::standard_chaos(
                chaos_seed,
                &eco.net.bound_addrs(),
            ));
            let results =
                scanner_with(&eco, ScanPolicy::default()).scan_all(&eco.seeds.compile(&eco.psl));
            assert_conserves_netsim_totals(&eco, &results, &what);

            // A re-scanned zone's logical queries are those of the pass
            // that was kept (only wire traffic sums across passes), so
            // each stays within one pass's budget.
            let rescanned: Vec<_> = results
                .zones
                .iter()
                .filter(|z| z.retry_stats.rescans > 0)
                .collect();
            assert!(!rescanned.is_empty(), "{what}: chaos forces re-scans");
            for z in rescanned {
                assert!(
                    u64::from(z.retry_stats.logical_queries) <= DEFAULT_ZONE_QUERY_BUDGET,
                    "{what}: {} spent {} logical queries",
                    z.name,
                    z.retry_stats.logical_queries
                );
            }
            if adversaries {
                let hostile: u64 = results
                    .zones
                    .iter()
                    .map(|z| z.retry_stats.hostile_events())
                    .sum();
                assert!(hostile > 0, "{what}: hostile events recorded");
            }
        }
    }
}

#[test]
fn a_scan_with_a_sink_is_one_sequential_lane_at_any_parallelism() {
    use bootscan::{ProgressSink, ZoneEvent};
    use std::cell::RefCell;
    use std::thread::ThreadId;

    /// Records where and in what order events arrive. `RefCell`, no
    /// lock: the scanner promises a sink one thread.
    struct Recorder(RefCell<Vec<(ThreadId, u32, Name)>>);
    impl ProgressSink for Recorder {
        fn on_zone(&self, event: &ZoneEvent) -> bool {
            let at = (
                std::thread::current().id(),
                event.scan.retry_stats.rescans,
                event.scan.name.clone(),
            );
            self.0.borrow_mut().push(at);
            true
        }
    }

    let run = |parallelism: usize| {
        let eco = build(dns_ecosystem::EcosystemConfig::tiny(11));
        let policy = ScanPolicy {
            parallelism,
            ..ScanPolicy::default()
        };
        let seeds = eco.seeds.compile(&eco.psl);
        let recorder = Recorder(RefCell::new(Vec::new()));
        let results = scanner_with(&eco, policy).scan_all_with(&seeds, Some(&recorder), None);
        (seeds, recorder.0.into_inner(), results)
    };
    let (_, _, sequential) = run(1);
    let (seeds, events, threaded_policy) = run(4);

    let me = std::thread::current().id();
    assert!(
        events.iter().all(|(thread, _, _)| *thread == me),
        "every on_zone must run on the thread that called scan_all_with"
    );
    let main_pass: Vec<&Name> = events
        .iter()
        .filter(|(_, pass, _)| *pass == 0)
        .map(|(_, _, name)| name)
        .collect();
    assert_eq!(
        main_pass,
        seeds.iter().collect::<Vec<_>>(),
        "main-pass events must arrive in seed order"
    );
    // Costs included: one lane, so the same cache hits, the same query
    // counts and the same virtual makespan as the parallelism-1 run.
    assert_eq!(threaded_policy.zones.len(), sequential.zones.len());
    for (threaded, seq) in threaded_policy.zones.iter().zip(&sequential.zones) {
        assert_eq!(threaded, seq);
    }
    assert_eq!(
        threaded_policy.simulated_duration,
        sequential.simulated_duration
    );
    assert_eq!(threaded_policy.total_queries, sequential.total_queries);
}
