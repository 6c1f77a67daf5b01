//! Scanner behaviour tests: sampling policy, key caching, CSYNC probes,
//! per-zone I/O accounting — the §3 scan mechanics, isolated.

use bootscan::{ScanPolicy, Scanner};
use dns_ecosystem::spec::{CategoryCounts, EcosystemConfig};
use dns_ecosystem::{build, Ecosystem};
use dns_wire::Name;
use std::sync::Arc;

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
                bootscan::Identified::Single(op) => assert_eq!(op, "SignalSoft", "{}", z.name),
                bootscan::Identified::Multi(ops) => {
                    assert!(ops.iter().any(|o| o == "SignalSoft"), "{}", z.name)
                }
                bootscan::Identified::Unknown => {
                    let t = eco.truth_of(&z.name).unwrap();
                    assert_eq!(eco.operators[t.operator].name, "SignalSoft", "{}", z.name);
                }
            }
        }
    }
}

#[test]
fn per_zone_io_accounting_conserves_netsim_totals() {
    // Conservation invariant: summing each zone's metered datagram and
    // byte counters must reproduce the network's own global statistics
    // exactly — no query the scanner sends escapes per-zone budget
    // attribution, and nothing is double-counted. (The client-level
    // version of this lives in dns-resolver; this is the whole-scan
    // closure over resolution, DNSKEY/CDS probing and signal probing.)
    let eco = build(dns_ecosystem::EcosystemConfig::tiny(11));
    let scanner = scanner_with(&eco, ScanPolicy::default());
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner.scan_all(&seeds);

    let snap = eco.net.stats().snapshot();
    let datagrams: u64 = results
        .zones
        .iter()
        .map(|z| z.retry_stats.datagrams as u64)
        .sum();
    let bytes_sent: u64 = results.zones.iter().map(|z| z.retry_stats.bytes_sent).sum();
    let bytes_received: u64 = results
        .zones
        .iter()
        .map(|z| z.retry_stats.bytes_received)
        .sum();
    assert!(datagrams > 0);
    assert_eq!(datagrams, snap.queries, "datagrams vs netsim queries");
    assert_eq!(bytes_sent, snap.bytes_sent, "bytes sent");
    assert_eq!(bytes_received, snap.bytes_received, "bytes received");
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
                event.pass,
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
