//! The `layer_probe` pass of the traced run: a seeded sample of the
//! world's zones replayed through each layer's public functions, one
//! span per call (per batch for calls too short for a clock read).
//!
//! Nesting inside a layer is not visible from outside, so a layer's self
//! time is the difference of paired probes on the same input — e.g.
//! `netsim.query_at` minus `dns-server.handle` on the same query bytes.
//! The caller derives the metrics from the spans by name; this file only
//! records them and returns the counts that are not durations.

use super::{scanner, Settings, Truth, World};
use crate::trace::Tracer;
use bootscan::{classify, report, ProgressSink, ScanResults, ZoneEvent, ZoneScan};
use dns_crypto::ValidityWindow;
use dns_crypto::{ds_digest, sign_rrset, verify_rrset, Algorithm, DigestType, KeyPair};
use dns_ecosystem::{apply_churn, build, ChurnConfig, ChurnPlan};
use dns_resolver::{validate_resolution, DnsClient, QueryMeter, Resolver, RootHints};
use dns_server::AuthServer;
use dns_wire::canonical::canonical_rrset_wire;
use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_wire::rdata::{RData, SoaData};
use dns_wire::record::{Record, RecordClass, RecordType};
use netsim::{Addr, ServerHandler, ServerResponse, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scan_continuous::{admit, AdmissionConfig};
use scan_epochs::CarryLedger;
use scan_fabric::{encode_msg, FrameDecoder, Msg, NullMergeSink, StreamingMerge};
use scan_journal::{
    fingerprint_names, read_journal, recover, JournalHeader, JournalSink, JournalWriter,
    JOURNAL_FILE,
};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Zones replayed through each layer.
pub const SAMPLE: usize = 512;

/// Counts the probes produce besides span durations.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    /// Zones in the sample (≤ [`SAMPLE`]; the tiny world has fewer).
    pub sample: u64,
    pub reply_bytes_total: u64,
    pub decode_attempts: u64,
    pub decode_failures: u64,
    pub resolves: u64,
    pub resolve_queries: u64,
    pub resolve_logical: u64,
    pub resolve_tcp_fallbacks: u64,
    pub scan_zone_samples: u64,
    pub journal_events: u64,
    pub journal_bytes: u64,
    pub ledger_entries: u64,
    pub problems: Vec<String>,
}

struct Capture(Mutex<Vec<ZoneEvent>>);

impl ProgressSink for Capture {
    fn on_zone(&self, event: &ZoneEvent) -> bool {
        self.0
            .lock()
            .expect("no probe panics while holding the capture lock")
            .push(event.clone());
        true
    }
}

fn sample_zones(world: &World, seed: u64) -> Vec<Name> {
    let mut pool: Vec<Name> = world.seeds.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a4d_504c);
    let take = SAMPLE.min(pool.len());
    // Partial Fisher–Yates: the first `take` slots end up a uniform sample.
    for i in 0..take {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
}

/// An authoritative address and zone store serving `zone`, from planted
/// truth: the first host of the zone's primary operator.
fn authority_of(world: &World, zone: &Name) -> Option<(Addr, Arc<dns_server::ZoneStore>)> {
    let eco = world.eco();
    let op = eco.truth.iter().find(|t| &t.name == zone)?.operator;
    let addr = *eco.operators.get(op)?.host_addrs.first()?.first()?;
    let store = Arc::clone(eco.operator_stores.get(op)?.first()?);
    Some((addr, store))
}

/// Run every probe against a fresh `world`. `scratch` is an empty
/// directory on the state filesystem for the journal probes.
pub fn run(
    tracer: &mut Tracer,
    settings: &Settings,
    world: &World,
    scratch: &Path,
) -> Result<ProbeCounts, String> {
    let mut counts = ProbeCounts::default();
    let zones = sample_zones(world, settings.seed);
    counts.sample = zones.len() as u64;

    wire_net_server(tracer, world, &zones, &mut counts);
    crypto_and_signing(tracer, world);
    resolver(tracer, world, &zones, &mut counts);
    let results = scan_every_seed(tracer, world, &mut counts);
    classify_and_report(tracer, &results);
    let events = capture_events(world, &zones);
    journal(tracer, scratch, &zones, &events, &mut counts)
        .map_err(|e| format!("journal probe: {e}"))?;
    fabric(tracer, &zones, &events).map_err(|e| format!("merge probe: {e}"))?;
    epochs(tracer, world, settings, &events, &mut counts);
    admission(tracer);
    Ok(counts)
}

/// dns-wire encode/decode on sampled DNSKEY queries and their real
/// replies; the same bytes through `Network::query_at` and straight into
/// an `AuthServer` over the operator's store, for the netsim difference.
fn wire_net_server(tracer: &mut Tracer, world: &World, zones: &[Name], counts: &mut ProbeCounts) {
    let net = &world.eco().net;
    for (i, zone) in zones.iter().enumerate() {
        let Some((addr, store)) = authority_of(world, zone) else {
            continue;
        };
        let group = format!("probe#{i}");
        let query = Message::query(i as u16, zone.clone(), RecordType::Dnskey, true);
        let (bytes, _) = tracer.span("dns-wire.encode", &group, None, || query.to_bytes());
        let (outcome, _) = tracer.span("netsim.query_at", &group, None, || {
            net.query_at(0, addr, &bytes, Transport::Udp)
        });
        let server = AuthServer::new(store);
        let (direct, _) = tracer.span("dns-server.handle", &group, None, || {
            server.handle(&bytes, addr, Transport::Udp, 0, 0)
        });
        black_box(&direct);
        let reply = match (outcome, direct) {
            (Ok(o), _) => o.reply,
            (Err(_), ServerResponse::Reply(r)) => r,
            (Err(_), ServerResponse::Drop) => continue,
        };
        counts.reply_bytes_total += reply.len() as u64;
        counts.decode_attempts += 1;
        let (decoded, _) = tracer.span("dns-wire.decode", &group, None, || {
            Message::from_bytes(&reply)
        });
        match decoded {
            Ok(msg) if accept_reply(&query, &msg) => {
                // Re-encoding the reply is the server-side half of the codec.
                let (again, _) = tracer.span("dns-wire.encode", &group, None, || msg.to_bytes());
                black_box(again);
            }
            _ => counts.decode_failures += 1,
        }
    }
}

/// The resolver client's acceptance rule (its own gate is private): a
/// reply counts only if it is a response echoing the query's id and
/// question; one that decodes into something else is a failed decode.
/// This is also the gate bootscan-lint's taint rules require between
/// wire decode and anything else on the same call path.
fn accept_reply(query: &Message, reply: &Message) -> bool {
    let (Some(q), [r]) = (query.questions.first(), reply.questions.as_slice()) else {
        return false;
    };
    reply.header.flags.response
        && reply.header.id == query.header.id
        && r.name == q.name
        && r.rtype == q.rtype
}

/// dns-crypto verify and DS digest on a seeded key; dns-zone signing of a
/// customer-sized zone (SOA, two NS, a handful of hosts).
fn crypto_and_signing(tracer: &mut Tracer, world: &World) {
    let now = world.eco().now;
    let mut rng = StdRng::seed_from_u64(0x5167);
    let key = KeyPair::generate(&mut rng, Algorithm::EcdsaP256Sha256, 257);
    let apex = Name::parse("probe.example").expect("literal name parses");
    let owner_wire = apex.to_wire();
    let rdatas: Vec<RData> = (0..4)
        .map(|i| RData::A(Ipv4Addr::new(192, 0, 2, i)))
        .collect();
    let message = canonical_rrset_wire(&apex, RecordClass::In, 300, &rdatas);
    let signature = sign_rrset(&key, &message);
    let window = ValidityWindow {
        inception: 0,
        expiration: u32::MAX,
    };
    for i in 0..64 {
        let group = format!("crypto#{i}");
        let (ok, _) = tracer.span("dns-crypto.verify", &group, None, || {
            verify_rrset(
                key.algorithm,
                key.public_key(),
                &message,
                &signature,
                window,
                now,
            )
        });
        black_box(ok.is_ok());
        let rdata = key.dnskey_rdata();
        let (digest, _) = tracer.span("dns-crypto.ds_digest", &group, None, || {
            ds_digest(DigestType::Sha256, &owner_wire, &rdata)
        });
        black_box(digest);
    }

    let keys = dns_zone::ZoneKeys::generate(&mut rng, Algorithm::EcdsaP256Sha256);
    let signer = dns_zone::ZoneSigner::new(now);
    for i in 0..32u8 {
        let mut zone = customer_zone(&apex);
        tracer.span("dns-zone.sign_zone", &format!("sign#{i}"), None, || {
            signer.sign(&mut zone, &keys)
        });
        black_box(zone.record_count());
    }
}

fn customer_zone(apex: &Name) -> dns_zone::Zone {
    let sub = |label: &str| {
        apex.prepend_label(label.as_bytes())
            .expect("short literal label fits")
    };
    let mut zone = dns_zone::Zone::new(apex.clone());
    zone.add(Record::new(
        apex.clone(),
        300,
        RData::Soa(SoaData {
            mname: sub("ns1"),
            rname: sub("hostmaster"),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
    ));
    for ns in ["ns1", "ns2"] {
        zone.add(Record::new(apex.clone(), 300, RData::Ns(sub(ns))));
    }
    for (i, host) in ["ns1", "ns2", "www", "mail"].into_iter().enumerate() {
        zone.add(Record::new(
            sub(host),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, i as u8 + 1)),
        ));
    }
    zone
}

/// dns-resolver: a cold walk from the root on a fresh resolver, the same
/// name again on the now-warm resolver, and chain validation of the
/// result.
fn resolver(tracer: &mut Tracer, world: &World, zones: &[Name], counts: &mut ProbeCounts) {
    let eco = world.eco();
    let client = Arc::new(DnsClient::new(Arc::clone(&eco.net)));
    for (i, zone) in zones.iter().enumerate() {
        let group = format!("probe#{i}");
        let resolver = Resolver::with_hardening(
            Arc::clone(&client),
            RootHints {
                addrs: eco.roots.clone(),
            },
            true,
        );
        let meter = QueryMeter::new(i as u64);
        let (cold, _) = tracer.span("dns-resolver.resolve_cold", &group, None, || {
            resolver.resolve_at_with(Some(&meter), 0, zone, RecordType::Dnskey)
        });
        let (warm, _) = tracer.span("dns-resolver.resolve_warm", &group, None, || {
            resolver.resolve_at_with(Some(&meter), 0, zone, RecordType::Dnskey)
        });
        black_box(warm.is_ok());
        counts.resolve_logical += meter.logical_queries();
        counts.resolve_tcp_fallbacks += meter.io().tcp_fallbacks;
        let Ok(resolution) = cold else { continue };
        counts.resolves += 1;
        counts.resolve_queries += u64::from(resolution.queries);
        let (security, _) = tracer.span("dns-resolver.validate", &group, None, || {
            validate_resolution(&client, &eco.anchors, &eco.roots, &resolution, eco.now)
        });
        black_box(security);
    }
}

/// bootscan: `scan_zone` over every seed on one cold sequential scanner,
/// so the tail percentiles have thousands of samples behind them.
fn scan_every_seed(tracer: &mut Tracer, world: &World, counts: &mut ProbeCounts) -> ScanResults {
    let scanner = scanner(world.eco(), 1);
    let mut zones: Vec<ZoneScan> = Vec::with_capacity(world.seeds.len());
    for (i, seed) in world.seeds.iter().enumerate() {
        let (scan, _) = tracer.span("bootscan.scan_zone", &format!("seed#{i}"), None, || {
            scanner.scan_zone(seed)
        });
        zones.push(scan);
    }
    counts.scan_zone_samples = zones.len() as u64;
    let total_queries = zones.iter().map(|z| u64::from(z.queries)).sum();
    ScanResults {
        zones,
        simulated_duration: 0,
        total_queries,
    }
}

/// bootscan: the CDS and AB classifiers re-run on recorded observations,
/// and the report fold (figure 1, tables 1–3, CDS census).
fn classify_and_report(tracer: &mut Tracer, results: &ScanResults) {
    for (i, z) in results.zones.iter().take(SAMPLE).enumerate() {
        let keys = z.ns_observations.first().map(|o| o.dnskeys.as_slice());
        let (classes, _) = tracer.span("bootscan.classify", &format!("probe#{i}"), None, || {
            let cds = classify::cds_class(&z.ns_observations, keys, z.dnssec);
            let ab = classify::ab_class(z.dnssec, cds, &z.signal_observations, &z.ns_observations);
            (cds, ab)
        });
        black_box(classes);
    }
    for i in 0..8 {
        let (out, _) = tracer.span("bootscan.report", &format!("report#{i}"), None, || {
            (
                report::figure1(results),
                report::table1(results, 20),
                report::table2(results, 20, &[]),
                report::table3(results, &[]),
                report::cds_census(results),
            )
        });
        black_box(out);
    }
}

/// Zone events (scan + cache effects) of the sampled zones, captured
/// through a `ProgressSink` on a cold scanner: the journal, merge and
/// ledger probes' input.
fn capture_events(world: &World, zones: &[Name]) -> Vec<ZoneEvent> {
    let capture = Capture(Mutex::new(Vec::new()));
    scanner(world.eco(), 1).scan_all_with(zones, Some(&capture), None);
    capture
        .0
        .into_inner()
        .expect("no probe panics while holding the capture lock")
}

fn journal(
    tracer: &mut Tracer,
    scratch: &Path,
    zones: &[Name],
    events: &[ZoneEvent],
    counts: &mut ProbeCounts,
) -> std::io::Result<()> {
    let header = JournalHeader {
        run_id: 0xBE_0C5,
        fingerprint: fingerprint_names(zones),
    };
    // Write side without fsync: the append itself.
    let raw = scratch.join("append");
    std::fs::create_dir_all(&raw)?;
    let path = raw.join(JOURNAL_FILE);
    let mut writer = JournalWriter::create(&path, header, 0)?;
    for (i, event) in events.iter().enumerate() {
        let (r, _) = tracer.span("scan-journal.append", &format!("event#{i}"), None, || {
            writer.append(event)
        });
        r?;
    }
    writer.sync()?;
    counts.journal_events = events.len() as u64;
    counts.journal_bytes = std::fs::metadata(&path)?.len();
    let (read, _) = tracer.span("scan-journal.read", "journal", None, || read_journal(&path));
    black_box(read?.entries.len());

    // Write side as the scanner uses it: JournalSink at default cadence
    // (group-commit fsync every 8 events, amortized checkpoints).
    let dir = scratch.join("sink");
    let sink = JournalSink::create(&dir, header)?;
    for (i, event) in events.iter().enumerate() {
        let (ok, _) = tracer.span(
            "scan-journal.append_sync",
            &format!("event#{i}"),
            None,
            || sink.on_zone(event),
        );
        if !ok {
            return Err(std::io::Error::other("JournalSink refused an event"));
        }
    }
    let (r, _) = tracer.span("scan-journal.checkpoint", "journal", None, || {
        sink.checkpoint_now()
    });
    r?;
    drop(sink);
    let (recovery, _) = tracer.span("scan-journal.recover", "journal", None, || {
        recover(&dir, header)
    });
    let recovered = recovery?.events.len();
    if recovered != events.len() {
        counts.problems.push(format!(
            "journal probe recovered {recovered} of {} events",
            events.len()
        ));
    }
    Ok(())
}

/// scan-fabric: a heartbeat frame through `encode_msg` and a
/// `FrameDecoder` (64 round trips per span), and the streaming merge of
/// the captured events as one shard.
fn fabric(tracer: &mut Tracer, zones: &[Name], events: &[ZoneEvent]) -> std::io::Result<()> {
    for batch in 0..64u64 {
        tracer.span(
            "scan-fabric.frame_roundtrip_x64",
            &format!("batch#{batch}"),
            None,
            || {
                let mut decoder = FrameDecoder::new();
                for i in 0..64u64 {
                    let frame = encode_msg(&Msg::Heartbeat {
                        worker: 1,
                        epoch: 0,
                        shard: 7,
                        lease: batch,
                        events: i,
                    });
                    decoder.extend(&frame);
                    black_box(decoder.next().is_ok());
                }
            },
        );
    }

    let mut plan: Vec<Name> = zones.to_vec();
    plan.sort_by(|a, b| a.canonical_cmp(b));
    for i in 0..4u64 {
        let input: Vec<(u64, ZoneEvent)> = events
            .iter()
            .cloned()
            .enumerate()
            .map(|(k, e)| (k as u64, e))
            .collect();
        let mut merge = StreamingMerge::new();
        let (r, _) = tracer.span("scan-fabric.merge", &format!("merge#{i}"), None, || {
            merge.absorb_shard(&plan, input, false, &mut NullMergeSink)
        });
        r?;
        black_box(merge.finish());
    }
    Ok(())
}

/// scan-epochs: the carry ledger built from the captured effects,
/// partitioned for 8 shards and seeded into a fresh scanner.
fn epochs(
    tracer: &mut Tracer,
    world: &World,
    settings: &Settings,
    events: &[ZoneEvent],
    counts: &mut ProbeCounts,
) {
    let mut ledger = CarryLedger::new();
    for event in events {
        ledger.absorb(0, &event.scan.name, &event.effects);
    }
    counts.ledger_entries = ledger.len() as u64;
    let study = settings.continuous();
    for i in 0..8 {
        let group = format!("ledger#{i}");
        let (parts, _) = tracer.span("scan-epochs.partition", &group, None, || {
            ledger.partition(8)
        });
        black_box(parts.len());
        let fresh = scanner(world.eco(), 1);
        tracer.span("scan-epochs.seed_into", &group, None, || {
            ledger.seed_into(
                &fresh,
                study.epoch_spacing,
                study.cache_ttl,
                study.epoch_spacing,
            )
        });
    }
}

/// scan-continuous: the admission decision, 1024 calls per span.
fn admission(tracer: &mut Tracer) {
    let cfg = AdmissionConfig {
        epoch_spacing: 1_800_000_000,
        max_pipeline_depth: 1,
    };
    for batch in 0..64u64 {
        tracer.span(
            "scan-continuous.admit_x1024",
            &format!("batch#{batch}"),
            None,
            || {
                for i in 0..1024u64 {
                    black_box(admit(
                        black_box(i * 700_000_000),
                        black_box(batch * 1_800_000_000),
                        &cfg,
                    ));
                }
            },
        );
    }
}

/// dns-ecosystem: build and seed compilation timed apart, then epochs
/// 1..`epochs` of churn planned and applied by the benchmark itself, and
/// a cold scan of the final world. Returns whether that scan's evidence
/// equals `last_epoch`, the zone table the continuous study ended with
/// (both judged by the churned world's truth).
pub fn ecosystem(tracer: &mut Tracer, settings: &Settings, last_epoch: &[ZoneScan]) -> bool {
    let (mut eco, _) = tracer.span("dns-ecosystem.build", "ecosystem", None, || {
        build(settings.world_config())
    });
    let (seeds, _) = tracer.span("dns-ecosystem.seeds_compile", "ecosystem", None, || {
        eco.seeds.compile(&eco.psl)
    });
    let churn = ChurnConfig::default();
    for epoch in 1..settings.epochs {
        let group = format!("churn#{epoch}");
        let (plan, _) = tracer.span("dns-ecosystem.churn_plan", &group, None, || {
            ChurnPlan::generate(&eco, &churn, settings.seed, epoch)
        });
        let (log, _) = tracer.span("dns-ecosystem.apply_churn", &group, None, || {
            apply_churn(&mut eco, &plan)
        });
        black_box(log.deltas.len());
    }
    let results = scanner(&eco, 1).scan_all(&seeds);
    let truth = Truth::of_eco(settings, &eco);
    truth.evidence_digest(&results.zones) == truth.evidence_digest(last_epoch)
}
