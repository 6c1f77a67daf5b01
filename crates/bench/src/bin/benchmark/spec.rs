//! The benchmark's contract: scale, run length, and every metric by name,
//! unit, direction and regression bound. `BENCHMARK.json` at the repo
//! root is `describe()` verbatim (`benchmark --describe`); a unit test
//! holds the two together.

use crate::json::obj;
use crate::sut::Workload;
use serde_json::Value;

/// Scale divisor of `EcosystemConfig::paper_default` for all four
/// workloads. The issue sized the workloads at 1:10 000 (≈4 min for one
/// set); the driver's cap (4 + 22 × 4 runs in 3420 s) allows ≈25 s a run,
/// so the divisor is raised uniformly — never per workload. Rare
/// structure is unscaled, so the world keeps ≈14 k zones.
pub const SCALE: u64 = 100_000;

/// Seconds of measured calls per run (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 6;

/// A run measures at least this many repetitions however long one takes.
pub const MIN_REPS: usize = 2;

/// A run times at least this many world builds for `setup_s`.
pub const MIN_SETUPS: usize = 5;

/// Epochs of the continuous study.
pub const EPOCHS: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the scanner sees. Every metric is defined on every
/// workload and is never 0. Bounds are sized against the spread of ten
/// runs at ten seeds (the driver's acceptance test), not against
/// same-seed repeats, so the deterministic counters carry the variation
/// between worlds rather than none.
#[rustfmt::skip] // a table: one metric a line
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25, "world build plus seed compile, median over repetitions"),
    e2e("wall_s", "s", Lower, 0.25, "wall-clock of the measured call"),
    e2e("zones_per_s", "1/s", Higher, 0.25, "freshly scanned zones per second of wall_s"),
    e2e("cpu_s", "s", Lower, 0.25, "process user+system time across the measured call"),
    e2e("cpu_ns_per_query", "ns", Lower, 0.25, "cpu_s per logical query"),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, "VmHWM after the first measured call"),
    e2e("queries_per_zone", "count", Lower, 0.005, "logical queries per freshly scanned zone"),
    e2e("virtual_s", "s", Lower, 0.10, "simulated duration: what the scan would take on the wire"),
];

/// Single-layer metrics, all from the traced run. No bounds: they explain
/// an end-to-end movement, they do not gate one.
#[rustfmt::skip] // a table: one metric a line
pub const PER_LAYER: &[MetricSpec] = &[
    layer("dns-wire.encode_ns", "ns", Lower, "Message::to_bytes on sampled queries and their replies"),
    layer("dns-wire.decode_ns", "ns", Lower, "Message::from_bytes on the real replies"),
    layer("dns-wire.reply_bytes", "bytes", Lower, "mean reply size of the sampled DNSKEY queries"),
    layer("dns-wire.decode_fail_share", "share", Lower, "replies that failed to decode"),
    layer("dns-crypto.verify_ns", "ns", Lower, "verify_rrset of a 4-record RRset"),
    layer("dns-crypto.ds_digest_ns", "ns", Lower, "SHA-256 DS digest of a DNSKEY"),
    layer("dns-zone.sign_zone_us", "us", Lower, "ZoneSigner::sign of a customer-sized zone"),
    layer("netsim.exchange_ns", "ns", Lower, "Network::query_at minus AuthServer::handle, paired difference"),
    layer("netsim.datagrams_per_query", "ratio", Lower, "physical datagrams per logical query of the cold scan"),
    layer("netsim.infra_datagrams", "count", Lower, "datagrams the cold scan sent to root and registry servers"),
    layer("netsim.infra_datagram_share", "share", Lower, "root+registry datagrams over all datagrams of the cold scan"),
    layer("dns-server.handle_ns", "ns", Lower, "AuthServer::handle over the operator's zone store"),
    layer("dns-resolver.resolve_cold_us", "us", Lower, "iterative walk from the root on a fresh resolver"),
    layer("dns-resolver.resolve_warm_us", "us", Lower, "the same name again on the warm resolver"),
    layer("dns-resolver.queries_per_resolve", "count", Lower, "logical queries per cold resolution"),
    layer("dns-resolver.validate_us", "us", Lower, "validate_resolution of the cold result"),
    layer("dns-resolver.tcp_fallback_share", "share", Lower, "TC=1 fallbacks per logical query"),
    layer("bootscan.scan_zone_us_p50", "us", Lower, "scan_zone over every seed, cold p=1 scanner"),
    layer("bootscan.scan_zone_us_p99", "us", Lower, "99th percentile of the same samples"),
    layer("bootscan.scan_zone_us_p999", "us", Lower, "99.9th percentile of the same samples"),
    layer("bootscan.scan_zone_samples", "count", Higher, "sample count behind the scan_zone percentiles"),
    layer("bootscan.classify_ns", "ns", Lower, "cds_class + ab_class on recorded observations"),
    layer("bootscan.report_ms", "ms", Lower, "figure 1, tables 1-3 and the CDS census"),
    layer("bootscan.resume_ms", "ms", Lower, "scan_all_with over a complete in-memory ResumeState of the cold scan"),
    layer("bootscan.parallel_efficiency", "ratio", Higher, "parallel_scan zones_per_s over twice cold_scan's"),
    layer("bootscan.stack_residual_share", "share", Lower, "1 - predicted/measured cpu_ns_per_query of the cost stack"),
    layer("bootscan.truth_residue_zones", "count", Lower, "zones observed Invalid through a planted transient-badsig quirk"),
    layer("scan-journal.append_us", "us", Lower, "JournalWriter::append of a captured zone event"),
    layer("scan-journal.append_sync_us", "us", Lower, "JournalSink::on_zone at default fsync and checkpoint cadence"),
    layer("scan-journal.bytes_per_event", "bytes", Lower, "journal bytes per zone event"),
    layer("scan-journal.checkpoint_ms", "ms", Lower, "checkpoint of the sampled events"),
    layer("scan-journal.recover_ms", "ms", Lower, "recover of journal plus checkpoint"),
    layer("scan-journal.read_mb_per_s", "MB/s", Higher, "read_journal throughput"),
    layer("scan-fabric.overhead_ratio", "ratio", Lower, "fabric_scan wall_s over cold_scan wall_s"),
    layer("scan-fabric.resume_s", "s", Lower, "run_fabric again over the finished state root: recover and merge"),
    layer("scan-fabric.frame_roundtrip_ns", "ns", Lower, "encode_msg plus FrameDecoder of a heartbeat"),
    layer("scan-fabric.merge_us_per_zone", "us", Lower, "StreamingMerge::absorb_shard per zone"),
    layer("scan-fabric.attempts_per_shard", "ratio", Lower, "shard attempts per shard of the fabric scan"),
    layer("scan-fabric.lease_expiries", "count", Lower, "leases the fabric scan expired"),
    layer("scan-fabric.peak_resident_zones", "count", Lower, "peak zones resident in the merge"),
    layer("scan-epochs.ledger_entries", "count", Lower, "CarryLedger entries from the sampled zones"),
    layer("scan-epochs.partition_ms", "ms", Lower, "CarryLedger::partition into 8 shards"),
    layer("scan-epochs.seed_into_ms", "ms", Lower, "CarryLedger::seed_into a fresh scanner"),
    layer("scan-epochs.incremental_query_share", "share", Lower, "queries of epochs 1.. over epoch 0's"),
    layer("scan-continuous.resume_s", "s", Lower, "run_continuous again over the committed root: rebuild, churn, fold"),
    layer("scan-continuous.incr_epoch_s", "s", Lower, "(4-epoch wall_s - 1-epoch wall_s) / 3"),
    layer("scan-continuous.incr_epoch_share", "share", Lower, "incr_epoch_s over the 1-epoch wall_s"),
    layer("scan-continuous.admit_ns", "ns", Lower, "one admission decision"),
    layer("scan-continuous.skipped_epochs", "count", Lower, "epochs the study coalesced"),
    layer("dns-ecosystem.build_s", "s", Lower, "dns_ecosystem::build"),
    layer("dns-ecosystem.seeds_compile_ms", "ms", Lower, "SeedLists::compile"),
    layer("dns-ecosystem.churn_plan_ms", "ms", Lower, "ChurnPlan::generate for one epoch"),
    layer("dns-ecosystem.apply_churn_ms", "ms", Lower, "apply_churn for one epoch"),
    layer("trace_overhead_share", "share", Lower, "traced wall_s over untraced wall_s, minus 1"),
];

/// The directory holding the benchmark, as `BENCHMARK.json` records it.
pub const BENCH_DIR: &str = "crates/bench/src/bin/benchmark";

fn metric_json(m: &MetricSpec) -> Value {
    let mut fields = vec![
        ("name", Value::String(m.name.into())),
        ("unit", Value::String(m.unit.into())),
        ("better", Value::String(m.better.as_str().into())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound", Value::F64(bound)));
    }
    obj(fields)
}

/// The content of `BENCHMARK.json`.
pub fn describe() -> Value {
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &manifest,
        "--",
    ];
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::String((*s).into())).collect());
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            obj(vec![
                ("name", Value::String(w.name().into())),
                ("why", Value::String(w.why().into())),
            ])
        })
        .collect();
    obj(vec![
        ("command", strings(&command)),
        ("paths", strings(&[BENCH_DIR])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        ("workloads", Value::Array(workloads)),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}
