//! Bounded-memory streaming merge: shard journals → one final report.
//!
//! The merge never materializes the full zone list. It loads **one
//! shard's** recovered events at a time, reduces them to
//! latest-per-zone ([`latest_per_zone`], the fold resume uses), fills
//! holes by the one [`fill_shard`] rule, emits the zones in canonical
//! order to a [`MergeSink`], folds them into O(1) aggregate state ([`Figure1`],
//! degradation counters, totals, rolling digests over the zone stream
//! and the evidence plane), and drops the shard
//! before touching the next. Peak residency is therefore the largest
//! shard, regardless of world size — the property that unlocks
//! registry-scale worlds under a fixed memory ceiling
//! (`peak_resident_zones` is tracked and asserted in tests).
//!
//! **Determinism contract.** Every shard is scanned sequentially by a
//! fresh scanner, so a shard's journal content is a pure function of
//! (world, shard seed slice, policy) — independent of worker count,
//! scheduling, and how many times the shard was killed and resumed.
//! The merge visits shards in shard-id order and zones in canonical
//! order, so the [`MergedReport`] is byte-identical across worker
//! counts and fault plans (`tests/fabric_recovery.rs`).
//!
//! **Digests hash the journal's encoding.** Each link of the two rolling
//! digests is FNV-1a over the previous digest (little-endian) followed
//! by the zone's journal-codec bytes ([`encode_scan_into`]), encoded once
//! per zone into one buffer reused from zone to zone. The codec carries
//! every field of a [`ZoneScan`], so two zones that differ anywhere get
//! different links; the evidence digest hashes the encoding's leading
//! evidence section, the bytes of the zone's [`Evidence`].

use bootscan::report::{DegradationReport, Figure1};
use bootscan::{DnssecClass, Evidence, RetryStats, ScanRecord, ScanResults, ZoneEvent, ZoneScan};
use dns_wire::name::Name;
use scan_journal::{encode_scan_into, fnv64, latest_per_zone};
use std::io;
use std::sync::Arc;

/// Receives merged zones one at a time, in canonical order.
///
/// Implementations decide how much to retain: [`NullMergeSink`] keeps
/// nothing (the aggregate report is enough for the paper's tables),
/// [`CollectSink`] materializes a full [`ScanResults`] for callers
/// that want per-zone access and can afford the memory.
pub trait MergeSink {
    fn on_zone(&mut self, zone: &ZoneScan);
}

/// Keep nothing; the aggregates in [`MergedReport`] are the output.
#[derive(Debug, Default)]
pub struct NullMergeSink;

impl MergeSink for NullMergeSink {
    fn on_zone(&mut self, _zone: &ZoneScan) {}
}

/// Materialize every merged zone (trades the memory bound away; each
/// zone is a shared pointer to the scan the journal decoded).
#[derive(Debug, Default)]
pub struct CollectSink {
    pub zones: Vec<ZoneScan>,
}

impl MergeSink for CollectSink {
    fn on_zone(&mut self, zone: &ZoneScan) {
        self.zones.push(zone.clone());
    }
}

impl CollectSink {
    /// Package the collected zones as a [`ScanResults`], using the
    /// merged report's virtual makespan as the scan duration.
    pub fn into_results(self, report: &MergedReport) -> ScanResults {
        let total_queries = self.zones.iter().map(|z| u64::from(z.queries)).sum();
        ScanResults {
            zones: self.zones,
            simulated_duration: report.virtual_makespan_us,
            total_queries,
        }
    }
}

/// The merged final report: everything the paper's analysis reads,
/// plus digests strong enough that equality of two `MergedReport`s
/// implies equality of the full zone streams they summarize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergedReport {
    /// Zones in the merged stream (= seed list size).
    pub zones_total: u64,
    /// Figure 1 aggregate, folded zone by zone.
    pub figure1: Figure1,
    /// Degradation counters (the per-zone degraded list is not
    /// materialized — O(1) merge state only).
    pub degradation: DegradationReport,
    pub total_queries: u64,
    /// Virtual time of the slowest shard (what a fully parallel fabric
    /// would take).
    pub virtual_makespan_us: u64,
    /// Summed virtual time across shards (what one worker would take).
    pub virtual_total_us: u64,
    /// Rolling FNV-1a over the full zone records' codec bytes, in
    /// emission order.
    pub zone_stream_digest: u64,
    /// Same, over each zone's [`Evidence`] bytes alone.
    pub evidence_digest: u64,
    /// Zones emitted as explicit Indeterminate placeholders because
    /// their shard exhausted its attempt budget. Never silent: each is
    /// also named in `abandoned_zones`.
    pub indeterminate_placeholders: u64,
    /// FQDNs of abandoned zones, in emission order.
    pub abandoned_zones: Vec<String>,
}

/// Operational (non-deterministic) counters for one fabric run. Kept
/// separate from [`MergedReport`] on purpose: reassignment counts vary
/// with scheduling and faults, and must never leak into the
/// compared report.
#[derive(Debug, Clone, Default)]
pub struct FabricOps {
    pub workers_spawned: u32,
    pub workers_lost: u32,
    pub lease_expiries: u32,
    pub reassignments: u32,
    pub shards_completed: u32,
    pub shards_abandoned: u32,
    /// Attempts consumed per shard (index = shard id).
    pub attempts: Vec<u32>,
    /// Peak zones resident in the merge at any instant.
    pub peak_resident_zones: usize,
    /// Size of the largest shard — the theoretical residency bound the
    /// peak must stay within.
    pub largest_shard: usize,
}

/// Streaming merge state. Absorb shards in shard-id order, then
/// [`finish`](Self::finish).
pub struct StreamingMerge {
    report: MergedReport,
    peak_resident: usize,
    /// A zone's codec bytes, reused from zone to zone.
    encoded: Vec<u8>,
}

impl Default for StreamingMerge {
    fn default() -> Self {
        StreamingMerge::new()
    }
}

impl StreamingMerge {
    pub fn new() -> StreamingMerge {
        StreamingMerge {
            report: MergedReport::default(),
            peak_resident: 0,
            encoded: Vec::new(),
        }
    }

    /// Fold one shard's recovered journal events into the merge.
    /// `zones` is the shard's seed slice in canonical order;
    /// `abandoned` marks a shard whose attempt budget ran out (its
    /// unscanned zones become explicit Indeterminate placeholders).
    /// The events are consumed and dropped before this returns — the
    /// residency bound.
    pub fn absorb_shard(
        &mut self,
        zones: &[Name],
        events: Vec<(u64, ZoneEvent)>,
        abandoned: bool,
        sink: &mut dyn MergeSink,
    ) -> io::Result<()> {
        let (table, shard_duration) = latest_per_zone(&events);
        self.peak_resident = self.peak_resident.max(table.len());
        for (zone, placeholder) in fill_shard(zones, &table, abandoned)? {
            if placeholder {
                self.report.indeterminate_placeholders += 1;
                self.report.abandoned_zones.push(zone.name.to_string_fqdn());
            }
            self.emit(&zone, sink);
        }
        self.report.virtual_makespan_us = self.report.virtual_makespan_us.max(shard_duration);
        self.report.virtual_total_us += shard_duration;
        Ok(())
    }

    fn emit(&mut self, zone: &ZoneScan, sink: &mut dyn MergeSink) {
        let report = &mut self.report;
        report.zones_total += 1;
        report.total_queries += u64::from(zone.queries);
        report.figure1.absorb(zone);
        report.degradation.absorb_counters(zone);
        self.encoded.clear();
        let evidence = encode_scan_into(&mut self.encoded, zone);
        report.zone_stream_digest = link(report.zone_stream_digest, &self.encoded);
        report.evidence_digest = link(report.evidence_digest, &self.encoded[..evidence]);
        sink.on_zone(zone);
    }

    /// Seal the report. Returns it plus the observed peak residency.
    pub fn finish(self) -> (MergedReport, usize) {
        (self.report, self.peak_resident)
    }
}

/// One link of a rolling digest: FNV-1a over the previous digest
/// (little-endian) followed by `bytes`.
fn link(prev: u64, bytes: &[u8]) -> u64 {
    fnv64(&[&prev.to_le_bytes(), bytes])
}

/// The one hole rule for a shard journal, shared by the fabric merge
/// and the continuous epoch fold. `table` is the journal's
/// [`latest_per_zone`] fold (canonical order); the result has one entry
/// per planned zone, in plan order: the zone's journaled scan (shared,
/// not copied) and `false`, or an explicit Indeterminate placeholder and
/// `true` for a zone an **abandoned** shard never got to. A hole in a
/// **completed** shard is journal corruption, not degradation:
/// `InvalidData`, naming the zone.
pub fn fill_shard(
    plan_zones: &[Name],
    table: &[ZoneScan],
    abandoned: bool,
) -> io::Result<Vec<(ZoneScan, bool)>> {
    plan_zones
        .iter()
        .map(
            |name| match table.binary_search_by(|z| z.name.canonical_cmp(name)) {
                Ok(i) => Ok((Arc::clone(&table[i]), false)),
                Err(_) if abandoned => Ok((indeterminate_placeholder(name), true)),
                Err(_) => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("completed shard is missing zone {}", name.to_string_fqdn()),
                )),
            },
        )
        .collect()
}

/// The explicit "we could not scan this" record for an abandoned
/// shard's zone: Indeterminate and degraded, never silently dropped.
fn indeterminate_placeholder(name: &Name) -> ZoneScan {
    Arc::new(ScanRecord {
        evidence: Evidence::empty(name.clone(), DnssecClass::Indeterminate, true),
        queries: 0,
        elapsed: 0,
        retry_stats: RetryStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;

    fn event_for(zone: &str, queries: u32) -> (u64, ZoneEvent) {
        let scan = Arc::new(ScanRecord {
            evidence: Evidence::empty(name!(zone), DnssecClass::Unsigned, false),
            queries,
            elapsed: 0,
            retry_stats: RetryStats::default(),
        });
        (
            0,
            ZoneEvent {
                duration_delta: 10,
                scan,
                effects: Default::default(),
            },
        )
    }

    #[test]
    fn merge_is_order_stable_and_counts_everything() {
        let zones = vec![name!("a.example"), name!("b.example")];
        let events = vec![event_for("a.example", 3), event_for("b.example", 4)];
        let mut m = StreamingMerge::new();
        let mut sink = CollectSink::default();
        m.absorb_shard(&zones, events, false, &mut sink).unwrap();
        let (report, peak) = m.finish();
        assert_eq!(report.zones_total, 2);
        assert_eq!(report.total_queries, 7);
        assert_eq!(report.figure1.unsigned, 2);
        assert_eq!(peak, 2);
        assert_eq!(sink.zones.len(), 2);
        assert!(report.abandoned_zones.is_empty());
    }

    /// The zone's codec bytes, in a buffer of their own.
    fn encoded(zone: &ZoneScan) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_scan_into(&mut buf, zone);
        buf
    }

    /// The evidence's codec bytes, in a buffer of their own.
    fn encoded_evidence(evidence: &Evidence) -> Vec<u8> {
        let mut buf = Vec::new();
        scan_journal::encode_evidence_into(&mut buf, evidence);
        buf
    }

    fn stream_digest(zone: ZoneScan) -> u64 {
        let (_, mut event) = event_for("a.example", 0);
        event.scan = zone;
        let mut m = StreamingMerge::new();
        m.absorb_shard(
            &[name!("a.example")],
            vec![(0, event)],
            false,
            &mut NullMergeSink,
        )
        .unwrap();
        m.finish().0.zone_stream_digest
    }

    #[test]
    fn streamed_digests_equal_the_formula_over_whole_strings() {
        let zones = vec![name!("a.example"), name!("b.example"), name!("c.example")];
        let events: Vec<_> = ["a.example", "b.example", "c.example"]
            .into_iter()
            .zip([3, 4, 5])
            .map(|(zone, queries)| {
                let mut e = event_for(zone, queries);
                let scan = Arc::make_mut(&mut e.1.scan);
                scan.elapsed = 1_000 + u64::from(queries);
                scan.retry_stats.logical_queries = queries;
                e
            })
            .collect();
        // The digests as they are defined: each link hashes the previous
        // digest and the zone's codec bytes, the evidence one those of
        // the zone's evidence alone.
        let (mut full, mut evidence) = (0u64, 0u64);
        for (_, event) in &events {
            full = fnv64(&[&full.to_le_bytes(), &encoded(&event.scan)]);
            evidence = fnv64(&[
                &evidence.to_le_bytes(),
                &encoded_evidence(&event.scan.evidence),
            ]);
        }
        let mut m = StreamingMerge::new();
        m.absorb_shard(&zones, events, false, &mut NullMergeSink)
            .unwrap();
        let (report, _) = m.finish();
        assert_eq!(report.zone_stream_digest, full);
        assert_eq!(report.evidence_digest, evidence);
        assert_ne!(full, evidence, "the cost counters are in the full digest");
    }

    /// Zones that differ only in the parent's DS set or in one NS
    /// address get different digests.
    #[test]
    fn digests_cover_parent_ds_and_ns_addresses() {
        use bootscan::types::NsObservation;
        use dns_wire::rdata::DsData;
        use netsim::Addr;
        use std::net::Ipv4Addr;
        let (_, event) = event_for("a.example", 3);
        let mut base = event.scan;
        Arc::make_mut(&mut base).evidence.ns_observations = [NsObservation {
            ns_name: name!("ns1.example"),
            addr: Addr::V4(Ipv4Addr::new(192, 0, 2, 1)),
            responded: true,
            soa_present: true,
            cds_query_error: false,
            dnskeys: Default::default(),
            cds: [].into(),
            cds_sig_valid: None,
            csync_present: false,
        }]
        .into();
        let mut with_ds = base.clone();
        Arc::make_mut(&mut with_ds).evidence.parent_ds = [DsData {
            key_tag: 4711,
            algorithm: 13,
            digest_type: 2,
            digest: vec![9; 32],
        }]
        .into();
        let mut moved = base.clone();
        Arc::make_mut(&mut moved).evidence.ns_observations[0].addr =
            Addr::V4(Ipv4Addr::new(192, 0, 2, 2));
        for (what, other) in [("parent_ds", with_ds), ("NsObservation::addr", moved)] {
            assert_ne!(
                stream_digest(other),
                stream_digest(base.clone()),
                "{what} must reach the digest"
            );
        }
    }

    #[test]
    fn abandoned_shard_zones_become_explicit_placeholders() {
        let zones = vec![name!("a.example"), name!("b.example")];
        // Only a.example got scanned before the shard was abandoned.
        let events = vec![event_for("a.example", 3)];
        let mut m = StreamingMerge::new();
        let mut sink = NullMergeSink;
        m.absorb_shard(&zones, events, true, &mut sink).unwrap();
        let (report, _) = m.finish();
        assert_eq!(report.zones_total, 2);
        assert_eq!(report.indeterminate_placeholders, 1);
        assert_eq!(report.abandoned_zones, vec!["b.example.".to_string()]);
        assert_eq!(report.figure1.indeterminate, 1);
        assert_eq!(report.degradation.degraded_zones, 1);
    }

    #[test]
    fn completed_shard_with_missing_zone_is_corruption() {
        let zones = vec![name!("a.example"), name!("b.example")];
        let events = vec![event_for("a.example", 3)];
        let mut m = StreamingMerge::new();
        let err = m
            .absorb_shard(&zones, events, false, &mut NullMergeSink)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rescan_events_supersede_main_pass() {
        let zones = vec![name!("a.example")];
        let mut better = event_for("a.example", 9);
        better.0 = 1;
        Arc::make_mut(&mut better.1.scan).retry_stats.rescans = 1;
        let events = vec![event_for("a.example", 3), better];
        let mut m = StreamingMerge::new();
        let mut sink = CollectSink::default();
        m.absorb_shard(&zones, events, false, &mut sink).unwrap();
        assert_eq!(sink.zones.len(), 1);
        assert_eq!(sink.zones.first().map(|z| z.queries), Some(9));
    }
}
