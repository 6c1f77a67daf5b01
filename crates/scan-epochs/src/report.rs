//! Time-series reporting for longitudinal runs.
//!
//! Every epoch's report is the *full* evidence table as of that epoch —
//! freshly scanned delta zones plus carried-forward evidence — in
//! canonical zone order. [`canonical_evidence`] renders it in the one
//! byte form a zone has, the journal codec's, over each zone's
//! [`ZoneScan::evidence`] (cost counters zeroed). Two reports with equal
//! canonical bytes hold equal zones in every evidence field, so they are
//! indistinguishable everywhere the paper's analysis looks — which is
//! what lets the headline test pin each incremental epoch byte-identical
//! to a cold from-scratch scan of the same world state.

use bootscan::{AbClass, CdsClass, DnssecClass, ZoneScan};
use dns_wire::name::Name;
use dns_wire::rdata::hex;
use netsim::SimMicros;
use scan_journal::encode_scan_into;

/// The evidence plane of a zone table: one line per zone, in canonical
/// order, holding the hex of the journal codec's bytes for the zone's
/// [`ZoneScan::evidence`]. Cost counters (queries, elapsed, I/O stats)
/// are exactly what carried caches exist to change, so they are
/// excluded; every field the scanner observed or concluded is included.
/// Figure 1 and the degradation population are functions of these
/// zones, so they add nothing to the string.
pub fn canonical_evidence(zones: &[ZoneScan]) -> String {
    let mut sorted: Vec<&ZoneScan> = zones.iter().collect();
    sorted.sort_by(|a, b| a.name.canonical_cmp(&b.name));
    let mut out = String::new();
    let mut buf = Vec::new();
    for (i, z) in sorted.into_iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        buf.clear();
        encode_scan_into(&mut buf, &z.evidence());
        out.push_str(&hex(&buf));
    }
    out
}

/// One epoch's complete report.
#[derive(Debug, Clone)]
pub struct EpochReport {
    pub epoch: u32,
    /// Full evidence table as of this epoch's end (fresh + carried),
    /// canonical order.
    pub zones: Vec<ZoneScan>,
    /// Zones actually re-scanned this epoch, canonical order.
    pub fresh: Vec<Name>,
    /// Zones that could not be scanned this epoch (their shard was
    /// abandoned): reported as degraded `Indeterminate` placeholders,
    /// never as silently-reused old evidence.
    pub stale: Vec<Name>,
    /// Zones this epoch's churn transitioned (ground truth).
    pub churned: Vec<Name>,
    /// Logical queries spent by this epoch's re-scan (cost plane).
    pub queries: u64,
    /// Simulated duration of this epoch's re-scan.
    pub simulated_duration: SimMicros,
}

impl EpochReport {
    /// Canonical evidence bytes of this epoch's full zone table.
    pub fn canonical_evidence(&self) -> String {
        canonical_evidence(&self.zones)
    }

    fn trend_row(&self) -> TrendRow {
        let mut row = TrendRow {
            epoch: self.epoch,
            ..TrendRow::default()
        };
        for z in &self.zones {
            match z.dnssec {
                DnssecClass::Secured => row.secured += 1,
                DnssecClass::Island => row.island += 1,
                DnssecClass::Unsigned => row.unsigned += 1,
                _ => {}
            }
            if z.cds == CdsClass::Valid {
                row.cds_valid += 1;
            }
            if z.dnssec == DnssecClass::Island && z.cds == CdsClass::Valid {
                row.bootstrappable += 1;
            }
            if z.ab == AbClass::SignalCorrect {
                row.signal_correct += 1;
            }
        }
        row.fresh = self.fresh.len();
        row.stale = self.stale.len();
        row.churned = self.churned.len();
        row.queries = self.queries;
        row
    }
}

/// Per-epoch adoption counts — the paper's trend quantities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrendRow {
    pub epoch: u32,
    pub secured: usize,
    pub island: usize,
    pub unsigned: usize,
    pub cds_valid: usize,
    pub bootstrappable: usize,
    pub signal_correct: usize,
    pub fresh: usize,
    pub stale: usize,
    pub churned: usize,
    pub queries: u64,
}

/// A scheduled observation the admission controller coalesced instead
/// of scanning: the backlog exceeded the pipeline depth when it
/// arrived. A skipped epoch is an *explicit* record — the time series
/// never silently loses a scheduled observation — and it names the
/// churn that hit the world during its window; the next admitted
/// epoch's delta set absorbed exactly those zones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedEpoch {
    pub epoch: u32,
    /// Scheduled (virtual-time) arrival of the observation.
    pub arrival: SimMicros,
    /// How many epoch spacings the pipeline was behind at arrival.
    pub behind: u32,
    /// Zones churned during this epoch's window, canonical order —
    /// absorbed into the next admitted epoch's delta set.
    pub churned: Vec<Name>,
}

/// The full longitudinal run: one report per committed epoch plus one
/// explicit marker per coalesced epoch, both in epoch order.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    pub epochs: Vec<EpochReport>,
    /// Scheduled observations coalesced under backpressure. Empty for
    /// every run whose epochs all drained on time (in particular, every
    /// pre-continuous study), so existing canonical bytes are unchanged.
    pub skipped: Vec<SkippedEpoch>,
}

impl TimeSeries {
    /// Adoption-trend rows, one per epoch.
    pub fn trend(&self) -> Vec<TrendRow> {
        self.epochs.iter().map(|e| e.trend_row()).collect()
    }

    /// Render the adoption-trend table with per-epoch deltas — the
    /// longitudinal counterpart of the paper's §4 trend discussion.
    pub fn render_trend(&self) -> String {
        let rows = self.trend();
        let mut out = String::new();
        out.push_str(
            "epoch | secured       | island        | CDS valid     | bootstrappable \
             | AB correct    | fresh | stale | churned\n",
        );
        out.push_str(
            "------+---------------+---------------+---------------+----------------\
             +---------------+-------+-------+--------\n",
        );
        let delta = |cur: usize, prev: Option<usize>| -> String {
            match prev {
                None => format!("{cur:6}        "),
                Some(p) => {
                    let d = cur as i64 - p as i64;
                    format!("{cur:6} ({d:+5}) ")
                }
            }
        };
        let mut prev: Option<&TrendRow> = None;
        let mut skipped = self.skipped.iter().peekable();
        let skipped_row = |out: &mut String, s: &SkippedEpoch| {
            out.push_str(&format!(
                "{:5} | coalesced under backpressure ({} behind); {} churned zone(s) \
                 absorbed by next epoch\n",
                s.epoch,
                s.behind,
                s.churned.len(),
            ));
        };
        for r in &rows {
            while let Some(s) = skipped.peek() {
                if s.epoch >= r.epoch {
                    break;
                }
                skipped_row(&mut out, s);
                skipped.next();
            }
            out.push_str(&format!(
                "{:5} | {}| {}| {}| {} | {}| {:5} | {:5} | {:6}\n",
                r.epoch,
                delta(r.secured, prev.map(|p| p.secured)),
                delta(r.island, prev.map(|p| p.island)),
                delta(r.cds_valid, prev.map(|p| p.cds_valid)),
                delta(r.bootstrappable, prev.map(|p| p.bootstrappable)),
                delta(r.signal_correct, prev.map(|p| p.signal_correct)),
                r.fresh,
                r.stale,
                r.churned,
            ));
            prev = Some(r);
        }
        for s in skipped {
            skipped_row(&mut out, s);
        }
        out
    }

    /// Full deterministic byte form of the series: canonical
    /// evidence plus the cost plane and the fresh/stale/churned sets,
    /// with coalesced observations interleaved at their epoch position
    /// as explicit `SKIPPED` lines. Two series with equal bytes went
    /// through identical epochs — including identical per-epoch costs
    /// and identical admission decisions — which is what the
    /// crash-recovery matrices compare (every shard journal is one
    /// sequential lane, so resumed costs are exactly reproducible).
    pub fn canonical_bytes(&self) -> String {
        let mut out = String::new();
        let mut skipped = self.skipped.iter().peekable();
        for e in &self.epochs {
            while let Some(s) = skipped.peek() {
                if s.epoch >= e.epoch {
                    break;
                }
                push_skipped(&mut out, s);
                skipped.next();
            }
            out.push_str(&format!(
                "== epoch {} fresh={:?} stale={:?} churned={:?} queries={} duration={}\n{}\n",
                e.epoch,
                e.fresh.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
                e.stale.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
                e.churned.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
                e.queries,
                e.simulated_duration,
                e.canonical_evidence(),
            ));
        }
        for s in skipped {
            push_skipped(&mut out, s);
        }
        out
    }
}

fn push_skipped(out: &mut String, s: &SkippedEpoch) {
    out.push_str(&format!(
        "== epoch {} SKIPPED arrival={} behind={} churned={:?}\n",
        s.epoch,
        s.arrival,
        s.behind,
        s.churned.iter().map(|n| n.to_string()).collect::<Vec<_>>(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootscan::types::NsObservation;
    use bootscan::{Identified, RetryStats};
    use dns_wire::name;
    use dns_wire::rdata::{DnskeyData, DsData};
    use netsim::Addr;
    use std::net::Ipv4Addr;

    /// A one-zone table: a secured zone with two NS addresses.
    fn table() -> Vec<ZoneScan> {
        let observation = |ns: &str, last_octet| NsObservation {
            ns_name: name!(ns),
            addr: Addr::V4(Ipv4Addr::new(192, 0, 2, last_octet)),
            responded: true,
            soa_present: true,
            cds_query_error: false,
            dnskeys: vec![DnskeyData {
                flags: 257,
                protocol: 3,
                algorithm: 13,
                public_key: vec![7; 32],
            }],
            cds: vec![],
            cds_sig_valid: None,
            csync_present: false,
        };
        vec![ZoneScan {
            name: name!("a.example"),
            ns_names: vec![name!("ns1.example"), name!("ns2.example")],
            parent_ds: vec![DsData {
                key_tag: 4711,
                algorithm: 13,
                digest_type: 2,
                digest: vec![9; 32],
            }],
            ns_observations: vec![observation("ns1.example", 1), observation("ns2.example", 2)],
            signal_observations: vec![],
            dnssec: DnssecClass::Secured,
            cds: CdsClass::Absent,
            ab: AbClass::NoSignal,
            operator: Identified::Single("Op".into()),
            queries: 12,
            elapsed: 3_000,
            sampled: false,
            retry_stats: RetryStats::default(),
            degraded: false,
        }]
    }

    /// The §4.1 classes rest on the parent's DS set and the child's
    /// DNSKEYs, so a table that differs from another in either, or in
    /// one NS address, must render differently.
    #[test]
    fn canonical_evidence_covers_every_zone_field() {
        let base = table();
        let mut no_ds = table();
        no_ds[0].parent_ds.clear();
        let mut moved = table();
        moved[0].ns_observations[0].addr = Addr::V4(Ipv4Addr::new(192, 0, 2, 99));
        let mut rekeyed = table();
        rekeyed[0].ns_observations[1].dnskeys[0].public_key[0] ^= 1;

        let expected = canonical_evidence(&base);
        for (what, other) in [
            ("parent_ds", no_ds),
            ("NsObservation::addr", moved),
            ("NsObservation::dnskeys", rekeyed),
        ] {
            assert_ne!(canonical_evidence(&other), expected, "{what}");
            assert_ne!(other, base, "{what}");
        }
        // Cost counters are not evidence.
        let mut costlier = table();
        costlier[0].queries += 1;
        costlier[0].retry_stats.retries = 2;
        assert_eq!(canonical_evidence(&costlier), expected);
    }
}
