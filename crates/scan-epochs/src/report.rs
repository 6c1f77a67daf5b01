//! Time-series reporting for longitudinal runs.
//!
//! Every epoch's report is the *full* evidence table as of that epoch —
//! freshly scanned delta zones plus carried-forward evidence — in
//! canonical zone order. [`canonical_evidence`] normalizes it exactly
//! like the evidence-plane invariance suite (`parallel_invariance.rs`):
//! cost counters zeroed, zones + figure 1 + degradation population
//! serialized. Two reports with equal canonical bytes are
//! indistinguishable everywhere the paper's analysis looks — which is
//! what lets the headline test pin each incremental epoch byte-identical
//! to a cold from-scratch scan of the same world state.

use bootscan::{report, DnssecClass, RetryStats, ScanResults, ZoneScan};
use bootscan::{AbClass, CdsClass};
use dns_wire::name::Name;
use netsim::SimMicros;

/// The evidence plane of a zone table, serialized canonically. Mirrors
/// `parallel_invariance.rs::evidence`: cost counters (queries, elapsed,
/// I/O stats) are exactly what carried caches exist to change, so they
/// are excluded; everything the classifier concluded is included.
pub fn canonical_evidence(zones: &[ZoneScan]) -> String {
    let mut zones = zones.to_vec();
    zones.sort_by(|a, b| a.name.canonical_cmp(&b.name));
    for z in &mut zones {
        z.queries = 0;
        z.elapsed = 0;
        z.retry_stats = RetryStats::default();
    }
    let results = ScanResults {
        zones,
        simulated_duration: 0,
        total_queries: 0,
    };
    let zones_json = serde_json::to_string(&results.zones).expect("zones serialize");
    let fig1 = serde_json::to_string(&report::figure1(&results)).expect("figure1 serializes");
    let deg = report::degradation(&results);
    let deg_zones: Vec<String> = deg
        .zones
        .iter()
        .map(|z| format!("{}:{:?}", z.name, z.class))
        .collect();
    format!(
        "{zones_json}\n{fig1}\ndegraded={} indeterminate={} {:?}",
        deg.degraded_zones, deg.indeterminate_zones, deg_zones
    )
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

    /// Full deterministic serialization of the series: canonical
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
