//! Report generation: every table and figure of the paper, regenerated
//! from scan results.

use crate::operator::Identified;
use crate::scanner::ScanResults;
use crate::types::*;
use dns_resolver::RetryStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Figure 1: DNSSEC status and bootstrapping-possibility breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Figure1 {
    pub resolved: u64,
    pub unsigned: u64,
    pub secured: u64,
    pub invalid: u64,
    pub islands: u64,
    pub island_without_cds: u64,
    pub island_cds_delete: u64,
    pub island_invalid_cds: u64,
    pub island_bootstrappable: u64,
    /// Zones excluded because transient failures left their evidence
    /// incomplete (not part of `resolved`).
    pub indeterminate: u64,
}

/// Build Figure 1 from scan results.
pub fn figure1(results: &ScanResults) -> Figure1 {
    let mut f = Figure1::default();
    for z in &results.zones {
        f.absorb(z);
    }
    f
}

impl Figure1 {
    /// Fold one zone into the figure. [`figure1`] is this over every
    /// zone; the fabric's streaming merge calls it per zone as results
    /// arrive, so the figure is assembled without ever materializing
    /// the full zone list in one memory image.
    pub fn absorb(&mut self, z: &ZoneScan) {
        if !z.resolved() {
            self.indeterminate += u64::from(z.dnssec == DnssecClass::Indeterminate);
            return;
        }
        self.resolved += 1;
        match z.dnssec {
            DnssecClass::Unsigned => self.unsigned += 1,
            DnssecClass::Secured => self.secured += 1,
            DnssecClass::Invalid => self.invalid += 1,
            DnssecClass::Island => {
                self.islands += 1;
                match z.cds {
                    CdsClass::Absent => self.island_without_cds += 1,
                    CdsClass::Delete => self.island_cds_delete += 1,
                    CdsClass::MismatchesDnskey | CdsClass::BadSignature => {
                        self.island_invalid_cds += 1
                    }
                    CdsClass::Valid => self.island_bootstrappable += 1,
                    // NS disagreement: conservatively not bootstrappable.
                    CdsClass::Inconsistent => self.island_invalid_cds += 1,
                }
            }
            DnssecClass::Unresolvable | DnssecClass::Indeterminate => {}
        }
    }

    pub fn render(&self) -> String {
        let pct = |n: u64| {
            if self.resolved == 0 {
                0.0
            } else {
                100.0 * n as f64 / self.resolved as f64
            }
        };
        let mut s = String::new();
        let _ = writeln!(s, "Figure 1 — DNSSEC status and bootstrapping possibility");
        let _ = writeln!(s, "  resolved zones          {:>10}", self.resolved);
        let _ = writeln!(
            s,
            "  without DNSSEC          {:>10}  ({:5.1} %)",
            self.unsigned,
            pct(self.unsigned)
        );
        let _ = writeln!(
            s,
            "  already secured         {:>10}  ({:5.1} %)",
            self.secured,
            pct(self.secured)
        );
        let _ = writeln!(
            s,
            "  invalid DNSSEC          {:>10}  ({:5.1} %)",
            self.invalid,
            pct(self.invalid)
        );
        let _ = writeln!(
            s,
            "  secure islands          {:>10}  ({:5.1} %)",
            self.islands,
            pct(self.islands)
        );
        let _ = writeln!(
            s,
            "    without CDS           {:>10}",
            self.island_without_cds
        );
        let _ = writeln!(
            s,
            "    CDS delete            {:>10}",
            self.island_cds_delete
        );
        let _ = writeln!(
            s,
            "    invalid CDS           {:>10}",
            self.island_invalid_cds
        );
        let _ = writeln!(
            s,
            "    possible to bootstrap {:>10}",
            self.island_bootstrappable
        );
        if self.indeterminate > 0 {
            let _ = writeln!(
                s,
                "  indeterminate (degraded){:>10}  (excluded)",
                self.indeterminate
            );
        }
        s
    }

    /// §4.3's AB-potential summary: the same partition, grouped by
    /// whether a zone could benefit from Authenticated Bootstrapping.
    pub fn render_ab_potential(&self) -> String {
        let cannot = [
            ("unsigned", self.unsigned),
            ("invalid DNSSEC", self.invalid),
            ("islands without CDS", self.island_without_cds),
            ("islands with CDS delete", self.island_cds_delete),
            ("islands with broken CDS", self.island_invalid_cds),
        ];
        let mut s = String::new();
        let _ = writeln!(s, "Authenticated Bootstrapping potential (paper §4.3)");
        let benefit: u64 = cannot.iter().map(|(_, n)| n).sum();
        let _ = writeln!(s, "  cannot benefit from AB       {benefit:>10}");
        for (label, n) in cannot {
            let _ = writeln!(s, "    {label:<27}{n:>10}");
        }
        let _ = writeln!(s, "  already secured              {:>10}", self.secured);
        let _ = writeln!(
            s,
            "  could benefit (bootstrappable){:>9}",
            self.island_bootstrappable
        );
        s
    }
}

/// A Table 1 row: DNSSEC among one operator's domains.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub operator: String,
    pub domains: u64,
    pub unsigned: u64,
    pub secured: u64,
    pub invalid: u64,
    pub islands: u64,
}

/// Table 1: DNSSEC among the top-N DNS operators by domain count.
pub fn table1(results: &ScanResults, top_n: usize) -> Vec<Table1Row> {
    let mut map: BTreeMap<&str, Table1Row> = BTreeMap::new();
    for z in results.resolved() {
        let Identified::Single(op) = &z.operator else {
            continue;
        };
        let row = map.entry(op).or_insert_with(|| Table1Row {
            operator: op.to_string(),
            domains: 0,
            unsigned: 0,
            secured: 0,
            invalid: 0,
            islands: 0,
        });
        row.domains += 1;
        match z.dnssec {
            DnssecClass::Unsigned => row.unsigned += 1,
            DnssecClass::Secured => row.secured += 1,
            DnssecClass::Invalid => row.invalid += 1,
            DnssecClass::Island => row.islands += 1,
            DnssecClass::Unresolvable | DnssecClass::Indeterminate => {}
        }
    }
    let mut rows: Vec<Table1Row> = map.into_values().collect();
    rows.sort_by(|a, b| b.domains.cmp(&a.domains).then(a.operator.cmp(&b.operator)));
    rows.truncate(top_n);
    rows
}

/// Render Table 1 like the paper.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 1 — DNSSEC amongst the top {} DNS operators",
        rows.len()
    );
    let _ = writeln!(
        s,
        "{:<18} {:>9} {:>9}({:>5}) {:>8}({:>5}) {:>7}({:>6}) {:>7}({:>6})",
        "Operator", "Domains", "Unsigned", "%", "Secured", "%", "Invalid", "%", "Islands", "%"
    );
    for r in rows {
        let pct = |n: u64| 100.0 * n as f64 / r.domains.max(1) as f64;
        let _ = writeln!(
            s,
            "{:<18} {:>9} {:>9}({:>5.1}) {:>8}({:>5.1}) {:>7}({:>6.2}) {:>7}({:>6.2})",
            r.operator,
            r.domains,
            r.unsigned,
            pct(r.unsigned),
            r.secured,
            pct(r.secured),
            r.invalid,
            pct(r.invalid),
            r.islands,
            pct(r.islands),
        );
    }
    s
}

/// A Table 2 row: CDS publication per operator.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub operator: String,
    pub swiss: bool,
    pub domains_with_cds: u64,
    pub portfolio: u64,
    pub pct_of_portfolio: f64,
}

/// Table 2: the top-N operators publishing CDS RRs.
pub fn table2(results: &ScanResults, top_n: usize, swiss_ops: &[String]) -> Vec<Table2Row> {
    let mut cds: BTreeMap<&str, u64> = BTreeMap::new();
    let mut portfolio: BTreeMap<&str, u64> = BTreeMap::new();
    for z in results.resolved() {
        let Identified::Single(op) = &z.operator else {
            continue;
        };
        *portfolio.entry(op).or_insert(0) += 1;
        if z.cds != CdsClass::Absent {
            *cds.entry(op).or_insert(0) += 1;
        }
    }
    let mut rows: Vec<Table2Row> = cds
        .into_iter()
        .map(|(op, n)| {
            let p = portfolio.get(op).copied().unwrap_or(n);
            Table2Row {
                swiss: swiss_ops.iter().any(|s| s == op),
                domains_with_cds: n,
                portfolio: p,
                pct_of_portfolio: 100.0 * n as f64 / p.max(1) as f64,
                operator: op.to_string(),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.domains_with_cds
            .cmp(&a.domains_with_cds)
            .then(a.operator.cmp(&b.operator))
    });
    rows.truncate(top_n);
    rows
}

/// Render Table 2 like the paper (Swiss operators marked with `[CH]`).
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 2 — top {} DNS operators publishing CDS RRs",
        rows.len()
    );
    let _ = writeln!(
        s,
        "{:<4} {:<22} {:>10} {:>7}",
        "#", "DNS Operator", "Dom.w.CDS", "%"
    );
    for (i, r) in rows.iter().enumerate() {
        let mark = if r.swiss { " [CH]" } else { "" };
        let _ = writeln!(
            s,
            "{:<4} {:<22} {:>10} {:>7.1}",
            i + 1,
            format!("{}{}", r.operator, mark),
            r.domains_with_cds,
            r.pct_of_portfolio
        );
    }
    s
}

/// One Table 3 column (per signal-publishing operator).
#[derive(Debug, Clone, Default)]
pub struct Table3Col {
    pub with_signal_cds: u64,
    pub already_secured: u64,
    pub cannot_bootstrap: u64,
    pub cannot_deletion: u64,
    pub cannot_invalid_dnssec: u64,
    pub potential: u64,
    pub signal_incorrect: u64,
    pub signal_correct: u64,
}

/// Table 3: signal-zone census, grouped by operator with an "Others"
/// bucket for operators outside `named`.
#[derive(Debug, Clone)]
pub struct Table3 {
    pub columns: Vec<(String, Table3Col)>,
}

pub fn table3(results: &ScanResults, named: &[&str]) -> Table3 {
    let mut cols: BTreeMap<String, Table3Col> = BTreeMap::new();
    for z in results.resolved() {
        if z.ab == AbClass::NoSignal {
            continue;
        }
        let op = match &z.operator {
            Identified::Single(op) if named.contains(&&**op) => op.to_string(),
            _ => "Others".to_string(),
        };
        let col = cols.entry(op).or_default();
        col.with_signal_cds += 1;
        match z.ab {
            AbClass::AlreadySecured => col.already_secured += 1,
            AbClass::CannotBootstrap(reason) => {
                col.cannot_bootstrap += 1;
                match reason {
                    CannotReason::DeletionRequest => col.cannot_deletion += 1,
                    _ => col.cannot_invalid_dnssec += 1,
                }
            }
            AbClass::SignalIncorrect(_) => {
                col.potential += 1;
                col.signal_incorrect += 1;
            }
            AbClass::SignalCorrect => {
                col.potential += 1;
                col.signal_correct += 1;
            }
            AbClass::NoSignal => unreachable!(),
        }
    }
    let mut columns: Vec<(String, Table3Col)> = Vec::new();
    for n in named {
        if let Some(c) = cols.remove(*n) {
            columns.push((n.to_string(), c));
        }
    }
    if let Some(c) = cols.remove("Others") {
        columns.push(("Others".to_string(), c));
    }
    Table3 { columns }
}

impl Table3 {
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 3 — DNS operators publishing CDS RRs in signal zones"
        );
        let _ = write!(s, "{:<28}", "");
        for (name, _) in &self.columns {
            let _ = write!(s, "{:>14}", name);
        }
        let total: Table3Col = self
            .columns
            .iter()
            .fold(Table3Col::default(), |mut a, (_, c)| {
                a.with_signal_cds += c.with_signal_cds;
                a.already_secured += c.already_secured;
                a.cannot_bootstrap += c.cannot_bootstrap;
                a.cannot_deletion += c.cannot_deletion;
                a.cannot_invalid_dnssec += c.cannot_invalid_dnssec;
                a.potential += c.potential;
                a.signal_incorrect += c.signal_incorrect;
                a.signal_correct += c.signal_correct;
                a
            });
        let _ = writeln!(s, "{:>14}", "Total");
        let row = |s: &mut String, label: &str, f: &dyn Fn(&Table3Col) -> u64| {
            let _ = write!(s, "{:<28}", label);
            for (_, c) in &self.columns {
                let _ = write!(s, "{:>14}", f(c));
            }
            let _ = writeln!(s, "{:>14}", f(&total));
        };
        row(&mut s, "with signal CDS", &|c| c.with_signal_cds);
        row(&mut s, "  already secured", &|c| c.already_secured);
        row(&mut s, "  cannot be bootstrapped", &|c| c.cannot_bootstrap);
        row(&mut s, "    deletion request", &|c| c.cannot_deletion);
        row(&mut s, "    invalid DNSSEC", &|c| c.cannot_invalid_dnssec);
        row(&mut s, "  potential to bootstrap", &|c| c.potential);
        row(&mut s, "    signal zone incorrect", &|c| c.signal_incorrect);
        row(&mut s, "    signal zone correct", &|c| c.signal_correct);
        s
    }
}

/// The §4.2 CDS deployment census.
#[derive(Debug, Clone, Default)]
pub struct CdsCensus {
    pub resolved: u64,
    pub with_cds: u64,
    pub cds_in_unsigned: u64,
    pub delete_in_unsigned: u64,
    pub delete_but_signed: u64,
    pub islands_with_delete: u64,
    pub islands_with_cds: u64,
    pub islands_consistent: u64,
    pub inconsistent: u64,
    pub inconsistent_multi_operator: u64,
    pub cds_without_matching_dnskey: u64,
    pub cds_invalid_signature: u64,
    pub cds_query_failures: u64,
    /// Zones publishing RFC 7477 CSYNC records (paper §6 future work).
    pub with_csync: u64,
}

pub fn cds_census(results: &ScanResults) -> CdsCensus {
    let mut c = CdsCensus::default();
    for z in results.resolved() {
        c.resolved += 1;
        if z.cds_query_failures() {
            c.cds_query_failures += 1;
        }
        if z.ns_observations.iter().any(|o| o.csync_present) {
            c.with_csync += 1;
        }
        if z.cds == CdsClass::Absent {
            continue;
        }
        c.with_cds += 1;
        let is_island = z.dnssec == DnssecClass::Island;
        let is_unsigned = z.dnssec == DnssecClass::Unsigned;
        if is_unsigned {
            c.cds_in_unsigned += 1;
            if z.cds == CdsClass::Delete {
                c.delete_in_unsigned += 1;
            }
        }
        if z.dnssec == DnssecClass::Secured && z.cds == CdsClass::Delete {
            c.delete_but_signed += 1;
        }
        if is_island {
            if z.cds == CdsClass::Delete {
                c.islands_with_delete += 1;
            }
            c.islands_with_cds += 1;
            if z.cds != CdsClass::Inconsistent {
                c.islands_consistent += 1;
            }
        }
        if z.cds == CdsClass::Inconsistent {
            c.inconsistent += 1;
            if matches!(z.operator, Identified::Multi(_)) {
                c.inconsistent_multi_operator += 1;
            }
        }
        if z.cds == CdsClass::MismatchesDnskey {
            c.cds_without_matching_dnskey += 1;
        }
        if z.cds == CdsClass::BadSignature {
            c.cds_invalid_signature += 1;
        }
    }
    c
}

impl CdsCensus {
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "CDS deployment census (paper §4.2)");
        let _ = writeln!(
            s,
            "  zones with CDS                    {:>9}  ({:4.1} % of {})",
            self.with_cds,
            100.0 * self.with_cds as f64 / self.resolved.max(1) as f64,
            self.resolved
        );
        let _ = writeln!(
            s,
            "  CDS in unsigned zones             {:>9}",
            self.cds_in_unsigned
        );
        let _ = writeln!(
            s,
            "  CDS delete in unsigned zones      {:>9}",
            self.delete_in_unsigned
        );
        let _ = writeln!(
            s,
            "  CDS delete but still signed       {:>9}",
            self.delete_but_signed
        );
        let _ = writeln!(
            s,
            "  islands with CDS delete           {:>9}",
            self.islands_with_delete
        );
        let _ = writeln!(
            s,
            "  islands with CDS                  {:>9}",
            self.islands_with_cds
        );
        let _ = writeln!(
            s,
            "  islands with consistent CDS       {:>9}",
            self.islands_consistent
        );
        let _ = writeln!(
            s,
            "  inconsistent CDS (between NSes)   {:>9}",
            self.inconsistent
        );
        let _ = writeln!(
            s,
            "    of which multi-operator         {:>9}",
            self.inconsistent_multi_operator
        );
        let _ = writeln!(
            s,
            "  CDS matching no DNSKEY            {:>9}",
            self.cds_without_matching_dnskey
        );
        let _ = writeln!(
            s,
            "  CDS with invalid RRSIG            {:>9}",
            self.cds_invalid_signature
        );
        let _ = writeln!(
            s,
            "  NSes failing CDS-type queries     {:>9}",
            self.cds_query_failures
        );
        let _ = writeln!(
            s,
            "  zones with CSYNC (RFC 7477)       {:>9}",
            self.with_csync
        );
        s
    }
}

/// One degraded zone in the [`DegradationReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedZone {
    pub name: String,
    pub class: DnssecClass,
    pub stats: RetryStats,
}

/// Explicit degradation semantics: which zones the scan could *not*
/// classify cleanly, and the failure statistics behind each. Nothing in
/// here is folded into the substantive classes — this report is the
/// honest remainder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    pub total_zones: u64,
    /// Zones that saw transient failures (including recovered ones).
    pub degraded_zones: u64,
    /// Zones left entirely unclassified.
    pub indeterminate_zones: u64,
    pub total_failures: u64,
    pub total_timeouts: u64,
    pub total_malformed: u64,
    pub total_servfails: u64,
    pub total_retries: u64,
    pub total_breaker_skips: u64,
    pub total_rescans: u64,
    /// Degraded zones in name order (deterministic).
    pub zones: Vec<DegradedZone>,
}

pub fn degradation(results: &ScanResults) -> DegradationReport {
    let mut r = DegradationReport::default();
    for z in &results.zones {
        if r.absorb_counters(z) {
            r.zones.push(DegradedZone {
                name: z.name.to_string_fqdn(),
                class: z.dnssec,
                stats: z.retry_stats,
            });
        }
    }
    // zones already arrive name-sorted from scan_all; sort again so the
    // report is deterministic regardless of how results were assembled.
    r.zones.sort_by(|a, b| a.name.cmp(&b.name));
    r
}

impl DegradationReport {
    /// Fold one zone's counters into the report, *without* recording a
    /// [`DegradedZone`] entry; returns whether the zone qualifies for
    /// one. [`degradation`] is this plus the entry push; the fabric's
    /// streaming merge keeps only the counters (O(1) state per report)
    /// and lets its caller decide whether to materialize the per-zone
    /// degradation list.
    pub fn absorb_counters(&mut self, z: &ZoneScan) -> bool {
        self.total_zones += 1;
        let s = &z.retry_stats;
        self.total_failures += s.failures as u64;
        self.total_timeouts += s.timeouts as u64;
        self.total_malformed += s.malformed as u64;
        self.total_servfails += s.servfails as u64;
        self.total_retries += s.retries as u64;
        self.total_breaker_skips += s.breaker_skips as u64;
        self.total_rescans += s.rescans as u64;
        if z.dnssec == DnssecClass::Indeterminate {
            self.indeterminate_zones += 1;
        }
        let degraded = z.weak();
        if degraded {
            self.degraded_zones += 1;
        }
        degraded
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Degradation report — transient failures and their effect"
        );
        let _ = writeln!(s, "  zones scanned              {:>9}", self.total_zones);
        let _ = writeln!(s, "  degraded (saw failures)    {:>9}", self.degraded_zones);
        let _ = writeln!(
            s,
            "  indeterminate (unclassified){:>8}",
            self.indeterminate_zones
        );
        let _ = writeln!(s, "  query failures             {:>9}", self.total_failures);
        let _ = writeln!(s, "    timeouts                 {:>9}", self.total_timeouts);
        let _ = writeln!(
            s,
            "    malformed replies        {:>9}",
            self.total_malformed
        );
        let _ = writeln!(
            s,
            "  SERVFAIL answers           {:>9}",
            self.total_servfails
        );
        let _ = writeln!(s, "  retries spent              {:>9}", self.total_retries);
        let _ = writeln!(
            s,
            "  breaker skips              {:>9}",
            self.total_breaker_skips
        );
        let _ = writeln!(s, "  re-scan passes             {:>9}", self.total_rescans);
        for z in &self.zones {
            let _ = writeln!(
                s,
                "    {:<40} {:>14} failures={} timeouts={} retries={} rescans={}",
                z.name,
                format!("{:?}", z.class),
                z.stats.failures,
                z.stats.timeouts,
                z.stats.retries,
                z.stats.rescans,
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::ScanResults;
    use dns_wire::name;
    use std::sync::Arc;

    fn zone(n: &str, op: Identified, dnssec: DnssecClass, cds: CdsClass, ab: AbClass) -> ZoneScan {
        Arc::new(ScanRecord {
            evidence: Evidence {
                cds,
                ab,
                operator: op,
                ..Evidence::empty(name!(n), dnssec, false)
            },
            queries: 10,
            elapsed: 100,
            retry_stats: RetryStats::default(),
        })
    }

    fn single(op: &str) -> Identified {
        Identified::Single(op.into())
    }

    fn sample_results() -> ScanResults {
        ScanResults {
            zones: vec![
                zone(
                    "a.com",
                    single("OpA"),
                    DnssecClass::Unsigned,
                    CdsClass::Absent,
                    AbClass::NoSignal,
                ),
                zone(
                    "b.com",
                    single("OpA"),
                    DnssecClass::Secured,
                    CdsClass::Valid,
                    AbClass::AlreadySecured,
                ),
                zone(
                    "c.com",
                    single("OpA"),
                    DnssecClass::Island,
                    CdsClass::Valid,
                    AbClass::SignalCorrect,
                ),
                zone(
                    "d.com",
                    single("OpB"),
                    DnssecClass::Island,
                    CdsClass::Delete,
                    AbClass::CannotBootstrap(CannotReason::DeletionRequest),
                ),
                zone(
                    "e.com",
                    single("OpB"),
                    DnssecClass::Invalid,
                    CdsClass::Absent,
                    AbClass::NoSignal,
                ),
                zone(
                    "f.com",
                    Identified::Multi(vec!["OpA".into(), "OpB".into()]),
                    DnssecClass::Island,
                    CdsClass::Inconsistent,
                    AbClass::NoSignal,
                ),
                zone(
                    "g.com",
                    single("OpB"),
                    DnssecClass::Unresolvable,
                    CdsClass::Absent,
                    AbClass::NoSignal,
                ),
                zone(
                    "h.com",
                    single("OpC"),
                    DnssecClass::Island,
                    CdsClass::Valid,
                    AbClass::SignalIncorrect(SignalViolation::ZoneCut),
                ),
            ],
            simulated_duration: 1000,
            total_queries: 80,
        }
    }

    #[test]
    fn figure1_counts() {
        let f = figure1(&sample_results());
        assert_eq!(f.resolved, 7); // g.com excluded
        assert_eq!(f.unsigned, 1);
        assert_eq!(f.secured, 1);
        assert_eq!(f.invalid, 1);
        assert_eq!(f.islands, 4);
        assert_eq!(f.island_bootstrappable, 2);
        assert_eq!(f.island_cds_delete, 1);
        assert_eq!(f.island_invalid_cds, 1); // the inconsistent one
        let text = f.render();
        assert!(text.contains("possible to bootstrap"));
    }

    #[test]
    fn table1_ranks_by_domains() {
        let rows = table1(&sample_results(), 20);
        assert_eq!(rows[0].operator, "OpA");
        assert_eq!(rows[0].domains, 3);
        // Multi-operator zones excluded from per-operator rows.
        let total: u64 = rows.iter().map(|r| r.domains).sum();
        assert_eq!(total, 6); // 7 resolved - 1 multi
        assert!(render_table1(&rows).contains("OpA"));
    }

    #[test]
    fn table2_percentages() {
        let rows = table2(&sample_results(), 20, &["OpB".to_string()]);
        let opa = rows.iter().find(|r| r.operator == "OpA").unwrap();
        assert_eq!(opa.domains_with_cds, 2); // b.com + c.com
        assert_eq!(opa.portfolio, 3);
        assert!((opa.pct_of_portfolio - 66.7).abs() < 0.1);
        let opb = rows.iter().find(|r| r.operator == "OpB").unwrap();
        assert!(opb.swiss);
        assert!(render_table2(&rows).contains("[CH]"));
    }

    #[test]
    fn table3_waterfall() {
        let t = table3(&sample_results(), &["OpA", "OpC"]);
        let opa = &t.columns.iter().find(|(n, _)| n == "OpA").unwrap().1;
        assert_eq!(opa.with_signal_cds, 2); // b.com (secured) + c.com
        assert_eq!(opa.already_secured, 1);
        assert_eq!(opa.signal_correct, 1);
        let opc = &t.columns.iter().find(|(n, _)| n == "OpC").unwrap().1;
        assert_eq!(opc.signal_incorrect, 1);
        assert_eq!(opc.potential, 1);
        // OpB's deletion-request zone lands in Others.
        let others = &t.columns.iter().find(|(n, _)| n == "Others").unwrap().1;
        assert_eq!(others.cannot_deletion, 1);
        assert!(t.render().contains("signal zone correct"));
    }

    #[test]
    fn cds_census_counts_exact() {
        let c = cds_census(&sample_results());
        assert_eq!(c.resolved, 7);
        assert_eq!(c.with_cds, 5);
        assert_eq!(c.islands_with_delete, 1);
        assert_eq!(c.inconsistent, 1);
        assert_eq!(c.inconsistent_multi_operator, 1);
        assert_eq!(c.islands_with_cds, 4);
        assert_eq!(c.islands_consistent, 3);
        assert!(c.render().contains("multi-operator"));
    }

    /// E5 regroups Figure 1: everything resolved but the secured and the
    /// bootstrappable zones cannot benefit.
    #[test]
    fn ab_potential_regroups_figure1() {
        let text = figure1(&sample_results()).render_ab_potential();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "  cannot benefit from AB                4");
        assert_eq!(lines[6], "    islands with broken CDS             1");
        assert_eq!(lines[8], "  could benefit (bootstrappable)        2");
    }

    #[test]
    fn degradation_report_lists_only_degraded_zones_sorted() {
        let mut r = sample_results();
        // Mark two zones degraded, one of them fully indeterminate.
        let four = Arc::make_mut(&mut r.zones[4]);
        four.evidence.degraded = true;
        four.retry_stats.timeouts = 3;
        four.retry_stats.failures = 3;
        four.retry_stats.rescans = 1;
        let one = Arc::make_mut(&mut r.zones[1]);
        one.evidence.dnssec = DnssecClass::Indeterminate;
        one.retry_stats.breaker_skips = 2;
        let d = degradation(&r);
        assert_eq!(d.total_zones, 8);
        assert_eq!(d.degraded_zones, 2);
        assert_eq!(d.indeterminate_zones, 1);
        assert_eq!(d.total_timeouts, 3);
        assert_eq!(d.total_breaker_skips, 2);
        assert_eq!(d.total_rescans, 1);
        assert_eq!(d.zones.len(), 2);
        assert!(d.zones[0].name < d.zones[1].name);
        let text = d.render();
        assert!(text.contains("indeterminate"));
        assert!(text.contains("e.com."));
        // The indeterminate zone no longer counts as resolved anywhere.
        let f = figure1(&r);
        assert_eq!(f.resolved, 6);
        assert_eq!(f.indeterminate, 1);
    }
}
