//! Scan-cost accounting (paper §3 and Appendix D, experiment E7).
//!
//! The paper reports ~20 queries per nameserver per zone, a month-long
//! scan at 50 qps/NS, 6.5 TiB of raw data, and argues a registry
//! implementing AB need only scan the ~1.2 M signal-bearing zones with
//! heavy short-circuiting. These structs compute the same quantities from
//! a scan run.

use crate::scanner::ScanResults;
use crate::types::{AbClass, DnssecClass};
use netsim::StatsSnapshot;
use std::fmt::Write as _;

/// Cost summary of one scan run.
#[derive(Debug, Clone, Default)]
pub struct ScanCost {
    pub zones: u64,
    pub total_queries: u64,
    pub mean_queries_per_zone: f64,
    /// Simulated wall-clock (max over workers), seconds.
    pub simulated_seconds: f64,
    /// Network-level datagrams and bytes (includes netsim retries).
    pub datagrams: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Zones where the Cloudflare sampling policy kicked in.
    pub sampled_zones: u64,
}

/// Compute the cost summary from scan results plus the network counters.
pub fn scan_cost(results: &ScanResults, net: &StatsSnapshot) -> ScanCost {
    let zones = results.zones.len() as u64;
    ScanCost {
        zones,
        total_queries: results.total_queries,
        mean_queries_per_zone: results.total_queries as f64 / zones.max(1) as f64,
        simulated_seconds: results.simulated_duration as f64 / 1e6,
        datagrams: net.queries,
        bytes_sent: net.bytes_sent,
        bytes_received: net.bytes_received,
        sampled_zones: results.zones.iter().filter(|z| z.sampled).count() as u64,
    }
}

impl ScanCost {
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Scan cost (paper §3 / Appendix D)");
        let _ = writeln!(s, "  zones scanned            {:>12}", self.zones);
        let _ = writeln!(s, "  logical queries          {:>12}", self.total_queries);
        let _ = writeln!(
            s,
            "  mean queries / zone      {:>12.1}",
            self.mean_queries_per_zone
        );
        let _ = writeln!(
            s,
            "  simulated duration       {:>12.1} s",
            self.simulated_seconds
        );
        let _ = writeln!(s, "  datagrams on the wire    {:>12}", self.datagrams);
        let _ = writeln!(
            s,
            "  bytes sent / received    {:>12} / {}",
            self.bytes_sent, self.bytes_received
        );
        let _ = writeln!(s, "  zones sampled (2-of-12)  {:>12}", self.sampled_zones);
        s
    }
}

/// Appendix D's registry-feasibility estimate: how many zones a registry
/// implementing AB would actually need to scan (those with signal RRs),
/// versus the full dataset, and the short-circuit savings.
#[derive(Debug, Clone, Default)]
pub struct RegistryFeasibility {
    pub all_zones: u64,
    /// Zones with extant DS (excluded at zero query cost from registry
    /// data).
    pub skip_extant_ds: u64,
    /// Zones abandoned at the first query (unsigned — no DNSKEY).
    pub short_circuit_unsigned: u64,
    /// Zones that need the full AB evaluation (signal-bearing candidates).
    pub full_evaluation: u64,
}

pub fn registry_feasibility(results: &ScanResults) -> RegistryFeasibility {
    let mut f = RegistryFeasibility::default();
    for z in results.resolved() {
        f.all_zones += 1;
        match z.dnssec {
            DnssecClass::Secured | DnssecClass::Invalid => f.skip_extant_ds += 1,
            DnssecClass::Unsigned => f.short_circuit_unsigned += 1,
            DnssecClass::Island => {
                if z.ab != AbClass::NoSignal {
                    f.full_evaluation += 1;
                } else {
                    f.short_circuit_unsigned += 1;
                }
            }
            DnssecClass::Unresolvable | DnssecClass::Indeterminate => {}
        }
    }
    f
}

impl RegistryFeasibility {
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Registry AB feasibility (paper Appendix D)");
        let _ = writeln!(s, "  zones in dataset              {:>10}", self.all_zones);
        let _ = writeln!(
            s,
            "  skipped via extant DS         {:>10}",
            self.skip_extant_ds
        );
        let _ = writeln!(
            s,
            "  short-circuited (no DNSSEC)   {:>10}",
            self.short_circuit_unsigned
        );
        let _ = writeln!(
            s,
            "  needing full AB evaluation    {:>10}",
            self.full_evaluation
        );
        let _ = writeln!(
            s,
            "  fraction needing full work    {:>10.3} %",
            100.0 * self.full_evaluation as f64 / self.all_zones.max(1) as f64
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Evidence, ScanRecord, ZoneScan};
    use dns_wire::name;
    use std::sync::Arc;

    fn zone(n: &str, dnssec: DnssecClass, ab: AbClass, sampled: bool, queries: u32) -> ZoneScan {
        Arc::new(ScanRecord {
            evidence: Evidence {
                ab,
                sampled,
                ..Evidence::empty(name!(n), dnssec, false)
            },
            queries,
            elapsed: 500_000,
            retry_stats: crate::RetryStats::default(),
        })
    }

    fn results() -> ScanResults {
        ScanResults {
            zones: vec![
                zone("a.com", DnssecClass::Unsigned, AbClass::NoSignal, false, 10),
                zone(
                    "b.com",
                    DnssecClass::Secured,
                    AbClass::AlreadySecured,
                    true,
                    30,
                ),
                zone(
                    "c.com",
                    DnssecClass::Island,
                    AbClass::SignalCorrect,
                    false,
                    40,
                ),
                zone("d.com", DnssecClass::Island, AbClass::NoSignal, false, 20),
            ],
            simulated_duration: 3_000_000,
            total_queries: 100,
        }
    }

    #[test]
    fn cost_summary() {
        let net = StatsSnapshot {
            queries: 120,
            replies: 110,
            bytes_sent: 6000,
            bytes_received: 50_000,
            per_dest: Default::default(),
        };
        let c = scan_cost(&results(), &net);
        assert_eq!(c.zones, 4);
        assert_eq!(c.total_queries, 100);
        assert_eq!(c.mean_queries_per_zone, 25.0);
        assert_eq!(c.simulated_seconds, 3.0);
        assert_eq!(c.sampled_zones, 1);
        assert!(c.render().contains("mean queries"));
    }

    #[test]
    fn feasibility_short_circuits() {
        let f = registry_feasibility(&results());
        assert_eq!(f.all_zones, 4);
        assert_eq!(f.skip_extant_ds, 1);
        assert_eq!(f.short_circuit_unsigned, 2); // a.com + island w/o signal
        assert_eq!(f.full_evaluation, 1);
        assert!(f.render().contains("full AB evaluation"));
    }
}
