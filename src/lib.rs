//! # dnssec-bootstrap — umbrella crate
//!
//! Re-exports the whole reproduction stack of *"Measuring the Deployment
//! of DNSSEC Bootstrapping Using Authenticated Signals"* (IMC 2025) under
//! one roof, and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! Layer map (bottom-up):
//!
//! | crate | role |
//! |---|---|
//! | [`dns_wire`] | wire & presentation format |
//! | [`dns_crypto`] | hashing, key tags, DS digests, simulated signatures |
//! | [`dns_zone`] | zones, signing, NSEC/NSEC3, CDS, RFC 9615 signal names |
//! | [`netsim`] | deterministic network: anycast, loss, latency, rate limits |
//! | [`dns_server`] | authoritative servers + operator misbehaviours |
//! | [`dns_resolver`] | iterative resolution + RFC 4035 validation |
//! | [`dns_ecosystem`] | the synthetic Internet, calibrated to the paper |
//! | [`bootscan`] | the scanner + classification + reports (the paper's system) |
//! | [`scan_journal`] | write-ahead journal, crash recovery |
//! | [`scan_fabric`] | sharded coordinator/worker fleet; [`scan_fabric::run_fabric`] is the one-shot journaled driver |
//! | [`scan_epochs`] | carry ledger and time-series report types |
//! | [`scan_continuous`] | [`scan_continuous::run_continuous`], the journaled study driver over epochs |

pub use bootscan;
pub use dns_crypto;
pub use dns_ecosystem;
pub use dns_resolver;
pub use dns_server;
pub use dns_wire;
pub use dns_zone;
pub use netsim;
pub use scan_continuous;
pub use scan_epochs;
pub use scan_fabric;
pub use scan_journal;

/// Build a world, scan it in memory, and return (ecosystem, results) —
/// the paper pipeline in one call.
///
/// The journaled drivers are called directly, not wrapped here:
/// [`scan_fabric::run_fabric`] for one crash-resumable, sharded scan and
/// [`scan_continuous::run_continuous`] for a study over epochs (the
/// sequential longitudinal study is its `fabric.workers = 1` case).
pub fn run_study(
    config: dns_ecosystem::EcosystemConfig,
    policy: bootscan::ScanPolicy,
) -> (dns_ecosystem::Ecosystem, bootscan::ScanResults) {
    let eco = dns_ecosystem::build(config);
    let seeds = eco.seeds.compile(&eco.psl);
    let results = bootscan::Scanner::for_ecosystem(&eco, policy).scan_all(&seeds);
    (eco, results)
}

#[cfg(test)]
mod tests {
    #[test]
    fn run_study_smoke() {
        let (eco, results) = super::run_study(
            dns_ecosystem::EcosystemConfig::tiny(3),
            bootscan::ScanPolicy::default(),
        );
        assert!(!results.zones.is_empty());
        assert!(results.zones.len() <= eco.truth.len());
    }
}
