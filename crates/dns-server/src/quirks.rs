//! Operator misbehaviour configuration.

use netsim::DeterministicDraw;

/// Deliberate deviations from correct server behaviour, mirroring what the
/// paper observes in the wild. These are what a server *answers*; every
/// impairment of the path to it — outages, flapping, loss, SERVFAIL
/// bursts — is a `netsim::FaultPlan`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quirks {
    /// Pre-RFC 3597 behaviour: queries for types the server does not know
    /// (for us: CDS, CDNSKEY, and anything ≥ the DNSSEC range) are answered
    /// with an error instead of NODATA. Paper §4.2: 7.6 M domains' NSes
    /// "failed to respond, or returned an error response, when queried
    /// about these RRs".
    pub pre_rfc3597: bool,
    /// Probability that a response's RRSIGs are transiently corrupted
    /// (§4.4: "transient errors in which deSec returned invalid
    /// signatures during the scan, but now returns correct DNSSEC
    /// signatures").
    pub transient_badsig: f64,
    /// Seed mixed into the transient-signature draw, so different servers
    /// with the same probability fail on different queries.
    pub seed: u64,
}

impl Quirks {
    /// Fully standards-compliant server.
    pub const CLEAN: Quirks = Quirks {
        pre_rfc3597: false,
        transient_badsig: 0.0,
        seed: 0,
    };

    /// Whether this specific (query, backend) exchange should corrupt its
    /// signatures.
    pub fn draw_badsig(&self, query: &[u8], backend: u32) -> bool {
        if self.transient_badsig <= 0.0 {
            return false;
        }
        DeterministicDraw::new(self.seed ^ 0x00ba_d516, &[query, &backend.to_be_bytes()]).unit()
            < self.transient_badsig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_never_fails() {
        let q = Quirks::CLEAN;
        for i in 0..100u8 {
            assert!(!q.draw_badsig(&[i], 0));
        }
    }

    #[test]
    fn transient_rates_approximate_probability() {
        let q = Quirks {
            transient_badsig: 0.3,
            seed: 9,
            ..Quirks::CLEAN
        };
        let fails = (0..1000u16)
            .filter(|i| q.draw_badsig(&i.to_be_bytes(), 0))
            .count();
        assert!((200..400).contains(&fails), "{fails}");
    }

    #[test]
    fn draws_are_deterministic_and_backend_sensitive() {
        let q = Quirks {
            transient_badsig: 0.5,
            seed: 3,
            ..Quirks::CLEAN
        };
        let a = q.draw_badsig(b"query", 0);
        assert_eq!(a, q.draw_badsig(b"query", 0));
        // Across many queries, backends must disagree somewhere.
        let disagree = (0..100u8).any(|i| q.draw_badsig(&[i], 0) != q.draw_badsig(&[i], 1));
        assert!(disagree);
    }
}
