//! Operator misbehaviour configuration.

use dns_wire::name::Name;
use dns_wire::record::RecordType;
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

    /// Whether the answer to (`qname`, `qtype`) from `backend` should
    /// corrupt its signatures. The draw reads the question, never the
    /// message ID: a client numbers its IDs by what it asked before, so an
    /// ID-keyed draw would make one zone's evidence depend on the zones
    /// scanned ahead of it.
    pub fn draw_badsig(&self, qname: &Name, qtype: RecordType, backend: u32) -> bool {
        if self.transient_badsig <= 0.0 {
            return false;
        }
        DeterministicDraw::new(
            self.seed ^ 0x00ba_d516,
            &[
                &qname.fnv64().to_be_bytes(),
                &qtype.code().to_be_bytes(),
                &backend.to_be_bytes(),
            ],
        )
        .unit()
            < self.transient_badsig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::message::Message;

    fn qname(i: u32) -> Name {
        Name::parse(&format!("z{i}.example")).unwrap()
    }

    #[test]
    fn clean_never_fails() {
        let q = Quirks::CLEAN;
        for i in 0..100 {
            assert!(!q.draw_badsig(&qname(i), RecordType::Dnskey, 0));
        }
    }

    #[test]
    fn transient_rates_approximate_probability() {
        let q = Quirks {
            transient_badsig: 0.3,
            seed: 9,
            ..Quirks::CLEAN
        };
        let fails = (0..1000)
            .filter(|&i| q.draw_badsig(&qname(i), RecordType::Cds, 0))
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
        let a = q.draw_badsig(&qname(0), RecordType::Dnskey, 0);
        assert_eq!(a, q.draw_badsig(&qname(0), RecordType::Dnskey, 0));
        // Across many questions, backends and types must disagree somewhere.
        let draw = |i, t, b| q.draw_badsig(&qname(i), t, b);
        assert!((0..100).any(|i| draw(i, RecordType::Dnskey, 0) != draw(i, RecordType::Dnskey, 1)));
        assert!((0..100).any(|i| draw(i, RecordType::Dnskey, 0) != draw(i, RecordType::Cds, 0)));
    }

    #[test]
    fn queries_differing_only_in_id_draw_alike() {
        let q = Quirks {
            transient_badsig: 0.5,
            seed: 3,
            ..Quirks::CLEAN
        };
        for i in 0..100 {
            let draws: Vec<bool> = [1, 0x1234, 0xffff]
                .into_iter()
                .map(|id| {
                    let wire = Message::query(id, qname(i), RecordType::Dnskey, true).to_bytes();
                    let parsed = Message::from_bytes(&wire).unwrap();
                    let question = &parsed.questions[0];
                    q.draw_badsig(&question.name, question.rtype, 0)
                })
                .collect();
            assert!(draws.iter().all(|&d| d == draws[0]), "{i}: {draws:?}");
        }
    }
}
