//! Byzantine servers: nameservers that violate the protocol on purpose.
//!
//! The benign [`AuthServer`](crate::AuthServer) models *misconfigured*
//! operators (quirks, outages). This module models *adversarial* ones —
//! servers whose whole point is to waste a scanner's query budget, poison
//! its caches, or feed it answers for questions it never asked. Each
//! [`ByzantineMode`] realises one archetype from the ecosystem's
//! adversarial tier; the resolver's acceptance rules (DESIGN.md §6c) are
//! what these servers are built to probe.

use crate::server::AuthServer;
use crate::store::ZoneStore;
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::record::Record;
use netsim::{Addr, ServerHandler, ServerResponse, SimMicros, Transport};
use std::sync::Arc;

/// What flavour of hostility a [`ByzantineServer`] exhibits.
pub enum ByzantineMode {
    /// Answer REFUSED to every query (a lame delegation target).
    Lame,
    /// Answer every query with the same referral: NS records for `cut` in
    /// the authority section and `glue` in the additional section. Two of
    /// these pointing at each other make a delegation loop; one whose glue
    /// points back at itself is self-referential.
    Referral {
        cut: Name,
        ns: Vec<Name>,
        glue: Vec<Record>,
    },
    /// Echo a *different* question than the one asked (QNAME confusion).
    WrongQname { decoy: Name },
    /// Answer with a transaction ID one off from the query's (the
    /// off-path spoofing model: plausible content, unauthenticated ID).
    MismatchedId,
    /// Answer honestly from a zone store, then pad the response with junk
    /// records: `junk_answers` join the answer section, `junk_authority`
    /// the authority section. The junk carries names outside any zone this
    /// server is authoritative for — classic cache-poisoning bait.
    Inject {
        inner: Arc<ZoneStore>,
        junk_answers: Vec<Record>,
        junk_authority: Vec<Record>,
    },
}

/// A nameserver that implements one [`ByzantineMode`].
///
/// Unlike [`AuthServer`](crate::AuthServer) it performs no truncation: an
/// adversary has no interest in honouring EDNS payload limits, and the
/// simulated network delivers oversized datagrams regardless.
pub struct ByzantineServer {
    mode: ByzantineMode,
}

impl ByzantineServer {
    pub fn new(mode: ByzantineMode) -> Self {
        ByzantineServer { mode }
    }

    fn respond(&self, query: &Message) -> Message {
        match &self.mode {
            ByzantineMode::Lame => Message::response_to(query, Rcode::Refused),
            ByzantineMode::Referral { cut, ns, glue } => {
                let mut resp = Message::response_to(query, Rcode::NoError);
                for target in ns {
                    resp.authorities.push(Record::new(
                        cut.clone(),
                        3600,
                        dns_wire::rdata::RData::Ns(target.clone()),
                    ));
                }
                resp.additionals.extend(glue.iter().cloned());
                resp
            }
            ByzantineMode::WrongQname { decoy } => {
                let mut resp = Message::response_to(query, Rcode::NoError);
                if let Some(q) = resp.questions.first_mut() {
                    q.name = decoy.clone();
                }
                resp
            }
            ByzantineMode::MismatchedId => {
                let mut resp = Message::response_to(query, Rcode::NoError);
                resp.header.id = resp.header.id.wrapping_add(1);
                resp
            }
            ByzantineMode::Inject {
                inner,
                junk_answers,
                junk_authority,
            } => {
                let mut resp = AuthServer::new(Arc::clone(inner)).answer(query);
                resp.answers.extend(junk_answers.iter().cloned());
                resp.authorities.extend(junk_authority.iter().cloned());
                resp
            }
        }
    }
}

impl ServerHandler for ByzantineServer {
    fn handle(
        &self,
        query: &[u8],
        _dst: Addr,
        _transport: Transport,
        _backend: u32,
        _now: SimMicros,
    ) -> ServerResponse {
        let Ok(parsed) = Message::from_bytes(query) else {
            return ServerResponse::Drop;
        };
        ServerResponse::Reply(self.respond(&parsed).to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::message::Message;
    use dns_wire::name;
    use dns_wire::rdata::RData;
    use dns_wire::record::RecordType;
    use std::net::Ipv4Addr;

    fn ask(server: &ByzantineServer, qname: &Name) -> Message {
        let q = Message::query(7, qname.clone(), RecordType::A, true);
        let ServerResponse::Reply(bytes) = server.handle(
            &q.to_bytes(),
            Addr::V4(Ipv4Addr::new(10, 200, 0, 1)),
            Transport::Udp,
            0,
            0,
        ) else {
            panic!("byzantine server must reply");
        };
        Message::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn lame_refuses_everything() {
        let s = ByzantineServer::new(ByzantineMode::Lame);
        let resp = ask(&s, &name!("anything.example"));
        assert_eq!(resp.rcode(), Rcode::Refused);
        assert_eq!(resp.header.id, 7);
    }

    #[test]
    fn referral_always_points_at_cut() {
        let glue = Record::new(
            name!("ns1.trap.example"),
            3600,
            RData::A(Ipv4Addr::new(10, 200, 0, 9)),
        );
        let s = ByzantineServer::new(ByzantineMode::Referral {
            cut: name!("trap.example"),
            ns: vec![name!("ns1.trap.example")],
            glue: vec![glue],
        });
        let resp = ask(&s, &name!("x.trap.example"));
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
        assert_eq!(resp.additionals.len(), 1);
    }

    #[test]
    fn wrong_qname_echoes_decoy() {
        let s = ByzantineServer::new(ByzantineMode::WrongQname {
            decoy: name!("decoy.example"),
        });
        let resp = ask(&s, &name!("real.example"));
        assert_eq!(resp.questions[0].name, name!("decoy.example"));
        assert_eq!(resp.header.id, 7);
    }

    #[test]
    fn mismatched_id_shifts_the_id() {
        let s = ByzantineServer::new(ByzantineMode::MismatchedId);
        let resp = ask(&s, &name!("real.example"));
        assert_eq!(resp.header.id, 8);
        assert_eq!(resp.questions[0].name, name!("real.example"));
    }
}
