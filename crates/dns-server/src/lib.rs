//! # dns-server — simulated authoritative nameservers
//!
//! Implements the server side of every DNS exchange in the reproduction:
//!
//! * [`ZoneStore`] — the set of zones one server (pool) is authoritative
//!   for, with longest-suffix zone selection.
//! * [`AuthServer`] — RFC 1034 §4.3.2 answering: answers, referrals,
//!   NODATA, NXDOMAIN, CNAMEs; DNSSEC additions (RRSIGs, NSEC denial) when
//!   the query sets the DO bit; EDNS-aware truncation with TCP fallback.
//! * [`Quirks`] — the operator misbehaviours the paper measures:
//!   pre-RFC 3597 servers erroring on CDS/CDNSKEY queries (§4.2 "Lack of
//!   support for CDS") and transient bad signatures (§4.4's deSEC scan
//!   artefacts), drawn per anycast backend. Outages and transient
//!   SERVFAILs are network impairments: a `netsim::FaultPlan` injects
//!   them.
//! * [`ParkingServer`] — an Afternic/namefind-style parking responder that
//!   answers *every* query identically, creating "the illusion of a zone
//!   cut at every level of the DNS tree" (§4.4).
//!
//! Servers implement [`netsim::ServerHandler`], so they plug straight into
//! the simulated network.

pub mod byzantine;
pub mod parking;
pub mod quirks;
pub mod server;
pub mod store;

pub use byzantine::{ByzantineMode, ByzantineServer};
pub use parking::ParkingServer;
pub use quirks::Quirks;
pub use server::AuthServer;
pub use store::ZoneStore;
