//! # dns-wire — DNS wire & presentation format, from scratch
//!
//! A dependency-free implementation of the DNS data model used by the
//! reproduction of *"Measuring the Deployment of DNSSEC Bootstrapping Using
//! Authenticated Signals"* (IMC 2025):
//!
//! * [`Name`] — domain names with case-insensitive equality, canonical
//!   (RFC 4034 §6.1) ordering, and the length limits of RFC 1035.
//! * [`Message`] — full DNS message encode/decode with label compression,
//!   EDNS(0) (RFC 6891) and the DO bit.
//! * [`RData`] — typed record data for every record type the paper touches
//!   (`A`, `AAAA`, `NS`, `SOA`, `CNAME`, `TXT`, `MX`, `DNSKEY`, `RRSIG`,
//!   `DS`, `NSEC`, `NSEC3`, `NSEC3PARAM`, `CDS`, `CDNSKEY`, `OPT`) plus
//!   RFC 3597 opaque handling for unknown types.
//! * Canonical form and canonical RRset ordering (RFC 4034 §6) used for
//!   DNSSEC signing and validation.
//! * A presentation-format (zone file) parser and serialiser.
//!
//! The crate is deliberately synchronous and allocation-conscious in the
//! spirit of `smoltcp`: simple, explicit framing with no macro tricks.

#![forbid(unsafe_code)]

pub mod canonical;
pub mod compress;
pub mod message;
pub mod name;
pub mod presentation;
pub mod rdata;
pub mod record;
pub mod typebitmap;
pub mod wire;

pub use canonical::canonical_rrset_wire;
pub use message::{Flags, Header, Message, Opcode, Question, Rcode};
pub use name::{Name, NameError};
pub use rdata::RData;
pub use record::{Record, RecordClass, RecordType, RrSet};
pub use wire::{WireError, WireReader, WireWriter};

/// The conventional maximum UDP payload advertised via EDNS(0) after the
/// 2020 DNS Flag Day: responses larger than this are truncated and the
/// client retries over TCP.
pub const EDNS_UDP_PAYLOAD: u16 = 1232;

/// Classic (pre-EDNS) UDP payload limit of RFC 1035.
pub const CLASSIC_UDP_PAYLOAD: u16 = 512;
