//! # dns-zone — zone model, DNSSEC signing, and RFC 9615 signal zones
//!
//! This crate turns the raw record types of `dns-wire` into *zones*:
//!
//! * [`Zone`] — an authoritative zone: apex, RRsets indexed in canonical
//!   order, delegation (zone-cut) awareness, occluded-name handling.
//! * [`ZoneKeys`] / [`ZoneSigner`] — KSK/ZSK generation, RRSIG production
//!   over canonical RRsets, NSEC (and NSEC3) chains, DNSKEY publication,
//!   and the DS/CDS/CDNSKEY records derived from the key set. Corruption
//!   modes plant the misconfigurations the paper measures (expired or
//!   invalid signatures, CDS not matching any DNSKEY).
//! * [`rollover`] — the RFC 7344 §4 CDS-driven KSK rollover choreography
//!   (introduce → registry DS swap → retire).
//! * [`signal`] — RFC 9615 Authenticated Bootstrapping signal names and
//!   signal-record construction
//!   (`_dsboot.<child>._signal.<ns>`, paper Listing 1).

pub mod keys;
pub mod rollover;
pub mod signal;
pub mod signer;
pub mod zone;

pub use keys::{csync_record, CdsPublication, ZoneKeys};
pub use signal::{signal_name, signal_zone_apex, SignalError};
pub use signer::{Corruption, ZoneSigner};
pub use zone::{Zone, ZoneLookup};
