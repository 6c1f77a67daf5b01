//! # dns-crypto — hashing, keys and signatures for the DNSSEC simulation
//!
//! Real, test-vectored implementations of SHA-1 (NSEC3 hashing, RFC 5155),
//! SHA-256 and SHA-384 (DS digests, RFC 4509 / RFC 6605), plus RFC 4034
//! key-tag computation — and a *simulated* signature scheme for RRSIGs.
//!
//! ## The simulated signature scheme
//!
//! The paper measures DNSSEC *configuration correctness*, not cryptographic
//! strength, so signatures here are keyed hashes rather than real public-key
//! signatures (the offline crate budget has no asymmetric-crypto crate, and
//! re-implementing ECDSA would add risk without adding fidelity):
//!
//! * private key: random bytes drawn per zone/key,
//! * public key: `SHA-256("dnssec-sim-pub" ‖ private)`,
//! * signature over message `m`: `SHA-256("dnssec-sim-sig" ‖ public ‖ m)`,
//!   truncated/extended to the algorithm's conventional signature size.
//!
//! Verification recomputes the keyed hash from the *public* key, so the
//! validator needs no secret — exactly like real DNSSEC — and fails on any
//! mismatch of key, data, or planted corruption. The scheme is forgeable by
//! anyone holding the public key; that is irrelevant to the measurement
//! (DESIGN.md §2 records the substitution).

pub mod algorithm;
pub mod ds;
pub mod keys;
pub mod sha1;
pub mod sha2;
pub mod sign;

pub use algorithm::{Algorithm, DigestType};
pub use ds::ds_digest;
pub use keys::{key_tag, KeyPair};
pub use sign::{sign_rrset, verify_rrset, SignatureError, ValidityWindow};

/// Simulation epoch: all simulated clocks count seconds from scan start.
pub type UnixTime = u32;
