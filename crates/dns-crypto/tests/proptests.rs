//! Property-based tests over the crypto layer: hash incrementality,
//! signature soundness/completeness properties, key-tag stability.

use dns_crypto::sha1::{base32hex, sha1};
use dns_crypto::sha2::{sha256, Sha256};
use dns_crypto::{key_tag, sign_rrset, verify_rrset, Algorithm, KeyPair, ValidityWindow};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming in arbitrary chunkings equals the one-shot digest.
    #[test]
    fn sha256_chunking_invariance(
        data in proptest::collection::vec(any::<u8>(), 0..=2048),
        cuts in proptest::collection::vec(0usize..2048, 0..=8),
    ) {
        let mut points: Vec<usize> = cuts.into_iter().filter(|&c| c <= data.len()).collect();
        points.sort_unstable();
        points.dedup();
        let mut h = Sha256::new();
        let mut prev = 0;
        for &p in &points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Different messages (almost surely) hash differently.
    #[test]
    fn sha256_collision_smoke(a in proptest::collection::vec(any::<u8>(), 0..=64),
                              b in proptest::collection::vec(any::<u8>(), 0..=64)) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    #[test]
    fn sha1_deterministic(data in proptest::collection::vec(any::<u8>(), 0..=256)) {
        prop_assert_eq!(sha1(&data), sha1(&data));
    }

    /// base32hex output is always lowercase alphanumeric of ceil(8n/5).
    #[test]
    fn base32hex_shape(data in proptest::collection::vec(any::<u8>(), 0..=32)) {
        let s = base32hex(&data);
        prop_assert_eq!(s.len(), data.len() * 8 / 5 + usize::from(!(data.len() * 8).is_multiple_of(5)));
        prop_assert!(s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'v').contains(&b)));
    }

    /// Correct signatures always verify inside their window.
    #[test]
    fn sign_then_verify_completeness(
        seed in any::<u64>(),
        message in proptest::collection::vec(any::<u8>(), 0..=256),
        now in 100u32..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = KeyPair::generate(&mut rng, Algorithm::Ed25519, 257);
        let sig = sign_rrset(&key, &message);
        let window = ValidityWindow { inception: 0, expiration: u32::MAX };
        prop_assert!(verify_rrset(key.algorithm, key.public_key(), &message, &sig, window, now).is_ok());
    }

    /// Any single-byte corruption of the signature is rejected.
    #[test]
    fn corrupted_signature_soundness(
        seed in any::<u64>(),
        message in proptest::collection::vec(any::<u8>(), 0..=128),
        flip_at in 0usize..64,
        flip_with in 1u8..=255,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = KeyPair::generate(&mut rng, Algorithm::Ed25519, 257);
        let mut sig = sign_rrset(&key, &message);
        let i = flip_at % sig.len();
        sig[i] ^= flip_with;
        let window = ValidityWindow { inception: 0, expiration: u32::MAX };
        prop_assert!(verify_rrset(key.algorithm, key.public_key(), &message, &sig, window, 500).is_err());
    }

    /// Any message mutation is rejected.
    #[test]
    fn tampered_message_soundness(
        seed in any::<u64>(),
        message in proptest::collection::vec(any::<u8>(), 1..=128),
        flip_at in 0usize..128,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = KeyPair::generate(&mut rng, Algorithm::EcdsaP256Sha256, 256);
        let sig = sign_rrset(&key, &message);
        let mut tampered = message.clone();
        let i = flip_at % tampered.len();
        tampered[i] ^= 0x01;
        let window = ValidityWindow { inception: 0, expiration: u32::MAX };
        prop_assert!(verify_rrset(key.algorithm, key.public_key(), &tampered, &sig, window, 500).is_err());
    }

    /// Verification is strictly bounded by the validity window.
    #[test]
    fn window_boundaries(
        seed in any::<u64>(),
        inception in 0u32..1_000_000,
        lifetime in 1u32..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = KeyPair::generate(&mut rng, Algorithm::Ed25519, 256);
        let sig = sign_rrset(&key, b"msg");
        let window = ValidityWindow { inception, expiration: inception + lifetime };
        let v = |now| verify_rrset(key.algorithm, key.public_key(), b"msg", &sig, window, now);
        prop_assert!(v(inception).is_ok());
        prop_assert!(v(inception + lifetime).is_ok());
        if inception > 0 {
            prop_assert!(v(inception - 1).is_err());
        }
        if inception + lifetime < u32::MAX {
            prop_assert!(v(inception + lifetime + 1).is_err());
        }
    }

    /// The field-wise key tag is RFC 4034 Appendix B's byte loop over
    /// the assembled RDATA.
    #[test]
    fn key_tag_is_the_rdata_byte_loop(
        flags in any::<u16>(),
        protocol in any::<u8>(),
        algorithm in any::<u8>(),
        public_key in proptest::collection::vec(any::<u8>(), 0..=600),
    ) {
        let mut rdata = flags.to_be_bytes().to_vec();
        rdata.extend_from_slice(&[protocol, algorithm]);
        rdata.extend_from_slice(&public_key);
        let mut acc: u32 = 0;
        for (i, &b) in rdata.iter().enumerate() {
            acc += if i % 2 == 0 { (b as u32) << 8 } else { b as u32 };
        }
        acc += (acc >> 16) & 0xffff;
        prop_assert_eq!(key_tag(flags, protocol, algorithm, &public_key), acc as u16);
    }

    /// Independent keys have distinct public keys.
    #[test]
    fn distinct_keys(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        if seed_a != seed_b {
            let mut ra = StdRng::seed_from_u64(seed_a);
            let mut rb = StdRng::seed_from_u64(seed_b);
            let ka = KeyPair::generate(&mut ra, Algorithm::Ed25519, 256);
            let kb = KeyPair::generate(&mut rb, Algorithm::Ed25519, 256);
            prop_assert_ne!(ka.public_key(), kb.public_key());
        }
    }
}
