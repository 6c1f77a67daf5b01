//! Key pairs and RFC 4034 Appendix B key tags.

use crate::algorithm::Algorithm;
use crate::sha2::Sha256;
use rand::RngCore;

/// A simulated DNSSEC key pair.
///
/// The public key is derived from the private key by hashing, so two
/// independently generated keys never share a public key, and republishing
/// the same public key always refers to the same signer — the properties the
/// measurement relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    pub algorithm: Algorithm,
    /// DNSKEY flags this key is published with (256 = ZSK, 257 = KSK).
    pub flags: u16,
    public: Vec<u8>,
}

impl KeyPair {
    /// Generate a fresh key of `algorithm` with the given DNSKEY flags.
    /// The private key is drawn and hashed into the public key, then
    /// dropped: the simulation signs with the *public* key (see crate
    /// docs), so nothing reads it.
    pub fn generate<R: RngCore>(rng: &mut R, algorithm: Algorithm, flags: u16) -> Self {
        let mut private = [0u8; 32];
        rng.fill_bytes(&mut private);
        KeyPair {
            algorithm,
            flags,
            public: derive_public(&private, algorithm),
        }
    }

    /// Public key octets as published in DNSKEY RDATA.
    pub fn public_key(&self) -> &[u8] {
        &self.public
    }

    /// The DNSKEY RDATA this key publishes: flags ‖ protocol=3 ‖ alg ‖ key.
    pub fn dnskey_rdata(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.public.len());
        out.extend_from_slice(&self.flags.to_be_bytes());
        out.push(3);
        out.push(self.algorithm.code());
        out.extend_from_slice(&self.public);
        out
    }

    /// The key tag of this key's DNSKEY record.
    pub fn key_tag(&self) -> u16 {
        key_tag(self.flags, 3, self.algorithm.code(), &self.public)
    }

    /// Whether the SEP flag is set (key signing key).
    pub fn is_ksk(&self) -> bool {
        self.flags & 0x0001 != 0
    }
}

/// Derive the simulated public key for a private key: conventional key
/// size for the algorithm, filled from an expanding hash.
fn derive_public(private: &[u8], algorithm: Algorithm) -> Vec<u8> {
    expand(
        &[b"dnssec-sim-pub", &[algorithm.code()], private],
        algorithm.public_key_len().max(32),
    )
}

/// Expand a seed into `len` pseudo-random bytes by counter-mode hashing.
pub(crate) fn expand(parts: &[&[u8]], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u32;
    while out.len() < len {
        let mut block = Sha256::new();
        for part in parts {
            block.update(part);
        }
        block.update(&counter.to_be_bytes());
        out.extend_from_slice(&block.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

/// RFC 4034 Appendix B key-tag computation over the DNSKEY RDATA
/// `flags ‖ protocol ‖ algorithm ‖ public key`, read from its fields: the
/// RDATA is summed as big-endian 16-bit words (an odd trailing octet is
/// a high byte), so the four fixed octets are two whole words and the key
/// starts on a word boundary.
pub fn key_tag(flags: u16, protocol: u8, algorithm: u8, public_key: &[u8]) -> u16 {
    let mut acc = flags as u32 + ((protocol as u32) << 8 | algorithm as u32);
    for word in public_key.chunks(2) {
        acc += match *word {
            [hi, lo] => (hi as u32) << 8 | lo as u32,
            [hi] => (hi as u32) << 8,
            _ => 0,
        };
    }
    acc += (acc >> 16) & 0xffff;
    (acc & 0xffff) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let ka = KeyPair::generate(&mut a, Algorithm::EcdsaP256Sha256, 257);
        let kb = KeyPair::generate(&mut b, Algorithm::EcdsaP256Sha256, 257);
        assert_eq!(ka, kb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let ka = KeyPair::generate(&mut a, Algorithm::EcdsaP256Sha256, 257);
        let kb = KeyPair::generate(&mut b, Algorithm::EcdsaP256Sha256, 257);
        assert_ne!(ka.public_key(), kb.public_key());
        assert_ne!(ka.key_tag(), kb.key_tag());
    }

    #[test]
    fn public_key_sizes_match_algorithm() {
        let mut rng = StdRng::seed_from_u64(3);
        for (alg, len) in [
            (Algorithm::Ed25519, 32),
            (Algorithm::EcdsaP256Sha256, 64),
            (Algorithm::RsaSha256, 260),
        ] {
            let k = KeyPair::generate(&mut rng, alg, 256);
            assert_eq!(k.public_key().len(), len, "{alg}");
        }
    }

    #[test]
    fn dnskey_rdata_layout() {
        let mut rng = StdRng::seed_from_u64(4);
        let k = KeyPair::generate(&mut rng, Algorithm::Ed25519, 257);
        let rd = k.dnskey_rdata();
        assert_eq!(&rd[0..2], &257u16.to_be_bytes());
        assert_eq!(rd[2], 3);
        assert_eq!(rd[3], 15);
        assert_eq!(&rd[4..], k.public_key());
        assert!(k.is_ksk());
    }

    /// RFC 4034 Appendix B as printed: the byte loop over the whole
    /// RDATA, accumulated in u64.
    fn reference_tag(rdata: &[u8]) -> u16 {
        let mut acc: u64 = 0;
        for (i, &b) in rdata.iter().enumerate() {
            acc += if i % 2 == 0 {
                (b as u64) << 8
            } else {
                b as u64
            };
        }
        acc += (acc >> 16) & 0xffff;
        (acc & 0xffff) as u16
    }

    #[test]
    fn key_tag_known_value() {
        // Hand-computed: rdata [0x01, 0x01, 0x03, 0x0d] →
        // 0x0101 + 0x030d = 0x040e, no carry.
        assert_eq!(key_tag(0x0101, 3, 0x0d, &[]), 0x040e);
        // Odd length: the trailing key byte counts as a high octet.
        assert_eq!(key_tag(0x0101, 3, 0x0d, &[0x05]), 0x040e + 0x0500);
    }

    #[test]
    fn key_tag_matches_the_byte_loop_and_folds_carries() {
        // All-0xff keys push the sum past 0xffff; odd and even lengths.
        for len in [0, 1, 2, 63, 64, 260, 596, 597] {
            let key = vec![0xff; len];
            let mut rdata = vec![0xff, 0xff, 0xff, 0xff];
            rdata.extend_from_slice(&key);
            assert_eq!(key_tag(0xffff, 0xff, 0xff, &key), reference_tag(&rdata));
        }
        let mut rng = StdRng::seed_from_u64(6);
        for alg in [Algorithm::Ed25519, Algorithm::RsaSha256] {
            let k = KeyPair::generate(&mut rng, alg, 257);
            assert_eq!(k.key_tag(), reference_tag(&k.dnskey_rdata()));
        }
    }

    #[test]
    fn expand_lengths() {
        assert_eq!(expand(&[b"x"], 1).len(), 1);
        assert_eq!(expand(&[b"x"], 32).len(), 32);
        assert_eq!(expand(&[b"x"], 33).len(), 33);
        assert_eq!(expand(&[b"x"], 260).len(), 260);
        // Prefix property: longer expansion starts with shorter one.
        assert_eq!(expand(&[b"x"], 64)[..32], expand(&[b"x"], 32)[..]);
    }
}
