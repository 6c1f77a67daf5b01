//! Checksums used by the journal and checkpoint formats.
//!
//! CRC32 (IEEE 802.3 polynomial, reflected) guards every frame: it is
//! cheap, detects all burst errors shorter than 32 bits, and — unlike a
//! plain length check — catches the classic torn-write failure where a
//! frame's length field survives but its payload bytes are garbage or
//! zero-filled. It is computed eight bytes a step (slicing-by-8): every
//! event is checksummed once when appended and once per read, so the
//! table walk is on both the scan's and the merge's critical path.
//! FNV-1a provides the stable 64-bit hashes used for shard assignment,
//! run fingerprints and the merge's rolling digests; both are
//! hand-rolled because the build environment has no registry access.

/// CRC32 lookup tables for the reflected IEEE polynomial `0xEDB88320`,
/// generated at compile time. `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which is what lets eight input bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte of the classic table walk (the tail of [`crc32`], and the
/// whole of the test oracle).
fn crc32_step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// CRC32-IEEE of `data` (the checksum `cksum`/zlib/PNG use).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = crc32_step(crc, b);
    }
    !crc
}

/// FNV-1a 64-bit hash of the concatenation of `chunks`.
pub fn fnv64(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in chunks.iter().copied().flatten() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table walk the eight-byte loop must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFF, |crc, &b| crc32_step(crc, b))
    }

    #[test]
    fn slicing_by_eight_equals_the_bytewise_walk() {
        // Deterministic, non-repeating filler (an LCG's high byte).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        };
        let big: Vec<u8> = (0..1 << 20).map(|_| next()).collect();
        // Every length around the word size, at every alignment of the
        // tail, then one buffer long enough to make the loop dominate.
        for len in 0..=64 {
            assert_eq!(crc32(&big[..len]), crc32_bytewise(&big[..len]), "{len}");
            assert_eq!(
                crc32(&big[3..3 + len]),
                crc32_bytewise(&big[3..3 + len]),
                "{len} from an odd offset"
            );
        }
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let data = vec![0xA5u8; 64];
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn fnv64_is_chunking_invariant() {
        assert_eq!(fnv64(&[b"ab", b"cd"]), fnv64(&[b"abcd"]));
        assert_ne!(fnv64(&[b"abcd"]), fnv64(&[b"abce"]));
        assert_eq!(fnv64(&[b"a", b"", b"bcd"]), fnv64(&[b"abcd"]));
        // The FNV-1a 64 reference values of "" and "a".
        assert_eq!(fnv64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
    }
}
