//! NSEC / NSEC3 type bitmaps (RFC 4034 §4.1.2).
//!
//! A bitmap is a list of (window, length, bits) blocks; type `t` lives in
//! window `t >> 8`, bit `t & 0xff`. Windows with no set bits are omitted,
//! and each window's bitmap is truncated to its last non-zero byte.

use crate::record::RecordType;
use crate::wire::WireError;

/// An ordered set of record types as used in NSEC-family records.
///
/// Every type a zone here holds has a code below 64, so those live as
/// bits of one `u64`; any other code goes to a sorted spill list, which
/// stays empty (and unallocated) in practice. A bitmap therefore costs
/// no heap allocation, built or decoded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TypeBitmap {
    /// Bit `c` set ⇔ type code `c` (< 64) present.
    low: u64,
    /// Codes ≥ 64, ascending, no duplicates.
    high: Box<[u16]>,
}

impl TypeBitmap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of record types.
    pub fn from_types<I: IntoIterator<Item = RecordType>>(types: I) -> Self {
        let mut bm = TypeBitmap::new();
        let mut high = Vec::new();
        for t in types {
            match t.code() {
                c @ 0..64 => bm.low |= 1 << c,
                c => high.push(c),
            }
        }
        high.sort_unstable();
        high.dedup();
        bm.high = high.into();
        bm
    }

    pub fn insert(&mut self, t: RecordType) {
        match t.code() {
            c @ 0..64 => self.low |= 1 << c,
            c => {
                if let Err(i) = self.high.binary_search(&c) {
                    let mut high = self.high.to_vec();
                    high.insert(i, c);
                    self.high = high.into();
                }
            }
        }
    }

    pub fn contains(&self, t: RecordType) -> bool {
        match t.code() {
            c @ 0..64 => self.low & (1 << c) != 0,
            c => self.high.binary_search(&c).is_ok(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }

    pub fn len(&self) -> usize {
        self.low.count_ones() as usize + self.high.len()
    }

    /// Type codes in ascending order.
    fn codes(&self) -> impl Iterator<Item = u16> + '_ {
        let mut low = self.low;
        std::iter::from_fn(move || {
            let code = (low != 0).then(|| low.trailing_zeros() as u16);
            low &= low.wrapping_sub(1);
            code
        })
        .chain(self.high.iter().copied())
    }

    /// Types in ascending code order.
    pub fn iter(&self) -> impl Iterator<Item = RecordType> + '_ {
        self.codes().map(RecordType::from_code)
    }

    /// Encode to wire format, appending to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        let mut window: Option<u8> = None;
        let mut bits = [0u8; 32];
        let flush = |w: u8, bits: &mut [u8; 32], out: &mut Vec<u8>| {
            let last = bits.iter().rposition(|&b| b != 0);
            if let Some(last) = last {
                out.push(w);
                out.push((last + 1) as u8);
                out.extend(bits.iter().take(last + 1));
            }
            *bits = [0u8; 32];
        };
        for t in self.codes() {
            let w = (t >> 8) as u8;
            if window != Some(w) {
                if let Some(prev) = window {
                    flush(prev, &mut bits, out);
                }
                window = Some(w);
            }
            let lo = (t & 0xff) as usize;
            if let Some(byte) = bits.get_mut(lo / 8) {
                *byte |= 0x80 >> (lo % 8);
            }
        }
        if let Some(w) = window {
            flush(w, &mut bits, out);
        }
    }

    /// Decode from a complete RDATA tail.
    pub fn read(buf: &[u8]) -> Result<Self, WireError> {
        let mut bm = TypeBitmap::new();
        let mut high = Vec::new();
        let mut rest = buf;
        let mut prev_window: Option<u8> = None;
        while let Some((&window, tail)) = rest.split_first() {
            let (&len, tail) = tail.split_first().ok_or(WireError::Truncated)?;
            let len = len as usize;
            if len == 0 || len > 32 {
                return Err(WireError::BadValue("type bitmap window length"));
            }
            if let Some(p) = prev_window {
                if window <= p {
                    return Err(WireError::BadValue("type bitmap window order"));
                }
            }
            prev_window = Some(window);
            if tail.len() < len {
                return Err(WireError::Truncated);
            }
            let (bits, tail) = tail.split_at(len);
            for (byte_idx, &b) in bits.iter().enumerate() {
                for bit in 0..8 {
                    if b & (0x80 >> bit) != 0 {
                        match (window as u16) << 8 | (byte_idx as u16 * 8 + bit as u16) {
                            c @ 0..64 => bm.low |= 1 << c,
                            c => high.push(c),
                        }
                    }
                }
            }
            rest = tail;
        }
        // Windows ascend and bits within one ascend, so `high` is sorted
        // and free of duplicates already.
        bm.high = high.into();
        Ok(bm)
    }

    /// Presentation format: space-separated mnemonics in code order.
    pub fn presentation(&self) -> String {
        self.iter()
            .map(|t| t.mnemonic())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn roundtrip_basic() {
        let bm = TypeBitmap::from_types([
            RecordType::A,
            RecordType::Ns,
            RecordType::Soa,
            RecordType::Rrsig,
            RecordType::Nsec,
            RecordType::Dnskey,
        ]);
        let mut out = Vec::new();
        bm.write(&mut out);
        let back = TypeBitmap::read(&out).unwrap();
        assert_eq!(back, bm);
        assert!(back.contains(RecordType::Dnskey));
        assert!(!back.contains(RecordType::Cds));
    }

    #[test]
    fn multiple_windows() {
        // Type 1 (window 0) and an unknown type 0x1234 (window 0x12).
        let bm = TypeBitmap::from_types([RecordType::A, RecordType::Unknown(0x1234)]);
        let mut out = Vec::new();
        bm.write(&mut out);
        let back = TypeBitmap::read(&out).unwrap();
        assert_eq!(back, bm);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn empty_bitmap_is_zero_bytes() {
        let bm = TypeBitmap::new();
        let mut out = Vec::new();
        bm.write(&mut out);
        assert!(out.is_empty());
        assert!(TypeBitmap::read(&[]).unwrap().is_empty());
    }

    #[test]
    fn wire_is_minimal() {
        // Only type A (bit 1 of window 0): window 0, length 1, one byte.
        let bm = TypeBitmap::from_types([RecordType::A]);
        let mut out = Vec::new();
        bm.write(&mut out);
        assert_eq!(out, vec![0x00, 0x01, 0x40]);
    }

    #[test]
    fn bad_window_length_rejected() {
        assert!(TypeBitmap::read(&[0x00, 0x00]).is_err());
        assert!(TypeBitmap::read(&[0x00, 33]).is_err());
    }

    #[test]
    fn out_of_order_windows_rejected() {
        // Window 1 then window 0.
        let mut out = Vec::new();
        TypeBitmap::from_types([RecordType::Unknown(0x0100)]).write(&mut out);
        TypeBitmap::from_types([RecordType::A]).write(&mut out);
        assert!(TypeBitmap::read(&out).is_err());
    }

    /// RFC 4034 §4.1.2 written out over an ordered set, the model the
    /// mask-and-spill form must agree with.
    fn model_wire(codes: &BTreeSet<u16>) -> Vec<u8> {
        let mut windows: BTreeMap<u8, [u8; 32]> = BTreeMap::new();
        for &c in codes {
            let bits = windows.entry((c >> 8) as u8).or_insert([0; 32]);
            bits[usize::from(c & 0xff) / 8] |= 0x80 >> (c % 8);
        }
        let mut out = Vec::new();
        for (w, bits) in windows {
            let len = bits.iter().rposition(|&b| b != 0).unwrap() + 1;
            out.extend([w, len as u8]);
            out.extend(&bits[..len]);
        }
        out
    }

    #[test]
    fn sampled_sets_with_high_codes_roundtrip() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let n = next() % 12;
            let codes: BTreeSet<u16> = (0..n)
                .map(|_| {
                    let r = next();
                    match r % 4 {
                        0 | 1 => (r >> 8) as u16 % 64,
                        2 => 64 + (r >> 8) as u16 % 192,
                        _ => (r >> 8) as u16,
                    }
                })
                .collect();
            let bm = TypeBitmap::from_types(codes.iter().map(|&c| RecordType::from_code(c)));
            assert_eq!(
                bm.codes().collect::<Vec<_>>(),
                Vec::from_iter(codes.clone())
            );
            assert_eq!(bm.len(), codes.len());
            assert!(codes.iter().all(|&c| bm.contains(RecordType::from_code(c))));
            let mut out = Vec::new();
            bm.write(&mut out);
            assert_eq!(out, model_wire(&codes), "{codes:?}");
            assert_eq!(TypeBitmap::read(&out).unwrap(), bm);
            let mut grown = TypeBitmap::new();
            for &c in codes.iter().rev() {
                grown.insert(RecordType::from_code(c));
            }
            assert_eq!(grown, bm);
        }
    }

    #[test]
    fn presentation_order() {
        let bm = TypeBitmap::from_types([RecordType::Rrsig, RecordType::A, RecordType::Ns]);
        assert_eq!(bm.presentation(), "A NS RRSIG");
    }
}
