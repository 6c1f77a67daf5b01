//! Low-level wire framing: a bounds-checked reader with compression-pointer
//! support. The compressing writer lives in [`crate::compress`] (encoding
//! consumes only locally-validated buffers, so it sits outside the
//! panic-safety lint scope that covers this decode module); its
//! [`WireWriter`] is re-exported here for compatibility.

use crate::name::{Name, NameError};
use std::fmt;

pub use crate::compress::WireWriter;

/// Errors while encoding or decoding wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Read past the end of the buffer.
    Truncated,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label length byte used the reserved `0b10`/`0b01` prefixes.
    BadLabelType(u8),
    /// A decoded name violated name limits.
    Name(NameError),
    /// RDATA length did not match the RDLENGTH field.
    RdataLength { expected: usize, actual: usize },
    /// A field held a value that is not valid for its type.
    BadValue(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadLabelType(b) => write!(f, "reserved label type byte {b:#04x}"),
            WireError::Name(e) => write!(f, "invalid name: {e}"),
            WireError::RdataLength { expected, actual } => {
                write!(
                    f,
                    "rdata length mismatch: rdlength {expected}, consumed {actual}"
                )
            }
            WireError::BadValue(what) => write!(f, "invalid value for {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<NameError> for WireError {
    fn from(e: NameError) -> Self {
        WireError::Name(e)
    }
}

/// Bounds-checked cursor over a received message.
///
/// Holds the *whole* message so that compression pointers (which are
/// absolute offsets) can be chased from any position.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Create a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current offset from the start of the message.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Move the cursor to an absolute offset (used for bounded sub-reads).
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.buf.len() {
            return Err(WireError::Truncated);
        }
        self.pos = pos;
        Ok(())
    }

    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let v = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        let hi = self.read_u8()? as u16;
        let lo = self.read_u8()? as u16;
        Ok(hi << 8 | lo)
    }

    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        let hi = self.read_u16()? as u32;
        let lo = self.read_u16()? as u32;
        Ok(hi << 16 | lo)
    }

    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .buf
            .get(self.pos..self.pos.checked_add(n).ok_or(WireError::Truncated)?)
            .ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(s)
    }

    /// Decode a (possibly compressed) domain name at the cursor.
    ///
    /// The cursor advances past the name *as stored* (i.e. past the pointer
    /// if one is used). Pointers must point strictly backwards, which also
    /// rules out loops; a hop budget guards against pathological chains.
    pub fn read_name(&mut self) -> Result<Name, WireError> {
        // Decode straight into the canonical flat wire form (lowercased,
        // length-prefixed labels + root byte) on the stack; the only
        // allocation is the name's own shared buffer.
        let mut wire = [0u8; crate::name::MAX_NAME_LEN];
        let mut label_count = 0u8;
        let mut pos = self.pos;
        // End of the name as stored inline; set when the first pointer is
        // followed.
        let mut resume: Option<usize> = None;
        let mut hops = 0usize;
        // Accumulated uncompressed length (root byte included). Enforced
        // *during* accumulation: a hostile message can otherwise make each
        // name decode copy megabytes of labels through backward pointer
        // chains before the post-hoc limit check fires.
        let mut wire_len = 1usize;
        loop {
            let len = *self.buf.get(pos).ok_or(WireError::Truncated)? as usize;
            match len & 0xc0 {
                0x00 => {
                    if len == 0 {
                        pos += 1;
                        break;
                    }
                    let end = pos + 1 + len;
                    // Length byte (≤63, so lowercasing leaves it alone)
                    // and label octets, copied as one run.
                    let label = self.buf.get(pos..end).ok_or(WireError::Truncated)?;
                    let at = wire_len - 1;
                    wire_len += 1 + len;
                    let slot = match wire.get_mut(at..at + 1 + len) {
                        Some(slot) if wire_len <= crate::name::MAX_NAME_LEN => slot,
                        _ => return Err(WireError::Name(NameError::NameTooLong(wire_len))),
                    };
                    slot.copy_from_slice(label);
                    slot.make_ascii_lowercase();
                    label_count += 1;
                    pos = end;
                }
                0xc0 => {
                    let lo = *self.buf.get(pos + 1).ok_or(WireError::Truncated)? as usize;
                    let target = (len & 0x3f) << 8 | lo;
                    if target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > 128 {
                        return Err(WireError::BadPointer);
                    }
                    if resume.is_none() {
                        resume = Some(pos + 2);
                    }
                    pos = target;
                }
                other => return Err(WireError::BadLabelType(other as u8)),
            }
        }
        self.pos = resume.unwrap_or(pos);
        // Label length ≤63 is guaranteed by the 0x00 tag check, emptiness
        // by `len == 0` terminating, and the total by the in-loop cap —
        // the buffer (labels + the root byte the array was zeroed with)
        // is canonical by construction.
        let wire = wire.get(..wire_len).ok_or(WireError::Truncated)?;
        Ok(Name::from_decoded_wire(wire, label_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name;

    fn roundtrip(names: &[Name]) {
        let mut w = WireWriter::new();
        for n in names {
            w.write_name(n);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for n in names {
            assert_eq!(&r.read_name().unwrap(), n);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn simple_roundtrip() {
        roundtrip(&[name!("www.example.com")]);
    }

    #[test]
    fn compression_shares_suffixes() {
        let a = name!("www.example.com");
        let b = name!("mail.example.com");
        let c = name!("example.com");
        let mut w = WireWriter::new();
        w.write_name(&a);
        w.write_name(&b);
        w.write_name(&c);
        let bytes = w.into_bytes();
        // Second and third names must be shorter than uncompressed.
        assert!(bytes.len() < a.wire_len() + b.wire_len() + c.wire_len());
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), a);
        assert_eq!(r.read_name().unwrap(), b);
        assert_eq!(r.read_name().unwrap(), c);
    }

    #[test]
    fn full_pointer_when_name_repeats() {
        let a = name!("example.com");
        let mut w = WireWriter::new();
        w.write_name(&a);
        let first = w.len();
        w.write_name(&a);
        let bytes = w.into_bytes();
        // The repeat is exactly one 2-byte pointer.
        assert_eq!(bytes.len(), first + 2);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), a);
        assert_eq!(r.read_name().unwrap(), a);
    }

    #[test]
    fn compression_disabled_inside_rdata() {
        let a = name!("example.com");
        let mut w = WireWriter::new();
        w.write_name(&a);
        w.without_compression(|w| w.write_name(&a));
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), a.wire_len() * 2);
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer to offset 4 at offset 0: forward → invalid.
        let bytes = [0xc0, 0x04, 0, 0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::BadPointer));
    }

    #[test]
    fn self_pointer_rejected() {
        let bytes = [0xc0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::BadPointer));
    }

    #[test]
    fn reserved_label_bits_rejected() {
        let bytes = [0x80, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.read_name(), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn truncated_label_rejected() {
        let bytes = [0x05, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name(), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_integers() {
        let mut r = WireReader::new(&[0x01]);
        assert_eq!(r.read_u16(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[0x01, 0x02, 0x03]);
        assert_eq!(r.read_u32(), Err(WireError::Truncated));
    }

    #[test]
    fn reader_primitives() {
        let mut r = WireReader::new(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
        assert_eq!(r.read_u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.read_u8().unwrap(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn pointer_chain_roundtrip() {
        // c.b.a, then b.a as pointer, then d.b.a sharing the b.a suffix.
        roundtrip(&[name!("c.b.a"), name!("b.a"), name!("d.b.a")]);
    }
}
