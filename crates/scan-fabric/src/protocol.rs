//! A coordinator↔worker wire format: small fixed-layout messages in
//! CRC-framed byte frames.
//!
//! **Off the fabric's path.** Fabric workers are threads that exchange
//! typed values over `std::sync::mpsc` (see the `worker` and
//! `coordinator` modules); nothing here is encoded or decoded while a
//! fabric runs. The module stays only because the frozen benchmark's
//! `scan-fabric.frame_roundtrip_ns` probe links [`encode_msg`],
//! [`FrameDecoder`] and [`Msg`]; it goes, with that probe and the
//! `decode_payload` taint source, in the `benchmark` PR of ROADMAP item
//! 3(c). Until then the decoder keeps the DNS wire decoders'
//! panic-safety discipline: no indexing, no unwraps, hostile or torn
//! bytes degrade into [`FrameError`], never abort.
//!
//! Frame layout: `len u32 LE | crc32(payload) u32 LE | payload`, where
//! the payload is `tag u8` followed by the message's fixed-width LE
//! fields.

// P001/P002 (DESIGN.md §8): torn or hostile frame bytes degrade into a
// `FrameError`, so nothing here unwraps, panics or indexes.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::indexing_slicing
)]

use scan_journal::crc32;

/// Largest legal payload. Messages are small and fixed-layout; a frame
/// claiming more than this is corrupt, not merely unread.
pub const MAX_PAYLOAD: u32 = 256;

/// One coordinator↔worker message: the heartbeat, the one message the
/// benchmark probe encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Worker liveness: `events` journaled so far under `lease`.
    Heartbeat {
        worker: u32,
        epoch: u32,
        shard: u32,
        lease: u64,
        events: u64,
    },
}

/// A frame that could not be decoded. The channel is corrupt from this
/// point on; the peer should be treated as lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Frame length outside `1..=MAX_PAYLOAD`.
    BadLength,
    /// Payload CRC mismatch.
    BadCrc,
    /// Unknown message tag.
    BadTag,
    /// Payload shorter (or longer) than its tag's fixed layout.
    BadLayout,
}

const TAG_HEARTBEAT: u8 = 3;

/// Encode one message as a complete frame.
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48);
    let Msg::Heartbeat {
        worker,
        epoch,
        shard,
        lease,
        events,
    } = *msg;
    payload.push(TAG_HEARTBEAT);
    payload.extend_from_slice(&worker.to_le_bytes());
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(&shard.to_le_bytes());
    payload.extend_from_slice(&lease.to_le_bytes());
    payload.extend_from_slice(&events.to_le_bytes());
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Take the next `n` bytes off the front of `buf`, if present.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    take(buf, 1)?.first().copied()
}

fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(buf, 4)?.try_into().ok()?))
}

fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(buf, 8)?.try_into().ok()?))
}

/// Decode one payload (tag + fields). `None` maps to
/// [`FrameError::BadLayout`] at the caller.
fn decode_payload(mut p: &[u8]) -> Result<Msg, FrameError> {
    let tag = take_u8(&mut p).ok_or(FrameError::BadLayout)?;
    let msg = match tag {
        TAG_HEARTBEAT => {
            let worker = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let epoch = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let shard = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let lease = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            let events = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            Msg::Heartbeat {
                worker,
                epoch,
                shard,
                lease,
                events,
            }
        }
        _ => return Err(FrameError::BadTag),
    };
    if p.is_empty() {
        Ok(msg)
    } else {
        // Trailing bytes mean the peer speaks a different layout.
        Err(FrameError::BadLayout)
    }
}

/// Incremental frame decoder: feed it byte chunks as they arrive,
/// drain complete messages with [`next`](Self::next).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted lazily).
    pos: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by one
        // partial frame plus whatever arrived in this chunk.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame, if one is buffered.
    /// `Ok(None)` means "need more bytes". Any error poisons the
    /// stream: the caller must drop the channel.
    #[expect(
        clippy::should_implement_trait,
        reason = "not an Iterator: `Ok(None)` means \"need more bytes\", not \"end of stream\", \
                  and errors must stop the caller; the Iterator contract would invite silently \
                  skipping both"
    )]
    pub fn next(&mut self) -> Result<Option<Msg>, FrameError> {
        let mut view = self.buf.get(self.pos..).unwrap_or(&[]);
        let Some(len) = take_u32(&mut view) else {
            return Ok(None);
        };
        if len == 0 || len > MAX_PAYLOAD {
            return Err(FrameError::BadLength);
        }
        let Some(crc) = take_u32(&mut view) else {
            return Ok(None);
        };
        let Some(payload) = take(&mut view, len as usize) else {
            return Ok(None);
        };
        if crc32(payload) != crc {
            return Err(FrameError::BadCrc);
        }
        let msg = decode_payload(payload)?;
        self.pos += 8 + len as usize;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_msgs() -> Vec<Msg> {
        (0..3)
            .map(|k| Msg::Heartbeat {
                worker: 3,
                epoch: 5,
                shard: 7,
                lease: 99 + k,
                events: 41 * k,
            })
            .collect()
    }

    #[test]
    fn every_message_round_trips() {
        let mut dec = FrameDecoder::new();
        for m in all_msgs() {
            dec.extend(&encode_msg(&m));
            assert_eq!(dec.next().unwrap(), Some(m));
        }
        assert_eq!(dec.next().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles() {
        let msgs = all_msgs();
        let stream: Vec<u8> = msgs.iter().flat_map(encode_msg).collect();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in stream {
            dec.extend(&[b]);
            while let Some(m) = dec.next().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn corrupt_payload_is_a_crc_error() {
        let mut frame = encode_msg(&all_msgs()[0]);
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert_eq!(dec.next(), Err(FrameError::BadCrc));
    }

    #[test]
    fn oversized_length_is_rejected_not_buffered() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_PAYLOAD + 1).to_le_bytes());
        dec.extend(&[0u8; 8]);
        assert_eq!(dec.next(), Err(FrameError::BadLength));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let payload = [200u8];
        let mut frame = Vec::new();
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert_eq!(dec.next(), Err(FrameError::BadTag));
    }

    #[test]
    fn truncated_and_oversized_layouts_are_rejected() {
        // A heartbeat with its last field missing.
        let mut payload = vec![TAG_HEARTBEAT];
        payload.extend_from_slice(&[0u8; 20]);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert_eq!(dec.next(), Err(FrameError::BadLayout));

        // A heartbeat with trailing junk.
        let mut payload = vec![TAG_HEARTBEAT];
        payload.extend_from_slice(&[0u8; 29]);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert_eq!(dec.next(), Err(FrameError::BadLayout));
    }
}
