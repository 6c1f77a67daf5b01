//! A coordinator↔worker wire format: small fixed-layout messages in
//! CRC-framed byte frames.
//!
//! **Off the fabric's path.** Fabric workers are threads that exchange
//! typed values over `std::sync::mpsc` (see the `worker` and
//! `coordinator` modules); nothing here is encoded or decoded while a
//! fabric runs. The module stays only because the frozen benchmark's
//! `scan-fabric.frame_roundtrip_ns` probe links [`encode_msg`],
//! [`FrameDecoder`] and [`Msg`]; it goes, with that probe, its P001/P002
//! lint scope entry and the `decode_payload` taint source, in the
//! `benchmark` PR of ROADMAP item 2(b). Until then the decoder keeps the
//! DNS wire decoders' panic-safety discipline: no indexing, no unwraps,
//! hostile or torn bytes degrade into [`FrameError`], never abort.
//!
//! Frame layout: `len u32 LE | crc32(payload) u32 LE | payload`, where
//! the payload is `tag u8` followed by the message's fixed-width LE
//! fields.

use scan_journal::crc32;

/// Largest legal payload. Messages are small and fixed-layout; a frame
/// claiming more than this is corrupt, not merely unread.
pub const MAX_PAYLOAD: u32 = 256;

/// Why a worker gave a shard back instead of completing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The shard journal could not be written; the shard's state dir is
    /// still recoverable.
    JournalIo,
    /// The worker's lease was revoked mid-scan (the coordinator expired
    /// it); all journal writes after revocation were fenced off.
    Fenced,
}

/// One coordinator↔worker message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Worker announces itself (and the run it believes it's part of).
    Hello { worker: u32, run_id: u64 },
    /// Coordinator grants `lease` on `shard` of `epoch`, attempt number
    /// `attempt`. Single-epoch fabrics use `epoch: 0` throughout.
    Assign {
        epoch: u32,
        shard: u32,
        attempt: u32,
        lease: u64,
    },
    /// Worker liveness: `events` journaled so far under `lease`.
    Heartbeat {
        worker: u32,
        epoch: u32,
        shard: u32,
        lease: u64,
        events: u64,
    },
    /// Shard complete; stats are advisory (the merge reads journals,
    /// never this message).
    ShardDone {
        worker: u32,
        epoch: u32,
        shard: u32,
        lease: u64,
        zones: u64,
        queries: u64,
        duration: u64,
    },
    /// Shard given back; the coordinator decides retry vs abandon.
    ShardFailed {
        worker: u32,
        epoch: u32,
        shard: u32,
        lease: u64,
        reason: FailReason,
    },
    /// Coordinator asks the worker to exit cleanly.
    Shutdown,
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

const TAG_HELLO: u8 = 1;
const TAG_ASSIGN: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_DONE: u8 = 4;
const TAG_FAILED: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;

const REASON_JOURNAL_IO: u8 = 1;
const REASON_FENCED: u8 = 2;

/// Encode one message as a complete frame.
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48);
    match *msg {
        Msg::Hello { worker, run_id } => {
            payload.push(TAG_HELLO);
            payload.extend_from_slice(&worker.to_le_bytes());
            payload.extend_from_slice(&run_id.to_le_bytes());
        }
        Msg::Assign {
            epoch,
            shard,
            attempt,
            lease,
        } => {
            payload.push(TAG_ASSIGN);
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(&shard.to_le_bytes());
            payload.extend_from_slice(&attempt.to_le_bytes());
            payload.extend_from_slice(&lease.to_le_bytes());
        }
        Msg::Heartbeat {
            worker,
            epoch,
            shard,
            lease,
            events,
        } => {
            payload.push(TAG_HEARTBEAT);
            payload.extend_from_slice(&worker.to_le_bytes());
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(&shard.to_le_bytes());
            payload.extend_from_slice(&lease.to_le_bytes());
            payload.extend_from_slice(&events.to_le_bytes());
        }
        Msg::ShardDone {
            worker,
            epoch,
            shard,
            lease,
            zones,
            queries,
            duration,
        } => {
            payload.push(TAG_DONE);
            payload.extend_from_slice(&worker.to_le_bytes());
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(&shard.to_le_bytes());
            payload.extend_from_slice(&lease.to_le_bytes());
            payload.extend_from_slice(&zones.to_le_bytes());
            payload.extend_from_slice(&queries.to_le_bytes());
            payload.extend_from_slice(&duration.to_le_bytes());
        }
        Msg::ShardFailed {
            worker,
            epoch,
            shard,
            lease,
            reason,
        } => {
            payload.push(TAG_FAILED);
            payload.extend_from_slice(&worker.to_le_bytes());
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(&shard.to_le_bytes());
            payload.extend_from_slice(&lease.to_le_bytes());
            payload.push(match reason {
                FailReason::JournalIo => REASON_JOURNAL_IO,
                FailReason::Fenced => REASON_FENCED,
            });
        }
        Msg::Shutdown => payload.push(TAG_SHUTDOWN),
    }
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
        TAG_HELLO => {
            let worker = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let run_id = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            Msg::Hello { worker, run_id }
        }
        TAG_ASSIGN => {
            let epoch = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let shard = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let attempt = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let lease = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            Msg::Assign {
                epoch,
                shard,
                attempt,
                lease,
            }
        }
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
        TAG_DONE => {
            let worker = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let epoch = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let shard = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let lease = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            let zones = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            let queries = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            let duration = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            Msg::ShardDone {
                worker,
                epoch,
                shard,
                lease,
                zones,
                queries,
                duration,
            }
        }
        TAG_FAILED => {
            let worker = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let epoch = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let shard = take_u32(&mut p).ok_or(FrameError::BadLayout)?;
            let lease = take_u64(&mut p).ok_or(FrameError::BadLayout)?;
            let reason = match take_u8(&mut p).ok_or(FrameError::BadLayout)? {
                REASON_JOURNAL_IO => FailReason::JournalIo,
                REASON_FENCED => FailReason::Fenced,
                _ => return Err(FrameError::BadLayout),
            };
            Msg::ShardFailed {
                worker,
                epoch,
                shard,
                lease,
                reason,
            }
        }
        TAG_SHUTDOWN => Msg::Shutdown,
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
    // Not an Iterator: `Ok(None)` means "need more bytes", not "end of
    // stream", and errors must stop the caller — the Iterator contract
    // would invite silently skipping both.
    #[allow(clippy::should_implement_trait)]
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
        vec![
            Msg::Hello {
                worker: 3,
                run_id: 0xDEAD_BEEF,
            },
            Msg::Assign {
                epoch: 5,
                shard: 7,
                attempt: 2,
                lease: 99,
            },
            Msg::Heartbeat {
                worker: 3,
                epoch: 5,
                shard: 7,
                lease: 99,
                events: 41,
            },
            Msg::ShardDone {
                worker: 3,
                epoch: 5,
                shard: 7,
                lease: 99,
                zones: 120,
                queries: 4321,
                duration: 5_000_000,
            },
            Msg::ShardFailed {
                worker: 3,
                epoch: 5,
                shard: 7,
                lease: 99,
                reason: FailReason::Fenced,
            },
            Msg::ShardFailed {
                worker: 1,
                epoch: 0,
                shard: 0,
                lease: 1,
                reason: FailReason::JournalIo,
            },
            Msg::Shutdown,
        ]
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
        let mut frame = encode_msg(&Msg::Shutdown);
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
        // Hello with one field missing.
        let mut payload = vec![1u8];
        payload.extend_from_slice(&3u32.to_le_bytes());
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert_eq!(dec.next(), Err(FrameError::BadLayout));

        // Shutdown with trailing junk.
        let payload = [6u8, 0u8];
        let mut frame = Vec::new();
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert_eq!(dec.next(), Err(FrameError::BadLayout));
    }
}
