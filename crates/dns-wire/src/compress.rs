//! The compressing message writer (RFC 1035 §4.1.4) and the streaming
//! message encoder on top of it.
//!
//! Split out of [`crate::wire`] so the panic-safety lint scope can cover
//! the decode module without the encoder: a [`WireWriter`] only ever
//! consumes `Name` values whose canonical wire buffers were validated at
//! construction, so its internal offset arithmetic is in-bounds by
//! invariant, never by the grace of network input. Roundtrip coverage
//! stays with the reader tests in `wire.rs`.

use crate::message::{Edns, Flags, Question};
use crate::name::Name;
use crate::rdata::RData;
use crate::record::{write_record, RecordClass, RecordType};

/// Message writer with label compression.
pub struct WireWriter {
    buf: Vec<u8>,
    /// Offsets (< 0x4000, the pointer range) in `buf` where a literally
    /// written label of a compressible name starts, in insertion order:
    /// each starts a distinct name suffix later names may point at. A
    /// message holds about a dozen (DESIGN.md §7), so lookups scan
    /// linearly against `buf` itself — no hashing, no key copies.
    suffixes: Vec<u16>,
    /// When false (inside RDATA of types whose RDATA must not be
    /// compressed per RFC 3597 §4), names are written uncompressed.
    compress: bool,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WireWriter {
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(512),
            // Sized so an ordinary reply never grows the table.
            suffixes: Vec::with_capacity(32),
            compress: true,
        }
    }

    /// Current length of the encoded message.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and return the message bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn write_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Overwrite a previously-written u16 (e.g. RDLENGTH backpatching).
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// Run `f` with compression disabled (for RDATA of "new" types whose
    /// embedded names must be uncompressed, RFC 3597 §4).
    pub fn without_compression<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.compress;
        self.compress = false;
        let r = f(self);
        self.compress = prev;
        r
    }

    /// Write a domain name, emitting a compression pointer when a suffix of
    /// it has been written before.
    pub fn write_name(&mut self, name: &Name) {
        let wire = name.wire_bytes();
        if !self.compress {
            self.buf.extend_from_slice(wire);
            return;
        }
        // Walk suffixes from the full name down: literal labels until one is
        // known from an earlier name (first written wins), then a pointer.
        let known = self.suffixes.len();
        let mut pos = 0usize;
        while wire[pos] != 0 {
            let suffix = &wire[pos..];
            let hit = self.suffixes[..known]
                .iter()
                .find(|&&off| self.name_at_is(off as usize, suffix));
            if let Some(&off) = hit {
                self.write_u16(0xc000 | off);
                return;
            }
            if let Ok(here @ 0..=0x3fff) = u16::try_from(self.buf.len()) {
                self.suffixes.push(here);
            }
            let next = pos + wire[pos] as usize + 1;
            self.buf.extend_from_slice(&wire[pos..next]);
            pos = next;
        }
        self.buf.push(0);
    }

    /// Whether the name written at recorded offset `at` spells `name`. Such
    /// a label run ends in the root byte or a pointer to an earlier recorded
    /// offset, so the walk stays on label boundaries on both sides.
    fn name_at_is(&self, mut at: usize, mut name: &[u8]) -> bool {
        loop {
            let len = self.buf[at];
            if len & 0xc0 == 0xc0 {
                at = (len as usize & 0x3f) << 8 | self.buf[at + 1] as usize;
                continue;
            }
            let run = len as usize + 1;
            if self.buf[at..at + run] != name[..run.min(name.len())] {
                return false;
            }
            if len == 0 {
                return true;
            }
            at += run;
            name = &name[run..];
        }
    }
}

/// The record section a streamed record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    Answer,
    Authority,
    Additional,
}

/// Streaming message encoder, the one behind `Message::to_bytes`: ID and
/// questions up front, then records straight from borrowed parts in
/// section order; [`finish`](Self::finish) settles flags, counts and OPT.
pub struct MessageEncoder {
    w: WireWriter,
    /// Records written per [`Section`].
    counts: [u16; 3],
}

impl MessageEncoder {
    pub fn new(id: u16, questions: &[Question]) -> Self {
        let mut w = WireWriter::new();
        w.write_u16(id);
        // Flags and the three record counts are patched by `finish`.
        w.write_u16(0);
        w.write_u16(questions.len() as u16);
        w.write_bytes(&[0; 6]);
        for q in questions {
            w.write_name(&q.name);
            w.write_u16(q.rtype.code());
            w.write_u16(q.class.code());
        }
        MessageEncoder { w, counts: [0; 3] }
    }

    /// Append one record to `section`. Sections must be fed in wire order.
    pub fn record(
        &mut self,
        section: Section,
        name: &Name,
        class: RecordClass,
        ttl: u32,
        rdata: &RData,
    ) {
        let count = &mut self.counts[section as usize];
        *count = count.wrapping_add(1);
        write_record(&mut self.w, name, class, ttl, rdata);
    }

    /// Settle the header and append the OPT pseudo-record for `edns`.
    pub fn finish(mut self, flags: Flags, edns: Option<Edns>) -> Vec<u8> {
        if let Some(e) = edns {
            // OPT: name=root, class=udp payload, TTL packs extended
            // rcode / version / DO bit, empty RDATA.
            let opt = &mut self.counts[Section::Additional as usize];
            *opt = opt.wrapping_add(1);
            self.w.write_u8(0);
            self.w.write_u16(RecordType::Opt.code());
            self.w.write_u16(e.udp_payload);
            self.w.write_u32(
                (e.extended_rcode as u32) << 24
                    | (e.version as u32) << 16
                    | (e.dnssec_ok as u32) << 15,
            );
            self.w.write_u16(0);
        }
        self.w.patch_u16(2, flags.to_u16());
        for (i, n) in self.counts.into_iter().enumerate() {
            self.w.patch_u16(6 + 2 * i, n);
        }
        self.w.into_bytes()
    }
}
