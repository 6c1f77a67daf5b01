//! Fixture: the T002 cache write under a justified suppression.
//! Never compiled; consumed only by the bootscan-lint integration
//! tests.

pub fn ingest(buf: &[u8]) {
    let msg = from_bytes(buf);
    // bootscan-allow(T002): fixture — this seed path runs only against
    // operator-supplied warmup captures, never live responses
    insert_tagged(msg);
}

pub fn insert_tagged(_msg: Vec<u8>) {}
