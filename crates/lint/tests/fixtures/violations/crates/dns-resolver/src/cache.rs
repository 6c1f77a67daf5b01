//! Fixture: unvalidated wire bytes reaching a provenance-tagged cache
//! write without crossing the acceptance gate (T002). Never compiled;
//! consumed only by the bootscan-lint integration tests.

pub fn ingest(buf: &[u8]) {
    let msg = from_bytes(buf);
    insert_tagged(msg);
}

pub fn insert_tagged(_msg: Vec<u8>) {}
