//! Fixture: the T003 disk read under a justified suppression. Never
//! compiled; consumed only by the bootscan-lint integration tests.

pub fn read_sidecar(path: &Path) -> Vec<u8> {
    // bootscan-allow(T003): fixture — the sidecar is advisory telemetry,
    // checked downstream against the journal header checksum
    match fs::read(path) {
        Ok(bytes) => bytes,
        Err(_) => Vec::new(),
    }
}
