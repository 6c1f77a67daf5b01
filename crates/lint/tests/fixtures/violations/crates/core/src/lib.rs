//! Fixture: an evidence-plane crate root that violates U001 (no
//! `#![forbid(unsafe_code)]`), D001, D002, D003, and J001, and carries
//! one stale suppression (X001). Never compiled; consumed only by the
//! bootscan-lint integration tests.

use std::collections::HashMap;
use std::time::Instant;

pub fn elapsed_tally() -> u64 {
    let t0 = Instant::now();
    t0.elapsed().as_millis() as u64
}

pub fn key_dump() -> Vec<u32> {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    m.keys().copied().collect()
}

pub fn ambient_config() -> bool {
    std::env::var("BOOTSCAN_FIXTURE").is_ok()
}

#[allow(dead_code)]
fn unjustified() {}

// bootscan-allow(P001): stale — this file is outside every decode path
pub fn nothing_to_suppress() {}
