//! Fixture: an evidence-plane crate that iterates a hash collection
//! twice (D002), once under a reason-less suppression (X002 — which
//! leaves that D002 finding live, since an empty reason never
//! suppresses), and carries one stale suppression (X001). Never
//! compiled; consumed only by the bootscan-lint integration tests.

use std::collections::{HashMap, HashSet};

pub fn key_dump() -> Vec<u32> {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    m.keys().copied().collect()
}

pub fn seen_dump() -> Vec<u32> {
    let mut seen: HashSet<u32> = HashSet::new();
    seen.insert(3);
    // bootscan-allow(D002):
    seen.iter().copied().collect()
}

// bootscan-allow(D002): stale — nothing below iterates a hash collection
pub fn nothing_to_suppress() {}
