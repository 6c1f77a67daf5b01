//! Fixture: the longitudinal service written to the determinism
//! contract — BTree collections only. Never compiled; consumed only by
//! the bootscan-lint integration tests.

use std::collections::BTreeMap;

pub fn carried_names(ledger: &BTreeMap<u32, u32>) -> Vec<u32> {
    ledger.keys().copied().collect()
}
