//! Fixture: the longitudinal service inside the evidence-plane scope —
//! trips D002 (hash-order iteration over the carried ledger). Never
//! compiled; consumed only by the bootscan-lint integration tests.

use std::collections::HashMap;

pub fn carried_names() -> Vec<u32> {
    let mut ledger: HashMap<u32, u32> = HashMap::new();
    ledger.insert(1, 2);
    ledger.keys().copied().collect()
}
