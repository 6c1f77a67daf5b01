//! Fixture: the same pattern as the violations tree, carried by a
//! justified `bootscan-allow`. The integration test asserts this tree
//! scans clean.

use std::collections::HashMap;

pub fn key_sum() -> u32 {
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    // bootscan-allow(D002): fixture — summation is order-insensitive
    m.keys().copied().sum()
}
