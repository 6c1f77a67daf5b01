//! Fixture: the continuous service written to the determinism contract
//! — an ordered collection for the coalesce backlog. Never compiled;
//! consumed only by the bootscan-lint integration tests.

use std::collections::BTreeSet;

pub fn pending_epochs(backlog: &BTreeSet<u32>) -> Vec<u32> {
    backlog.iter().copied().collect()
}
