//! Fixture: the continuous service inside the evidence-plane scope —
//! trips D002 (hash-order iteration over the coalesce backlog). Never
//! compiled; consumed only by the bootscan-lint integration tests.

use std::collections::HashSet;

pub fn pending_epochs() -> Vec<u32> {
    let mut backlog: HashSet<u32> = HashSet::new();
    backlog.insert(1);
    backlog.iter().copied().collect()
}
