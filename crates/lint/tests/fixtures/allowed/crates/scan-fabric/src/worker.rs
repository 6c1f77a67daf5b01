//! Fixture: the L-series violations under justified suppressions.
//! Never compiled; consumed only by the bootscan-lint integration
//! tests.

pub struct Worker {
    order_a: Mutex<u64>,
    order_b: Mutex<u64>,
    stripes: Vec<Mutex<u64>>,
    state: Mutex<u64>,
}

impl Worker {
    pub fn ab(&self) {
        // bootscan-allow(L001): fixture — ba() runs only during
        // single-threaded recovery, so the opposite order cannot race
        let g = self.order_a.lock();
        let h = self.order_b.lock();
        drop(h);
        drop(g);
    }

    pub fn ba(&self) {
        let g = self.order_b.lock();
        let h = self.order_a.lock();
        drop(h);
        drop(g);
    }

    pub fn merge_stripes(&self, i: usize, j: usize) {
        let g = self.stripes[i].lock();
        // bootscan-allow(L002): fixture — callers pass i < j by
        // contract, so the stripe order is already canonical
        let h = self.stripes[j].lock();
        drop(h);
        drop(g);
    }

    pub fn flush(&self, journal: &File) {
        let g = self.state.lock();
        // bootscan-allow(L003): fixture — no other thread ever takes
        // `state`, so nothing can stall behind this flush
        journal.sync_data();
        drop(g);
    }
}
