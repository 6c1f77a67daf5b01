//! Fixture: fabric lock-discipline violations — opposite-order
//! acquisition (L001), unordered stripe pairs (L002), and a guard
//! held across an fdatasync (L003). Never compiled; consumed only by
//! the bootscan-lint integration tests.

pub struct Worker {
    order_a: Mutex<u64>,
    order_b: Mutex<u64>,
    stripes: Vec<Mutex<u64>>,
    state: Mutex<u64>,
}

impl Worker {
    pub fn ab(&self) {
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
        let h = self.stripes[j].lock();
        drop(h);
        drop(g);
    }

    pub fn flush(&self, journal: &File) {
        let g = self.state.lock();
        journal.sync_data();
        drop(g);
    }
}
