//! Query/byte accounting — the raw material for the paper's Appendix D
//! ("our scans generated 6.5 TiB of data … approximately 20 queries to
//! each nameserver").

use crate::network::Addr;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe counters, all atomics on the hot path: each binding bumps
/// its own per-destination counter; their map is locked only to bind or snapshot.
#[derive(Default)]
pub struct NetStats {
    queries: AtomicU64,
    replies: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    per_dest: Mutex<HashMap<Addr, Arc<AtomicU64>>>,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub queries: u64,
    pub replies: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Datagrams per destination; destinations never sent to are absent.
    pub per_dest: HashMap<Addr, u64>,
}

impl NetStats {
    /// The datagram counter of `dst`, shared with its binding (rebinding
    /// an address keeps its count).
    pub(crate) fn dest_counter(&self, dst: Addr) -> Arc<AtomicU64> {
        Arc::clone(self.per_dest.lock().entry(dst).or_default())
    }

    pub(crate) fn record_query(&self, dest: &AtomicU64, bytes: usize) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        dest.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reply(&self, bytes: usize) {
        self.replies.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Snapshot all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            per_dest: self
                .per_dest
                .lock()
                .iter()
                .map(|(addr, n)| (*addr, n.load(Ordering::Relaxed)))
                .filter(|&(_, n)| n > 0)
                .collect(),
        }
    }

    /// Reset everything to zero (between benchmark runs).
    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.replies.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
        for n in self.per_dest.lock().values() {
            n.store(0, Ordering::Relaxed);
        }
    }
}

impl StatsSnapshot {
    /// Mean queries per distinct destination.
    pub fn mean_queries_per_dest(&self) -> f64 {
        if self.per_dest.is_empty() {
            return 0.0;
        }
        self.queries as f64 / self.per_dest.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addr(n: u8) -> Addr {
        Addr::V4(Ipv4Addr::new(10, 0, 0, n))
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let s = NetStats::default();
        let (one, two) = (s.dest_counter(addr(1)), s.dest_counter(addr(2)));
        s.dest_counter(addr(3)); // bound, never sent to: stays out of the map
        s.record_query(&one, 100);
        s.record_query(&one, 50);
        s.record_query(&two, 25);
        s.record_reply(500);
        let snap = s.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.replies, 1);
        assert_eq!(snap.bytes_sent, 175);
        assert_eq!(snap.bytes_received, 500);
        assert_eq!(snap.per_dest[&addr(1)], 2);
        assert_eq!(snap.per_dest.len(), 2);
        assert_eq!(snap.mean_queries_per_dest(), 1.5);
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.queries, 0);
        assert!(snap.per_dest.is_empty());
        assert_eq!(snap.mean_queries_per_dest(), 0.0);
    }

    #[test]
    fn concurrent_recording() {
        let s = std::sync::Arc::new(NetStats::default());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let dest = s.dest_counter(addr(t));
                for _ in 0..1000 {
                    s.record_query(&dest, 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.queries, 4000);
        assert_eq!(snap.bytes_sent, 40_000);
        assert_eq!(snap.per_dest.len(), 4);
    }
}
