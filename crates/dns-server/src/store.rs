//! Zone storage with longest-suffix selection.

use dns_wire::name::{Name, NameMap};
use dns_zone::Zone;
use parking_lot::RwLock;
use std::sync::Arc;

/// The zones a server is authoritative for.
///
/// Real operator servers host thousands to millions of zones; lookups pick
/// the zone whose apex is the longest suffix of the query name (RFC 1034
/// §4.3.2 step 2).
#[derive(Default)]
pub struct ZoneStore {
    zones: RwLock<NameMap<Arc<Zone>>>,
}

impl ZoneStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a zone.
    pub fn insert(&self, zone: Zone) {
        self.zones
            .write()
            .insert(zone.apex().clone(), Arc::new(zone));
    }

    /// Insert a pre-shared zone.
    pub fn insert_shared(&self, zone: Arc<Zone>) {
        self.zones.write().insert(zone.apex().clone(), zone);
    }

    /// Remove a zone by apex.
    pub fn remove(&self, apex: &Name) -> Option<Arc<Zone>> {
        self.zones.write().remove(apex)
    }

    /// The zone with exactly this apex.
    pub fn get(&self, apex: &Name) -> Option<Arc<Zone>> {
        self.zones.read().get(apex).cloned()
    }

    /// The best (longest-apex) zone containing `qname`, if any.
    pub fn find(&self, qname: &Name) -> Option<Arc<Zone>> {
        let zones = self.zones.read();
        let mut cur = Some(qname.clone());
        while let Some(name) = cur {
            if let Some(z) = zones.get(&name) {
                return Some(Arc::clone(z));
            }
            cur = name.parent();
        }
        None
    }

    /// Number of zones held.
    pub fn len(&self) -> usize {
        self.zones.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.zones.read().len() == 0
    }

    /// Apexes of all zones (unordered).
    pub fn apexes(&self) -> Vec<Name> {
        self.zones.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;

    #[test]
    fn longest_suffix_wins() {
        let store = ZoneStore::new();
        store.insert(Zone::new(name!("ch")));
        store.insert(Zone::new(name!("example.ch")));
        let z = store.find(&name!("www.example.ch")).unwrap();
        assert_eq!(z.apex(), &name!("example.ch"));
        let z = store.find(&name!("other.ch")).unwrap();
        assert_eq!(z.apex(), &name!("ch"));
        assert!(store.find(&name!("example.org")).is_none());
    }

    #[test]
    fn exact_apex_match() {
        let store = ZoneStore::new();
        store.insert(Zone::new(name!("example.ch")));
        assert!(store.find(&name!("example.ch")).is_some());
        assert!(store.get(&name!("example.ch")).is_some());
        assert!(store.get(&name!("www.example.ch")).is_none());
    }

    #[test]
    fn insert_replace_remove() {
        let store = ZoneStore::new();
        store.insert(Zone::new(name!("a.test")));
        assert_eq!(store.len(), 1);
        store.insert(Zone::new(name!("a.test"))); // replace
        assert_eq!(store.len(), 1);
        assert!(store.remove(&name!("a.test")).is_some());
        assert!(store.is_empty());
        assert!(store.remove(&name!("a.test")).is_none());
    }

    #[test]
    fn root_zone_catches_everything() {
        let store = ZoneStore::new();
        store.insert(Zone::new(Name::root()));
        assert!(store.find(&name!("anything.at.all")).is_some());
    }
}
