//! The provenance-tagged cache every scanner cache is an instance of
//! (DESIGN.md §7): name → value, each entry carrying the apex of the
//! zone that produced it and a virtual-time expiry.
//!
//! The policy is stated here once. **Writes** go through
//! [`ProvenanceCache::insert_tagged`] — the map is private to this
//! module, so an untagged write does not compile. **Reads** go through
//! [`ProvenanceCache::lookup`], which never serves an entry at or past
//! its expiry (and evicts it on the spot) nor a name outside the
//! entry's bailiwick — a poisoned insert is dead weight until the next
//! organic insert overwrites it.
//!
//! Storage is striped by `fnv64(name)` so the lanes of a threaded
//! `scan_all` rarely meet on one lock; a guard never outlives the one
//! map operation it protects.

use dns_wire::name::Name;
use netsim::SimMicros;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Stripes per cache: enough that 8 lanes rarely collide.
const STRIPES: usize = 16;

struct Entry<V> {
    value: V,
    /// Apex of the zone whose servers supplied the value.
    provenance: Name,
    /// The entry is never consulted at or past this instant.
    expires_at: SimMicros,
}

/// A shared, striped, provenance-tagged cache. `V` is cloned out on a
/// hit, so instances hold `Arc`s: a hit costs a pointer bump.
pub struct ProvenanceCache<V> {
    stripes: Vec<Mutex<HashMap<Name, Entry<V>>>>,
    /// The bailiwick rule, fixed at construction: `true` refuses the
    /// provenance apex itself.
    strictly_below: bool,
}

impl<V: Clone> ProvenanceCache<V> {
    /// A cache whose entries serve names at or below their provenance
    /// (addresses, validated keys: the producing zone may speak for its
    /// own apex).
    pub fn at_or_below() -> Self {
        Self::with_rule(false)
    }

    /// A cache whose entries serve only names strictly below their
    /// provenance (referrals: a cut is delegated by a proper ancestor,
    /// never by itself).
    pub fn strictly_below() -> Self {
        Self::with_rule(true)
    }

    fn with_rule(strictly_below: bool) -> Self {
        ProvenanceCache {
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            strictly_below,
        }
    }

    fn stripe(&self, name: &Name) -> &Mutex<HashMap<Name, Entry<V>>> {
        &self.stripes[(name.fnv64() % self.stripes.len() as u64) as usize]
    }

    /// The one write: `name → value`, spoken by zone `provenance`, valid
    /// strictly before `expires_at`. Overwrites whatever was there.
    pub fn insert_tagged(&self, name: Name, value: V, provenance: Name, expires_at: SimMicros) {
        let entry = Entry {
            value,
            provenance,
            expires_at,
        };
        self.stripe(&name).lock().insert(name, entry);
    }

    /// The one read: the value cached for `name`, unless it has expired
    /// by `now` (then it is evicted) or `name` lies outside the entry's
    /// bailiwick (then it stays, unusable, until overwritten).
    pub fn lookup(&self, name: &Name, now: SimMicros) -> Option<V> {
        let mut stripe = self.stripe(name).lock();
        let entry = stripe.get(name)?;
        if entry.expires_at <= now {
            stripe.remove(name);
            return None;
        }
        let in_bailiwick = if self.strictly_below {
            name.is_strict_subdomain_of(&entry.provenance)
        } else {
            name.is_subdomain_of(&entry.provenance)
        };
        in_bailiwick.then(|| entry.value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::name;

    #[test]
    fn served_strictly_before_expiry_and_evicted_at_it() {
        let cache = ProvenanceCache::at_or_below();
        cache.insert_tagged(name!("ns1.a.test"), 7u32, name!("a.test"), 100);
        assert_eq!(cache.lookup(&name!("ns1.a.test"), 99), Some(7));
        assert_eq!(cache.lookup(&name!("ns1.a.test"), 100), None);
        // Evicted, not merely skipped: an earlier clock misses too.
        assert_eq!(cache.lookup(&name!("ns1.a.test"), 0), None);
    }

    #[test]
    fn the_rule_decides_whether_the_apex_itself_is_served() {
        let lax = ProvenanceCache::at_or_below();
        lax.insert_tagged(name!("a.test"), 1u32, name!("a.test"), SimMicros::MAX);
        assert_eq!(lax.lookup(&name!("a.test"), 0), Some(1));

        let strict = ProvenanceCache::strictly_below();
        strict.insert_tagged(name!("a.test"), 1u32, name!("a.test"), SimMicros::MAX);
        assert_eq!(strict.lookup(&name!("a.test"), 0), None);
        strict.insert_tagged(name!("a.test"), 2u32, name!("test"), SimMicros::MAX);
        assert_eq!(strict.lookup(&name!("a.test"), 0), Some(2));
    }

    #[test]
    fn out_of_provenance_entry_misses_until_overwritten() {
        let cache = ProvenanceCache::at_or_below();
        cache.insert_tagged(name!("ns1.a.test"), 666u32, name!("evil.example"), 100);
        assert_eq!(cache.lookup(&name!("ns1.a.test"), 0), None);
        cache.insert_tagged(name!("ns1.a.test"), 7u32, name!("a.test"), 100);
        assert_eq!(cache.lookup(&name!("ns1.a.test"), 0), Some(7));
    }

    #[test]
    fn names_sharing_a_stripe_do_not_disturb_each_other() {
        let cache = ProvenanceCache::at_or_below();
        // 17 names over 16 stripes: at least two share one.
        let names: Vec<Name> = (0..=STRIPES)
            .map(|i| Name::parse(&format!("ns{i}.a.test")).unwrap())
            .collect();
        for (i, n) in names.iter().enumerate() {
            cache.insert_tagged(n.clone(), i, name!("a.test"), 100 + i as SimMicros);
        }
        // Expire the first; every other entry is still served.
        assert_eq!(cache.lookup(&names[0], 100), None);
        for (i, n) in names.iter().enumerate().skip(1) {
            assert_eq!(cache.lookup(n, 100), Some(i));
        }
    }
}
