//! The CPU MetaCache hash table (paper §4.1).
//!
//! Open addressing where "each slot maps a feature to a bucket of reference
//! locations", a second hash function determines the key slot, quadratic
//! probing resolves collisions, buckets grow geometrically, the number of
//! locations per feature is capped (254 by default) and the whole table is
//! re-allocated and re-inserted when the load factor exceeds a limit.
//!
//! The original CPU table "does not support concurrent insertion" — the build
//! phase uses a single inserter thread. We keep that behaviour: the table is
//! internally protected by a lock so it can still satisfy the shared
//! [`FeatureStore`] interface, but insertions serialise on it.
//!
//! One important property of the CPU table is that the locations in each
//! bucket remain *sorted* by (target, window) because the sketching thread
//! assigns ascending ids; the query phase relies on this for linear-time
//! merging. We preserve insertion order and expose
//! [`HostHashTable::is_sorted`] so tests can assert the invariant.

use parking_lot::RwLock;

use mc_kmer::{hash32, Feature, Location};

use crate::stats::TableStats;
use crate::{FeatureStore, TableError};

/// Configuration of a [`HostHashTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostTableConfig {
    /// Initial number of slots.
    pub initial_capacity: usize,
    /// Load factor above which the table is grown and rehashed.
    pub max_load_factor: f64,
    /// Maximum number of locations retained per feature (paper default: 254).
    pub max_locations_per_key: usize,
}

impl Default for HostTableConfig {
    fn default() -> Self {
        Self {
            initial_capacity: 1 << 12,
            max_load_factor: 0.8,
            max_locations_per_key: 254,
        }
    }
}

/// One occupied slot: a feature and its bucket of locations.
#[derive(Debug, Clone)]
struct Slot {
    feature: Feature,
    bucket: Vec<Location>,
}

#[derive(Debug, Default)]
struct Inner {
    slots: Vec<Option<Slot>>,
    keys: usize,
    values: usize,
    dropped: usize,
    rehashes: usize,
}

impl Inner {
    fn probe(&self, feature: Feature) -> Option<usize> {
        // Quadratic probing from h2(feature).
        let capacity = self.slots.len();
        if capacity == 0 {
            return None;
        }
        let start = hash32(feature) as usize % capacity;
        for i in 0..capacity {
            let slot = (start + i * i) % capacity;
            match &self.slots[slot] {
                Some(s) if s.feature == feature => return Some(slot),
                Some(_) => continue,
                None => return Some(slot),
            }
        }
        None
    }

    /// Append the bucket of `feature` (if present) to `out`; returns the
    /// number of locations appended. Shared by the single and batched query
    /// paths, which differ only in how long they hold the read lock.
    fn lookup_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize {
        let Some(slot_idx) = self.probe(feature) else {
            return 0;
        };
        match &self.slots[slot_idx] {
            Some(slot) if slot.feature == feature => {
                out.extend_from_slice(&slot.bucket);
                slot.bucket.len()
            }
            _ => 0,
        }
    }

    fn grow(&mut self, new_capacity: usize) {
        let old = std::mem::replace(
            &mut self.slots,
            std::iter::repeat_with(|| None).take(new_capacity).collect(),
        );
        self.rehashes += 1;
        for slot in old.into_iter().flatten() {
            // Re-insert the feature→bucket mapping; buckets are moved, not rebuilt
            // ("the buckets holding the values are preserved", §4.1).
            let idx = self
                .probe(slot.feature)
                .expect("grown table has room for all keys");
            debug_assert!(self.slots[idx].is_none());
            self.slots[idx] = Some(slot);
        }
    }
}

/// The host (CPU) hash table. See the module documentation.
pub struct HostHashTable {
    config: HostTableConfig,
    inner: RwLock<Inner>,
}

impl HostHashTable {
    /// Allocate a table with the given configuration.
    pub fn new(config: HostTableConfig) -> Self {
        let capacity = config.initial_capacity.max(8);
        Self {
            config: HostTableConfig {
                initial_capacity: capacity,
                max_load_factor: config.max_load_factor.clamp(0.1, 0.95),
                ..config
            },
            inner: RwLock::new(Inner {
                slots: std::iter::repeat_with(|| None).take(capacity).collect(),
                ..Default::default()
            }),
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &HostTableConfig {
        &self.config
    }

    /// Number of times the table has been grown and rehashed.
    pub fn rehash_count(&self) -> usize {
        self.inner.read().rehashes
    }

    /// Current slot capacity.
    pub fn capacity(&self) -> usize {
        self.inner.read().slots.len()
    }

    /// Whether every bucket's locations are sorted ascending by
    /// (target, window) — holds when insertions arrive in ascending location
    /// order, as produced by the build pipeline.
    pub fn is_sorted(&self) -> bool {
        self.inner
            .read()
            .slots
            .iter()
            .flatten()
            .all(|s| s.bucket.windows(2).all(|w| w[0] <= w[1]))
    }

    /// Apply a function to every (feature, bucket) pair in ascending
    /// feature order, e.g. for serialisation into the sorted on-disk layout.
    pub fn for_each_bucket(&self, mut f: impl FnMut(Feature, &[Location])) {
        let inner = self.inner.read();
        let mut slots: Vec<&Slot> = inner.slots.iter().flatten().collect();
        slots.sort_unstable_by_key(|s| s.feature);
        for slot in slots {
            f(slot.feature, &slot.bucket);
        }
    }
}

impl FeatureStore for HostHashTable {
    fn insert(&self, feature: Feature, location: Location) -> Result<(), TableError> {
        let mut inner = self.inner.write();
        // Grow first if the load factor limit would be exceeded by a new key.
        let load = (inner.keys + 1) as f64 / inner.slots.len() as f64;
        if load > self.config.max_load_factor {
            let new_capacity = inner.slots.len() * 2;
            inner.grow(new_capacity);
        }
        let slot_idx = inner.probe(feature).ok_or(TableError::TableFull)?;
        match &mut inner.slots[slot_idx] {
            Some(slot) => {
                if slot.bucket.len() >= self.config.max_locations_per_key {
                    inner.dropped += 1;
                    return Err(TableError::ValueLimitReached);
                }
                slot.bucket.push(location);
                inner.values += 1;
                Ok(())
            }
            empty @ None => {
                // New feature: start its bucket with a small capacity that will
                // grow geometrically as Vec doubles.
                let mut bucket = Vec::with_capacity(4);
                bucket.push(location);
                *empty = Some(Slot { feature, bucket });
                inner.keys += 1;
                inner.values += 1;
                Ok(())
            }
        }
    }

    fn query_into(&self, feature: Feature, out: &mut Vec<Location>) -> usize {
        self.inner.read().lookup_into(feature, out)
    }

    fn query_batch_into(&self, features: &[Feature], out: &mut Vec<Location>) -> usize {
        // One read-lock acquisition for the whole sketch, instead of one per
        // feature — the query hot path looks up `s` features per window.
        let inner = self.inner.read();
        features.iter().map(|&f| inner.lookup_into(f, out)).sum()
    }

    fn key_count(&self) -> usize {
        self.inner.read().keys
    }

    fn value_count(&self) -> usize {
        self.inner.read().values
    }

    fn bytes(&self) -> usize {
        let inner = self.inner.read();
        let slot_bytes = inner.slots.len() * std::mem::size_of::<Option<Slot>>();
        let bucket_bytes: usize = inner
            .slots
            .iter()
            .flatten()
            .map(|s| s.bucket.capacity() * std::mem::size_of::<Location>())
            .sum();
        slot_bytes + bucket_bytes
    }

    fn stats(&self) -> TableStats {
        let inner = self.inner.read();
        let slot_bytes = inner.slots.len() * std::mem::size_of::<Option<Slot>>();
        let bucket_bytes: usize = inner
            .slots
            .iter()
            .flatten()
            .map(|s| s.bucket.capacity() * std::mem::size_of::<Location>())
            .sum();
        TableStats {
            key_count: inner.keys,
            value_count: inner.values,
            slot_count: inner.slots.len(),
            slots_used: inner.keys,
            bytes: slot_bytes + bucket_bytes,
            values_dropped: inner.dropped,
            insert_failures: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_roundtrip() {
        let t = HostHashTable::new(HostTableConfig::default());
        t.insert(1, Location::new(0, 0)).unwrap();
        t.insert(1, Location::new(0, 1)).unwrap();
        t.insert(2, Location::new(1, 0)).unwrap();
        assert_eq!(t.query(1), vec![Location::new(0, 0), Location::new(0, 1)]);
        assert_eq!(t.query(2), vec![Location::new(1, 0)]);
        assert!(t.query(3).is_empty());
        assert_eq!(t.key_count(), 2);
        assert_eq!(t.value_count(), 3);
    }

    #[test]
    fn grows_and_rehashes_beyond_initial_capacity() {
        let t = HostHashTable::new(HostTableConfig {
            initial_capacity: 16,
            max_load_factor: 0.7,
            max_locations_per_key: 254,
        });
        for k in 0..1000u32 {
            t.insert(k, Location::new(k, 0)).unwrap();
        }
        assert!(t.capacity() >= 1000);
        assert!(t.rehash_count() >= 5);
        assert_eq!(t.key_count(), 1000);
        for k in (0..1000u32).step_by(37) {
            assert_eq!(t.query(k), vec![Location::new(k, 0)]);
        }
    }

    #[test]
    fn location_cap_enforced() {
        let t = HostHashTable::new(HostTableConfig {
            max_locations_per_key: 254,
            ..Default::default()
        });
        let mut stored = 0;
        for w in 0..300u32 {
            if t.insert(77, Location::new(0, w)).is_ok() {
                stored += 1;
            }
        }
        assert_eq!(stored, 254);
        assert_eq!(t.query(77).len(), 254);
    }

    #[test]
    fn buckets_remain_sorted_for_ascending_insertions() {
        let t = HostHashTable::new(HostTableConfig::default());
        for target in 0..10u32 {
            for window in 0..10u32 {
                t.insert(42, Location::new(target, window)).ok();
                t.insert(target % 3, Location::new(target, window)).ok();
            }
        }
        assert!(t.is_sorted());
    }

    #[test]
    fn for_each_bucket_visits_all_keys() {
        let t = HostHashTable::new(HostTableConfig::default());
        for k in 0..50u32 {
            t.insert(k, Location::new(k, 1)).unwrap();
            t.insert(k, Location::new(k, 2)).unwrap();
        }
        let mut seen = Vec::new();
        let mut values = 0;
        t.for_each_bucket(|feature, bucket| {
            seen.push(feature);
            values += bucket.len();
        });
        assert_eq!(seen, (0..50).collect::<Vec<_>>(), "ascending feature order");
        assert_eq!(values, 100);
    }

    #[test]
    fn bytes_grow_with_content() {
        let t = HostHashTable::new(HostTableConfig::default());
        let before = t.bytes();
        for k in 0..500u32 {
            for w in 0..5 {
                t.insert(k, Location::new(k, w)).unwrap();
            }
        }
        assert!(t.bytes() > before);
    }
}
