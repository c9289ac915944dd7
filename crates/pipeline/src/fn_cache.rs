//! fn_cache — a keyed LRU store for per-function analysis entries.
//!
//! The incremental engine caches one entry *per function*, keyed by a
//! fingerprint of that function's text (plus salt), so an edit
//! invalidates only the functions it touched. This store is the resident half of that
//! scheme: an in-memory `u64 → Arc<V>` map with approximate
//! least-recently-used eviction and hit/miss accounting. It is generic
//! over the entry type because this crate sits below the analysis crates
//! that define what a "function entry" holds.
//!
//! Eviction is batched: lookups stamp entries with a logical tick, and
//! when an insert finds the store full it drops the oldest ~1/8 of
//! entries in one sweep. That keeps the common path at one hash-map
//! operation while still bounding residency, which is what a long-lived
//! serve shard or `watch` daemon needs.

use std::collections::HashMap;
use std::sync::Arc;

/// Default entry capacity: comfortably holds several thousand-function
/// projects without letting a daemon grow unbounded.
pub const DEFAULT_FN_CAPACITY: usize = 65_536;

/// Hit/miss counters accumulated by a [`FnStore`] since construction (or
/// the last [`FnStore::take_counters`] call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnStoreCounters {
    /// Probes answered from the store.
    pub hits: u64,
    /// Probes that found no entry (the caller rebuilt and inserted).
    pub misses: u64,
}

/// An in-memory LRU map from function fingerprint to a shared entry.
#[derive(Debug)]
pub struct FnStore<V> {
    capacity: usize,
    tick: u64,
    counters: FnStoreCounters,
    entries: HashMap<u64, Slot<V>>,
}

#[derive(Debug)]
struct Slot<V> {
    last_used: u64,
    value: Arc<V>,
}

impl<V> FnStore<V> {
    /// A store bounded to `capacity` entries (0 means
    /// [`DEFAULT_FN_CAPACITY`]).
    pub fn new(capacity: usize) -> FnStore<V> {
        FnStore {
            capacity: if capacity == 0 {
                DEFAULT_FN_CAPACITY
            } else {
                capacity
            },
            tick: 0,
            counters: FnStoreCounters::default(),
            entries: HashMap::new(),
        }
    }

    /// Probe for `key`, counting a hit or miss and refreshing the entry's
    /// recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<V>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.counters.hits += 1;
                Some(Arc::clone(&slot.value))
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Insert (or replace) the entry for `key`, evicting the oldest ~1/8
    /// of entries first if the store is full.
    pub fn insert(&mut self, key: u64, value: Arc<V>) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict_oldest();
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Slot {
                last_used: self.tick,
                value,
            },
        );
    }

    fn evict_oldest(&mut self) {
        let drop_count = (self.capacity / 8).max(1);
        let mut ticks: Vec<u64> = self.entries.values().map(|s| s.last_used).collect();
        ticks.sort_unstable();
        // Every entry stamped at or before the threshold goes; ties are
        // all-or-nothing, which can only over-evict, never under-evict.
        let threshold = ticks[drop_count.min(ticks.len()) - 1];
        self.entries.retain(|_, slot| slot.last_used > threshold);
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters accumulated since construction or the last
    /// [`take_counters`](FnStore::take_counters).
    pub fn counters(&self) -> FnStoreCounters {
        self.counters
    }

    /// Drain and reset the hit/miss counters.
    pub fn take_counters(&mut self) -> FnStoreCounters {
        std::mem::take(&mut self.counters)
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut store: FnStore<u32> = FnStore::new(8);
        assert!(store.get(1).is_none());
        store.insert(1, Arc::new(10));
        assert_eq!(store.get(1).as_deref(), Some(&10));
        assert_eq!(store.counters(), FnStoreCounters { hits: 1, misses: 1 });
        assert_eq!(store.take_counters().hits, 1);
        assert_eq!(store.counters(), FnStoreCounters::default());
    }

    #[test]
    fn eviction_prefers_stale_entries() {
        let mut store: FnStore<u64> = FnStore::new(16);
        for k in 0..16 {
            store.insert(k, Arc::new(k));
        }
        // Touch everything except key 0 so it is the coldest entry.
        for k in 1..16 {
            store.get(k);
        }
        store.insert(100, Arc::new(100));
        assert!(store.len() <= 16);
        assert!(store.get(100).is_some(), "new entry resident");
        assert!(store.get(0).is_none(), "coldest entry evicted");
        assert!(store.get(15).is_some(), "hot entry survives");
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut store: FnStore<u8> = FnStore::new(2);
        store.insert(1, Arc::new(1));
        store.insert(2, Arc::new(2));
        store.insert(2, Arc::new(3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1).as_deref(), Some(&1));
        assert_eq!(store.get(2).as_deref(), Some(&3));
    }

    #[test]
    fn zero_capacity_means_default() {
        let store: FnStore<u8> = FnStore::new(0);
        assert!(store.is_empty());
        assert_eq!(store.capacity, DEFAULT_FN_CAPACITY);
    }
}
