//! A bytes-bounded LRU cache of decoded fragments.
//!
//! Region reads in the paper's workloads revisit the same fragments over
//! and over (a dashboard refreshing one tile, an analysis sweeping a
//! window). Decoding a fragment — fetch, decompress, rebuild the
//! organization's index — is pure function of the blob, so the engine
//! can keep recently decoded fragments resident and serve repeat reads
//! with zero device traffic.
//!
//! The cache is bounded by the total decoded payload bytes it holds
//! (index + values), evicting least-recently-used fragments until a new
//! entry fits. Entries are shared as [`Arc`]s, so an eviction never
//! invalidates a read in flight. Consolidation and deletion invalidate
//! through [`FragmentCache::invalidate`]; a capacity of zero disables
//! caching entirely.

use crate::fragment::FragmentMeta;
use artsparse_metrics::charge;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fully decoded fragment: header plus uncompressed payload sections.
#[derive(Debug, Clone)]
pub struct DecodedFragment {
    /// Decoded header.
    pub meta: FragmentMeta,
    /// Uncompressed index payload.
    pub index: Vec<u8>,
    /// Uncompressed value payload.
    pub values: Vec<u8>,
}

impl DecodedFragment {
    /// Bytes this entry charges against the cache budget.
    pub fn cost_bytes(&self) -> usize {
        self.index.len() + self.values.len()
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<String, (Arc<DecodedFragment>, u64)>,
    held_bytes: usize,
    tick: u64,
}

/// Cache hit/miss/eviction counters (monotonic since engine open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room (excludes explicit invalidations).
    pub evictions: u64,
    /// Decoded payload bytes those evictions dropped.
    pub evicted_bytes: u64,
}

/// The bytes-bounded LRU of [`DecodedFragment`]s.
#[derive(Debug, Default)]
pub struct FragmentCache {
    inner: Mutex<CacheInner>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl FragmentCache {
    /// A cache holding at most `capacity_bytes` of decoded payload.
    /// Zero disables caching: every `get` misses, every `insert` is a
    /// no-op.
    pub fn new(capacity_bytes: usize) -> Self {
        FragmentCache {
            inner: Mutex::new(CacheInner::default()),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    /// The configured budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Decoded payload bytes currently held.
    pub fn held_bytes(&self) -> usize {
        self.inner.lock().held_bytes
    }

    /// Number of resident fragments.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries.is_empty()
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
        }
    }

    /// Look up a decoded fragment, refreshing its recency on a hit.
    pub fn get(&self, name: &str) -> Option<Arc<DecodedFragment>> {
        if !self.is_enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(name) {
            Some((entry, last_used)) => {
                *last_used = tick;
                let entry = entry.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                charge(|io| io.cache_hits += 1);
                Some(entry)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                charge(|io| io.cache_misses += 1);
                None
            }
        }
    }

    /// Make a decoded fragment resident, evicting least-recently-used
    /// entries until it fits. Fragments larger than the whole budget are
    /// simply not cached.
    pub fn insert(&self, name: &str, fragment: Arc<DecodedFragment>) {
        self.insert_if(name, fragment, || true);
    }

    /// [`insert`](Self::insert), made only if `live()` — asked under the
    /// cache's lock — says the fragment still exists. An invalidation is
    /// made under the same lock, after the fragment stopped existing, so
    /// a fill racing a delete either lands first and is invalidated, or
    /// sees the fragment gone and is dropped before it evicts anything.
    pub fn insert_if(
        &self,
        name: &str,
        fragment: Arc<DecodedFragment>,
        live: impl FnOnce() -> bool,
    ) {
        let cost = fragment.cost_bytes();
        if !self.is_enabled() || cost > self.capacity_bytes {
            return;
        }
        let mut inner = self.inner.lock();
        if !live() {
            return;
        }
        if let Some((old, _)) = inner.entries.remove(name) {
            inner.held_bytes = inner.held_bytes.saturating_sub(old.cost_bytes());
        }
        while inner.held_bytes + cost > self.capacity_bytes {
            // Fragment stores are small (tens of entries); a linear scan
            // for the oldest tick beats maintaining an ordered index.
            let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some((evicted, _)) = inner.entries.remove(&oldest) {
                let dropped = evicted.cost_bytes();
                inner.held_bytes = inner.held_bytes.saturating_sub(dropped);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes
                    .fetch_add(dropped as u64, Ordering::Relaxed);
                charge(|io| {
                    io.cache_evictions += 1;
                    io.cache_evicted_bytes = io.cache_evicted_bytes.saturating_add(dropped as u64);
                });
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.held_bytes += cost;
        inner.entries.insert(name.to_string(), (fragment, tick));
    }

    /// Drop one fragment (it was deleted or rewritten on the device).
    pub fn invalidate(&self, name: &str) {
        let mut inner = self.inner.lock();
        if let Some((entry, _)) = inner.entries.remove(name) {
            inner.held_bytes = inner.held_bytes.saturating_sub(entry.cost_bytes());
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.held_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artsparse_core::FormatKind;
    use artsparse_tensor::Shape;

    fn decoded(index_len: usize, value_len: usize) -> Arc<DecodedFragment> {
        Arc::new(DecodedFragment {
            meta: FragmentMeta {
                kind: FormatKind::Linear,
                shape: Shape::new(vec![8]).unwrap(),
                n: 0,
                elem_size: 8,
                bbox: None,
                index_len: index_len as u64,
                value_len: value_len as u64,
                index_raw_len: index_len as u64,
                value_raw_len: value_len as u64,
                index_codec: crate::codec::Codec::None,
                value_codec: crate::codec::Codec::None,
                checksums: crate::fragment::FragmentChecksums {
                    index: 0,
                    value: 0,
                    header: 0,
                },
            },
            index: vec![0; index_len],
            values: vec![0; value_len],
        })
    }

    #[test]
    fn lru_evicts_oldest_within_budget() {
        let cache = FragmentCache::new(100);
        cache.insert("a", decoded(30, 10)); // 40 bytes
        cache.insert("b", decoded(30, 10)); // 40 bytes
        assert!(cache.get("a").is_some()); // refresh a; b is now oldest
        cache.insert("c", decoded(30, 10)); // 40 bytes — evicts b
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.held_bytes(), 80);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = FragmentCache::new(50);
        cache.insert("big", decoded(40, 40));
        assert!(cache.get("big").is_none());
        assert_eq!(cache.held_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_charging() {
        let cache = FragmentCache::new(100);
        cache.insert("a", decoded(20, 20));
        cache.insert("a", decoded(30, 30));
        assert_eq!(cache.held_bytes(), 60);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = FragmentCache::new(100);
        cache.insert("a", decoded(10, 10));
        cache.insert("b", decoded(10, 10));
        cache.invalidate("a");
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.held_bytes(), 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = FragmentCache::new(0);
        cache.insert("a", decoded(1, 1));
        assert!(cache.get("a").is_none());
        assert!(!cache.is_enabled());
        // Disabled lookups don't count as misses.
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = FragmentCache::new(100);
        cache.insert("a", decoded(1, 1));
        assert!(cache.get("a").is_some());
        assert!(cache.get("x").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.evictions, s.evicted_bytes), (0, 0));
    }

    #[test]
    fn stats_count_evictions_and_bytes() {
        let cache = FragmentCache::new(100);
        cache.insert("a", decoded(30, 10)); // 40 bytes
        cache.insert("b", decoded(30, 10)); // 40 bytes
        cache.insert("c", decoded(40, 40)); // 80 bytes — evicts a and b
        let s = cache.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.evicted_bytes, 80);
        assert_eq!(cache.held_bytes(), 80);
        // Explicit invalidation is not an eviction.
        cache.invalidate("c");
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.held_bytes(), 0);
    }
}
