//! Operation counters for empirical complexity validation (Table I).
//!
//! The paper states asymptotic build/read bounds per organization; the
//! `table1` experiment validates them by counting the dominant abstract
//! operations while running each algorithm and fitting the counts against
//! the predicted growth. Counters are relaxed atomics so the engine's read
//! workers can share one; hot loops accumulate locally and flush once per
//! point via [`OpCounter::add`].

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Kinds of abstract operations counted during builds and reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// One coordinate ↔ linear-address transform (cost `O(d)` each).
    Transform,
    /// One coordinate/key comparison during a search.
    Compare,
    /// One comparison performed by a sort.
    SortCompare,
    /// One tree-node visit (CSF descent step).
    NodeVisit,
    /// One element written into an output structure.
    Emit,
}

/// A snapshot of counter values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Coordinate ↔ linear transforms.
    pub transforms: u64,
    /// Search comparisons.
    pub compares: u64,
    /// Sort comparisons.
    pub sort_compares: u64,
    /// Tree-node visits.
    pub node_visits: u64,
    /// Output emissions.
    pub emits: u64,
}

impl OpCounts {
    /// Sum of all categories — a crude "total work" proxy (saturating).
    pub fn total(&self) -> u64 {
        self.transforms
            .saturating_add(self.compares)
            .saturating_add(self.sort_compares)
            .saturating_add(self.node_visits)
            .saturating_add(self.emits)
    }
}

impl std::ops::Sub for OpCounts {
    type Output = OpCounts;
    /// Saturating per-field delta: a snapshot pair taken around a reset
    /// must clamp to zero, not panic in debug or wrap in release.
    fn sub(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            transforms: self.transforms.saturating_sub(rhs.transforms),
            compares: self.compares.saturating_sub(rhs.compares),
            sort_compares: self.sort_compares.saturating_sub(rhs.sort_compares),
            node_visits: self.node_visits.saturating_sub(rhs.node_visits),
            emits: self.emits.saturating_sub(rhs.emits),
        }
    }
}

/// Thread-safe operation counter.
///
/// All increments use relaxed ordering: counts are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct OpCounter {
    transforms: AtomicU64,
    compares: AtomicU64,
    sort_compares: AtomicU64,
    node_visits: AtomicU64,
    emits: AtomicU64,
}

impl OpCounter {
    /// A fresh, zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` operations of the given kind.
    ///
    /// Saturating: long soak runs must never wrap a counter back to a
    /// small number and corrupt a complexity fit.
    #[inline]
    pub fn add(&self, kind: OpKind, n: u64) {
        let cell = match kind {
            OpKind::Transform => &self.transforms,
            OpKind::Compare => &self.compares,
            OpKind::SortCompare => &self.sort_compares,
            OpKind::NodeVisit => &self.node_visits,
            OpKind::Emit => &self.emits,
        };
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_add(n))
        });
    }

    /// Add one operation of the given kind.
    #[inline]
    pub fn inc(&self, kind: OpKind) {
        self.add(kind, 1);
    }

    /// Snapshot the current values.
    pub fn snapshot(&self) -> OpCounts {
        OpCounts {
            transforms: self.transforms.load(Ordering::Relaxed),
            compares: self.compares.load(Ordering::Relaxed),
            sort_compares: self.sort_compares.load(Ordering::Relaxed),
            node_visits: self.node_visits.load(Ordering::Relaxed),
            emits: self.emits.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.transforms.store(0, Ordering::Relaxed);
        self.compares.store(0, Ordering::Relaxed);
        self.sort_compares.store(0, Ordering::Relaxed);
        self.node_visits.store(0, Ordering::Relaxed);
        self.emits.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_kind() {
        let c = OpCounter::new();
        c.inc(OpKind::Transform);
        c.add(OpKind::Transform, 4);
        c.add(OpKind::Compare, 10);
        c.inc(OpKind::NodeVisit);
        let s = c.snapshot();
        assert_eq!(s.transforms, 5);
        assert_eq!(s.compares, 10);
        assert_eq!(s.node_visits, 1);
        assert_eq!(s.sort_compares, 0);
        assert_eq!(s.total(), 16);
    }

    #[test]
    fn reset_zeroes() {
        let c = OpCounter::new();
        c.add(OpKind::Emit, 7);
        c.reset();
        assert_eq!(c.snapshot(), OpCounts::default());
    }

    #[test]
    fn snapshots_subtract() {
        let c = OpCounter::new();
        c.add(OpKind::Compare, 3);
        let before = c.snapshot();
        c.add(OpKind::Compare, 5);
        let delta = c.snapshot() - before;
        assert_eq!(delta.compares, 5);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = OpCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc(OpKind::Compare);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().compares, 4000);
    }
}
