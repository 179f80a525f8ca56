//! Per-tenant quota accounting.
//!
//! Each tenant has a [`Quota`] — caps on total stored points and value
//! bytes (`0` = unlimited). The [`QuotaBook`] holds one atomic usage
//! record per tenant; sessions **charge** before handing a write to the
//! engine and **refund** when the engine rejects it, so the book never
//! counts points the store refused. Charging is a compare-and-swap loop
//! over both counters, which keeps concurrent sessions of one tenant
//! from collectively overshooting the cap.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Caps for one tenant. Zero means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quota {
    /// Maximum stored points across the tenant's datasets.
    pub max_points: u64,
    /// Maximum stored value bytes across the tenant's datasets.
    pub max_bytes: u64,
}

impl Quota {
    /// An unlimited quota.
    pub fn unlimited() -> Quota {
        Quota::default()
    }
}

/// Live usage for one tenant.
#[derive(Debug, Default)]
struct Usage {
    points: AtomicU64,
    bytes: AtomicU64,
}

/// One tenant's quota standing, as reported by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaStanding {
    /// Points currently charged.
    pub points: u64,
    /// Value bytes currently charged.
    pub bytes: u64,
    /// The tenant's caps.
    pub quota: Quota,
}

/// The server-wide quota ledger. Cheap to share (`Arc` inside).
#[derive(Debug, Clone, Default)]
pub struct QuotaBook {
    inner: Arc<BookInner>,
}

#[derive(Debug, Default)]
struct BookInner {
    default_quota: Mutex<Quota>,
    overrides: Mutex<HashMap<String, Quota>>,
    usage: Mutex<HashMap<String, Arc<Usage>>>,
}

/// Why a charge was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaExceeded {
    /// The point cap would be crossed.
    Points {
        /// Points already charged.
        used: u64,
        /// The cap.
        limit: u64,
    },
    /// The byte cap would be crossed.
    Bytes {
        /// Bytes already charged.
        used: u64,
        /// The cap.
        limit: u64,
    },
}

impl std::fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuotaExceeded::Points { used, limit } => {
                write!(f, "point quota exhausted: {used} of {limit} used")
            }
            QuotaExceeded::Bytes { used, limit } => {
                write!(f, "byte quota exhausted: {used} of {limit} used")
            }
        }
    }
}

impl QuotaBook {
    /// A book where every tenant gets `default_quota` unless overridden.
    pub fn new(default_quota: Quota) -> QuotaBook {
        let book = QuotaBook::default();
        *book.inner.default_quota.lock() = default_quota;
        book
    }

    /// Set (or replace) one tenant's quota override.
    pub fn set_quota(&self, tenant: &str, quota: Quota) {
        self.inner
            .overrides
            .lock()
            .insert(tenant.to_string(), quota);
    }

    /// The quota a tenant is held to.
    pub fn quota_of(&self, tenant: &str) -> Quota {
        self.inner
            .overrides
            .lock()
            .get(tenant)
            .copied()
            .unwrap_or(*self.inner.default_quota.lock())
    }

    fn usage_of(&self, tenant: &str) -> Arc<Usage> {
        Arc::clone(
            self.inner
                .usage
                .lock()
                .entry(tenant.to_string())
                .or_default(),
        )
    }

    /// Atomically charge `points` and `bytes` against the tenant,
    /// refusing (and charging nothing) if either cap would be crossed.
    pub fn charge(&self, tenant: &str, points: u64, bytes: u64) -> Result<(), QuotaExceeded> {
        let quota = self.quota_of(tenant);
        let usage = self.usage_of(tenant);
        // CAS loop on the points counter first; bytes second with a
        // points rollback on failure. Two counters cannot be charged in
        // one atomic op, so the rollback keeps refusals exact.
        loop {
            let p = usage.points.load(Ordering::SeqCst);
            if quota.max_points != 0 && p.saturating_add(points) > quota.max_points {
                return Err(QuotaExceeded::Points {
                    used: p,
                    limit: quota.max_points,
                });
            }
            if usage
                .points
                .compare_exchange(p, p + points, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break;
            }
        }
        loop {
            let b = usage.bytes.load(Ordering::SeqCst);
            if quota.max_bytes != 0 && b.saturating_add(bytes) > quota.max_bytes {
                usage.points.fetch_sub(points, Ordering::SeqCst);
                return Err(QuotaExceeded::Bytes {
                    used: b,
                    limit: quota.max_bytes,
                });
            }
            if usage
                .bytes
                .compare_exchange(b, b + bytes, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(());
            }
        }
    }

    /// Refund a charge whose write the engine rejected.
    pub fn refund(&self, tenant: &str, points: u64, bytes: u64) {
        let usage = self.usage_of(tenant);
        usage.points.fetch_sub(points, Ordering::SeqCst);
        usage.bytes.fetch_sub(bytes, Ordering::SeqCst);
    }

    /// One tenant's current standing.
    pub fn standing(&self, tenant: &str) -> QuotaStanding {
        let usage = self.usage_of(tenant);
        QuotaStanding {
            points: usage.points.load(Ordering::SeqCst),
            bytes: usage.bytes.load(Ordering::SeqCst),
            quota: self.quota_of(tenant),
        }
    }

    /// Every tenant that has usage recorded, sorted, with standings —
    /// what the metrics publisher samples into per-tenant gauges.
    pub fn standings(&self) -> Vec<(String, QuotaStanding)> {
        let tenants: Vec<String> = {
            let usage = self.inner.usage.lock();
            let mut t: Vec<String> = usage.keys().cloned().collect();
            t.sort();
            t
        };
        tenants
            .into_iter()
            .map(|t| {
                let s = self.standing(&t);
                (t, s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_by_default() {
        let book = QuotaBook::default();
        assert!(book.charge("t", u64::MAX / 2, u64::MAX / 2).is_ok());
    }

    #[test]
    fn caps_are_enforced_and_exact() {
        let book = QuotaBook::new(Quota {
            max_points: 10,
            max_bytes: 80,
        });
        assert!(book.charge("t", 10, 80).is_ok());
        let err = book.charge("t", 1, 8).unwrap_err();
        assert!(matches!(
            err,
            QuotaExceeded::Points {
                used: 10,
                limit: 10
            }
        ));
        book.refund("t", 10, 80);
        assert!(book.charge("t", 10, 80).is_ok());
    }

    #[test]
    fn byte_refusal_rolls_back_the_point_charge() {
        let book = QuotaBook::new(Quota {
            max_points: 100,
            max_bytes: 8,
        });
        let err = book.charge("t", 2, 16).unwrap_err();
        assert!(matches!(err, QuotaExceeded::Bytes { .. }));
        let s = book.standing("t");
        assert_eq!((s.points, s.bytes), (0, 0), "failed charge must be whole");
    }

    #[test]
    fn overrides_beat_the_default() {
        let book = QuotaBook::new(Quota {
            max_points: 1,
            max_bytes: 0,
        });
        book.set_quota("big", Quota::unlimited());
        assert!(book.charge("big", 1000, 0).is_ok());
        assert!(book.charge("small", 2, 0).is_err());
    }

    #[test]
    fn concurrent_charges_never_overshoot() {
        let book = QuotaBook::new(Quota {
            max_points: 1000,
            max_bytes: 0,
        });
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let book = book.clone();
                std::thread::spawn(move || {
                    let mut granted = 0u64;
                    for _ in 0..1000 {
                        if book.charge("t", 1, 0).is_ok() {
                            granted += 1;
                        }
                    }
                    granted
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1000, "exactly the cap must be granted");
        assert_eq!(book.standing("t").points, 1000);
    }

    #[test]
    fn standings_list_tenants_sorted() {
        let book = QuotaBook::default();
        book.charge("beta", 1, 8).unwrap();
        book.charge("alpha", 2, 16).unwrap();
        let s = book.standings();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, "alpha");
        assert_eq!(s[0].1.points, 2);
        assert_eq!(s[1].0, "beta");
    }
}
