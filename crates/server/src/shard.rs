//! The dataset registry: every open dataset, found by name, and called by
//! the session that asks.
//!
//! Datasets are placed on `N` stripes by FNV-1a of their namespaced key
//! (`tenant/dataset`); a stripe is one
//! `RwLock<HashMap<key, Arc<Dataset>>>`, and its index is the `shard=` a
//! `STATS` line reports. A request holds its stripe's lock only to look
//! up (or, on `CREATE`, insert) the dataset and calls the engine with the
//! lock released: the engine is internally synchronized, so sessions and
//! the dataset's scheduler run on it side by side. Engine errors stay the
//! typed [`StorageError`], which the session maps onto protocol codes
//! (`BACKPRESSURE`, `READONLY`, `CHECKSUM`, …) without loss.

use crate::server::{BackendFactory, DrainReport};
use artsparse_core::FormatKind;
use artsparse_storage::{
    EngineConfig, IngestScheduler, SchedulerConfig, StorageBackend, StorageEngine, StorageError,
    StoreStats,
};
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// The organization every served dataset stores its fragments in: CSF's
/// tree answers a `GET` by descending a compact index and a `SCAN` by
/// visiting only the nodes inside the box (§II.E). Each fragment records
/// its own organization, so a store written under another one reads as
/// it is, and the next consolidation that merges it writes CSF.
pub const SERVED_ORGANIZATION: FormatKind = FormatKind::Csf;

/// FNV-1a 64-bit hash of a namespaced dataset key.
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stripe that holds the dataset keyed `tenant/dataset`.
fn stripe_of(key: &str, n_stripes: usize) -> usize {
    (fnv1a(key) % n_stripes.max(1) as u64) as usize
}

/// One `STATS` row: a dataset's namespaced key (`tenant/dataset`), the
/// stripe that holds it, its dimension sizes, and its engine's one
/// snapshot of state.
pub type StatsRow = (String, usize, Vec<u64>, StoreStats);

/// One `SCAN` row: a coordinate and its value.
pub type Row = (Vec<u64>, f64);

/// What `CREATE` found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Created {
    /// The dataset is open; `existed` when it was already open or its
    /// store held data from an earlier process.
    Open {
        /// Whether the dataset pre-existed with the same shape.
        existed: bool,
    },
    /// The dataset is open with a different shape.
    ShapeConflict {
        /// The open dataset's dimension sizes.
        existing: Vec<u64>,
    },
}

/// One open dataset: its engine, the engine's background scheduler and
/// its shape.
pub struct Dataset<B: StorageBackend> {
    /// The engine every session calls.
    pub engine: Arc<StorageEngine<B>>,
    scheduler: parking_lot::Mutex<Option<IngestScheduler>>,
    shape: Shape,
}

impl<B: StorageBackend> Dataset<B> {
    /// `PUT` (`ingest == false`: one fragment, named in the result) or
    /// `INGEST` (the WAL-acked buffer) of `values.len()` points whose
    /// coordinates `flat` interleaves. Returns the points acked.
    pub fn write(
        &self,
        ingest: bool,
        ndim: usize,
        flat: Vec<u64>,
        values: &[f64],
    ) -> Result<(usize, Option<String>), StorageError> {
        let coords = CoordBuffer::from_flat(ndim, flat)?;
        if ingest {
            Ok((self.engine.ingest_points::<f64>(&coords, values)?, None))
        } else {
            let report = self.engine.write_points::<f64>(&coords, values)?;
            Ok((report.n_points, Some(report.fragment)))
        }
    }

    /// Reads don't arity-check inside the engine (a wrong-arity query can
    /// only ever miss), so the registry checks first to keep the
    /// protocol's MISMATCH contract symmetric with writes.
    fn arity_check(&self, ndim: usize) -> Result<(), StorageError> {
        let want = self.shape.dims().len();
        if ndim == want {
            return Ok(());
        }
        Err(StorageError::Mismatch {
            reason: format!("query has {ndim} dimensions, dataset has {want}"),
        })
    }

    /// The value stored at `coord`, if any.
    pub fn get(&self, coord: &[u64]) -> Result<Option<f64>, StorageError> {
        self.arity_check(coord.len())?;
        let mut queries = CoordBuffer::new(coord.len().max(1));
        queries.push(coord)?;
        Ok(self
            .engine
            .read_values::<f64>(&queries)?
            .into_iter()
            .next()
            .flatten())
    }

    /// Every stored point in the inclusive box `lo..=hi`, in linear-address
    /// order, at most `limit` of them; `true` when the limit cut rows off.
    pub fn scan(
        &self,
        lo: &[u64],
        hi: &[u64],
        limit: usize,
    ) -> Result<(Vec<Row>, bool), StorageError> {
        self.arity_check(lo.len())?;
        let region = Region::from_corners(lo, hi)?;
        let result = self.engine.read_region(&region)?;
        // Hits are sorted by (addr, fragment write order); keeping the last
        // hit per address applies the engine's last-write-wins precedence.
        let mut rows: Vec<(u64, Vec<u64>, f64)> = Vec::new();
        for hit in result.hits {
            let Ok(bytes) = <[u8; 8]>::try_from(hit.value.as_slice()) else {
                return Err(StorageError::corrupt(
                    &hit.fragment,
                    format!("value record is {} bytes, expected 8", hit.value.len()),
                ));
            };
            let value = f64::from_le_bytes(bytes);
            match rows.last_mut() {
                Some(last) if last.0 == hit.addr => {
                    last.1 = hit.coord;
                    last.2 = value;
                }
                _ => rows.push((hit.addr, hit.coord, value)),
            }
        }
        let truncated = rows.len() > limit;
        rows.truncate(limit);
        Ok((
            rows.into_iter().map(|(_, c, v)| (c, v)).collect(),
            truncated,
        ))
    }
}

/// One stripe of datasets. A poisoned stripe is recovered with
/// `PoisonError::into_inner`: its only updates are one insert or one
/// take, each of which leaves the map whole.
type Stripe<B> = RwLock<HashMap<String, Arc<Dataset<B>>>>;

/// Every dataset the server has opened, striped by FNV-1a placement.
pub struct Registry<F: BackendFactory> {
    factory: F,
    engine_config: EngineConfig,
    scheduler_config: Option<SchedulerConfig>,
    stripes: Vec<Stripe<F::Backend>>,
}

impl<F: BackendFactory> Registry<F> {
    /// An empty registry of `n_stripes` (min 1) stripes whose datasets
    /// open their stores through `factory`.
    pub fn new(
        factory: F,
        engine_config: EngineConfig,
        scheduler_config: Option<SchedulerConfig>,
        n_stripes: usize,
    ) -> Registry<F> {
        Registry {
            factory,
            engine_config,
            scheduler_config,
            stripes: (0..n_stripes.max(1)).map(|_| RwLock::default()).collect(),
        }
    }

    /// How many stripes datasets are placed on.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// How many datasets are open.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// The open dataset `tenant/dataset`, if it has been created.
    pub fn get(&self, tenant: &str, dataset: &str) -> Option<Arc<Dataset<F::Backend>>> {
        let key = format!("{tenant}/{dataset}");
        let stripe = &self.stripes[stripe_of(&key, self.stripes.len())];
        let datasets = stripe.read().unwrap_or_else(PoisonError::into_inner);
        datasets.get(&key).cloned()
    }

    /// Open `tenant/dataset` with shape `dims`, idempotently. The store is
    /// opened (and its WAL replayed) under the stripe's write lock, so two
    /// sessions creating one dataset open its store once.
    pub fn create(
        &self,
        tenant: &str,
        dataset: &str,
        dims: &[u64],
    ) -> Result<Created, StorageError> {
        let key = format!("{tenant}/{dataset}");
        let stripe = &self.stripes[stripe_of(&key, self.stripes.len())];
        let mut datasets = stripe.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = datasets.get(&key) {
            return Ok(if existing.shape.dims() == dims {
                Created::Open { existed: true }
            } else {
                Created::ShapeConflict {
                    existing: existing.shape.dims().to_vec(),
                }
            });
        }
        let shape = Shape::new(dims.to_vec())?;
        let engine = Arc::new(StorageEngine::open_with(
            self.factory.open(&key)?,
            SERVED_ORGANIZATION,
            shape.clone(),
            8,
            self.engine_config.clone(),
        )?);
        // A durable backend may hand us a dataset written by an earlier
        // process (fragments on disk, or acked points replayed from the
        // WAL at open). Report that as `existed=true` so re-attaching
        // after a restart is distinguishable from a fresh create.
        let existed = engine
            .stats()
            .map(|s| s.fragments > 0 || s.total_points > 0)
            .unwrap_or(false);
        let scheduler = self
            .scheduler_config
            .map(|sc| IngestScheduler::spawn(Arc::clone(&engine), sc));
        datasets.insert(
            key,
            Arc::new(Dataset {
                engine,
                scheduler: parking_lot::Mutex::new(scheduler),
                shape,
            }),
        );
        Ok(Created::Open { existed })
    }

    /// Statistics of every open dataset in `tenant`'s namespace — or of
    /// `tenant/dataset` alone — sorted by key.
    pub fn stats(
        &self,
        tenant: &str,
        dataset: Option<&str>,
    ) -> Result<Vec<StatsRow>, StorageError> {
        let mut open = Vec::new();
        for (shard, stripe) in self.stripes.iter().enumerate() {
            let datasets = stripe.read().unwrap_or_else(PoisonError::into_inner);
            for (key, ds) in datasets.iter() {
                let Some((t, d)) = key.split_once('/') else {
                    continue;
                };
                if t == tenant && dataset.is_none_or(|want| want == d) {
                    open.push((key.clone(), shard, Arc::clone(ds)));
                }
            }
        }
        open.sort_by(|a, b| a.0.cmp(&b.0));
        (open.into_iter())
            .map(|(key, shard, ds)| {
                let dims = ds.shape.dims().to_vec();
                Ok((key, shard, dims, ds.engine.stats()?))
            })
            .collect()
    }
}

impl<F: BackendFactory> std::fmt::Debug for Registry<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("stripes", &self.stripes.len())
            .field("datasets", &self.len())
            .finish()
    }
}

/// What the server handle keeps of a [`Registry`]: its drain, with the
/// backend type erased.
pub trait Drain: Send + Sync + std::fmt::Debug {
    /// Close every dataset: stop its scheduler, then group-commit its
    /// buffer and retire its WAL through `StorageEngine::shutdown`. The
    /// registry is empty afterwards.
    fn drain(&self) -> DrainReport;
}

impl<F: BackendFactory + Send + Sync> Drain for Registry<F> {
    fn drain(&self) -> DrainReport {
        let mut report = DrainReport {
            datasets: 0,
            errors: 0,
        };
        for stripe in &self.stripes {
            let datasets =
                std::mem::take(&mut *stripe.write().unwrap_or_else(PoisonError::into_inner));
            for ds in datasets.into_values() {
                if let Some(mut scheduler) = ds.scheduler.lock().take() {
                    scheduler.shutdown();
                }
                report.datasets += 1;
                if ds.engine.shutdown().is_err() {
                    report.errors += 1;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::MemFactory;

    fn registry(stripes: usize) -> Registry<MemFactory> {
        Registry::new(MemFactory, EngineConfig::default(), None, stripes)
    }

    #[test]
    fn hashing_is_stable_and_covers_shards() {
        assert_eq!(
            stripe_of("t/d", 4),
            stripe_of("t/d", 4),
            "hash must be deterministic"
        );
        let covered: std::collections::BTreeSet<usize> =
            (0..32).map(|i| stripe_of(&format!("t/d{i}"), 2)).collect();
        assert_eq!(covered.len(), 2, "32 datasets must cover both shards");
        assert_eq!(stripe_of("t/d", 0), 0, "zero shards clamps to one");
    }

    #[test]
    fn registry_serves_the_full_command_set() {
        let reg = registry(4);

        // Create, idempotently.
        assert_eq!(
            reg.create("t", "d", &[8, 8]).unwrap(),
            Created::Open { existed: false }
        );
        assert_eq!(
            reg.create("t", "d", &[8, 8]).unwrap(),
            Created::Open { existed: true }
        );
        assert!(matches!(
            reg.create("t", "d", &[4, 4]).unwrap(),
            Created::ShapeConflict { .. }
        ));
        let ds = reg.get("t", "d").expect("created");

        // Write synchronously, then read back.
        let (acked, fragment) = ds.write(false, 2, vec![1, 2, 3, 4], &[1.5, 2.5]).unwrap();
        assert_eq!(acked, 2);
        assert!(fragment.is_some(), "PUT names its fragment");
        assert_eq!(ds.get(&[3, 4]).unwrap(), Some(2.5));

        // Ingest goes to the buffer; flush commits it; scan sees all.
        assert_eq!(ds.write(true, 2, vec![5, 5], &[9.0]).unwrap(), (1, None));
        assert!(ds.engine.flush().unwrap().is_some());
        let (rows, truncated) = ds.scan(&[0, 0], &[7, 7], 100).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(!truncated);

        // Consolidate merges the two fragments.
        let merged = ds.engine.consolidate().unwrap();
        assert_eq!((merged.merged_fragments, merged.n_points), (2, 3));

        // Stats filter by tenant and dataset and name the stripe.
        let rows = reg.stats("t", None).unwrap();
        assert_eq!(rows.len(), 1);
        let (key, stripe, dims, store) = &rows[0];
        assert_eq!((key.as_str(), *stripe), ("t/d", stripe_of("t/d", 4)));
        assert_eq!((dims.as_slice(), store.total_points), (&[8, 8][..], 3));
        assert!(reg.stats("other", None).unwrap().is_empty());
        assert!(reg.stats("t", Some("none")).unwrap().is_empty());

        // Unknown dataset; a wrong-arity read is a typed mismatch.
        assert!(reg.get("t", "none").is_none());
        assert!(matches!(ds.get(&[0]), Err(StorageError::Mismatch { .. })));

        // Drain closes and forgets every dataset.
        drop(ds);
        assert_eq!(
            reg.drain(),
            DrainReport {
                datasets: 1,
                errors: 0
            }
        );
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn scan_applies_last_write_wins_and_limits() {
        let reg = registry(1);
        reg.create("t", "d", &[16]).unwrap();
        let ds = reg.get("t", "d").unwrap();
        // Two fragments writing the same cell: the later one must win.
        for v in [1.0f64, 2.0] {
            ds.write(false, 1, vec![7], &[v]).unwrap();
        }
        assert_eq!(
            ds.scan(&[0], &[15], 100).unwrap(),
            (vec![(vec![7u64], 2.0)], false)
        );
        // A limit of zero truncates everything and says so.
        assert_eq!(ds.scan(&[0], &[15], 0).unwrap(), (vec![], true));
    }

    #[test]
    fn scan_past_the_extent_answers_the_same_flushed_or_buffered() {
        let reg = registry(1);
        reg.create("t", "d", &[16, 16]).unwrap();
        let ds = reg.get("t", "d").unwrap();
        let write = |ingest: bool, cell: [u64; 2], value: f64| {
            ds.write(ingest, 2, cell.to_vec(), &[value]).unwrap();
        };
        let scan = |lo: [u64; 2], hi: [u64; 2]| ds.scan(&lo, &hi, 1000).unwrap();
        write(false, [3, 3], 1.0);
        write(false, [15, 15], 2.0);
        // 0:19 × 0:19 reaches past the 16×16 extent; the cells beyond it
        // hold nothing, and a region wholly beyond it is simply empty.
        let stored = vec![(vec![3u64, 3], 1.0), (vec![15, 15], 2.0)];
        assert_eq!(scan([0, 0], [19, 19]), (stored.clone(), false));
        assert_eq!(scan([16, 16], [19, 19]), (vec![], false));
        // The same two replies once the ingest buffer holds a point (the
        // overlay used to fail the first with CoordOutOfBounds) …
        write(true, [9, 9], 3.0);
        assert_eq!(scan([16, 16], [19, 19]), (vec![], false));
        assert_eq!(scan([10, 10], [19, 19]), (stored[1..].to_vec(), false));
        // … and the buffered point itself is served from a straddling box.
        let mut all = stored;
        all.insert(1, (vec![9, 9], 3.0));
        assert_eq!(scan([0, 0], [19, 19]), (all, false));
    }
}
