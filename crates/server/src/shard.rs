//! Shard workers: one owning thread per shard, message-passing command
//! loop over [`StorageEngine`]s.
//!
//! Datasets are hashed onto shards by FNV-1a of their namespaced key
//! (`tenant/dataset`, see [`shard_of`]); each shard thread *owns* its
//! engines outright — no engine is ever touched from two threads — so
//! all cross-session coordination reduces to the channel. Sessions send
//! a [`ShardCmd`] carrying a per-request reply `Sender`; the worker
//! executes against the owning engine and replies with one
//! [`ShardReply`]. Engine errors travel back as the typed
//! [`StorageError`] so the session can map them onto protocol error
//! codes (`BACKPRESSURE`, `READONLY`, `CHECKSUM`, …) without loss.

use crate::server::BackendFactory;
use artsparse_core::FormatKind;
use artsparse_storage::{
    EngineConfig, HealthState, IngestScheduler, SchedulerConfig, StorageEngine, StorageError,
};
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// FNV-1a 64-bit hash of a namespaced dataset key.
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard that owns `tenant/dataset`.
pub fn shard_of(tenant: &str, dataset: &str, n_shards: usize) -> usize {
    (fnv1a(&format!("{tenant}/{dataset}")) % n_shards.max(1) as u64) as usize
}

/// One command sent to a shard worker. Non-generic so channel senders
/// can live in non-generic session and handle types.
#[derive(Debug)]
pub enum ShardCmd {
    /// Create (idempotently) a dataset with the given shape.
    Create {
        /// Namespaced key (`tenant/dataset`).
        key: String,
        /// Dimension sizes.
        dims: Vec<u64>,
        /// Reply channel.
        reply: Sender<ShardReply>,
    },
    /// Write a batch of points (`PUT` commits a fragment synchronously,
    /// `INGEST` streams through the WAL-acked buffer).
    Write {
        /// Namespaced key.
        key: String,
        /// `true` = streaming ingest, `false` = synchronous fragment.
        ingest: bool,
        /// Points per line arity.
        ndim: usize,
        /// Interleaved coordinates (`ndim × n`).
        flat: Vec<u64>,
        /// One value per point.
        values: Vec<f64>,
        /// Reply channel.
        reply: Sender<ShardReply>,
    },
    /// Read one point.
    Get {
        /// Namespaced key.
        key: String,
        /// The coordinate.
        coord: Vec<u64>,
        /// Reply channel.
        reply: Sender<ShardReply>,
    },
    /// Read every stored point in an inclusive region.
    Scan {
        /// Namespaced key.
        key: String,
        /// Inclusive lower corner.
        lo: Vec<u64>,
        /// Inclusive upper corner.
        hi: Vec<u64>,
        /// Maximum rows to return.
        limit: usize,
        /// Reply channel.
        reply: Sender<ShardReply>,
    },
    /// Group-commit the dataset's write buffer.
    Flush {
        /// Namespaced key.
        key: String,
        /// Reply channel.
        reply: Sender<ShardReply>,
    },
    /// Merge the dataset's fragments.
    Consolidate {
        /// Namespaced key.
        key: String,
        /// Reply channel.
        reply: Sender<ShardReply>,
    },
    /// Per-dataset statistics, optionally filtered to one tenant and/or
    /// one dataset.
    Stats {
        /// Restrict to this tenant's namespace (`None` = all, used by
        /// the metrics publisher).
        tenant: Option<String>,
        /// Restrict to one namespaced key.
        key: Option<String>,
        /// Reply channel.
        reply: Sender<ShardReply>,
    },
    /// Flush every engine and retire pending WALs (graceful shutdown).
    Drain {
        /// Reply channel.
        reply: Sender<ShardReply>,
    },
}

/// Statistics for one dataset, as the owning shard reports them.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Namespaced key (`tenant/dataset`).
    pub key: String,
    /// Owning shard index.
    pub shard: usize,
    /// Dimension sizes.
    pub dims: Vec<u64>,
    /// Committed fragments.
    pub fragments: usize,
    /// Stored points (before cross-fragment dedup).
    pub points: u64,
    /// Bytes on the device.
    pub bytes: u64,
    /// Write-path health state.
    pub health: HealthState,
    /// Points sitting in the write buffer (WAL-acked, not yet committed).
    pub buffered_points: usize,
    /// Value bytes sitting in the write buffer.
    pub buffered_bytes: usize,
    /// Live WAL backlog in bytes.
    pub wal_backlog_bytes: u64,
    /// Ingest batches shed by admission control so far.
    pub backpressure_rejections: u64,
}

/// A shard worker's answer to one [`ShardCmd`].
#[derive(Debug)]
pub enum ShardReply {
    /// `Create` outcome: whether the dataset already existed.
    Created {
        /// `true` when the dataset pre-existed with the same shape.
        existed: bool,
    },
    /// `Create` refusal: the dataset exists with a different shape.
    ShapeConflict {
        /// The existing dataset's dimension sizes.
        existing: Vec<u64>,
    },
    /// `Write` outcome.
    Written {
        /// Points accepted.
        acked: usize,
        /// Fragment the batch committed into (`PUT` only).
        fragment: Option<String>,
    },
    /// `Get` outcome.
    Point {
        /// The stored value, if present.
        value: Option<f64>,
    },
    /// `Scan` outcome.
    Points {
        /// `(coordinate, value)` rows in linear-address order.
        rows: Vec<(Vec<u64>, f64)>,
        /// Whether the row limit truncated the result.
        truncated: bool,
    },
    /// `Flush` outcome.
    Flushed {
        /// Fragment the buffer committed into (`None` = buffer empty).
        fragment: Option<String>,
    },
    /// `Consolidate` outcome.
    Consolidated {
        /// Fragments merged away.
        merged: usize,
        /// Points in the merged fragment.
        points: usize,
    },
    /// `Stats` outcome.
    Stats(Vec<DatasetStats>),
    /// `Drain` outcome.
    Drained {
        /// Engines drained.
        datasets: usize,
        /// Engines whose drain failed (flush error, stuck device).
        errors: usize,
    },
    /// The dataset has not been created on this shard.
    NoDataset,
    /// The engine refused or failed the operation.
    Err(StorageError),
}

struct Dataset<B: artsparse_storage::StorageBackend> {
    engine: Arc<StorageEngine<B>>,
    scheduler: Option<IngestScheduler>,
    shape: Shape,
}

/// Spawn shard worker `id`. The worker exits when every [`ShardCmd`]
/// sender is dropped; callers should send [`ShardCmd::Drain`] first for
/// a clean flush.
pub fn spawn_shard<F>(
    id: usize,
    factory: Arc<F>,
    engine_config: EngineConfig,
    scheduler_config: Option<SchedulerConfig>,
    rx: Receiver<ShardCmd>,
) -> std::thread::JoinHandle<()>
where
    F: BackendFactory + Send + Sync + 'static,
{
    std::thread::Builder::new()
        .name(format!("artsparse-shard-{id}"))
        .spawn(move || shard_loop(id, &*factory, &engine_config, scheduler_config.as_ref(), rx))
        .expect("spawning a shard worker thread")
}

fn shard_loop<F: BackendFactory>(
    id: usize,
    factory: &F,
    engine_config: &EngineConfig,
    scheduler_config: Option<&SchedulerConfig>,
    rx: Receiver<ShardCmd>,
) {
    let mut datasets: HashMap<String, Dataset<F::Backend>> = HashMap::new();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::Create { key, dims, reply } => {
                let _ = reply.send(create(
                    factory,
                    engine_config,
                    scheduler_config,
                    &mut datasets,
                    &key,
                    &dims,
                ));
            }
            ShardCmd::Write {
                key,
                ingest,
                ndim,
                flat,
                values,
                reply,
            } => {
                let r = match datasets.get(&key) {
                    None => ShardReply::NoDataset,
                    Some(ds) => write(ds, ingest, ndim, flat, &values),
                };
                let _ = reply.send(r);
            }
            ShardCmd::Get { key, coord, reply } => {
                let r = match datasets.get(&key) {
                    None => ShardReply::NoDataset,
                    Some(ds) => get(ds, &coord),
                };
                let _ = reply.send(r);
            }
            ShardCmd::Scan {
                key,
                lo,
                hi,
                limit,
                reply,
            } => {
                let r = match datasets.get(&key) {
                    None => ShardReply::NoDataset,
                    Some(ds) => scan(ds, &lo, &hi, limit),
                };
                let _ = reply.send(r);
            }
            ShardCmd::Flush { key, reply } => {
                let r = match datasets.get(&key) {
                    None => ShardReply::NoDataset,
                    Some(ds) => match ds.engine.flush() {
                        Ok(report) => ShardReply::Flushed {
                            fragment: report.map(|r| r.fragment),
                        },
                        Err(e) => ShardReply::Err(e),
                    },
                };
                let _ = reply.send(r);
            }
            ShardCmd::Consolidate { key, reply } => {
                let r = match datasets.get(&key) {
                    None => ShardReply::NoDataset,
                    Some(ds) => match ds.engine.consolidate() {
                        Ok(report) => ShardReply::Consolidated {
                            merged: report.merged_fragments,
                            points: report.n_points,
                        },
                        Err(e) => ShardReply::Err(e),
                    },
                };
                let _ = reply.send(r);
            }
            ShardCmd::Stats { tenant, key, reply } => {
                let _ = reply.send(stats(id, &datasets, tenant.as_deref(), key.as_deref()));
            }
            ShardCmd::Drain { reply } => {
                let mut errors = 0usize;
                for ds in datasets.values_mut() {
                    if let Some(sched) = ds.scheduler.as_mut() {
                        sched.shutdown();
                    }
                    if ds.engine.shutdown().is_err() {
                        errors += 1;
                    }
                }
                let _ = reply.send(ShardReply::Drained {
                    datasets: datasets.len(),
                    errors,
                });
            }
        }
    }
    // Channel closed: the server is going away. Engines were already
    // drained by the Drain command; schedulers stop on drop.
}

fn create<F: BackendFactory>(
    factory: &F,
    engine_config: &EngineConfig,
    scheduler_config: Option<&SchedulerConfig>,
    datasets: &mut HashMap<String, Dataset<F::Backend>>,
    key: &str,
    dims: &[u64],
) -> ShardReply {
    if let Some(existing) = datasets.get(key) {
        return if existing.shape.dims() == dims {
            ShardReply::Created { existed: true }
        } else {
            ShardReply::ShapeConflict {
                existing: existing.shape.dims().to_vec(),
            }
        };
    }
    let shape = match Shape::new(dims.to_vec()) {
        Ok(s) => s,
        Err(e) => return ShardReply::Err(e.into()),
    };
    let backend = match factory.open(key) {
        Ok(b) => b,
        Err(e) => return ShardReply::Err(e),
    };
    let engine = match StorageEngine::open_with(
        backend,
        FormatKind::Coo,
        shape.clone(),
        8,
        engine_config.clone(),
    ) {
        Ok(e) => Arc::new(e),
        Err(e) => return ShardReply::Err(e),
    };
    // A durable backend may hand us a dataset written by an earlier
    // process (fragments on disk, or acked points replayed from the
    // WAL at open). Report that as `existed=true` so re-attaching
    // after a restart is distinguishable from a fresh create.
    let existed = engine
        .stats()
        .map(|s| s.fragments > 0 || s.total_points > 0)
        .unwrap_or(false);
    let scheduler = scheduler_config.map(|sc| IngestScheduler::spawn(Arc::clone(&engine), *sc));
    datasets.insert(
        key.to_string(),
        Dataset {
            engine,
            scheduler,
            shape,
        },
    );
    ShardReply::Created { existed }
}

fn write<B: artsparse_storage::StorageBackend>(
    ds: &Dataset<B>,
    ingest: bool,
    ndim: usize,
    flat: Vec<u64>,
    values: &[f64],
) -> ShardReply {
    let coords = match CoordBuffer::from_flat(ndim, flat) {
        Ok(c) => c,
        Err(e) => return ShardReply::Err(e.into()),
    };
    if ingest {
        match ds.engine.ingest_points::<f64>(&coords, values) {
            Ok(acked) => ShardReply::Written {
                acked,
                fragment: None,
            },
            Err(e) => ShardReply::Err(e),
        }
    } else {
        match ds.engine.write_points::<f64>(&coords, values) {
            Ok(report) => ShardReply::Written {
                acked: report.n_points,
                fragment: Some(report.fragment),
            },
            Err(e) => ShardReply::Err(e),
        }
    }
}

/// Reads don't arity-check inside the engine (a wrong-arity query can
/// only ever miss), so the shard validates before dispatch to keep the
/// protocol's MISMATCH contract symmetric with writes.
fn arity_check<B: artsparse_storage::StorageBackend>(
    ds: &Dataset<B>,
    ndim: usize,
) -> Option<ShardReply> {
    let want = ds.shape.dims().len();
    (ndim != want).then(|| {
        ShardReply::Err(StorageError::Mismatch {
            reason: format!("query has {ndim} dimensions, dataset has {want}"),
        })
    })
}

fn get<B: artsparse_storage::StorageBackend>(ds: &Dataset<B>, coord: &[u64]) -> ShardReply {
    if let Some(err) = arity_check(ds, coord.len()) {
        return err;
    }
    let mut queries = CoordBuffer::new(coord.len().max(1));
    if let Err(e) = queries.push(coord) {
        return ShardReply::Err(e.into());
    }
    match ds.engine.read_values::<f64>(&queries) {
        Ok(values) => ShardReply::Point {
            value: values.into_iter().next().flatten(),
        },
        Err(e) => ShardReply::Err(e),
    }
}

fn scan<B: artsparse_storage::StorageBackend>(
    ds: &Dataset<B>,
    lo: &[u64],
    hi: &[u64],
    limit: usize,
) -> ShardReply {
    if let Some(err) = arity_check(ds, lo.len()) {
        return err;
    }
    let region = match Region::from_corners(lo, hi) {
        Ok(r) => r,
        Err(e) => return ShardReply::Err(e.into()),
    };
    let result = match ds.engine.read_region(&region) {
        Ok(r) => r,
        Err(e) => return ShardReply::Err(e),
    };
    // Hits are sorted by (addr, fragment write order); keeping the last
    // hit per address applies the engine's last-write-wins precedence.
    let mut rows: Vec<(u64, Vec<u64>, f64)> = Vec::new();
    for hit in result.hits {
        if hit.value.len() != 8 {
            return ShardReply::Err(StorageError::corrupt(
                &hit.fragment,
                format!("value record is {} bytes, expected 8", hit.value.len()),
            ));
        }
        let value = f64::from_le_bytes(hit.value[..8].try_into().expect("checked length"));
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
    ShardReply::Points {
        rows: rows.into_iter().map(|(_, c, v)| (c, v)).collect(),
        truncated,
    }
}

fn stats<B: artsparse_storage::StorageBackend>(
    shard: usize,
    datasets: &HashMap<String, Dataset<B>>,
    tenant: Option<&str>,
    key: Option<&str>,
) -> ShardReply {
    let mut out = Vec::new();
    let mut keys: Vec<&String> = datasets.keys().collect();
    keys.sort();
    for k in keys {
        if let Some(t) = tenant {
            if k.split('/').next() != Some(t) {
                continue;
            }
        }
        if let Some(want) = key {
            if k != want {
                continue;
            }
        }
        let ds = &datasets[k];
        let store = match ds.engine.stats() {
            Ok(s) => s,
            Err(e) => return ShardReply::Err(e),
        };
        let buf = ds.engine.buffer_stats();
        out.push(DatasetStats {
            key: k.clone(),
            shard,
            dims: ds.shape.dims().to_vec(),
            fragments: store.fragments,
            points: store.total_points,
            bytes: store.total_bytes,
            health: store.health,
            buffered_points: buf.points,
            buffered_bytes: buf.value_bytes,
            wal_backlog_bytes: store.wal_backlog_bytes,
            backpressure_rejections: store.backpressure_rejections,
        });
    }
    if out.is_empty() && key.is_some() {
        return ShardReply::NoDataset;
    }
    ShardReply::Stats(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::MemFactory;
    use std::sync::mpsc;

    fn ask(tx: &Sender<ShardCmd>, make: impl FnOnce(Sender<ShardReply>) -> ShardCmd) -> ShardReply {
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(make(reply_tx)).unwrap();
        reply_rx.recv().unwrap()
    }

    #[test]
    fn hashing_is_stable_and_covers_shards() {
        assert_eq!(
            shard_of("t", "d", 4),
            shard_of("t", "d", 4),
            "hash must be deterministic"
        );
        let covered: std::collections::BTreeSet<usize> = (0..32)
            .map(|i| shard_of("t", &format!("d{i}"), 2))
            .collect();
        assert_eq!(covered.len(), 2, "32 datasets must cover both shards");
        assert_eq!(shard_of("t", "d", 0), 0, "zero shards clamps to one");
    }

    #[test]
    fn shard_worker_serves_the_full_command_set() {
        let (tx, rx) = mpsc::channel();
        let handle = spawn_shard(3, Arc::new(MemFactory), EngineConfig::default(), None, rx);

        // Create, idempotently.
        let r = ask(&tx, |reply| ShardCmd::Create {
            key: "t/d".into(),
            dims: vec![8, 8],
            reply,
        });
        assert!(matches!(r, ShardReply::Created { existed: false }));
        let r = ask(&tx, |reply| ShardCmd::Create {
            key: "t/d".into(),
            dims: vec![8, 8],
            reply,
        });
        assert!(matches!(r, ShardReply::Created { existed: true }));
        let r = ask(&tx, |reply| ShardCmd::Create {
            key: "t/d".into(),
            dims: vec![4, 4],
            reply,
        });
        assert!(matches!(r, ShardReply::ShapeConflict { .. }));

        // Write synchronously, then read back.
        let r = ask(&tx, |reply| ShardCmd::Write {
            key: "t/d".into(),
            ingest: false,
            ndim: 2,
            flat: vec![1, 2, 3, 4],
            values: vec![1.5, 2.5],
            reply,
        });
        match r {
            ShardReply::Written { acked, fragment } => {
                assert_eq!(acked, 2);
                assert!(fragment.is_some(), "PUT names its fragment");
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = ask(&tx, |reply| ShardCmd::Get {
            key: "t/d".into(),
            coord: vec![3, 4],
            reply,
        });
        assert!(matches!(r, ShardReply::Point { value: Some(v) } if v == 2.5));

        // Ingest goes to the buffer; flush commits it; scan sees all.
        let r = ask(&tx, |reply| ShardCmd::Write {
            key: "t/d".into(),
            ingest: true,
            ndim: 2,
            flat: vec![5, 5],
            values: vec![9.0],
            reply,
        });
        assert!(matches!(
            r,
            ShardReply::Written {
                acked: 1,
                fragment: None
            }
        ));
        let r = ask(&tx, |reply| ShardCmd::Flush {
            key: "t/d".into(),
            reply,
        });
        assert!(matches!(r, ShardReply::Flushed { fragment: Some(_) }));
        let r = ask(&tx, |reply| ShardCmd::Scan {
            key: "t/d".into(),
            lo: vec![0, 0],
            hi: vec![7, 7],
            limit: 100,
            reply,
        });
        match r {
            ShardReply::Points { rows, truncated } => {
                assert_eq!(rows.len(), 3);
                assert!(!truncated);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Consolidate merges the two fragments.
        let r = ask(&tx, |reply| ShardCmd::Consolidate {
            key: "t/d".into(),
            reply,
        });
        assert!(matches!(
            r,
            ShardReply::Consolidated {
                merged: 2,
                points: 3
            }
        ));

        // Stats filter by tenant.
        let r = ask(&tx, |reply| ShardCmd::Stats {
            tenant: Some("t".into()),
            key: None,
            reply,
        });
        match r {
            ShardReply::Stats(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0].key, "t/d");
                assert_eq!(rows[0].shard, 3);
                assert_eq!(rows[0].points, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = ask(&tx, |reply| ShardCmd::Stats {
            tenant: Some("other".into()),
            key: None,
            reply,
        });
        assert!(matches!(r, ShardReply::Stats(rows) if rows.is_empty()));

        // Unknown dataset.
        let r = ask(&tx, |reply| ShardCmd::Get {
            key: "t/none".into(),
            coord: vec![0, 0],
            reply,
        });
        assert!(matches!(r, ShardReply::NoDataset));

        // Drain then close the channel; the worker exits.
        let r = ask(&tx, |reply| ShardCmd::Drain { reply });
        assert!(matches!(
            r,
            ShardReply::Drained {
                datasets: 1,
                errors: 0
            }
        ));
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn scan_applies_last_write_wins_and_limits() {
        let (tx, rx) = mpsc::channel();
        let handle = spawn_shard(0, Arc::new(MemFactory), EngineConfig::default(), None, rx);
        ask(&tx, |reply| ShardCmd::Create {
            key: "t/d".into(),
            dims: vec![16],
            reply,
        });
        // Two fragments writing the same cell: the later one must win.
        for v in [1.0f64, 2.0] {
            ask(&tx, |reply| ShardCmd::Write {
                key: "t/d".into(),
                ingest: false,
                ndim: 1,
                flat: vec![7],
                values: vec![v],
                reply,
            });
        }
        let r = ask(&tx, |reply| ShardCmd::Scan {
            key: "t/d".into(),
            lo: vec![0],
            hi: vec![15],
            limit: 100,
            reply,
        });
        match r {
            ShardReply::Points { rows, .. } => {
                assert_eq!(rows, vec![(vec![7u64], 2.0)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A limit of zero truncates everything and says so.
        let r = ask(&tx, |reply| ShardCmd::Scan {
            key: "t/d".into(),
            lo: vec![0],
            hi: vec![15],
            limit: 0,
            reply,
        });
        assert!(matches!(r, ShardReply::Points { rows, truncated: true } if rows.is_empty()));
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn scan_past_the_extent_answers_the_same_flushed_or_buffered() {
        let (tx, rx) = mpsc::channel();
        let handle = spawn_shard(0, Arc::new(MemFactory), EngineConfig::default(), None, rx);
        ask(&tx, |reply| ShardCmd::Create {
            key: "t/d".into(),
            dims: vec![16, 16],
            reply,
        });
        let write = |ingest: bool, cell: [u64; 2], value: f64| {
            ask(&tx, |reply| ShardCmd::Write {
                key: "t/d".into(),
                ingest,
                ndim: 2,
                flat: cell.to_vec(),
                values: vec![value],
                reply,
            })
        };
        let scan = |lo: [u64; 2], hi: [u64; 2]| {
            let r = ask(&tx, |reply| ShardCmd::Scan {
                key: "t/d".into(),
                lo: lo.to_vec(),
                hi: hi.to_vec(),
                limit: 1000,
                reply,
            });
            match r {
                ShardReply::Points { rows, truncated } => (rows, truncated),
                other => panic!("unexpected {other:?}"),
            }
        };
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
        drop(tx);
        handle.join().unwrap();
    }
}
