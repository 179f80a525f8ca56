//! The fragment storage engine — Algorithm 3's WRITE and READ.
//!
//! WRITE packages a coordinate buffer with the configured organization,
//! reorganizes the value payload by the build's `map`, concatenates
//! `index ∥ values` into a fragment, and writes it to the backend —
//! accumulating the Build / Reorg. / Write / Others phase breakdown of
//! Table III as it goes.
//!
//! READ runs a layered pipeline:
//!
//! 1. **catalog** — fragment metadata lives in the in-engine
//!    [`FragmentCatalog`], built once at open and maintained by
//!    write/consolidate/delete, so discovery costs no device traffic;
//! 2. **plan** — bounding-box pruning against the query box is a pure
//!    in-memory step ([`FragmentCatalog::plan`]);
//! 3. **fetch** — each planned fragment's index section is range-fetched
//!    first; only the value records its matched slots need follow
//!    (whole sections when compressed, coalesced record runs otherwise) —
//!    the one uncached fetch path;
//! 4. **decode** — sections are decompressed and handed to the
//!    organization-specific read; decoded fragments can be kept resident
//!    in a bytes-bounded LRU ([`FragmentCache`]) for repeat reads;
//! 5. **merge** — per-fragment hits are gathered (in parallel across
//!    fragments) and merged sorted by linear address (Algorithm 3
//!    line 12), ties broken by fragment write order.
//!
//! Consolidate and export run over the same catalog/fetch/decode layers
//! through one shared fragment-scan path, so precedence rules cannot
//! drift between the three.
//!
//! The engine is one type cut along the seams DESIGN.md names; each
//! module owns the state and the decisions of its section:
//!
//! * `names` — blob naming and the `(seq, epoch, cgen, part)` order (§9);
//! * `commit` — WRITE, the one `publish` routine, recovery, epochs (§9);
//! * `ingest` — buffer → WAL → group commit → replay (§14);
//! * `read` — plan → fetch → decode → merge (§8);
//! * `scrub` — stored-byte verification (§11);
//! * `reorg` — consolidation, adaptive migration, export (§13);
//! * `health` — health ladder, admission control, stats (§16).

mod commit;
mod health;
mod ingest;
pub(crate) mod names;
mod read;
mod reorg;
mod scrub;

pub use commit::{RecoveryReport, WriteReport};
pub use health::{HealthState, StoreStats};
pub use read::{ReadHit, ReadOutcome, ReadResult, BUFFER_FRAGMENT};
pub use reorg::{ConsolidateReport, PART_POINTS};
pub use scrub::{ScrubFinding, ScrubReport};

use crate::backend::StorageBackend;
use crate::cache::FragmentCache;
use crate::catalog::{CatalogEntry, FragmentCatalog};
use crate::codec::Codec;
use crate::config::{EngineConfig, RetryPolicy};
use crate::error::{Result, StorageError};
use crate::observe::RecordingBackend;
use artsparse_core::FormatKind;
use artsparse_metrics::{
    charge, IoStats, ObservabilityPlane, OpCounter, Span, SpanContext, SpanKind, TelemetryReport,
};
use artsparse_tensor::value::Element;
use artsparse_tensor::{CoordBuffer, Shape};
use std::collections::HashSet;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A sparse tensor stored as fragments on a backend.
pub struct StorageEngine<B: StorageBackend> {
    backend: RecordingBackend<B>,
    kind: FormatKind,
    shape: Shape,
    elem_size: u32,
    next_id: AtomicU64,
    /// Epoch claimed at open, stamped into every fragment this engine
    /// writes so concurrent engines over one store never collide.
    epoch: u64,
    /// Staging blobs this engine is mid-commit on. [`StorageEngine::refresh`]
    /// runs the recovery sweep, which must not reap a commit that is
    /// still in flight in this very process.
    inflight: parking_lot::Mutex<HashSet<String>>,
    /// Serializes consolidation passes on this engine: two concurrent
    /// passes would derive the same consolidated name from the same
    /// snapshot and rename-commit over each other.
    consolidate_lock: parking_lot::Mutex<()>,
    counter: OpCounter,
    index_codec: Codec,
    value_codec: Codec,
    config: EngineConfig,
    catalog: FragmentCatalog,
    cache: FragmentCache,
    /// What the most recent recovery pass (open or refresh) found.
    recovery: parking_lot::Mutex<RecoveryReport>,
    /// The streaming-ingest write buffer: acked batches awaiting a group
    /// commit, readable through an atomically swappable snapshot.
    buffer: crate::buffer::WriteBuffer,
    /// Serializes group commits and plain writes, each held from its
    /// fragment id to its commit. Two concurrent flushes would encode
    /// overlapping snapshots into two fragments and double-drain the
    /// buffer; and plain fragments must commit in id order, or a
    /// consolidation could snapshot a higher id without a lower one still
    /// in flight, and its output (the highest source's seq) would shadow
    /// the late fragment.
    flush_lock: parking_lot::Mutex<()>,
    /// Orders ingest acks against fragment ids. An ingest draws its WAL
    /// seq and appends its batch under it; a group commit takes its
    /// buffer snapshot and draws its fragment id (and a plain write's)
    /// under it. So a batch whose seq is below a fragment's id is in that
    /// fragment's snapshot or an older one, and replay after a crash
    /// ranks batches and fragments the way live reads did.
    ack_order: parking_lot::Mutex<()>,
    /// Every live WAL blob this engine acked, and which of them await a
    /// delete retry. A blob that never gets deleted is safe (replay is
    /// order-preserving, see [`StorageEngine::replay_wal`]), it just
    /// wastes device bytes until retirement succeeds.
    wal: parking_lot::Mutex<ingest::WalLedger>,
    /// The observability plane — the one sink of every span and backend
    /// op — present only when `config.observability` was set. `None`
    /// means spans are inert and no aggregation, registry or journal call
    /// happens on any engine path.
    plane: Option<Arc<ObservabilityPlane>>,
    /// Write-path health state machine, admission-control counters, and
    /// the background scheduler's record.
    health: health::Health,
}

impl<B: StorageBackend> StorageEngine<B> {
    /// Open an engine over a backend with the default pipeline
    /// configuration. Existing fragments are cataloged (one header peek
    /// each); new fragments continue the id sequence.
    pub fn open(backend: B, kind: FormatKind, shape: Shape, elem_size: u32) -> Result<Self> {
        Self::open_with(backend, kind, shape, elem_size, EngineConfig::default())
    }

    /// Open an engine with an explicit pipeline configuration.
    ///
    /// Opening first recovers the store — consolidation tombstones are
    /// replayed or discarded, orphaned staging blobs are swept — then
    /// claims a fresh epoch, so the catalog is built over a clean store
    /// and this engine's fragment names cannot collide with any other
    /// engine's, past or concurrent.
    pub fn open_with(
        backend: B,
        kind: FormatKind,
        shape: Shape,
        elem_size: u32,
        config: EngineConfig,
    ) -> Result<Self> {
        let plane = config.observability.as_ref().map(|oc| {
            Arc::new(ObservabilityPlane::new(
                oc.slow_span_ms.saturating_mul(1_000_000),
            ))
        });
        let backend = RecordingBackend::new(backend, plane.as_ref());

        let span = Span::enter(plane.as_ref(), SpanKind::Recover);
        let mut recovery = commit::recover_store(&backend, None)?;
        let epoch = commit::claim_epoch(&backend)?;
        // Count this engine's own claim among the live markers.
        recovery.epoch_markers += 1;
        let catalog = FragmentCatalog::load(&backend, shape.ndim(), names::is_fragment_name)?;
        drop(span);

        let cache = FragmentCache::new(config.cache_capacity_bytes);
        let engine = StorageEngine {
            backend,
            kind,
            shape,
            elem_size,
            next_id: AtomicU64::new(names::next_seq(&catalog.names())),
            epoch,
            inflight: parking_lot::Mutex::new(HashSet::new()),
            consolidate_lock: parking_lot::Mutex::new(()),
            counter: OpCounter::new(),
            index_codec: Codec::None,
            value_codec: Codec::None,
            config,
            catalog,
            cache,
            recovery: parking_lot::Mutex::new(recovery),
            buffer: crate::buffer::WriteBuffer::new(),
            flush_lock: parking_lot::Mutex::new(()),
            ack_order: parking_lot::Mutex::new(()),
            wal: parking_lot::Mutex::default(),
            health: health::Health::new(plane.clone()),
            plane,
        };
        // WAL blobs left behind by a crashed engine hold acked ingest
        // batches that never reached a fragment: replay them now (and
        // sweep torn ones) so the catalog alone equals everything that
        // was ever acked.
        engine.replay_wal()?;
        Ok(engine)
    }

    /// Apply compression codecs to new fragments (§II: organizations are
    /// orthogonal to compression — pick the organization first, compress
    /// second). Reads handle any codec regardless of this setting, since
    /// fragments self-describe.
    pub fn with_compression(mut self, index_codec: Codec, value_codec: Codec) -> Self {
        self.index_codec = index_codec;
        self.value_codec = value_codec;
        self
    }

    /// The organization used for new fragments.
    pub fn kind(&self) -> FormatKind {
        self.kind
    }

    /// The global tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The backend (e.g. to inspect simulated-disk statistics).
    pub fn backend(&self) -> &B {
        self.backend.inner()
    }

    /// The active pipeline configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The epoch this engine claimed at open (stamped into its fragment
    /// names).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The decoded-fragment cache (e.g. to inspect hit rates).
    pub fn cache(&self) -> &FragmentCache {
        &self.cache
    }

    /// Consume the engine, recovering the backend (e.g. to reopen it under
    /// a different organization — fragments self-describe, so mixed-format
    /// stores read fine).
    pub fn into_backend(self) -> B {
        self.backend.into_inner()
    }

    /// Snapshot the aggregated telemetry (spans, histograms, I/O totals,
    /// per-backend op timings). `None` unless the engine was opened with
    /// `config.observability` set.
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        self.plane.as_ref().map(|p| p.report())
    }

    /// What the most recent recovery pass (open or refresh) found on the
    /// store.
    pub fn recovery_report(&self) -> RecoveryReport {
        *self.recovery.lock()
    }

    /// The observability plane, when `config.observability` was set at
    /// open. `None` means the plane is off and nothing is collected.
    pub fn observability(&self) -> Option<&Arc<ObservabilityPlane>> {
        self.plane.as_ref()
    }

    /// Sample every live gauge into the observability registry: write
    /// buffer occupancy, WAL backlog, fragment population and size tiers,
    /// cache occupancy, quarantine count, scheduler health, and the
    /// derived read-amplification ratio. A no-op when the plane is off.
    /// Every scalar is read from one [`StorageEngine::stats`] snapshot.
    ///
    /// The [`MetricsExporter`](crate::exporter::MetricsExporter) calls
    /// this before each snapshot; callers polling the registry directly
    /// should too — counters update live from span traffic, but gauges
    /// are point-in-time readings only this method refreshes.
    pub fn observe(&self) {
        let Some(plane) = &self.plane else { return };
        let Ok(s) = self.stats() else { return };
        let reg = plane.registry();
        let gauges = [
            (
                "artsparse_write_buffer_bytes",
                "Value bytes currently buffered for group commit.",
                s.buffer.value_bytes as f64,
            ),
            (
                "artsparse_write_buffer_points",
                "Points currently buffered for group commit.",
                s.buffer.points as f64,
            ),
            (
                "artsparse_write_buffer_batches",
                "Acked ingest batches awaiting group commit.",
                s.buffer.batches as f64,
            ),
            (
                "artsparse_wal_backlog_blobs",
                "Live WAL blobs: buffered batches not yet committed plus \
                 retired blobs whose delete is being retried.",
                s.wal_blobs as f64,
            ),
            (
                "artsparse_wal_retire_queue",
                "WAL blobs whose deletion failed and awaits retry.",
                s.wal_blobs_retiring as f64,
            ),
            (
                "artsparse_wal_backlog_bytes",
                "Bytes of acked, unretired WAL blobs (bounded by max_wal_backlog_bytes).",
                s.wal_backlog_bytes as f64,
            ),
            (
                "artsparse_fragments",
                "Live fragments in the catalog.",
                s.live_fragments as f64,
            ),
            (
                "artsparse_quarantined_fragments",
                "Fragments currently quarantined after integrity failures.",
                s.quarantined_fragments as f64,
            ),
            (
                "artsparse_cache_bytes",
                "Decoded payload bytes resident in the fragment cache.",
                s.cache_bytes as f64,
            ),
            (
                "artsparse_cache_capacity_bytes",
                "Configured fragment-cache capacity (0: disabled).",
                s.cache_capacity_bytes as f64,
            ),
            (
                "artsparse_cache_fragments",
                "Decoded fragments resident in the cache.",
                s.cache_fragments as f64,
            ),
            (
                "artsparse_scheduler_last_run_age_seconds",
                "Seconds since the last scheduler pass (-1: never ran).",
                s.scheduler_last_run_age
                    .map_or(-1.0, |age| age.as_nanos() as f64 / 1e9),
            ),
            (
                "artsparse_health_state",
                "Write-path health state (0: healthy, 1: degraded, 2: read-only).",
                s.health.gauge_value() as f64,
            ),
            (
                "artsparse_consecutive_write_failures",
                "Consecutive write failures driving the health state machine.",
                s.consecutive_write_failures as f64,
            ),
        ];
        for (name, help, value) in gauges {
            reg.gauge(name, help).set(value);
        }
        let counters = [
            (
                "artsparse_scheduler_runs_total",
                "Background scheduler passes executed.",
                s.scheduler_runs,
            ),
            (
                "artsparse_scheduler_errors_total",
                "Background scheduler passes that failed.",
                s.scheduler_errors,
            ),
            (
                "artsparse_backpressure_rejections_total",
                "Writes refused with a typed Backpressure or ReadOnly rejection.",
                s.backpressure_rejections,
            ),
        ];
        for (name, help, total) in counters {
            reg.counter(name, help).record_total(total);
        }

        let mut tiers = artsparse_metrics::Histogram::new();
        for size in self.fragment_sizes() {
            tiers.record(size);
        }
        reg.set_histogram(
            "artsparse_fragment_bytes",
            "Size distribution of live fragments (bytes, log2 buckets).",
            tiers,
        );
        if let Some(ratio) = plane.read_amplification() {
            reg.gauge(
                "artsparse_read_amplification",
                "Bytes fetched from the backend per value byte returned.",
            )
            .set(ratio);
        }
    }

    /// Operation counter shared by all builds/reads on this engine.
    pub fn counter(&self) -> &OpCounter {
        &self.counter
    }

    /// Names of all fragments, in write order (served from the catalog).
    pub fn fragments(&self) -> Result<Vec<String>> {
        Ok(self.catalog.names())
    }

    /// Total bytes stored across all fragments (Fig. 4's metric), served
    /// from the catalog without touching the device.
    pub fn total_stored_bytes(&self) -> Result<u64> {
        Ok(self.catalog.total_bytes())
    }

    /// Sizes of all live fragments, served from the catalog.
    pub fn fragment_sizes(&self) -> Vec<u64> {
        self.catalog.snapshot().iter().map(|e| e.size).collect()
    }

    /// Summed sizes of the live consolidation runs, served from the
    /// catalog — the input to the scheduler's size-tiered trigger. The
    /// parts of one pass are one run, so a consolidated store sits alone
    /// in its tier however many parts it was cut into.
    pub fn run_sizes(&self) -> Vec<u64> {
        (self.catalog.runs().iter())
            .map(|run| run.iter().map(|e| e.size).sum())
            .collect()
    }

    /// Reject a typed call whose element size disagrees with the record
    /// size this store holds — type confusion (`f32` against an `f64`
    /// store) fails with a typed error in every build, not just under
    /// debug assertions.
    pub(super) fn check_elem_size<V: Element>(&self) -> Result<()> {
        if V::SIZE != self.elem_size as usize {
            return Err(StorageError::ElementSizeMismatch {
                expected: self.elem_size as usize,
                found: V::SIZE,
            });
        }
        Ok(())
    }

    /// Reject a batch whose coordinates fall outside the tensor or whose
    /// payload is not exactly one `elem_size`-byte record per point —
    /// the check WRITE and ingest share.
    pub(super) fn validate_batch(&self, coords: &CoordBuffer, values: &[u8]) -> Result<()> {
        coords.check_against(&self.shape)?;
        if values.len() != coords.len() * self.elem_size as usize {
            return Err(StorageError::Mismatch {
                reason: format!(
                    "{} value bytes for {} points of {} bytes each",
                    values.len(),
                    coords.len(),
                    self.elem_size
                ),
            });
        }
        Ok(())
    }

    /// Run one fragment-fetch unit under the read-side
    /// [`RetryPolicy`] (`config.retry`), see [`retry`].
    pub(super) fn retry_read<T>(&self, name: &str, op: impl FnMut() -> Result<T>) -> Result<T> {
        retry(&self.config.retry, name, op)
    }

    /// Run a mutating backend call under the write-side [`RetryPolicy`]
    /// (`config.write_retry`), see [`retry`].
    pub(super) fn retry_write<T>(&self, name: &str, op: impl FnMut() -> Result<T>) -> Result<T> {
        retry(&self.config.write_retry, name, op)
    }

    /// The engine's one executor (DESIGN.md §12): run `work` over `items`
    /// on `workers` threads — the calling thread and `workers − 1` scoped
    /// ones, all draining one queue — and return each item's result in
    /// item order. Errors surface deterministically: the first failed
    /// item in order wins regardless of thread timing. A read runs its
    /// planned fragments through it; a consolidation its sources, its
    /// address ranges and its output parts.
    ///
    /// `work` charges the [`OpCounter`] it is handed: the engine's own on
    /// the calling thread, a private one on each spawned worker, folded
    /// into the engine's as the worker ends — so no compare is bumped
    /// across cores and the totals do not depend on the width. Spawned
    /// workers inherit the caller's span context: their spans carry its
    /// trace id, and whatever they charge outside a span of their own is
    /// merged into the caller's innermost frame after the join. With the
    /// plane off there is no context and no extra work.
    pub(super) fn fan_out<I, R>(
        &self,
        items: I,
        workers: usize,
        work: impl Fn(I::Item, &OpCounter) -> Result<R> + Sync,
    ) -> Result<Vec<R>>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        R: Send,
    {
        let items = items.into_iter();
        let n = items.len();
        let workers = workers.min(n).max(1);
        if workers == 1 {
            return items.map(|item| work(item, &self.counter)).collect();
        }
        // The queue hands each item to exactly one thread, which files
        // the result under the item's position; the scope joins them all.
        let queue = parking_lot::Mutex::new(items.enumerate());
        let done = parking_lot::Mutex::new(Vec::with_capacity(n));
        let drain_queue = |counter: &OpCounter| loop {
            let next = queue.lock().next();
            let Some((i, item)) = next else { break };
            let result = work(item, counter);
            done.lock().push((i, result));
        };
        let context = SpanContext::current();
        let worker_io = parking_lot::Mutex::new(IoStats::default());
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(|| {
                    let counter = OpCounter::new();
                    match context {
                        Some(context) => {
                            let ((), io) = context.run(|| drain_queue(&counter));
                            worker_io.lock().merge(&io);
                        }
                        None => drain_queue(&counter),
                    }
                    self.counter.absorb(counter.snapshot());
                });
            }
            // The caller is a worker too, charging its own open frames.
            drain_queue(&self.counter);
        });
        if context.is_some() {
            charge(|io| io.merge(&worker_io.into_inner()));
        }
        let mut done = done.into_inner();
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    }

    /// Every scanned fragment must store the same tensor: same shape
    /// (which implies same dimensionality) as this engine.
    pub(super) fn check_entry_shape(&self, entry: &CatalogEntry) -> Result<()> {
        if entry.meta.shape != self.shape {
            return Err(StorageError::Mismatch {
                reason: format!(
                    "fragment {} has shape {}, engine has {}",
                    entry.name, entry.meta.shape, self.shape
                ),
            });
        }
        Ok(())
    }
}

/// Run `op` under `policy`: transient failures (flaky I/O, checksum
/// mismatches — a re-fetch gets fresh bytes) are retried with bounded
/// exponential backoff and deterministic jitter seeded by the blob name,
/// charging one `retries` tick per re-attempt. On exhaustion a checksum
/// mismatch surfaces as itself (the caller cares *what* is damaged),
/// while a transient I/O error is wrapped in
/// [`StorageError::RetriesExhausted`] with the final error as its
/// source. Permanent errors (NotFound, corruption, no space, …) return
/// immediately, so vanished-fragment detection and fail-fast semantics
/// are unchanged.
fn retry<T>(policy: &RetryPolicy, name: &str, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let attempts = policy.attempts();
    let seed = fnv1a(name.as_bytes());
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt + 1 < attempts && e.is_transient() => {
                charge(|io| io.retries += 1);
                let pause = policy.backoff(attempt, seed);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                attempt += 1;
            }
            Err(e @ StorageError::ChecksumMismatch { .. }) => return Err(e),
            Err(e) if attempt > 0 && e.is_transient() => {
                return Err(StorageError::RetriesExhausted {
                    attempts: attempt + 1,
                    source: Box::new(e),
                })
            }
            Err(e) => return Err(e),
        }
    }
}

/// Delete a blob, treating "already gone" as done.
fn delete_if_present<B: StorageBackend>(backend: &B, name: &str) -> Result<()> {
    match backend.delete(name) {
        Err(e) if !e.is_not_found() => Err(e),
        _ => Ok(()),
    }
}

/// FNV-1a over the fragment name: a stable per-fragment jitter seed, so
/// backoff schedules decorrelate across fragments yet replay identically
/// for the same name (deterministic tests, reproducible chaos runs).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod test_support {
    use super::*;
    use crate::backend::MemBackend;

    pub fn engine(kind: FormatKind) -> StorageEngine<MemBackend> {
        engine_with(kind, EngineConfig::default())
    }

    pub fn engine_with(kind: FormatKind, config: EngineConfig) -> StorageEngine<MemBackend> {
        StorageEngine::open_with(
            MemBackend::new(),
            kind,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            config,
        )
        .unwrap()
    }

    pub fn coords(pts: &[[u64; 2]]) -> CoordBuffer {
        CoordBuffer::from_points(2, pts).unwrap()
    }

    pub fn observed_engine() -> StorageEngine<MemBackend> {
        StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Coo,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default()
                .with_observability(crate::config::ObservabilityConfig::default()),
        )
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{coords, engine, observed_engine};
    use super::*;
    use crate::backend::MemBackend;
    use std::time::Duration;

    #[test]
    fn write_then_read_roundtrip_every_format() {
        for kind in FormatKind::ALL {
            let e = engine(kind);
            let c = coords(&[[1, 2], [5, 5], [15, 0]]);
            let report = e.write_points::<f64>(&c, &[1.0, 2.0, 3.0]).unwrap();
            assert_eq!(report.n_points, 3);
            assert!(report.total_bytes > 0);
            let q = coords(&[[5, 5], [0, 0], [1, 2]]);
            let vals = e.read_values::<f64>(&q).unwrap();
            assert_eq!(vals, vec![Some(2.0), None, Some(1.0)], "{kind}");
        }
    }

    #[test]
    fn typed_calls_reject_mismatched_element_sizes() {
        let e = engine(FormatKind::Coo); // stores 8-byte records
        let c = coords(&[[1, 1]]);
        // Write path: f32 against an f64-sized store.
        let err = e.write_points::<f32>(&c, &[1.0]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ElementSizeMismatch {
                expected: 8,
                found: 4
            }
        ));
        // Read path: same confusion, same typed error.
        e.write_points::<f64>(&c, &[1.0]).unwrap();
        let err = e.read_values::<f32>(&c).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ElementSizeMismatch {
                expected: 8,
                found: 4
            }
        ));
        // Ingest path too.
        let err = e.ingest_points::<f32>(&c, &[1.0]).unwrap_err();
        assert!(matches!(err, StorageError::ElementSizeMismatch { .. }));
        // Matching sizes still work.
        assert_eq!(e.read_values::<f64>(&c).unwrap(), vec![Some(1.0)]);
    }

    #[test]
    fn transient_read_faults_are_retried_to_success() {
        use crate::config::RetryPolicy;
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default()
                .with_observability(crate::config::ObservabilityConfig::default())
                .with_retry(RetryPolicy {
                    max_attempts: 4,
                    base_backoff: Duration::ZERO,
                }),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.backend().fail_next_reads(2);
        let vals = e.read_values::<f64>(&coords(&[[1, 1]])).unwrap();
        assert_eq!(vals, vec![Some(1.0)]);
        assert_eq!(e.backend().read_faults_remaining(), 0);
        // Three attempts total: the two re-attempts are the retries.
        let report = e.telemetry_report().unwrap();
        assert_eq!(report.totals.retries, 2);
        assert_eq!(report.totals.fragments_quarantined, 0);
    }

    #[test]
    fn exhausted_retries_surface_with_attempt_count() {
        use crate::config::RetryPolicy;
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
            }),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.backend().fail_next_reads(10);
        let err = e.read(&coords(&[[1, 1]])).unwrap_err();
        assert!(
            matches!(err, StorageError::RetriesExhausted { attempts: 2, .. }),
            "{err}"
        );
        // The typed payload survives the wrapping.
        assert!(crate::faults::injected_fault(&err).is_some());
    }

    #[test]
    fn plane_is_absent_by_default_and_present_when_configured() {
        let plain = engine(FormatKind::Coo);
        assert!(plain.observability().is_none());
        plain.observe(); // must be a strict no-op
        let e = observed_engine();
        let plane = e.observability().expect("configured plane is on");
        // Span traffic feeds live counters without any explicit call.
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let snap = plane.registry().snapshot();
        assert!(snap.sample("artsparse_wal_bytes_total").unwrap().value > 0.0);
    }

    #[test]
    fn observe_samples_live_gauges() {
        let e = observed_engine();
        e.write_points::<f64>(&coords(&[[1, 1], [2, 2]]), &[1.0, 2.0])
            .unwrap();
        e.ingest_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
        e.observe();
        let snap = e.observability().unwrap().registry().snapshot();
        let value = |name: &str| snap.sample(name).unwrap().value;
        assert_eq!(value("artsparse_fragments"), 1.0);
        assert_eq!(value("artsparse_write_buffer_points"), 1.0);
        assert_eq!(value("artsparse_write_buffer_batches"), 1.0);
        assert_eq!(value("artsparse_wal_backlog_blobs"), 1.0);
        assert_eq!(value("artsparse_quarantined_fragments"), 0.0);
        assert_eq!(value("artsparse_scheduler_last_run_age_seconds"), -1.0);
        let tiers = snap.sample("artsparse_fragment_bytes").unwrap();
        assert_eq!(tiers.histogram.as_ref().unwrap().count(), 1);
        // Flush and re-observe: the gauges move.
        e.flush().unwrap();
        e.observe();
        let snap = e.observability().unwrap().registry().snapshot();
        let value = |name: &str| snap.sample(name).unwrap().value;
        assert_eq!(value("artsparse_write_buffer_points"), 0.0);
        assert_eq!(value("artsparse_wal_backlog_blobs"), 0.0);
        assert_eq!(value("artsparse_fragments"), 2.0);
    }

    #[test]
    fn read_amplification_gauge_derives_from_reads() {
        let e = observed_engine();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let plane = Arc::clone(e.observability().unwrap());
        assert_eq!(plane.read_amplification(), None, "no read returned yet");
        e.read_values::<f64>(&coords(&[[1, 1]])).unwrap();
        // A cold point read fetches index + value sections to return one
        // 8-byte record: amplification is well above 1.
        let ratio = plane.read_amplification().unwrap();
        assert!(ratio > 1.0, "got {ratio}");
        e.observe();
        let snap = plane.registry().snapshot();
        assert_eq!(
            snap.sample("artsparse_read_amplification").unwrap().value,
            ratio
        );
    }

    #[test]
    fn engine_op_span_trees_share_one_trace_id() {
        let e = observed_engine();
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let events = e.telemetry_report().unwrap().events;
        // ingest → WAL append: one tree, one trace.
        let ingest: Vec<_> = events
            .iter()
            .filter(|ev| matches!(ev.kind, SpanKind::Ingest | SpanKind::IngestWal))
            .collect();
        assert_eq!(ingest.len(), 2);
        assert!(ingest.iter().all(|ev| ev.trace_id == ingest[0].trace_id));
        assert_ne!(ingest[0].trace_id, 0);

        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        e.consolidate().unwrap();
        let events = e.telemetry_report().unwrap().events;
        // The consolidate tree (snapshot/merge/write/commit/sweep all
        // nested under engine.consolidate) shares the root's trace id,
        // and it differs from the ingest trace.
        let root = events
            .iter()
            .find(|ev| ev.kind == SpanKind::Consolidate)
            .expect("consolidate root span");
        assert_ne!(root.trace_id, ingest[0].trace_id);
        for kind in [
            SpanKind::ConsolidateSnapshot,
            SpanKind::ConsolidateMerge,
            SpanKind::ConsolidateSweep,
        ] {
            let child = events.iter().find(|ev| ev.kind == kind).unwrap();
            assert_eq!(child.trace_id, root.trace_id, "{kind:?}");
        }
    }

    #[test]
    fn read_rejects_fragments_with_a_different_shape() {
        // Same dimensionality, different extents: the old ndim-only check
        // would silently accept this store.
        let backend = MemBackend::new();
        let e1 = StorageEngine::open(
            backend,
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
        )
        .unwrap();
        e1.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let e2 = StorageEngine::open(
            e1.into_backend(),
            FormatKind::Linear,
            Shape::new(vec![16, 32]).unwrap(),
            8,
        )
        .unwrap();
        let err = e2.read(&coords(&[[1, 1]])).unwrap_err();
        assert!(matches!(err, StorageError::Mismatch { .. }), "{err}");
    }
}
