//! Write-path health, admission control, and the engine's reporting
//! surface (DESIGN.md §16, and the gauges of §15).
//!
//! [`Health`] owns every counter behind the `Healthy → Degraded →
//! ReadOnly` ladder, the backpressure hysteresis flags, and the
//! background scheduler's record. The rest of the engine reports outcomes
//! (`note_write`, `admit_*`) and asks questions (`check_writable`,
//! `state`); it never touches the counters themselves. The scheduler
//! writes its record through `note_scheduler`.
//! [`StorageEngine::stats`] is the one snapshot of engine state: the
//! catalog census, the write buffer, the WAL ledger, the cache, the
//! health ladder and the scheduler's record, read once each.

use super::ingest::WalLedger;
use super::names::probe_name;
use super::StorageEngine;
use crate::backend::StorageBackend;
use crate::buffer::{BufferStats, WriteBuffer};
use crate::codec::Codec;
use crate::config::{HealthConfig, IngestConfig, DEGRADE_AFTER};
use crate::error::{Result, StorageError};
use artsparse_metrics::{current_trace_id, now_ns, ObservabilityPlane, Severity};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Write-path health of the engine, driven by consecutive write
/// failures (see [`HealthConfig`](crate::config::HealthConfig)).
///
/// The ladder is `Healthy → Degraded → ReadOnly`; any successful write
/// (including a recovery probe) climbs straight back to `Healthy`. In
/// `ReadOnly` the engine refuses new writes with a typed
/// [`ReadOnly`](crate::error::StorageError::ReadOnly) error while reads
/// and every previously acked batch keep working; recovery probes test
/// the device so the engine heals automatically once the fault clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthState {
    /// Writes are succeeding (or none have been attempted).
    #[default]
    Healthy,
    /// Recent writes failed past their retry budget; writes are still
    /// admitted but the engine is one step from read-only.
    Degraded,
    /// Too many consecutive write failures: new writes are refused,
    /// reads and acked batches are preserved, probes drive recovery.
    ReadOnly,
}

impl HealthState {
    /// Stable lowercase name (used in journal events and dashboards).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::ReadOnly => "read-only",
        }
    }

    /// Numeric encoding of the state for the `artsparse_health_state`
    /// gauge (0 healthy, 1 degraded, 2 read-only).
    pub fn gauge_value(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::ReadOnly => 2,
        }
    }

    fn from_u32(v: u32) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::ReadOnly,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the background scheduler has done to this engine, kept once,
/// here: [`IngestScheduler`](crate::scheduler::IngestScheduler) notes
/// each pass, staleness flush, consolidation and failure, and
/// [`StorageEngine::stats`] reads them back.
#[derive(Default, Clone)]
pub(crate) struct SchedulerRecord {
    pub(crate) runs: u64,
    pub(crate) flushes: u64,
    pub(crate) consolidations: u64,
    pub(crate) errors: u64,
    /// When the most recent pass began.
    pub(crate) last_run: Option<Instant>,
    /// Most recent failure: error chain text + unix milliseconds.
    pub(crate) last_error: Option<(String, u64)>,
}

/// The write path's live health: the state machine's current rung, the
/// consecutive-failure count driving it, admission hysteresis flags and
/// shed count, and the scheduler's record — so swallowed scheduler
/// errors surface through [`StorageEngine::stats`] and the live registry
/// instead of vanishing into a bare counter.
#[derive(Default)]
pub(super) struct Health {
    /// Encoded [`HealthState`] (0 healthy, 1 degraded, 2 read-only).
    state: AtomicU32,
    /// Write failures since the last successful write.
    consecutive_failures: AtomicU32,
    /// Writes refused with `Backpressure` or `ReadOnly`.
    rejections: AtomicU64,
    /// Admission hysteresis: once the buffer cap trips, stays set until
    /// occupancy drains below the low watermark.
    shed_buffer: AtomicBool,
    /// Same, for the WAL backlog cap.
    shed_wal: AtomicBool,
    /// Telemetry-clock nanoseconds of the last recovery probe (0:
    /// never) — rate limits probing to `probe_interval_ms`.
    last_probe_ns: AtomicU64,
    scheduler: parking_lot::Mutex<SchedulerRecord>,
    /// Where transitions are journaled (`None`: the plane is off).
    plane: Option<Arc<ObservabilityPlane>>,
}

impl Health {
    pub(super) fn new(plane: Option<Arc<ObservabilityPlane>>) -> Self {
        Health {
            plane,
            ..Default::default()
        }
    }

    fn journal(&self, severity: Severity, code: &'static str, message: String) {
        if let Some(plane) = &self.plane {
            plane.event(severity, code, message, current_trace_id());
        }
    }

    pub(super) fn state(&self) -> HealthState {
        HealthState::from_u32(self.state.load(Ordering::SeqCst))
    }

    /// Record the outcome of one backend write that already ran through
    /// its retry budget. A success resets the consecutive-failure count
    /// and climbs an engine that had walked down the ladder straight
    /// back to `Healthy`; a failure walks the ladder when the count
    /// crosses a threshold. Every transition is journaled. Overload
    /// rejections are not failures and never come through here.
    pub(super) fn note_write<T>(&self, thresholds: &HealthConfig, outcome: &Result<T>) {
        let error = match outcome {
            Ok(_) => {
                self.consecutive_failures.store(0, Ordering::SeqCst);
                let prev = self.state.swap(0, Ordering::SeqCst);
                if prev != 0 {
                    self.journal(
                        Severity::Info,
                        "health_transition",
                        format!(
                            "write path recovered: {} -> healthy",
                            HealthState::from_u32(prev)
                        ),
                    );
                }
                return;
            }
            Err(error) => error,
        };
        let failures = self
            .consecutive_failures
            .fetch_add(1, Ordering::SeqCst)
            .saturating_add(1);
        let target = if failures >= thresholds.read_only_after.max(1) {
            HealthState::ReadOnly
        } else if failures >= DEGRADE_AFTER {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        let prev = self.state();
        if target > prev {
            self.state
                .store(target.gauge_value() as u32, Ordering::SeqCst);
            let severity = match target {
                HealthState::ReadOnly => Severity::Error,
                _ => Severity::Warn,
            };
            self.journal(
                severity,
                "health_transition",
                format!(
                    "write path {prev} -> {target} after {failures} consecutive \
                     write failure(s): {}",
                    error.chain_string()
                ),
            );
        }
    }

    /// Reject callers outright while the engine is `ReadOnly`.
    pub(super) fn check_writable(&self) -> Result<()> {
        if self.state() == HealthState::ReadOnly {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::ReadOnly {
                consecutive_failures: self.consecutive_failures.load(Ordering::SeqCst),
            });
        }
        Ok(())
    }

    /// One admission decision against a byte cap, under shed hysteresis:
    /// once the cap trips (`fits` says the newcomer does not), admission
    /// stays closed until `occupancy` drains to the low watermark, so a
    /// saturated store sheds load instead of flapping at the cap. The
    /// first rejection of an episode is journaled; every one is counted.
    fn admit(
        &self,
        shed: &AtomicBool,
        (resource, label): (&'static str, &str),
        caps: &IngestConfig,
        (occupancy, cap): (u64, u64),
        fits: impl FnOnce() -> bool,
    ) -> Result<()> {
        let low = cap.saturating_mul(caps.backpressure_resume_pct.min(100) as u64) / 100;
        let tripped = shed.load(Ordering::SeqCst);
        if tripped && occupancy <= low {
            shed.store(false, Ordering::SeqCst);
        }
        if (tripped && occupancy > low) || !fits() {
            if !shed.swap(true, Ordering::SeqCst) {
                self.journal(
                    Severity::Warn,
                    "backpressure",
                    format!(
                        "{label} holds {occupancy} of {cap} bytes: shedding until it \
                         drains below {low}"
                    ),
                );
            }
            self.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Backpressure {
                resource,
                occupancy,
                limit: cap,
            });
        }
        Ok(())
    }

    /// Admit `incoming` value bytes against the buffer byte cap,
    /// reserving them in the buffer on success (consumed by the append,
    /// cancelled if the WAL ack fails).
    pub(super) fn admit_buffer(
        &self,
        caps: &IngestConfig,
        buffer: &WriteBuffer,
        incoming: usize,
    ) -> Result<()> {
        let cap = caps.max_buffered_bytes;
        if cap == 0 {
            buffer.try_reserve(incoming, 0);
            return Ok(());
        }
        let held = (buffer.stats().value_bytes as u64, cap as u64);
        let what = ("buffer", "ingest buffer");
        self.admit(&self.shed_buffer, what, caps, held, || {
            buffer.try_reserve(incoming, cap)
        })
    }

    /// Admit (and atomically charge) one WAL blob of `len` bytes against
    /// the WAL backlog cap. The ledger forgets the charge when the put
    /// fails, or once the blob is deleted.
    pub(super) fn admit_wal(
        &self,
        caps: &IngestConfig,
        wal: &parking_lot::Mutex<WalLedger>,
        name: &str,
        len: u64,
    ) -> Result<()> {
        let cap = caps.max_wal_backlog_bytes;
        let mut wal = wal.lock();
        if cap > 0 {
            let held = (wal.bytes, cap);
            let what = ("wal", "WAL backlog");
            self.admit(&self.shed_wal, what, caps, held, || {
                held.0.saturating_add(len) <= cap
            })?;
        }
        wal.charge(name, len);
        Ok(())
    }
}

/// One snapshot of an engine's state: the fragment census (served from
/// the catalog, no device traffic), the commit-protocol artifacts the
/// last recovery pass saw, and the live write buffer, WAL ledger, cache,
/// health ladder and scheduler record. Every live gauge of
/// [`StorageEngine::observe`] and the server's `STATS` line is read from
/// it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreStats {
    /// Number of fragments on the device, quarantined ones included.
    pub fragments: usize,
    /// Fragments none of whose pages is quarantined.
    pub live_fragments: usize,
    /// Total stored points (before cross-fragment dedup).
    pub total_points: u64,
    /// Total bytes on the device.
    pub total_bytes: u64,
    /// Fragments per organization name (all pages of a fragment share
    /// one).
    pub by_format: std::collections::BTreeMap<String, usize>,
    /// Fragments with a compression codec on either payload.
    pub compressed_fragments: usize,
    /// Sum of stored (possibly compressed) index bytes.
    pub index_bytes: u64,
    /// Sum of uncompressed index bytes.
    pub index_raw_bytes: u64,
    /// Epoch claim markers alive at the last recovery pass (including
    /// this engine's own claim).
    pub epoch_markers: u64,
    /// Consolidation tombstones the last recovery replayed (their
    /// fragment had committed).
    pub tombstones_replayed: u64,
    /// Tombstones the last recovery discarded (commit never happened).
    pub tombstones_discarded: u64,
    /// Orphaned `.tmp` staging blobs the last recovery swept.
    pub orphans_swept: u64,
    /// Fragment pages currently quarantined (their blobs are counted in
    /// `fragments` and `total_bytes` — retained for forensics — but the
    /// pages are excluded from reads and the blobs from consolidation).
    pub quarantined_fragments: usize,
    /// Occupancy of the streaming-ingest write buffer.
    pub buffer: BufferStats,
    /// Live WAL blobs: buffered batches' and retired ones'.
    pub wal_blobs: usize,
    /// Of `wal_blobs`, those whose delete failed and awaits a retry.
    pub wal_blobs_retiring: usize,
    /// Bytes of `wal_blobs`, counted against
    /// [`max_wal_backlog_bytes`](crate::config::IngestConfig::max_wal_backlog_bytes).
    pub wal_backlog_bytes: u64,
    /// Decoded payload bytes resident in the fragment cache.
    pub cache_bytes: usize,
    /// Decoded fragments resident in the cache.
    pub cache_fragments: usize,
    /// Configured fragment-cache capacity (0: disabled).
    pub cache_capacity_bytes: usize,
    /// Background scheduler passes executed against this engine.
    pub scheduler_runs: u64,
    /// Staleness flushes the scheduler issued.
    pub scheduler_flushes: u64,
    /// Consolidation passes the scheduler triggered.
    pub scheduler_consolidations: u64,
    /// Scheduler passes that failed (kept out of the ingest path; each
    /// failure is retried on the next tick).
    pub scheduler_errors: u64,
    /// Time since the last scheduler pass began (`None`: never ran).
    pub scheduler_last_run_age: Option<Duration>,
    /// Error chain of the most recent scheduler failure, if any.
    pub scheduler_last_error: Option<String>,
    /// Unix milliseconds of that failure.
    pub scheduler_last_error_at_ms: Option<u64>,
    /// Write-path health state (`Healthy`, `Degraded`, or `ReadOnly`).
    pub health: HealthState,
    /// Consecutive write failures driving the health state machine.
    pub consecutive_write_failures: u32,
    /// Writes refused so far with a typed `Backpressure` or `ReadOnly`
    /// rejection (load the engine shed by design, not failures).
    pub backpressure_rejections: u64,
}

impl<B: StorageBackend> StorageEngine<B> {
    /// The write path's current [`HealthState`].
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Test the device with one probe write when the engine is not
    /// `Healthy`, rate-limited to
    /// [`probe_interval_ms`](crate::config::HealthConfig::probe_interval_ms).
    /// A probe that lands resets the engine to `Healthy` (recovery is
    /// automatic); one that fails walks the ladder further down. The
    /// background scheduler calls this every tick; engines without a
    /// scheduler can call it directly. Returns the state after the
    /// probe.
    pub fn probe_health(&self) -> HealthState {
        let state = self.health();
        if state == HealthState::Healthy {
            return state;
        }
        let thresholds = &self.config.health;
        let interval_ns = thresholds.probe_interval_ms.saturating_mul(1_000_000);
        let now = now_ns();
        let last = self.health.last_probe_ns.load(Ordering::SeqCst);
        if last != 0 && now.saturating_sub(last) < interval_ns {
            return state;
        }
        self.health.last_probe_ns.store(now, Ordering::SeqCst);
        let name = probe_name(self.epoch);
        let outcome = self.backend.put_atomic(&name, b"artsparse write probe");
        if outcome.is_ok() {
            let _ = self.backend.delete(&name);
        }
        self.health.note_write(thresholds, &outcome);
        self.health()
    }

    /// Update the scheduler's record (called by
    /// [`IngestScheduler`](crate::scheduler::IngestScheduler) for each
    /// pass, staleness flush and consolidation it runs).
    pub(crate) fn note_scheduler(&self, note: impl FnOnce(&mut SchedulerRecord)) {
        note(&mut self.health.scheduler.lock());
    }

    /// Record a failed scheduler pass: count it, retain the error text
    /// and wall-clock time for [`StorageEngine::stats`], and journal a
    /// `scheduler_error` event when the plane is on.
    pub(crate) fn note_scheduler_error(&self, error: &StorageError) {
        let message = error.chain_string();
        let at_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        {
            let mut record = self.health.scheduler.lock();
            record.errors += 1;
            record.last_error = Some((message.clone(), at_ms));
        }
        self.health
            .journal(Severity::Error, "scheduler_error", message);
    }

    /// One snapshot of the engine's state, each source read once: the
    /// store census from the catalog, the commit-protocol artifacts the
    /// last recovery pass (open or refresh) observed, and the live write
    /// buffer, WAL ledger, cache, health ladder and scheduler record.
    /// Quarantined fragments are included in the totals — they still
    /// occupy the device — and counted separately.
    pub fn stats(&self) -> Result<StoreStats> {
        let recovery = *self.recovery.lock();
        let (wal_blobs, wal_backlog_bytes, wal_blobs_retiring) = self.wal.lock().occupancy();
        let scheduler = self.health.scheduler.lock().clone();
        let (scheduler_last_error, scheduler_last_error_at_ms) = scheduler.last_error.unzip();
        let mut stats = StoreStats {
            epoch_markers: recovery.epoch_markers,
            tombstones_replayed: recovery.tombstones_replayed,
            tombstones_discarded: recovery.tombstones_discarded,
            orphans_swept: recovery.orphans_swept,
            buffer: self.buffer.stats(),
            wal_blobs,
            wal_blobs_retiring,
            wal_backlog_bytes,
            cache_bytes: self.cache.held_bytes(),
            cache_fragments: self.cache.len(),
            cache_capacity_bytes: self.cache.capacity_bytes(),
            health: self.health(),
            consecutive_write_failures: self.health.consecutive_failures.load(Ordering::SeqCst),
            backpressure_rejections: self.health.rejections.load(Ordering::Relaxed),
            scheduler_runs: scheduler.runs,
            scheduler_flushes: scheduler.flushes,
            scheduler_consolidations: scheduler.consolidations,
            scheduler_errors: scheduler.errors,
            scheduler_last_run_age: scheduler.last_run.map(|at| at.elapsed()),
            scheduler_last_error,
            scheduler_last_error_at_ms,
            ..StoreStats::default()
        };
        stats.quarantined_fragments = self.catalog.quarantined().len();
        stats.live_fragments = self.catalog.snapshot().len();
        for entry in self.catalog.snapshot_all() {
            let meta = &entry.pages[0].meta;
            stats.fragments += 1;
            stats.total_bytes += entry.size;
            *stats
                .by_format
                .entry(meta.kind.name().to_string())
                .or_default() += 1;
            if meta.index_codec != Codec::None || meta.value_codec != Codec::None {
                stats.compressed_fragments += 1;
            }
            for page in &entry.pages {
                stats.total_points += page.meta.n;
                stats.index_bytes += page.meta.index_len;
                stats.index_raw_bytes += page.meta.index_raw_len;
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::config::EngineConfig;
    use crate::engine::test_support::{coords, engine_with, observed_engine};
    use artsparse_core::FormatKind;
    use artsparse_tensor::Shape;

    #[test]
    fn write_failures_walk_the_health_ladder_and_probes_recover_it() {
        use crate::config::{HealthConfig, RetryPolicy};
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default()
                .with_retry(RetryPolicy::none())
                .with_health(HealthConfig {
                    read_only_after: 3,
                    probe_interval_ms: 0,
                })
                .with_observability(crate::config::ObservabilityConfig::default()),
        )
        .unwrap();
        // One acked batch before the device breaks.
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();

        e.backend().fail_next_writes(u64::MAX);
        // A first failed WAL append stays Healthy; the second drops to
        // Degraded (DEGRADE_AFTER). The batches were never acked, so
        // they must not be visible.
        assert!(e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).is_err());
        assert_eq!(e.health(), HealthState::Healthy);
        assert!(e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).is_err());
        assert_eq!(e.health(), HealthState::Degraded);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[2, 2]])).unwrap(),
            vec![None]
        );
        // Third: Degraded -> ReadOnly.
        assert!(e.ingest_points::<f64>(&coords(&[[3, 3]]), &[3.0]).is_err());
        assert_eq!(e.health(), HealthState::ReadOnly);

        // ReadOnly refuses new writes with a typed, permanent rejection
        // without touching the device...
        e.backend().disarm();
        let err = e
            .ingest_points::<f64>(&coords(&[[4, 4]]), &[4.0])
            .unwrap_err();
        assert!(matches!(err, StorageError::ReadOnly { .. }), "{err}");
        assert!(err.is_rejection() && !err.is_transient());
        let err = e
            .write_points::<f64>(&coords(&[[4, 4]]), &[4.0])
            .unwrap_err();
        assert!(matches!(err, StorageError::ReadOnly { .. }), "{err}");
        // ...but keeps serving reads, including the acked batch.
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1]])).unwrap(),
            vec![Some(1.0)]
        );

        // The device healed (disarm above): one probe recovers the
        // engine, and writes flow again.
        assert_eq!(e.probe_health(), HealthState::Healthy);
        e.ingest_points::<f64>(&coords(&[[5, 5]]), &[5.0]).unwrap();
        let s = e.stats().unwrap();
        assert_eq!(s.health, HealthState::Healthy);
        assert_eq!(s.consecutive_write_failures, 0);
        assert!(s.backpressure_rejections >= 2);

        // Every transition was journaled.
        let events = e.observability().unwrap().journal().drain_new();
        let transitions: Vec<&str> = events
            .iter()
            .filter(|ev| ev.code == "health_transition")
            .map(|ev| ev.message.as_str())
            .collect();
        assert!(
            transitions.iter().any(|m| m.contains("degraded")),
            "{transitions:?}"
        );
        assert!(
            transitions.iter().any(|m| m.contains("read-only")),
            "{transitions:?}"
        );
        assert!(
            transitions.iter().any(|m| m.contains("recovered")),
            "{transitions:?}"
        );
    }

    #[test]
    fn out_of_space_is_permanent_and_parks_the_engine_read_only() {
        use crate::config::HealthConfig;
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            // The default retry budget must NOT spin on ENOSPC: the
            // fault is permanent, so each ingest fails in one attempt.
            EngineConfig::default().with_health(HealthConfig {
                read_only_after: 2,
                probe_interval_ms: 0,
            }),
        )
        .unwrap();
        e.backend().set_out_of_space(true);
        assert!(e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).is_err());
        assert!(e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).is_err());
        assert_eq!(e.health(), HealthState::ReadOnly);
        // Probes keep failing while the device is full...
        assert_eq!(e.probe_health(), HealthState::ReadOnly);
        // ...and recover the engine once space frees up.
        e.backend().set_out_of_space(false);
        assert_eq!(e.probe_health(), HealthState::Healthy);
        e.ingest_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
    }

    #[test]
    fn buffer_cap_backpressure_trips_and_resumes_after_a_flush() {
        use crate::config::IngestConfig;
        let e = engine_with(
            FormatKind::Linear,
            EngineConfig::default().with_ingest(IngestConfig {
                flush_points: usize::MAX,
                max_buffered_bytes: 64, // eight f64 records
                backpressure_resume_pct: 50,
                ..Default::default()
            }),
        );
        let pts: Vec<[u64; 2]> = (0..8).map(|i| [i, i]).collect();
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        e.ingest_points::<f64>(&coords(&pts), &vals).unwrap();
        // The buffer is exactly at the cap: one more byte is refused
        // with a typed Backpressure naming the resource and occupancy.
        let err = e
            .ingest_points::<f64>(&coords(&[[9, 9]]), &[9.0])
            .unwrap_err();
        match &err {
            StorageError::Backpressure {
                resource,
                occupancy,
                limit,
            } => {
                assert_eq!(*resource, "buffer");
                assert_eq!((*occupancy, *limit), (64, 64));
            }
            other => panic!("expected backpressure, got {other}"),
        }
        assert!(err.is_rejection() && !err.is_transient());
        assert!(e.stats().unwrap().backpressure_rejections >= 1);
        // Nothing from the rejected batch leaked in.
        assert_eq!(e.buffer_stats().value_bytes, 64);
        // Draining the buffer reopens admission (occupancy 0 is under
        // the 50% resume watermark).
        e.flush().unwrap();
        e.ingest_points::<f64>(&coords(&[[9, 9]]), &[9.0]).unwrap();
        assert_eq!(
            e.read_values::<f64>(&coords(&[[9, 9]])).unwrap(),
            vec![Some(9.0)]
        );
    }

    #[test]
    fn wal_backlog_cap_rejects_until_blobs_retire() {
        use crate::config::IngestConfig;
        // Size one WAL blob exactly, then cap the backlog at 1.5 blobs:
        // the first batch is admitted, the second refused.
        let one_blob = crate::wal::encode_record(2, 8, &[1, 1], &1.0f64.to_le_bytes())
            .unwrap()
            .len() as u64;
        let e = engine_with(
            FormatKind::Linear,
            EngineConfig::default().with_ingest(IngestConfig {
                flush_points: usize::MAX,
                max_wal_backlog_bytes: one_blob + one_blob / 2,
                backpressure_resume_pct: 50,
                ..Default::default()
            }),
        );
        let backlog = |e: &StorageEngine<MemBackend>| e.stats().unwrap().wal_backlog_bytes;
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        assert_eq!(backlog(&e), one_blob);
        let err = e
            .ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0])
            .unwrap_err();
        assert!(
            matches!(
                &err,
                StorageError::Backpressure {
                    resource: "wal",
                    ..
                }
            ),
            "{err}"
        );
        // A group commit retires the blob; the backlog drains to zero
        // and admission reopens.
        e.flush().unwrap();
        assert_eq!(backlog(&e), 0);
        e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        assert_eq!(backlog(&e), one_blob);
        // The rejected batch was never acked and never became visible.
        assert_eq!(
            e.read_values::<f64>(&coords(&[[2, 2]])).unwrap(),
            vec![Some(2.0)]
        );
    }

    #[test]
    fn stats_surface_scheduler_health() {
        let e = observed_engine();
        let s = e.stats().unwrap();
        assert_eq!((s.scheduler_runs, s.scheduler_errors), (0, 0));
        assert!(s.scheduler_last_error.is_none());
        e.note_scheduler(|record| record.runs += 1);
        e.note_scheduler_error(&StorageError::Mismatch {
            reason: "synthetic failure".to_string(),
        });
        let s = e.stats().unwrap();
        assert_eq!((s.scheduler_runs, s.scheduler_errors), (1, 1));
        assert!(s
            .scheduler_last_error
            .unwrap()
            .contains("synthetic failure"));
        assert!(s.scheduler_last_error_at_ms.unwrap() > 0);
        // The failure also reached the journal, trace-correlated.
        let plane = e.observability().unwrap();
        let events = plane.journal().drain_new();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].code, "scheduler_error");
        assert!(events[0].message.contains("synthetic failure"));
    }

    #[test]
    fn stats_summarize_the_store() {
        let backend = MemBackend::new();
        let shape = Shape::new(vec![16, 16]).unwrap();
        let e1 = StorageEngine::open(backend, FormatKind::Coo, shape.clone(), 8).unwrap();
        e1.write_points::<f64>(&coords(&[[1, 1], [2, 2]]), &[1.0, 2.0])
            .unwrap();
        let e2 = StorageEngine::open(e1.into_backend(), FormatKind::Csf, shape, 8)
            .unwrap()
            .with_compression(Codec::DeltaVarint, Codec::None);
        e2.write_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
        let s = e2.stats().unwrap();
        assert_eq!(s.fragments, 2);
        assert_eq!(s.total_points, 3);
        assert_eq!(s.by_format["COO"], 1);
        assert_eq!(s.by_format["CSF"], 1);
        assert_eq!(s.compressed_fragments, 1);
        assert!(s.total_bytes > 0);
        assert!(s.index_bytes <= s.index_raw_bytes + s.index_bytes);
        assert_eq!(s.total_bytes, e2.total_stored_bytes().unwrap());
    }
}
