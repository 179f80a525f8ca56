//! Background consolidation scheduler for streaming ingest.
//!
//! [`IngestScheduler`] owns one background thread that periodically:
//!
//! 1. **flushes stale buffers** — when the oldest buffered ingest batch
//!    has waited past [`IngestConfig::flush_interval_ms`], the buffer is
//!    group-committed even below the size thresholds, bounding how long
//!    an acked point stays WAL-only;
//! 2. **triggers consolidation under a size-tiered policy** — live
//!    fragments are bucketed by the log₂ of their byte size, and when any
//!    tier accumulates [`TIER_RUNS`] of them the store is fragmented
//!    enough to merge. Fresh flushes are all roughly
//!    flush-threshold-sized, so they pile into one tier and trip the
//!    trigger; the consolidated fragment lands in a higher tier and sits
//!    there alone — the fragment count plateaus instead of growing with
//!    ingest time. Passes are rate-limited by
//!    [`SchedulerConfig::min_consolidate_interval_ms`] regardless of how
//!    fragmented the store looks.
//!
//! Every pass additionally retries queued WAL retirements (so orphans
//! from a failed flush-time delete drain even on a quiet engine) and
//! probes an unhealthy write path
//! ([`StorageEngine::probe_health`](crate::engine::StorageEngine::probe_health))
//! so a degraded or read-only engine recovers automatically once the
//! device heals.
//!
//! Every pass runs under an `engine.scheduler.run` telemetry span and
//! charges the `scheduler_runs` counter. The engine keeps the one record
//! of what its scheduler did — passes, staleness flushes, consolidations
//! and failures — and [`StorageEngine::stats`] reads it back.
//!
//! The thread is a [`Periodic`] loop at [`SchedulerConfig::tick_ms`]
//! whose stopping pass is one parting WAL retirement. A stop that had to
//! detach a stuck worker is noted as a scheduler error, and so is an OS
//! that refuses the thread: ingest then still flushes inline at its
//! thresholds.
//!
//! [`IngestConfig::flush_interval_ms`]: crate::config::IngestConfig::flush_interval_ms

use crate::backend::StorageBackend;
use crate::config::SchedulerConfig;
use crate::engine::StorageEngine;
use crate::error::{Result, StorageError};
use crate::periodic::Periodic;
use artsparse_metrics::{charge, Span, SpanKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fragments one log₂-size tier must hold before the scheduler consolidates.
pub const TIER_RUNS: usize = 4;

/// Handle to the background scheduler thread. Dropping it shuts the
/// thread down (see [`IngestScheduler::shutdown`]).
pub struct IngestScheduler {
    worker: Option<Periodic>,
    note_error: Box<dyn Fn(&StorageError) + Send + Sync>,
}

impl IngestScheduler {
    /// Spawn the scheduler over a shared engine.
    ///
    /// The engine must be shared (`Arc`) because the scheduler flushes
    /// and consolidates concurrently with the caller's ingests; both
    /// paths are `&self` and internally synchronized. A thread the OS
    /// refuses is noted as a scheduler error, and the handle holds none.
    pub fn spawn<B>(engine: Arc<StorageEngine<B>>, config: SchedulerConfig) -> IngestScheduler
    where
        B: StorageBackend + Send + Sync + 'static,
    {
        // Weak: the handle must not keep the engine alive (callers
        // reclaim it with Arc::into_inner after shutdown).
        let note_engine = Arc::downgrade(&engine);
        let note_error = Box::new(move |e: &StorageError| {
            if let Some(engine) = note_engine.upgrade() {
                engine.note_scheduler_error(e);
            }
        });
        let min_gap = Duration::from_millis(config.min_consolidate_interval_ms);
        let mut last_consolidate = None;
        let pass_engine = Arc::clone(&engine);
        let pass = move |stopping| {
            if stopping {
                // So an engine shut down right after a failed flush-time
                // delete does not strand its orphans.
                pass_engine.retire_pending_wals();
            } else if let Err(e) = scheduler_pass(&pass_engine, &mut last_consolidate, min_gap) {
                // Out of the ingest path, retried next tick, and surfaced:
                // stats, gauges and a `scheduler_error` journal event.
                pass_engine.note_scheduler_error(&e);
            }
        };
        let tick = Duration::from_millis(config.tick_ms);
        let worker = match Periodic::spawn("artsparse-ingest-scheduler", tick, pass) {
            Ok(worker) => Some(worker),
            Err(e) => {
                engine.note_scheduler_error(&StorageError::Io(e));
                None
            }
        };
        IngestScheduler { worker, note_error }
    }

    /// Stop the scheduler: the in-flight pass completes and the thread is
    /// joined, waiting at most
    /// [`SHUTDOWN_TIMEOUT`](crate::periodic::SHUTDOWN_TIMEOUT); a worker
    /// stuck in a hung backend call is detached and noted as a scheduler
    /// error. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let Some(mut worker) = self.worker.take() else {
            return;
        };
        if let Err(e) = worker.stop() {
            (self.note_error)(&StorageError::Io(e));
        }
    }
}

impl Drop for IngestScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The log₂-size tier a run of `size` bytes belongs to.
fn tier_of(size: u64) -> u32 {
    64 - size.max(1).leading_zeros()
}

/// Whether any size tier holds at least [`TIER_RUNS`] fragments.
fn tier_trigger(sizes: &[u64]) -> bool {
    let mut counts = std::collections::HashMap::new();
    for &size in sizes {
        let n = counts.entry(tier_of(size)).or_insert(0usize);
        *n += 1;
        if *n >= TIER_RUNS {
            return true;
        }
    }
    false
}

/// One scheduler pass: staleness flush, then the size-tiered
/// consolidation check.
fn scheduler_pass<B: StorageBackend + Send + Sync>(
    engine: &StorageEngine<B>,
    last_consolidate: &mut Option<Instant>,
    min_gap: Duration,
) -> Result<()> {
    let _span = Span::enter(engine.observability(), SpanKind::SchedulerRun);
    engine.note_scheduler(|record| {
        record.runs += 1;
        record.last_run = Some(Instant::now());
    });
    charge(|io| io.scheduler_runs += 1);

    // Retry WAL retirements queued by an earlier failed delete — on
    // every tick, not only when a flush happens to run.
    engine.retire_pending_wals();
    // Probe an unhealthy write path so recovery is automatic: a probe
    // that lands resets the engine to Healthy before this tick's flush.
    engine.probe_health();

    let flush_after = Duration::from_millis(engine.config().ingest.flush_interval_ms);
    if engine.buffer_age().is_some_and(|age| age >= flush_after) && engine.flush()?.is_some() {
        engine.note_scheduler(|record| record.flushes += 1);
    }

    let rate_limited = last_consolidate.is_some_and(|at| at.elapsed() < min_gap);
    if !rate_limited {
        let sizes = engine.fragment_sizes();
        if sizes.len() >= 2 && tier_trigger(&sizes) {
            engine.consolidate()?;
            engine.note_scheduler(|record| record.consolidations += 1);
            *last_consolidate = Some(Instant::now());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::config::{EngineConfig, IngestConfig};
    use artsparse_core::FormatKind;
    use artsparse_tensor::{CoordBuffer, Shape};

    fn shared_engine(ingest: IngestConfig) -> Arc<StorageEngine<MemBackend>> {
        Arc::new(
            StorageEngine::open_with(
                MemBackend::new(),
                FormatKind::Coo,
                Shape::new(vec![64, 64]).unwrap(),
                8,
                EngineConfig::default().with_ingest(ingest),
            )
            .unwrap(),
        )
    }

    #[test]
    fn tiers_bucket_by_log2_size() {
        assert_eq!(tier_of(0), tier_of(1));
        assert_eq!(tier_of(900), tier_of(1023));
        assert_ne!(tier_of(1023), tier_of(1024));
        // Four same-tier fragments trip a threshold of 4; mixed tiers
        // don't.
        assert!(tier_trigger(&[1000, 1001, 1002, 1003]));
        assert!(!tier_trigger(&[10, 1000, 100_000, 10_000_000]));
        assert!(!tier_trigger(&[1000, 1001, 1002]));
    }

    #[test]
    fn a_consolidated_paged_fragment_never_retriggers() {
        use crate::config::ObservabilityConfig;
        use crate::faults::FailingBackend;
        // 256 full rows of 64: consolidation cuts 16 384 points into four
        // equal 4 096-point pages of one fragment.
        let engine = Arc::new(
            StorageEngine::open_with(
                FailingBackend::new(MemBackend::new()),
                FormatKind::Coo,
                Shape::new(vec![256, 64]).unwrap(),
                8,
                EngineConfig::default().with_observability(ObservabilityConfig::default()),
            )
            .unwrap(),
        );
        for rows in [0..128u64, 128..256] {
            let cells: Vec<[u64; 2]> = rows.flat_map(|r| (0..64).map(move |c| [r, c])).collect();
            let coords = CoordBuffer::from_points(2, &cells).unwrap();
            engine
                .write_points::<f64>(&coords, &vec![1.0; cells.len()])
                .unwrap();
        }
        assert_eq!(engine.consolidate().unwrap().pages, 4);
        // The trigger and the exported histogram read one size: the blob.
        assert_eq!(engine.fragment_sizes().len(), 1);
        assert!(!tier_trigger(&engine.fragment_sizes()));
        engine.observe();
        let snap = engine.observability().unwrap().registry().snapshot();
        let tiers = snap.sample("artsparse_fragment_bytes").unwrap();
        assert_eq!(tiers.histogram.as_ref().unwrap().count(), 1);
        let blobs = engine.backend().list().unwrap();

        // Any device write would now fail: the scheduler must not try one.
        engine.backend().set_out_of_space(true);
        let mut sched = IngestScheduler::spawn(
            Arc::clone(&engine),
            SchedulerConfig {
                tick_ms: 1,
                min_consolidate_interval_ms: 0,
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.stats().unwrap().scheduler_runs < 20 {
            assert!(Instant::now() < deadline, "scheduler never ticked");
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.shutdown();
        let s = engine.stats().unwrap();
        let record = (s.scheduler_consolidations, s.scheduler_errors);
        assert_eq!(record, (0, 0), "{s:?}");
        // An explicit pass finds one fragment and writes nothing either.
        let again = engine.consolidate().unwrap();
        assert_eq!((again.merged_fragments, again.pages), (1, 0));
        assert_eq!(again.fragment, None);
        engine.backend().set_out_of_space(false);
        assert_eq!(engine.backend().list().unwrap(), blobs);
    }

    #[test]
    fn scheduler_flushes_stale_buffer_and_shuts_down_cleanly() {
        let engine = shared_engine(IngestConfig {
            // Size thresholds far away; staleness is the only trigger.
            flush_points: 1_000_000,
            flush_interval_ms: 1,
            ..Default::default()
        });
        let c = CoordBuffer::from_points(2, &[[1u64, 2u64]]).unwrap();
        engine.ingest_points::<f64>(&c, &[1.0]).unwrap();
        let mut sched = IngestScheduler::spawn(
            Arc::clone(&engine),
            SchedulerConfig {
                tick_ms: 1,
                ..Default::default()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.buffer_stats().points > 0 {
            assert!(Instant::now() < deadline, "scheduler never flushed");
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.shutdown();
        sched.shutdown(); // idempotent
        let s = engine.stats().unwrap();
        assert!(s.scheduler_runs >= 1);
        assert!(s.scheduler_flushes >= 1);
        assert_eq!(s.scheduler_errors, 0);
        assert_eq!(engine.fragments().unwrap().len(), 1);
    }

    #[test]
    fn scheduler_consolidates_when_a_tier_fills() {
        let engine = shared_engine(IngestConfig {
            flush_points: 1,
            ..Default::default()
        });
        // Every ingest self-flushes into one similarly-sized fragment:
        // they all land in the same log2 tier.
        for i in 0..6u64 {
            let c = CoordBuffer::from_points(2, &[[i, i]]).unwrap();
            engine.ingest_points::<f64>(&c, &[i as f64]).unwrap();
        }
        assert!(engine.fragments().unwrap().len() >= 4);
        let mut sched = IngestScheduler::spawn(
            Arc::clone(&engine),
            SchedulerConfig {
                tick_ms: 1,
                min_consolidate_interval_ms: 0,
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.fragments().unwrap().len() > 1 {
            assert!(Instant::now() < deadline, "scheduler never consolidated");
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.shutdown();
        assert!(engine.stats().unwrap().scheduler_consolidations >= 1);
        // All six points survived the merge.
        let q =
            CoordBuffer::from_points(2, &(0..6u64).map(|i| [i, i]).collect::<Vec<_>>()).unwrap();
        let vals = engine.read_values::<f64>(&q).unwrap();
        assert!(vals.iter().all(|v| v.is_some()));
    }

    #[test]
    fn scheduler_errors_surface_with_their_text() {
        use crate::config::ObservabilityConfig;
        use crate::faults::FailingBackend;
        // A backend that fails renames makes every staleness flush fail
        // at the commit rename — the exact kind of background error that
        // used to vanish into a bare counter.
        let engine = Arc::new(
            StorageEngine::open_with(
                FailingBackend::new(MemBackend::new()),
                FormatKind::Coo,
                Shape::new(vec![64, 64]).unwrap(),
                8,
                EngineConfig::default()
                    .with_ingest(IngestConfig {
                        flush_points: 1_000_000,
                        flush_interval_ms: 0,
                        ..Default::default()
                    })
                    .with_observability(ObservabilityConfig::default()),
            )
            .unwrap(),
        );
        let c = CoordBuffer::from_points(2, &[[1u64, 2u64]]).unwrap();
        engine.ingest_points::<f64>(&c, &[1.0]).unwrap();
        engine.backend().fail_renames(true);
        let mut sched = IngestScheduler::spawn(
            Arc::clone(&engine),
            SchedulerConfig {
                tick_ms: 1,
                ..Default::default()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.stats().unwrap().scheduler_errors == 0 {
            assert!(Instant::now() < deadline, "scheduler never failed");
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.shutdown();
        // The engine's store stats carry the error text...
        let s = engine.stats().unwrap();
        assert!(s.scheduler_errors >= 1);
        assert!(s.scheduler_runs >= 1);
        assert!(s.scheduler_last_error.unwrap().contains("rename"));
        assert!(s.scheduler_last_error_at_ms.unwrap() > 0);
        // ...and the observability journal, as an error-severity event.
        let events = engine.observability().unwrap().journal().drain_new();
        assert!(events.iter().any(|e| e.code == "scheduler_error"
            && e.severity == artsparse_metrics::Severity::Error
            && e.message.contains("rename")));
        // Healing the backend heals the scheduler on a later tick.
        engine.backend().fail_renames(false);
        engine.flush().unwrap();
        assert_eq!(engine.fragments().unwrap().len(), 1);
    }

    #[test]
    fn wal_orphans_drain_on_scheduler_ticks_without_a_flush() {
        use crate::faults::FailingBackend;
        // A flush whose WAL deletion fails queues the blob for retry.
        // Before the tick-time retirement, that retry only ran on the
        // *next flush* — on a quiet engine, never. The scheduler must
        // now drain the queue on ordinary ticks.
        let engine = Arc::new(
            StorageEngine::open_with(
                FailingBackend::new(MemBackend::new()),
                FormatKind::Coo,
                Shape::new(vec![64, 64]).unwrap(),
                8,
                EngineConfig::default().with_ingest(IngestConfig {
                    flush_points: 1, // every ingest self-flushes
                    ..Default::default()
                }),
            )
            .unwrap(),
        );
        engine.backend().fail_deletes(true);
        let c = CoordBuffer::from_points(2, &[[1u64, 2u64]]).unwrap();
        engine.ingest_points::<f64>(&c, &[1.0]).unwrap();
        // The flush committed but could not retire its WAL blob.
        let orphans = |e: &StorageEngine<FailingBackend<MemBackend>>| {
            e.backend()
                .list()
                .unwrap()
                .into_iter()
                .filter(|n| n.ends_with(".wal"))
                .count()
        };
        assert_eq!(orphans(&engine), 1, "delete failure must strand the blob");
        engine.backend().disarm();
        // No buffered data, so no flush will ever run — only ticks.
        let mut sched = IngestScheduler::spawn(
            Arc::clone(&engine),
            SchedulerConfig {
                tick_ms: 1,
                ..Default::default()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while orphans(&engine) > 0 {
            assert!(Instant::now() < deadline, "ticks never retired the orphan");
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.shutdown();
        assert_eq!(engine.stats().unwrap().wal_backlog_bytes, 0);
    }

    #[test]
    fn shutdown_with_a_stuck_backend_returns_within_the_timeout() {
        use crate::faults::FailingBackend;
        // A worker wedged inside a slow backend call must not hang
        // shutdown (and therefore drop) indefinitely: the bounded wait
        // detaches it and surfaces a scheduler error.
        let engine = Arc::new(
            StorageEngine::open_with(
                FailingBackend::new(MemBackend::new()),
                FormatKind::Coo,
                Shape::new(vec![64, 64]).unwrap(),
                8,
                EngineConfig::default()
                    .with_ingest(IngestConfig {
                        flush_points: 1_000_000,
                        flush_interval_ms: 0, // every tick wants to flush
                        ..Default::default()
                    })
                    .with_observability(crate::config::ObservabilityConfig::default()),
            )
            .unwrap(),
        );
        let c = CoordBuffer::from_points(2, &[[1u64, 2u64]]).unwrap();
        engine.ingest_points::<f64>(&c, &[1.0]).unwrap();
        // Every write now takes ~20s; the first tick's flush wedges.
        engine.backend().set_write_latency(Duration::from_secs(20));
        let mut sched = IngestScheduler::spawn(
            Arc::clone(&engine),
            SchedulerConfig {
                tick_ms: 1,
                ..Default::default()
            },
        );
        // Give the worker time to enter the wedged backend call.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        sched.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "shutdown must be bounded, took {:?}",
            started.elapsed()
        );
        let s = engine.stats().unwrap();
        assert!(s.scheduler_errors >= 1);
        assert!(s.scheduler_last_error.unwrap().contains("timed out"));
        // The timeout is journaled like any other scheduler failure.
        let events = engine.observability().unwrap().journal().drain_new();
        assert!(events
            .iter()
            .any(|e| e.code == "scheduler_error" && e.message.contains("timed out")));
    }

    #[test]
    fn shutdown_mid_flush_completes_the_flush() {
        // A shutdown while a pass is mid-flight must let the pass finish:
        // spawn, immediately shut down, and verify nothing is torn — the
        // buffer either flushed whole or not at all.
        let engine = shared_engine(IngestConfig {
            flush_points: 1_000_000,
            flush_interval_ms: 0,
            ..Default::default()
        });
        let c = CoordBuffer::from_points(2, &[[5u64, 5u64]]).unwrap();
        engine.ingest_points::<f64>(&c, &[5.0]).unwrap();
        let mut sched = IngestScheduler::spawn(
            Arc::clone(&engine),
            SchedulerConfig {
                tick_ms: 1,
                ..Default::default()
            },
        );
        sched.shutdown();
        let buffered = engine.buffer_stats().points;
        let fragments = engine.fragments().unwrap().len();
        assert!(
            (buffered == 1 && fragments == 0) || (buffered == 0 && fragments == 1),
            "point must be wholly buffered or wholly flushed \
             (buffered={buffered}, fragments={fragments})"
        );
        // Either way the point is readable.
        assert_eq!(engine.read_values::<f64>(&c).unwrap(), vec![Some(5.0)],);
    }
}
