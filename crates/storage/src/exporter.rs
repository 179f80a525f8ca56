//! Continuous metrics exporter: the background thread that turns the
//! in-memory observability plane into files other processes can tail.
//!
//! Each tick the [`MetricsExporter`]:
//!
//! 1. asks the engine to [`observe`](crate::engine::StorageEngine::observe)
//!    — refreshing every point-in-time gauge (buffer occupancy, WAL
//!    backlog, fragment tiers, cache, scheduler health, read
//!    amplification);
//! 2. takes one registry snapshot (advancing the delta baseline) and
//!    publishes it twice: as Prometheus exposition text at
//!    `<dir>/metrics.prom` — written to a temp file and atomically
//!    renamed into place, so a scraper or the harness `watch` dashboard
//!    never reads a torn document — and as one JSONL line appended to
//!    `<dir>/metrics.jsonl` (the durable time series);
//! 3. drains the journal's new events — each exactly once, via the
//!    journal's cursor — appending them to `<dir>/journal.jsonl`.
//!
//! Like [`IngestScheduler`](crate::scheduler::IngestScheduler), the
//! exporter owns one thread, parks between ticks so shutdown interrupts
//! a long interval immediately, runs a final tick on shutdown (a
//! short-lived process still publishes its last state), and stops
//! cleanly on drop. Export failures (a full disk, a vanished directory)
//! are counted and retried next tick — observability must never take
//! the store down.

use crate::backend::StorageBackend;
use crate::engine::StorageEngine;
use crate::error::{Result, StorageError};
use artsparse_metrics::{exposition, ObservabilityPlane};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Exposition file the exporter atomically republishes each tick.
pub const METRICS_PROM: &str = "metrics.prom";
/// JSONL file of registry snapshots, one per tick.
pub const METRICS_JSONL: &str = "metrics.jsonl";
/// JSONL file of journal events, each appended exactly once.
pub const JOURNAL_JSONL: &str = "journal.jsonl";

/// Counters describing what the exporter has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExporterStats {
    /// Ticks that published successfully.
    pub ticks: u64,
    /// Ticks that failed to write (retried next tick).
    pub errors: u64,
}

#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    ticks: AtomicU64,
    errors: AtomicU64,
}

/// Handle to the background exporter thread. Dropping it shuts the
/// thread down cleanly (one final tick, then joined).
pub struct MetricsExporter {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsExporter {
    /// Spawn the exporter over a shared engine, publishing into `dir`
    /// (created if missing) every
    /// [`ObservabilityConfig::export_interval_ms`](crate::config::ObservabilityConfig::export_interval_ms).
    ///
    /// Fails if the engine was opened without `config.observability` —
    /// there is no plane to export — if `dir` cannot be created, or if
    /// the thread cannot be spawned.
    pub fn spawn<B>(
        engine: Arc<StorageEngine<B>>,
        dir: impl Into<PathBuf>,
    ) -> Result<MetricsExporter>
    where
        B: StorageBackend + Send + Sync + 'static,
    {
        let dir = dir.into();
        let Some(plane) = engine.observability().cloned() else {
            return Err(StorageError::Mismatch {
                reason: "metrics exporter needs an engine opened with \
                         EngineConfig::observability set"
                    .to_string(),
            });
        };
        std::fs::create_dir_all(&dir)?;
        let interval = Duration::from_millis(
            (engine.config().observability).map_or(500, |oc| oc.export_interval_ms.max(1)),
        );
        let shared = Arc::new(Shared::default());
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("artsparse-metrics-exporter".into())
            .spawn(move || exporter_loop(&engine, &plane, &dir, interval, &worker))?;
        Ok(MetricsExporter {
            shared,
            handle: Some(handle),
        })
    }

    /// What the exporter has done so far.
    pub fn stats(&self) -> ExporterStats {
        ExporterStats {
            ticks: self.shared.ticks.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
        }
    }

    /// Stop the exporter: the thread runs one final tick (publishing the
    /// closing state), then exits and is joined. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn exporter_loop<B: StorageBackend + Send + Sync>(
    engine: &StorageEngine<B>,
    plane: &ObservabilityPlane,
    dir: &Path,
    interval: Duration,
    shared: &Shared,
) {
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        match export_tick(engine, plane, dir) {
            Ok(()) => {
                shared.ticks.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if stopping {
            return;
        }
        std::thread::park_timeout(interval);
    }
}

/// One export pass: refresh gauges, snapshot, publish, drain.
fn export_tick<B: StorageBackend + Send + Sync>(
    engine: &StorageEngine<B>,
    plane: &ObservabilityPlane,
    dir: &Path,
) -> std::io::Result<()> {
    engine.observe();
    let snapshot = plane.registry().snapshot();

    // Atomic publish: scrapers see the old document or the new one,
    // never a torn write.
    let prom = exposition::render(&snapshot);
    let tmp = dir.join(format!("{METRICS_PROM}.tmp"));
    std::fs::write(&tmp, prom)?;
    std::fs::rename(&tmp, dir.join(METRICS_PROM))?;

    let mut metrics = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(METRICS_JSONL))?;
    let line =
        serde_json::to_string(&snapshot).map_err(|e| std::io::Error::other(e.to_string()))?;
    writeln!(metrics, "{line}")?;

    let events = plane.journal().drain_new();
    if !events.is_empty() {
        let mut journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL_JSONL))?;
        for event in &events {
            let line =
                serde_json::to_string(event).map_err(|e| std::io::Error::other(e.to_string()))?;
            writeln!(journal, "{line}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::config::{EngineConfig, ObservabilityConfig};
    use artsparse_core::FormatKind;
    use artsparse_tensor::{CoordBuffer, Shape};

    fn observed_engine() -> Arc<StorageEngine<MemBackend>> {
        Arc::new(
            StorageEngine::open_with(
                MemBackend::new(),
                FormatKind::Coo,
                Shape::new(vec![16, 16]).unwrap(),
                8,
                EngineConfig::default().with_observability(ObservabilityConfig {
                    export_interval_ms: 1,
                    slow_span_ms: 0,
                }),
            )
            .unwrap(),
        )
    }

    #[test]
    fn exporter_requires_the_plane() {
        let plain = Arc::new(
            StorageEngine::open(
                MemBackend::new(),
                FormatKind::Coo,
                Shape::new(vec![16, 16]).unwrap(),
                8,
            )
            .unwrap(),
        );
        let dir = tempfile::tempdir().unwrap();
        assert!(MetricsExporter::spawn(plain, dir.path()).is_err());
    }

    #[test]
    fn exporter_publishes_parseable_exposition_and_journal_lines() {
        let engine = observed_engine();
        let dir = tempfile::tempdir().unwrap();
        let c = CoordBuffer::from_points(2, &[[1u64, 2u64], [3, 4]]).unwrap();
        engine.write_points::<f64>(&c, &[1.0, 2.0]).unwrap();
        engine.read_values::<f64>(&c).unwrap();

        let mut exporter = MetricsExporter::spawn(Arc::clone(&engine), dir.path()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while exporter.stats().ticks < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "exporter never ticked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        exporter.shutdown();
        exporter.shutdown(); // idempotent
        assert_eq!(exporter.stats().errors, 0);

        // The exposition file parses under the strict grammar and holds
        // live readings.
        let prom = std::fs::read_to_string(dir.path().join(METRICS_PROM)).unwrap();
        let doc = exposition::parse(&prom).expect("published exposition must parse");
        assert_eq!(doc.value("artsparse_fragments"), Some(1.0));
        assert!(doc.value("artsparse_bytes_written_total").unwrap() > 0.0);
        assert!(
            doc.value("artsparse_read_amplification").unwrap() >= 1.0,
            "a cold read fetches at least what it returns"
        );

        // The snapshot series has one JSON document per tick, with
        // monotonically increasing sequence numbers.
        let series = std::fs::read_to_string(dir.path().join(METRICS_JSONL)).unwrap();
        let mut last_seq = 0u64;
        for line in series.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            let seq = v["seq"].as_u64().unwrap();
            assert!(seq > last_seq, "snapshot seq must increase");
            last_seq = seq;
            assert!(v["samples"].as_array().unwrap().len() >= 10);
        }
        assert!(last_seq >= 2);
    }

    #[test]
    fn journal_events_are_exported_exactly_once() {
        let engine = observed_engine();
        let dir = tempfile::tempdir().unwrap();
        let plane = Arc::clone(engine.observability().unwrap());
        plane.event(
            artsparse_metrics::Severity::Warn,
            "slow_span",
            "synthetic event".to_string(),
            7,
        );
        let mut exporter = MetricsExporter::spawn(Arc::clone(&engine), dir.path()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while exporter.stats().ticks < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "exporter never ticked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        exporter.shutdown();
        let journal = std::fs::read_to_string(dir.path().join(JOURNAL_JSONL)).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 1, "drained exactly once across many ticks");
        let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(v["code"].as_str(), Some("slow_span"));
        assert_eq!(v["trace_id"].as_u64(), Some(7));
    }
}
