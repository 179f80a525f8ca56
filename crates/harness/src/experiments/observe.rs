//! Live observability — the plane must never change stored bytes, and
//! what it publishes must be valid.
//!
//! Two phases per pattern (MSP and GSP at 3D):
//!
//! 1. **Plane off vs. on, byte for byte.** A *deterministic* ingest →
//!    read → flush → consolidate workload (no background threads —
//!    without the scheduler, self-flushes trigger only on the point
//!    threshold) runs once with the observability plane off and once
//!    with it on. "On" means every span reports to the plane, which
//!    aggregates it and feeds the registry and journal. Both stores
//!    must end byte-identical; their size is deterministic on the
//!    in-memory backend, and `tests/exact_gates.rs` pins it at smoke
//!    scale. What the plane costs in time is the repo benchmark's
//!    `metrics.trace_overhead_share` (`benchmark/`, every workload).
//! 2. **Scheduler-live artifact run.** The same dataset runs under the
//!    background scheduler with a live [`MetricsExporter`] publishing
//!    the whole time; its directory is kept under `--out` so CI can
//!    validate the published `metrics.prom` against the exposition
//!    grammar and `journal.jsonl` against `schemas/journal.schema.json`
//!    (and so `watch` has something to replay).

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::Result;
use artsparse_core::FormatKind;
use artsparse_metrics::{exposition, Table};
use artsparse_patterns::{Dataset, Pattern};
use artsparse_storage::{
    EngineConfig, IngestScheduler, MemBackend, MetricsExporter, ObservabilityConfig,
    SchedulerConfig, StorageEngine, JOURNAL_JSONL, METRICS_PROM,
};
use artsparse_tensor::CoordBuffer;
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Row {
    pattern: String,
    n_points: usize,
    store_bytes: u64,
    exporter_ticks: u64,
    exporter_errors: u64,
    metrics_samples: usize,
    journal_events: usize,
    scheduler_runs: u64,
    scheduler_errors: u64,
    read_amplification: f64,
    /// Enabled and disabled stores ended byte-identical.
    verified: bool,
}

/// What the scheduler-live artifact run observed.
#[derive(Debug, Default, Clone, Copy)]
struct LiveOutcome {
    store_bytes: u64,
    scheduler_runs: u64,
    scheduler_errors: u64,
    read_amplification: f64,
    exporter_ticks: u64,
    exporter_errors: u64,
}

/// A fixed read sample over the dataset, queried mid-stream and after
/// the flush — the workload the read-amplification gauge derives from.
fn read_sample(ds: &Dataset) -> Result<CoordBuffer> {
    let stride = ds.nnz().div_ceil(64).max(1);
    let mut sample = CoordBuffer::new(ds.shape.ndim());
    for coord in ds.coords.iter().step_by(stride) {
        sample.push(coord)?;
    }
    Ok(sample)
}

/// Drive the shared workload: batched ingest with a mid-stream read,
/// flush, a post-flush read, consolidate.
fn run_workload(
    cfg: &Config,
    ds: &Dataset,
    values: &[f64],
    engine: &StorageEngine<MemBackend>,
) -> Result<()> {
    let sample = read_sample(ds)?;
    let batch = cfg.ingest_batch.max(1);
    let total_batches = ds.nnz().div_ceil(batch);
    let mut lo = 0usize;
    let mut batches_done = 0usize;
    while lo < ds.nnz() {
        let hi = (lo + batch).min(ds.nnz());
        let mut coords = CoordBuffer::with_capacity(ds.shape.ndim(), hi - lo);
        for coord in ds.coords.iter().skip(lo).take(hi - lo) {
            coords.push(coord)?;
        }
        engine.ingest_points::<f64>(&coords, &values[lo..hi])?;
        batches_done += 1;
        if batches_done == total_batches / 2 {
            engine.read(&sample)?;
        }
        lo = hi;
    }
    engine.flush()?;
    engine.read(&sample)?;
    engine.consolidate()?;
    Ok(())
}

/// Phase 1: the deterministic, background-thread-free workload with the
/// plane off or on; returns the final store size.
fn run_plain(cfg: &Config, ds: &Dataset, observability: bool) -> Result<u64> {
    let mut engine_config = EngineConfig::default().with_ingest(cfg.ingest_config());
    if observability {
        engine_config = engine_config.with_observability(ObservabilityConfig::default());
    }
    let engine = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Coo,
        ds.shape.clone(),
        8,
        engine_config,
    )?;
    run_workload(cfg, ds, &ds.values(), &engine)?;
    Ok(engine.stats()?.total_bytes)
}

/// Phase 2: the same dataset under the background scheduler with a live
/// exporter publishing into `dir` the whole time.
fn run_live(cfg: &Config, ds: &Dataset, dir: &Path) -> Result<LiveOutcome> {
    let values = ds.values();
    let engine = Arc::new(StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Coo,
        ds.shape.clone(),
        8,
        EngineConfig::default()
            .with_ingest(cfg.ingest_config())
            .with_observability(ObservabilityConfig {
                export_interval_ms: 10,
                slow_span_ms: 1, // aggressive threshold so slow spans surface
            }),
    )?);
    // A lifecycle notice marks the run in the journal (and guarantees
    // the exported journal.jsonl is never empty, which CI validates
    // line by line).
    engine.observability().expect("plane configured").event(
        artsparse_metrics::Severity::Info,
        "benchmark_start",
        format!("scheduler-live ingest of {} points", ds.nnz()),
        0,
    );
    let mut exporter = MetricsExporter::spawn(Arc::clone(&engine), dir)?;
    let mut scheduler = IngestScheduler::spawn(
        Arc::clone(&engine),
        SchedulerConfig {
            tick_ms: 1,
            ..SchedulerConfig::default()
        },
    );
    run_workload(cfg, ds, &values, &engine)?;
    // At smoke scale the workload is ~ms long and can outrun the
    // scheduler thread's first pass; wait for it so the kept artifacts
    // always describe a store that ran under a live scheduler.
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while engine.stats()?.scheduler_runs == 0 && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    scheduler.shutdown();
    exporter.shutdown(); // final tick publishes the closing state
    let stats = engine.stats()?;
    Ok(LiveOutcome {
        store_bytes: stats.total_bytes,
        scheduler_runs: stats.scheduler_runs,
        scheduler_errors: stats.scheduler_errors,
        read_amplification: engine
            .observability()
            .and_then(|p| p.read_amplification())
            .unwrap_or(0.0),
        exporter_ticks: exporter.stats().ticks,
        exporter_errors: exporter.stats().errors,
    })
}

/// Run the plane-off / plane-on pair and the live artifact run for one
/// pattern.
fn run_pattern(cfg: &Config, pattern: Pattern, live_dir: &Path) -> Result<Row> {
    let ds = Dataset::for_scale(pattern, 3, cfg.scale, cfg.params);

    // Phase 1 — no background threads, so both variants do the same
    // work and must store the same bytes.
    let disabled_bytes = run_plain(cfg, &ds, false)?;
    let enabled_bytes = run_plain(cfg, &ds, true)?;

    // Phase 2 — one scheduler-live run publishing into the kept
    // directory, so the artifacts describe exactly one run.
    let live = run_live(cfg, &ds, live_dir)?;

    // The kept artifacts must already be valid here — CI re-checks them
    // out of process, but a torn publish should fail fast and loudly.
    let prom = std::fs::read_to_string(live_dir.join(METRICS_PROM))?;
    let doc = exposition::parse(&prom).map_err(|e| format!("published exposition: {e}"))?;
    let journal_lines = std::fs::read_to_string(live_dir.join(JOURNAL_JSONL))
        .map(|t| t.lines().count())
        .unwrap_or(0);

    Ok(Row {
        pattern: pattern.name().to_string(),
        n_points: ds.nnz(),
        store_bytes: enabled_bytes,
        exporter_ticks: live.exporter_ticks,
        exporter_errors: live.exporter_errors,
        metrics_samples: doc.samples.len(),
        journal_events: journal_lines,
        scheduler_runs: live.scheduler_runs,
        scheduler_errors: live.scheduler_errors,
        read_amplification: live.read_amplification,
        verified: enabled_bytes == disabled_bytes && live.store_bytes == disabled_bytes,
    })
}

/// Run the observability experiment for MSP and GSP at 3D.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let scratch = tempfile::tempdir()?;
    let mut rows = Vec::new();
    for pattern in [Pattern::Msp, Pattern::Gsp] {
        let slug = pattern.name().to_ascii_lowercase();
        // The live run's exporter directory survives under --out for CI
        // to validate (and for `watch` to replay).
        let live_dir = match &cfg.out_dir {
            Some(dir) => dir.join(format!("observe-live-{slug}")),
            None => scratch.path().join(slug),
        };
        std::fs::create_dir_all(&live_dir)?;
        eprintln!(
            "[observe] {} 3D · exporter -> {}",
            pattern.name(),
            live_dir.display()
        );
        let row = run_pattern(cfg, pattern, &live_dir)?;
        eprintln!(
            "[observe]   {} store bytes, identical off/on/live: {} | \
             {} exposition sample(s), {} journal event(s), {} scheduler run(s), {} error(s)",
            row.store_bytes,
            row.verified,
            row.metrics_samples,
            row.journal_events,
            row.scheduler_runs,
            row.scheduler_errors,
        );
        rows.push(row);
    }

    let mut table = Table::new(
        "live observability — plane off vs. on vs. scheduler-live",
        &[
            "pattern", "points", "store B", "samples", "journal", "read amp", "verified",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.pattern.clone(),
            r.n_points.to_string(),
            r.store_bytes.to_string(),
            r.metrics_samples.to_string(),
            r.journal_events.to_string(),
            format!("{:.2}", r.read_amplification),
            r.verified.to_string(),
        ]);
    }

    Ok(ExperimentOutput {
        name: "observe",
        notes: vec![
            "Deterministic streaming ingest with mid-stream reads (no".into(),
            "background threads), run with the observability plane off and".into(),
            "on. `verified` means every variant ended with a byte-identical".into(),
            "store — observability never changes data. A separate".into(),
            "scheduler-live run keeps its exporter directory (exposition,".into(),
            "snapshot series, journal) under --out for validation and `watch`".into(),
            "replay.".into(),
        ],
        tables: vec![table],
        json: serde_json::json!({
            "scale": cfg.scale,
            "rows": rows,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_publishes_valid_artifacts_and_identical_stores() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = Config::smoke();
        cfg.out_dir = Some(dir.path().to_path_buf());
        let out = run(&cfg).unwrap();
        let rows = out.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert_eq!(r["verified"].as_bool(), Some(true));
            assert!(r["journal_events"].as_u64().unwrap() > 0);
            assert!(r["metrics_samples"].as_u64().unwrap() >= 10);
            assert!(r["scheduler_runs"].as_u64().unwrap() >= 1);
            assert_eq!(r["scheduler_errors"].as_u64(), Some(0));
            assert!(r["exporter_ticks"].as_u64().unwrap() >= 1);
            assert_eq!(r["exporter_errors"].as_u64(), Some(0));
            assert!(r["read_amplification"].as_f64().unwrap() >= 1.0);
        }
        // The kept exporter directory parses and its journal lines
        // validate against the journal schema.
        let schema: serde_json::Value =
            serde_json::from_str(include_str!("../../../../schemas/journal.schema.json")).unwrap();
        for slug in ["msp", "gsp"] {
            let live = dir.path().join(format!("observe-live-{slug}"));
            let prom = std::fs::read_to_string(live.join(METRICS_PROM)).unwrap();
            exposition::parse(&prom).unwrap();
            let journal = std::fs::read_to_string(live.join(JOURNAL_JSONL)).unwrap();
            assert!(journal.lines().count() > 0);
            for line in journal.lines() {
                let event: serde_json::Value = serde_json::from_str(line).unwrap();
                let errors = crate::telemetry::validate(&event, &schema);
                assert!(errors.is_empty(), "{errors:?}");
            }
        }
    }
}
