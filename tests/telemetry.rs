//! End-to-end telemetry: the engine's span-attributed I/O accounting
//! must agree byte-for-byte with the device's own counters, the plane's
//! live counters must equal the report they are set from, the report
//! must agree with `StoreStats`/`CacheStats`, and the exported per-cell
//! document must validate against the checked-in schema. (That an engine
//! without a plane does no sink work holds by type: its spans are inert,
//! `span.rs`'s `no_plane_yields_inert_spans_and_empty_stack`.)

use artsparse::metrics::SpanKind;
use artsparse::storage::{
    EngineConfig, FailingBackend, MemBackend, ObservabilityConfig, RetryPolicy, SimulatedDisk,
    StorageEngine,
};
use artsparse::{CoordBuffer, FormatKind, Region, Shape};
use std::time::Duration;

/// A fast simulated device: real byte accounting, negligible sleeps.
fn fast_disk() -> SimulatedDisk {
    SimulatedDisk::new(1e15, Duration::ZERO)
}

fn pts(p: &[[u64; 2]]) -> CoordBuffer {
    CoordBuffer::from_points(2, p).unwrap()
}

/// Write `fragments` fragments of 32 points each (fragment `f` fills
/// row `f`).
fn seed_fragments(engine: &StorageEngine<SimulatedDisk>, fragments: u64) {
    for f in 0..fragments {
        let coords: Vec<[u64; 2]> = (0..32).map(|k| [f, k]).collect();
        let values: Vec<f64> = (0..32).map(|k| (f * 100 + k) as f64).collect();
        engine.write_points::<f64>(&pts(&coords), &values).unwrap();
    }
}

#[test]
fn telemetry_bytes_agree_with_simulated_disk() {
    let engine = StorageEngine::open_with(
        fast_disk(),
        FormatKind::GcsrPP,
        Shape::new(vec![64, 64]).unwrap(),
        8,
        EngineConfig::default().with_observability(ObservabilityConfig::default()),
    )
    .unwrap();

    seed_fragments(&engine, 6);

    // A multi-fragment region read plus point lookups.
    let region = Region::from_corners(&[0, 0], &[5, 31]).unwrap();
    let result = engine.read_region(&region).unwrap();
    assert_eq!(result.hits.len(), 6 * 32);
    assert!(result.fragments_matched >= 6);
    let vals = engine
        .read_values::<f64>(&pts(&[[0, 0], [3, 7], [5, 31], [63, 63]]))
        .unwrap();
    assert_eq!(vals[1], Some(307.0));
    assert_eq!(vals[3], None);

    // Consolidation reads every source fragment and writes the merged one.
    engine.consolidate().unwrap();
    engine.read_region(&region).unwrap();

    let report = engine.telemetry_report().expect("telemetry enabled");
    let disk = engine.backend();
    assert_eq!(
        report.totals.bytes_fetched,
        disk.bytes_read(),
        "span-attributed fetched bytes must equal the device's read counter"
    );
    assert_eq!(
        report.totals.bytes_written,
        disk.bytes_written(),
        "span-attributed written bytes must equal the device's write counter"
    );
    assert!(report.totals.bytes_fetched > 0);
    assert!(report.totals.bytes_written > 0);

    // Self-IO accounting: per-kind sums reassemble the totals exactly.
    let span_sum: u64 = report.spans.iter().map(|s| s.io.bytes_fetched).sum();
    assert_eq!(span_sum, report.totals.bytes_fetched);

    // The taxonomy was exercised. Consolidation commits its merged
    // fragment through the write path, hence the 7th write span.
    assert_eq!(report.span(SpanKind::Write).unwrap().count, 7);
    assert_eq!(report.span(SpanKind::Read).unwrap().count, 3);
    assert_eq!(report.span(SpanKind::Consolidate).unwrap().count, 1);
    assert!(report.span(SpanKind::Recover).unwrap().count >= 1);
    assert!(
        report.backend_op("sim", "put").is_some()
            || report.backend_op("sim", "put_atomic").is_some()
    );
}

#[test]
fn plane_counters_equal_the_report_totals() {
    let no_backoff = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        jitter_pct: 0,
    };
    let slow_span_ms = 1;
    let engine = StorageEngine::open_with(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Coo,
        Shape::new(vec![64, 64]).unwrap(),
        8,
        EngineConfig::default()
            .with_retry(no_backoff)
            .with_observability(ObservabilityConfig {
                slow_span_ms,
                ..Default::default()
            }),
    )
    .unwrap();
    let value_bytes = |hits: &[artsparse::storage::ReadHit]| -> u64 {
        hits.iter().map(|h| h.value.len() as u64).sum()
    };

    // Writes, a cold region read, ingest plus flush, consolidate, and a
    // point read that meets one injected transient fault.
    for f in 0..4u64 {
        let coords: Vec<[u64; 2]> = (0..32).map(|k| [f, k]).collect();
        engine
            .write_points::<f64>(&pts(&coords), &[1.0; 32])
            .unwrap();
    }
    let region = Region::from_corners(&[0, 0], &[3, 31]).unwrap();
    let mut returned = value_bytes(&engine.read_region(&region).unwrap().hits);
    engine
        .ingest_points::<f64>(&pts(&[[9, 9], [10, 10]]), &[2.0, 3.0])
        .unwrap();
    engine.flush().unwrap();
    engine.consolidate().unwrap();
    engine.backend().fail_next_reads(1);
    returned += value_bytes(&engine.read(&pts(&[[1, 1], [9, 9]])).unwrap().hits);

    let report = engine.telemetry_report().unwrap();
    let t = report.totals;
    assert_eq!(t.retries, 1);
    assert!(t.wal_bytes > 0 && t.group_commits > 0 && t.bytes_fetched > 0);
    assert_eq!(report.events_dropped, 0, "every span is in the ring");
    let slow = (report.events.iter())
        .filter(|e| e.dur_ns >= slow_span_ms * 1_000_000)
        .count() as u64;

    let plane = engine.observability().unwrap();
    let snap = plane.registry().snapshot();
    let expected = [
        ("artsparse_bytes_fetched_total", t.bytes_fetched),
        ("artsparse_bytes_written_total", t.bytes_written),
        ("artsparse_requests_total", t.requests),
        ("artsparse_retries_total", t.retries),
        ("artsparse_checksum_failures_total", t.checksum_failures),
        ("artsparse_quarantines_total", t.fragments_quarantined),
        ("artsparse_wal_bytes_total", t.wal_bytes),
        ("artsparse_group_commits_total", t.group_commits),
        ("artsparse_slow_spans_total", slow),
        ("artsparse_read_bytes_returned_total", returned),
    ];
    let totals: Vec<&str> = (snap.samples.iter())
        .map(|s| s.name.as_str())
        .filter(|n| n.ends_with("_total"))
        .collect();
    assert_eq!(totals.len(), expected.len(), "{totals:?}");
    for (name, want) in expected {
        assert_eq!(snap.sample(name).unwrap().value, want as f64, "{name}");
    }
    assert_eq!(
        plane.read_amplification(),
        Some(t.bytes_fetched as f64 / returned as f64)
    );
}

#[test]
fn telemetry_agrees_with_engine_stats() {
    let engine = StorageEngine::open_with(
        fast_disk(),
        FormatKind::Csf,
        Shape::new(vec![64, 64]).unwrap(),
        8,
        EngineConfig::default()
            .with_observability(ObservabilityConfig::default())
            .with_cache_capacity(1 << 20),
    )
    .unwrap();

    seed_fragments(&engine, 4);
    let region = Region::from_corners(&[0, 0], &[3, 31]).unwrap();
    engine.read_region(&region).unwrap(); // cold: misses
    engine.read_region(&region).unwrap(); // warm: hits

    let report = engine.telemetry_report().unwrap();
    let cache = engine.cache().stats();
    assert!(cache.hits > 0 && cache.misses > 0);
    assert_eq!(report.totals.cache_hits, cache.hits);
    assert_eq!(report.totals.cache_misses, cache.misses);
    assert_eq!(report.totals.cache_evictions, cache.evictions);
    assert_eq!(report.totals.cache_evicted_bytes, cache.evicted_bytes);

    let stats = engine.stats().unwrap();
    let recovery = engine.recovery_report();
    assert_eq!(stats.epoch_markers, recovery.epoch_markers);
    assert!(stats.epoch_markers >= 1, "own epoch claim is counted");
    assert_eq!(stats.orphans_swept, recovery.orphans_swept);
}

#[test]
fn harness_writes_schema_valid_documents() {
    use artsparse::harness::telemetry::validate_file;
    use artsparse::harness::Config;
    use artsparse::{Pattern, Scale};

    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::smoke();
    cfg.scale = Scale::Smoke;
    cfg.formats = vec![FormatKind::Coo];
    cfg.patterns = vec![Pattern::Tsp];
    cfg.ndims = vec![2];
    cfg.telemetry_out = Some(dir.path().to_path_buf());

    let (matrix, reports) = artsparse::harness::run_matrix_traced(&cfg).unwrap();
    assert_eq!(matrix.cells.len(), 1);
    assert_eq!(reports.len(), 1);

    let doc = dir.path().join("telemetry-coo-tsp-2D.json");
    assert!(doc.exists(), "per-cell document written");
    // Integration tests run from the workspace root, where the schema lives.
    let errors =
        validate_file(&doc, std::path::Path::new("schemas/telemetry.schema.json")).unwrap();
    assert!(errors.is_empty(), "{errors:?}");
}
