//! End-to-end telemetry: the engine's span-attributed I/O accounting
//! must agree byte-for-byte with the device's own counters, the plane's
//! live counters must equal the report they are set from, the report
//! must agree with `StoreStats`/`CacheStats`, and the exported per-cell
//! document must validate against the checked-in schema. (That an engine
//! without a plane does no sink work holds by type: its spans are inert,
//! `span.rs`'s `no_plane_yields_inert_spans_and_empty_stack`.)

use artsparse::metrics::SpanKind;
use artsparse::storage::{
    EngineConfig, FailingBackend, IngestConfig, MemBackend, ObservabilityConfig, RetryPolicy,
    SimulatedDisk, StorageBackend, StorageEngine,
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

/// Table III's breakdown is a view over the `engine.write` span tree:
/// Build and Reorg. are their spans, Write the publish's device work, and
/// Others the rest, so the row sums to the `engine.write` total — on a
/// plain write, a group commit and a consolidation alike.
#[test]
fn write_breakdown_is_a_view_of_the_write_spans() {
    let open = |kind| {
        StorageEngine::open_with(
            MemBackend::new(),
            kind,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_observability(ObservabilityConfig::default()),
        )
        .unwrap()
    };
    let sums_to_the_write_span = |engine: &StorageEngine<MemBackend>| {
        let report = engine.telemetry_report().unwrap();
        let b = report.write_breakdown();
        let total = report.span(SpanKind::Write).unwrap().total_ns as f64 * 1e-9;
        assert!((b.sum() - total).abs() <= 1e-9, "{b:?} vs {total}");
        assert!(b.others >= 0.0, "{b:?}");
        b
    };
    let grid: Vec<[u64; 2]> = (0..16).flat_map(|r| (0..16).map(move |c| [r, c])).collect();
    let values: Vec<f64> = (0..256).map(f64::from).collect();

    let engine = open(FormatKind::GcsrPP);
    let written = engine.write_points(&pts(&grid), &values).unwrap();
    assert!(written.index_bytes > 0);
    assert_eq!(written.value_bytes, 2048);
    let report = engine.telemetry_report().unwrap();
    for kind in [
        SpanKind::Write,
        SpanKind::WriteEncode,
        SpanKind::WriteBuild,
        SpanKind::WriteReorg,
        SpanKind::WriteStage,
        SpanKind::WriteCommit,
    ] {
        assert_eq!(report.span(kind).map(|s| s.count), Some(1), "{kind:?}");
    }
    let stage = report.span(SpanKind::WriteStage).unwrap();
    assert_eq!(stage.io.bytes_written, written.total_bytes as u64);
    let b = sums_to_the_write_span(&engine);
    assert!(b.build > 0.0 && b.reorg > 0.0 && b.write > 0.0);

    // A group commit and a consolidation write through the same spans.
    engine
        .ingest_points::<f64>(&pts(&[[1, 1], [2, 2]]), &[1.0, 2.0])
        .unwrap();
    engine.flush().unwrap();
    engine.consolidate().unwrap();
    let report = engine.telemetry_report().unwrap();
    assert_eq!(report.span(SpanKind::Write).unwrap().count, 3);
    assert_eq!(report.span(SpanKind::ConsolidateCommit).unwrap().count, 1);
    sums_to_the_write_span(&engine);

    // COO's build returns no map: no reorg span, no Reorg. time.
    let coo = open(FormatKind::Coo);
    coo.write_points(&pts(&grid), &values).unwrap();
    let report = coo.telemetry_report().unwrap();
    assert!(report.span(SpanKind::WriteReorg).is_none());
    assert_eq!(sums_to_the_write_span(&coo).reorg, 0.0);
}

/// A read's buffer overlay sorts nothing: its `engine.read.buffer` span
/// charges no counter, whether the buffer holds one batch or five, and
/// the latest append of a repeated address answers. A group commit
/// writes the same blob whether or not reads ran before it.
#[test]
fn a_read_charges_no_sort_and_leaves_the_group_commit_unchanged() {
    let open = || {
        let ingest = IngestConfig {
            flush_points: 1 << 30,
            ..IngestConfig::default()
        };
        let config = EngineConfig::default()
            .with_ingest(ingest)
            .with_observability(ObservabilityConfig::default());
        let shape = Shape::new(vec![64, 64]).unwrap();
        StorageEngine::open_with(MemBackend::new(), FormatKind::Csf, shape, 8, config).unwrap()
    };
    // Row `r`, columns descending with one repeat: 16 raw points, 15
    // addresses; (r, 1) holds the batch's last value.
    let batch = |r: u64| {
        let coords: Vec<[u64; 2]> = (0..16).map(|k| [r, (15 - k).max(1)]).collect();
        let values: Vec<f64> = (0..16).map(|k| (r * 100 + k) as f64).collect();
        (pts(&coords), values)
    };
    let uncharged = |engine: &StorageEngine<MemBackend>| {
        let report = engine.telemetry_report().unwrap();
        let buffer = report.spans.iter().find(|s| s.kind == SpanKind::ReadBuffer);
        let buffer = buffer.expect("the overlay ran");
        assert!(buffer.io.is_empty(), "the overlay charged {:?}", buffer.io);
    };
    let repeated = pts(&[[0, 1], [9, 1], [63, 63]]);

    let read = open();
    let unread = open();
    for r in [0, 1, 2, 3, 9] {
        let (coords, values) = batch(r);
        read.ingest_points::<f64>(&coords, &values).unwrap();
        unread.ingest_points::<f64>(&coords, &values).unwrap();
        let got = read.read_values::<f64>(&repeated).unwrap();
        assert_eq!(got[0], Some(15.0), "the batch's last append of (0, 1)");
        uncharged(&read);
    }
    assert_eq!(
        read.read_values::<f64>(&repeated).unwrap(),
        [Some(15.0), Some(915.0), None]
    );
    let whole = Region::from_corners(&[0, 0], &[63, 63]).unwrap();
    let rows = read.read_region(&whole).unwrap();
    assert_eq!(rows.hits.len(), 5 * 15);
    uncharged(&read);

    read.flush().unwrap();
    unread.flush().unwrap();
    let blobs = |engine: &StorageEngine<MemBackend>| {
        let names = engine.fragments().unwrap();
        let backend = engine.backend();
        let bytes: Vec<Vec<u8>> = names.iter().map(|n| backend.get(n).unwrap()).collect();
        (names, bytes)
    };
    assert_eq!(blobs(&read), blobs(&unread));
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

    let matrix = artsparse::harness::run_matrix(&cfg).unwrap();
    assert_eq!(matrix.cells.len(), 1);

    let doc = dir.path().join("telemetry-coo-tsp-2D.json");
    assert!(doc.exists(), "per-cell document written");
    // Integration tests run from the workspace root, where the schema lives.
    let errors =
        validate_file(&doc, std::path::Path::new("schemas/telemetry.schema.json")).unwrap();
    assert!(errors.is_empty(), "{errors:?}");
}

/// `observe()`'s whole output, pinned: every sample it sets (name, kind,
/// HELP and value) after one scripted engine life with the plane on and
/// no scheduler — ingested batches, one group commit whose WAL delete
/// fails, one quarantined fragment, one cache hit and one `Backpressure`
/// rejection. The plane's ten span-fed `_total` counters are left to
/// `plane_counters_equal_the_report_totals`.
#[test]
fn observe_samples_are_pinned() {
    use artsparse::metrics::MetricKind::{Counter, Gauge, Histogram};
    use artsparse::storage::{IngestConfig, StorageBackend};

    let engine = StorageEngine::open_with(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Coo,
        Shape::new(vec![16, 16]).unwrap(),
        8,
        EngineConfig::default()
            .with_observability(ObservabilityConfig::default())
            .with_retry(RetryPolicy::none())
            .with_strict_reads(false)
            .with_cache_capacity(1 << 20)
            .with_ingest(IngestConfig {
                max_buffered_bytes: 32,
                ..Default::default()
            }),
    )
    .unwrap();
    let plane = engine.observability().unwrap();
    let before: Vec<String> = (plane.registry().snapshot().samples.iter())
        .map(|s| s.name.clone())
        .collect();

    // Fragment A (corrupted below) and fragment B (read twice).
    engine
        .write_points::<f64>(&pts(&[[0, 0], [0, 1]]), &[1.0, 2.0])
        .unwrap();
    engine.write_points::<f64>(&pts(&[[5, 5]]), &[5.0]).unwrap();
    // One batch group-committed into fragment C; its WAL delete fails,
    // so the blob waits for a retry.
    engine
        .ingest_points::<f64>(&pts(&[[1, 1]]), &[1.5])
        .unwrap();
    engine.backend().fail_deletes(true);
    engine.flush().unwrap().unwrap();
    engine.backend().fail_deletes(false);
    // Two batches stay buffered (24 of 32 bytes); a third is shed.
    engine
        .ingest_points::<f64>(&pts(&[[7, 7]]), &[7.0])
        .unwrap();
    engine
        .ingest_points::<f64>(&pts(&[[8, 8], [8, 9]]), &[8.0, 9.0])
        .unwrap();
    let shed = engine.ingest_points::<f64>(&pts(&[[9, 9], [9, 10]]), &[0.0, 0.0]);
    assert!(shed.unwrap_err().is_rejection());
    // A cold then a warm read of B: one miss, one hit.
    for _ in 0..2 {
        assert_eq!(
            engine.read_values::<f64>(&pts(&[[5, 5]])).unwrap(),
            vec![Some(5.0)]
        );
    }
    // A's value section flips a bit: the degraded read quarantines it.
    let victim = engine.fragments().unwrap()[0].clone();
    let mut bytes = engine.backend().get(&victim).unwrap();
    *bytes.last_mut().unwrap() ^= 0x80;
    engine.backend().put(&victim, &bytes).unwrap();
    let read = engine.read(&pts(&[[0, 0]])).unwrap();
    assert_eq!(read.outcome.quarantined, vec![victim]);
    assert_eq!(engine.cache().stats().hits, 1);

    engine.observe();
    let snap = plane.registry().snapshot();
    let observed: Vec<_> = (snap.samples.iter())
        .filter(|s| !before.contains(&s.name))
        .map(|s| (s.name.as_str(), s.kind, s.help.as_str(), s.value))
        .collect();
    let help_blobs = "Live WAL blobs: buffered batches not yet committed plus \
                      retired blobs whose delete is being retried.";
    let help_wal_bytes = "Bytes of acked, unretired WAL blobs (bounded by max_wal_backlog_bytes).";
    let expected = vec![
        (
            "artsparse_backpressure_rejections_total",
            Counter,
            "Writes refused with a typed Backpressure or ReadOnly rejection.",
            1.0,
        ),
        (
            "artsparse_cache_bytes",
            Gauge,
            "Decoded payload bytes resident in the fragment cache.",
            72.0,
        ),
        (
            "artsparse_cache_capacity_bytes",
            Gauge,
            "Configured fragment-cache capacity (0: disabled).",
            1048576.0,
        ),
        (
            "artsparse_cache_fragments",
            Gauge,
            "Decoded fragments resident in the cache.",
            1.0,
        ),
        (
            "artsparse_consecutive_write_failures",
            Gauge,
            "Consecutive write failures driving the health state machine.",
            0.0,
        ),
        (
            "artsparse_fragment_bytes",
            Histogram,
            "Size distribution of live fragments (bytes, log2 buckets).",
            2.0,
        ),
        (
            "artsparse_fragments",
            Gauge,
            "Live fragments in the catalog.",
            2.0,
        ),
        (
            "artsparse_health_state",
            Gauge,
            "Write-path health state (0: healthy, 1: degraded, 2: read-only).",
            0.0,
        ),
        (
            "artsparse_quarantined_fragments",
            Gauge,
            "Fragments currently quarantined after integrity failures.",
            1.0,
        ),
        // 400 bytes fetched for the 16 value bytes the two reads of B
        // returned.
        (
            "artsparse_read_amplification",
            Gauge,
            "Bytes fetched from the backend per value byte returned.",
            25.0,
        ),
        (
            "artsparse_scheduler_errors_total",
            Counter,
            "Background scheduler passes that failed.",
            0.0,
        ),
        (
            "artsparse_scheduler_last_run_age_seconds",
            Gauge,
            "Seconds since the last scheduler pass (-1: never ran).",
            -1.0,
        ),
        (
            "artsparse_scheduler_runs_total",
            Counter,
            "Background scheduler passes executed.",
            0.0,
        ),
        // Two buffered batches' blobs plus the one whose delete failed.
        ("artsparse_wal_backlog_blobs", Gauge, help_blobs, 3.0),
        ("artsparse_wal_backlog_bytes", Gauge, help_wal_bytes, 180.0),
        (
            "artsparse_wal_retire_queue",
            Gauge,
            "WAL blobs whose deletion failed and awaits retry.",
            1.0,
        ),
        (
            "artsparse_write_buffer_batches",
            Gauge,
            "Acked ingest batches awaiting group commit.",
            2.0,
        ),
        (
            "artsparse_write_buffer_bytes",
            Gauge,
            "Value bytes currently buffered for group commit.",
            24.0,
        ),
        (
            "artsparse_write_buffer_points",
            Gauge,
            "Points currently buffered for group commit.",
            3.0,
        ),
    ];
    assert_eq!(observed, expected);
    // The size tiers hold the two live fragments, B and C (188 bytes
    // each); the quarantined A is not among them.
    let tiers = snap.sample("artsparse_fragment_bytes").unwrap();
    let tiers = tiers.histogram.as_ref().unwrap();
    assert_eq!((tiers.count(), tiers.sum()), (2, 376));
    // The gauge counts live fragments; the store's stats count every
    // fragment on the device, the quarantined one included.
    let stats = engine.stats().unwrap();
    assert_eq!((stats.fragments, stats.quarantined_fragments), (3, 1));
    assert_eq!(stats.total_bytes, 588);
    assert_eq!(stats.wal_backlog_bytes, 180);
    assert_eq!(stats.backpressure_rejections, 1);
}
