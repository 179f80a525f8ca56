//! Write-chaos torture — seeded fault schedules against the write path.
//!
//! Two phases:
//!
//! 1. **Deterministic seeded schedules.** Each schedule drives one
//!    engine (no background threads) through a seeded mix of ingests,
//!    flushes, transient write-fault bursts, ENOSPC windows, and
//!    recovery probes over a [`FailingBackend`]. The invariants checked
//!    after *every* step:
//!
//!    - **no acked point is ever lost** — each batch the engine acked is
//!      tracked and must read back exactly, including across a simulated
//!      crash (reopen + WAL replay, no final flush);
//!    - **no unacked point is ever visible** — a batch that failed or
//!      was refused must not surface in reads;
//!    - **the caps hold** — buffered value bytes and the WAL backlog
//!      never exceed `max_buffered_bytes` / `max_wal_backlog_bytes`,
//!      asserted both directly and via the published registry gauges;
//!    - **the engine always recovers** — after the schedule the device
//!      heals and probes must walk the engine back to `Healthy`.
//!
//!    The store is then scrubbed (checksum-clean) and consolidated; the
//!    final store size is deterministic, and `tests/exact_gates.rs` pins
//!    it at smoke scale.
//!
//! 2. **Scheduler-live overload run (untimed).** The same fault knobs
//!    against a live scheduler + exporter: transient bursts absorbed by
//!    retries, then a full-device window that drives the engine
//!    `Healthy → Degraded → ReadOnly` while reads keep serving, then the
//!    device heals and the *scheduler's* probes recover it. The run
//!    itself checks that the published `artsparse_health_state` gauge
//!    reads healthy; the exporter directory is kept under `--out`
//!    (`torture-live`) for `validate-journal` and `watch`.
//!
//! [`FailingBackend`]: artsparse_storage::FailingBackend

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::Result;
use artsparse_core::FormatKind;
use artsparse_metrics::Table;
use artsparse_patterns::Scale;
use artsparse_storage::{
    EngineConfig, FailingBackend, HealthConfig, HealthState, IngestConfig, IngestScheduler,
    MemBackend, MetricsExporter, ObservabilityConfig, RetryPolicy, SchedulerConfig, StorageEngine,
    StorageError, METRICS_PROM,
};
use artsparse_tensor::{CoordBuffer, Shape};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic fault schedules per run.
const SCHEDULES: usize = 3;

/// Side length of the square torture tensor.
const SIDE: u64 = 64;

/// Buffered-value byte cap the schedules run under — small enough that
/// an ingest-heavy schedule trips it and backpressure must engage.
const BUFFER_CAP: usize = 2048;

/// WAL backlog byte cap.
const WAL_CAP: u64 = 8192;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[derive(Debug, Serialize)]
struct ScheduleRow {
    schedule: String,
    ops: usize,
    acked_batches: u64,
    acked_points: usize,
    failed_batches: u64,
    backpressure_rejections: u64,
    read_only_rejections: u64,
    enospc_windows: u64,
    max_buffer_bytes: usize,
    max_wal_bytes: u64,
    /// The engine ended the schedule back in `Healthy`.
    recovered: bool,
    /// Every acked point survived the crash + replay and read back
    /// exactly; no unacked point was ever visible; scrub was clean.
    verified: bool,
    store_bytes: u64,
}

/// What the scheduler-live overload run observed.
#[derive(Debug, Serialize)]
struct LiveRow {
    acked_points: usize,
    reached_read_only: bool,
    health_transitions: usize,
    store_bytes: u64,
    verified: bool,
}

type TortureEngine = StorageEngine<FailingBackend<MemBackend>>;

fn torture_engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_ingest(IngestConfig {
            // Only explicit/scheduled flushes: the caps, not the flush
            // thresholds, must bound memory.
            flush_points: usize::MAX,
            flush_interval_ms: 1,
            max_buffered_bytes: BUFFER_CAP,
            max_wal_backlog_bytes: WAL_CAP,
            backpressure_resume_pct: 50,
        })
        // Zero backoff keeps seeded schedules fast and deterministic.
        .with_retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
        })
        .with_health(HealthConfig {
            read_only_after: 4,
            probe_interval_ms: 0,
        })
        .with_observability(ObservabilityConfig::default())
}

fn open_torture_engine(backend: FailingBackend<MemBackend>) -> Result<TortureEngine> {
    Ok(StorageEngine::open_with(
        backend,
        FormatKind::Coo,
        Shape::new(vec![SIDE, SIDE])?,
        8,
        torture_engine_config(),
    )?)
}

/// Assert the byte caps hold, both directly and through the published
/// registry gauges (`engine.observe()` refreshes them first).
fn assert_caps(engine: &TortureEngine) -> Result<(usize, u64)> {
    let stats = engine.stats()?;
    let (buffered, wal) = (stats.buffer.value_bytes, stats.wal_backlog_bytes);
    if buffered > BUFFER_CAP {
        return Err(format!("buffer cap violated: {buffered} > {BUFFER_CAP}").into());
    }
    if wal > WAL_CAP {
        return Err(format!("WAL backlog cap violated: {wal} > {WAL_CAP}").into());
    }
    engine.observe();
    let reg = engine.observability().expect("plane configured").registry();
    let g_buf = reg.gauge("artsparse_write_buffer_bytes", "").get();
    let g_wal = reg.gauge("artsparse_wal_backlog_bytes", "").get();
    if g_buf > BUFFER_CAP as f64 || g_wal > WAL_CAP as f64 {
        return Err(format!("gauges exceed caps: buffer {g_buf}, wal {g_wal}").into());
    }
    Ok((buffered, wal))
}

/// Check that every tracked acked point reads back exactly and that the
/// listed unacked addresses are not visible.
fn verify_store(
    engine: &TortureEngine,
    acked: &BTreeMap<(u64, u64), f64>,
    unacked: &[(u64, u64)],
) -> Result<()> {
    for (&(r, c), &want) in acked {
        let got = engine.read_values::<f64>(&CoordBuffer::from_points(2, &[[r, c]])?)?;
        if got != vec![Some(want)] {
            return Err(format!("acked point ({r},{c})={want} lost: read {got:?}").into());
        }
    }
    for &(r, c) in unacked {
        if acked.contains_key(&(r, c)) {
            continue; // an older ack legitimately covers this address
        }
        let got = engine.read_values::<f64>(&CoordBuffer::from_points(2, &[[r, c]])?)?;
        if got != vec![None] {
            return Err(format!("unacked point ({r},{c}) is visible: read {got:?}").into());
        }
    }
    Ok(())
}

/// Run one deterministic seeded fault schedule (phase 1).
fn run_schedule(index: usize, base_seed: u64, ops: usize) -> Result<ScheduleRow> {
    // SplitMix64-style finalizer so adjacent schedule indices get fully
    // decorrelated fault schedules from one base seed.
    let mut seed = base_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    seed = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    seed = (seed ^ (seed >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut rng = (seed ^ (seed >> 31)) | 1;
    let engine = open_torture_engine(FailingBackend::new(MemBackend::new()))?;

    let mut acked: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut unacked: Vec<(u64, u64)> = Vec::new();
    let mut row = ScheduleRow {
        schedule: format!("sched{index}"),
        ops,
        acked_batches: 0,
        acked_points: 0,
        failed_batches: 0,
        backpressure_rejections: 0,
        read_only_rejections: 0,
        enospc_windows: 0,
        max_buffer_bytes: 0,
        max_wal_bytes: 0,
        recovered: false,
        verified: false,
        store_bytes: 0,
    };
    let mut enospc_left = 0u32; // steps remaining in the current window

    for step in 0..ops {
        if enospc_left > 0 {
            enospc_left -= 1;
            if enospc_left == 0 {
                engine.backend().set_out_of_space(false);
            }
        }
        match xorshift(&mut rng) % 100 {
            // Ingest a small batch (the bulk of the schedule).
            0..=59 => {
                let n = (xorshift(&mut rng) % 8 + 1) as usize;
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push([xorshift(&mut rng) % SIDE, xorshift(&mut rng) % SIDE]);
                }
                let values: Vec<f64> = (0..n).map(|i| (step * 8 + i) as f64).collect();
                let coords = CoordBuffer::from_points(2, &points)?;
                match engine.ingest_points::<f64>(&coords, &values) {
                    Ok(_) => {
                        row.acked_batches += 1;
                        for (p, v) in points.iter().zip(&values) {
                            acked.insert((p[0], p[1]), *v);
                        }
                    }
                    Err(StorageError::Backpressure { .. }) => {
                        row.backpressure_rejections += 1;
                        unacked.extend(points.iter().map(|p| (p[0], p[1])));
                    }
                    Err(StorageError::ReadOnly { .. }) => {
                        row.read_only_rejections += 1;
                        unacked.extend(points.iter().map(|p| (p[0], p[1])));
                    }
                    Err(_) => {
                        row.failed_batches += 1;
                        unacked.extend(points.iter().map(|p| (p[0], p[1])));
                    }
                }
            }
            // A burst of transient write faults (shorter than the retry
            // budget absorbs, sometimes longer).
            60..=69 => engine
                .backend()
                .fail_next_writes(xorshift(&mut rng) % 5 + 1),
            // An ENOSPC window: the device is full for the next few ops.
            70..=75 => {
                engine.backend().set_out_of_space(true);
                enospc_left = (xorshift(&mut rng) % 4 + 2) as u32;
                row.enospc_windows += 1;
            }
            // Group commit (may itself fail under armed faults — that
            // is the point; flush failures surface and are retried).
            76..=84 => {
                let _ = engine.flush();
            }
            // A recovery probe, as the background scheduler would issue.
            85..=89 => {
                engine.probe_health();
            }
            // Spot-check a random acked point mid-chaos.
            _ => {
                if let Some((&(r, c), &want)) = acked.iter().next() {
                    let got =
                        engine.read_values::<f64>(&CoordBuffer::from_points(2, &[[r, c]])?)?;
                    if got != vec![Some(want)] {
                        return Err(format!("mid-run loss of acked ({r},{c}): {got:?}").into());
                    }
                }
            }
        }
        let (buffered, wal) = assert_caps(&engine)?;
        row.max_buffer_bytes = row.max_buffer_bytes.max(buffered);
        row.max_wal_bytes = row.max_wal_bytes.max(wal);
    }

    // The device heals; bounded probing must always walk the engine
    // back to Healthy (the schedule may have parked it ReadOnly).
    engine.backend().disarm();
    for _ in 0..8 {
        if engine.probe_health() == HealthState::Healthy {
            break;
        }
    }
    row.recovered = engine.health() == HealthState::Healthy;
    if !row.recovered {
        return Err(format!(
            "schedule {index}: engine failed to recover (state {})",
            engine.health()
        )
        .into());
    }

    // Simulated crash: drop the buffer (no final flush) and reopen.
    // WAL replay must resurrect every acked-but-unflushed batch.
    let backend = engine.into_backend();
    let engine = open_torture_engine(backend)?;
    verify_store(&engine, &acked, &unacked)?;
    let scrub = engine.scrub()?;
    if !scrub.findings.is_empty() {
        return Err(format!("schedule {index}: scrub found damage: {scrub:?}").into());
    }
    engine.flush()?;
    engine.consolidate()?;
    row.store_bytes = engine.stats()?.total_bytes;
    row.acked_points = acked.len();
    row.verified = true;
    Ok(row)
}

/// Phase 2: overload and recovery against a live scheduler + exporter.
fn run_live(dir: &Path) -> Result<LiveRow> {
    let engine = Arc::new(StorageEngine::open_with(
        FailingBackend::new(MemBackend::new()),
        FormatKind::Coo,
        Shape::new(vec![SIDE, SIDE])?,
        8,
        torture_engine_config(),
    )?);
    let mut exporter = MetricsExporter::spawn(Arc::clone(&engine), dir)?;
    let mut scheduler = IngestScheduler::spawn(
        Arc::clone(&engine),
        SchedulerConfig {
            tick_ms: 1,
            ..SchedulerConfig::default()
        },
    );

    let mut acked: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let ingest_row =
        |engine: &TortureEngine, acked: &mut BTreeMap<(u64, u64), f64>, row: u64| -> Result<bool> {
            let points: Vec<[u64; 2]> = (0..16).map(|c| [row % SIDE, c]).collect();
            let values: Vec<f64> = (0..16).map(|c| (row * 100 + c) as f64).collect();
            let coords = CoordBuffer::from_points(2, &points)?;
            match engine.ingest_points::<f64>(&coords, &values) {
                Ok(_) => {
                    for (p, v) in points.iter().zip(&values) {
                        acked.insert((p[0], p[1]), *v);
                    }
                    Ok(true)
                }
                Err(_) => Ok(false),
            }
        };

    // Healthy ingest with transient bursts the retry policy absorbs:
    // every sixth row meets two transient write faults.
    for row in 0..24u64 {
        if row % 6 == 5 {
            engine.backend().fail_next_writes(2);
        }
        ingest_row(&engine, &mut acked, row)?;
    }

    // The device fills: hammer until the health ladder bottoms out in
    // ReadOnly (every batch fails permanently, no retry can land).
    engine.backend().set_out_of_space(true);
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.health() != HealthState::ReadOnly {
        if Instant::now() >= deadline {
            return Err("engine never reached ReadOnly under ENOSPC".into());
        }
        ingest_row(&engine, &mut acked, 24)?;
    }
    let reached_read_only = true;
    // Read-only still serves reads and preserves every acked batch.
    verify_store(&engine, &acked, &[])?;

    // Space frees; the *scheduler's* periodic probes must recover the
    // engine without any foreground help.
    engine.backend().disarm();
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.health() != HealthState::Healthy {
        if Instant::now() >= deadline {
            return Err("scheduler probes never recovered the engine".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // Writes flow again; drain and verify. Healthy does not mean drained:
    // the buffer may still sit at its cap until the scheduler's next
    // flush, so a refused batch is retried, as `Backpressure` asks.
    let deadline = Instant::now() + Duration::from_secs(10);
    for row in 25..32u64 {
        while !ingest_row(&engine, &mut acked, row)? {
            if Instant::now() >= deadline {
                return Err(format!("post-recovery ingest of row {row} failed").into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    engine.flush()?;
    verify_store(&engine, &acked, &[])?;
    let transitions = engine
        .observability()
        .expect("plane configured")
        .journal()
        .drain_new()
        .iter()
        .filter(|e| e.code == "health_transition")
        .count();
    scheduler.shutdown();
    exporter.shutdown();

    // The published exposition must carry the healed health gauge.
    let prom = std::fs::read_to_string(dir.join(METRICS_PROM))?;
    let doc = artsparse_metrics::exposition::parse(&prom)
        .map_err(|e| format!("published exposition: {e}"))?;
    let health_gauge = doc
        .value("artsparse_health_state")
        .ok_or("artsparse_health_state missing from metrics.prom")?;
    if health_gauge != 0.0 {
        return Err(format!("exported health gauge is {health_gauge}, engine healed").into());
    }

    engine.consolidate()?;
    let scrub = engine.scrub()?;
    Ok(LiveRow {
        acked_points: acked.len(),
        reached_read_only,
        health_transitions: transitions,
        store_bytes: engine.stats()?.total_bytes,
        verified: scrub.findings.is_empty(),
    })
}

/// Run the write-chaos torture experiment.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let ops = match cfg.scale {
        Scale::Smoke => 240,
        _ => 800,
    };
    let scratch = tempfile::tempdir()?;
    let mut rows = Vec::new();
    for index in 0..SCHEDULES {
        let row = run_schedule(index, cfg.params.seed, ops)?;
        eprintln!(
            "[torture] {}: {} op(s) · {} acked / {} failed / {} shed · \
             peak buffer {} B, wal {} B · recovered={} verified={}",
            row.schedule,
            row.ops,
            row.acked_batches,
            row.failed_batches,
            row.backpressure_rejections + row.read_only_rejections,
            row.max_buffer_bytes,
            row.max_wal_bytes,
            row.recovered,
            row.verified,
        );
        rows.push(row);
    }

    let live_dir = match &cfg.out_dir {
        Some(dir) => dir.join("torture-live"),
        None => scratch.path().to_path_buf(),
    };
    std::fs::create_dir_all(&live_dir)?;
    let live = run_live(&live_dir)?;
    eprintln!(
        "[torture] live: {} acked point(s) · read-only reached and recovered · \
         {} health transition(s)",
        live.acked_points, live.health_transitions,
    );

    let mut table = Table::new(
        "write-chaos torture — seeded fault schedules",
        &[
            "schedule",
            "ops",
            "acked",
            "failed",
            "shed",
            "enospc",
            "peak buf B",
            "peak wal B",
            "recovered",
            "verified",
            "store B",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.schedule.clone(),
            r.ops.to_string(),
            r.acked_batches.to_string(),
            r.failed_batches.to_string(),
            (r.backpressure_rejections + r.read_only_rejections).to_string(),
            r.enospc_windows.to_string(),
            r.max_buffer_bytes.to_string(),
            r.max_wal_bytes.to_string(),
            r.recovered.to_string(),
            r.verified.to_string(),
            r.store_bytes.to_string(),
        ]);
    }
    let mut live_table = Table::new(
        "scheduler-live overload and recovery",
        &[
            "acked pts",
            "read-only",
            "transitions",
            "store B",
            "verified",
        ],
    );
    live_table.push_row(vec![
        live.acked_points.to_string(),
        live.reached_read_only.to_string(),
        live.health_transitions.to_string(),
        live.store_bytes.to_string(),
        live.verified.to_string(),
    ]);

    Ok(ExperimentOutput {
        name: "torture",
        notes: vec![
            "Seeded write-fault schedules (transient bursts, ENOSPC windows,".into(),
            "backpressure) against the streaming write path. Invariants held".into(),
            "after every step: acked points always readable (including across".into(),
            "a crash + WAL replay), unacked points never visible, buffer/WAL".into(),
            "byte caps never exceeded (checked via the registry gauges), and".into(),
            "the engine always recovered to Healthy once the device healed.".into(),
            "The live phase drives a scheduler-run engine into ReadOnly under".into(),
            "ENOSPC and checks automatic probe-driven recovery.".into(),
        ],
        tables: vec![table, live_table],
        json: serde_json::json!({
            "scale": cfg.scale,
            "seed": cfg.params.seed,
            "schedules": rows,
            "live": live,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torture_schedules_hold_all_invariants() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = Config::smoke();
        cfg.out_dir = Some(dir.path().to_path_buf());
        let out = run(&cfg).unwrap();
        let rows = out.json["schedules"].as_array().unwrap();
        assert_eq!(rows.len(), SCHEDULES);
        for r in rows {
            assert_eq!(r["verified"].as_bool(), Some(true));
            assert_eq!(r["recovered"].as_bool(), Some(true));
            assert!(r["acked_batches"].as_u64().unwrap() > 0);
            assert!(r["max_buffer_bytes"].as_u64().unwrap() <= BUFFER_CAP as u64);
            assert!(r["max_wal_bytes"].as_u64().unwrap() <= WAL_CAP);
        }
        // At least one schedule must actually have exercised the fault
        // paths — a torture run where nothing ever failed tests nothing.
        let failed: u64 = rows
            .iter()
            .map(|r| r["failed_batches"].as_u64().unwrap())
            .sum();
        let shed: u64 = rows
            .iter()
            .map(|r| {
                r["backpressure_rejections"].as_u64().unwrap()
                    + r["read_only_rejections"].as_u64().unwrap()
            })
            .sum();
        assert!(failed > 0, "no schedule produced a write failure");
        assert!(shed > 0, "no schedule produced an overload rejection");
        let live = &out.json["live"];
        assert_eq!(live["reached_read_only"].as_bool(), Some(true));
        assert_eq!(live["verified"].as_bool(), Some(true));
        assert!(live["health_transitions"].as_u64().unwrap() >= 2);
        // The kept live exporter directory publishes the health gauge.
        let prom =
            std::fs::read_to_string(dir.path().join("torture-live").join(METRICS_PROM)).unwrap();
        assert!(prom.contains("artsparse_health_state"));
    }

    #[test]
    fn schedules_are_deterministic() {
        let a = run_schedule(0, 42, 240).unwrap();
        let b = run_schedule(0, 42, 240).unwrap();
        assert_eq!(a.acked_batches, b.acked_batches);
        assert_eq!(a.store_bytes, b.store_bytes);
    }
}
