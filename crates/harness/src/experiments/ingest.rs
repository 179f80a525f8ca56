//! Streaming ingest — group-commit and WAL byte accounting.
//!
//! Per pattern (MSP and GSP at 3D) the dataset is ingested in fixed
//! `--ingest-batch` point batches through the WAL-protected buffer with
//! `--ingest-flush-points` as the only self-flush trigger, then flushed,
//! consolidated and read back. On the in-memory backend every count —
//! WAL bytes, group commits, final store size — is a pure function of
//! the dataset; `tests/exact_gates.rs` pins WAL and store bytes at smoke
//! scale. How fast served ingest is, under concurrent reads and a live
//! scheduler, is the repo benchmark's question (`benchmark/`, workloads
//! `serve-ingest` and `embed-lifecycle`).

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::Result;
use artsparse_core::FormatKind;
use artsparse_metrics::Table;
use artsparse_patterns::{Dataset, Pattern};
use artsparse_storage::{EngineConfig, MemBackend, ObservabilityConfig, StorageEngine};
use artsparse_tensor::CoordBuffer;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    pattern: String,
    n_points: usize,
    batches: usize,
    group_commits: u64,
    wal_bytes: u64,
    fragments_before_consolidate: usize,
    final_fragments: usize,
    total_bytes: u64,
    readback_verified: bool,
}

/// Slice the dataset into `batch`-point [`CoordBuffer`]s plus their
/// value slices.
fn batches(ds: &Dataset, values: &[f64], batch: usize) -> Result<Vec<(CoordBuffer, Vec<f64>)>> {
    let n = ds.nnz();
    let mut out = Vec::with_capacity(n.div_ceil(batch));
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + batch).min(n);
        let mut coords = CoordBuffer::with_capacity(ds.shape.ndim(), hi - lo);
        for coord in ds.coords.iter().skip(lo).take(hi - lo) {
            coords.push(coord)?;
        }
        out.push((coords, values[lo..hi].to_vec()));
        lo = hi;
    }
    Ok(out)
}

/// Deterministic ingest → flush → consolidate with telemetry.
fn run_pattern(cfg: &Config, pattern: Pattern) -> Result<Row> {
    let ndim = 3;
    let ds = Dataset::for_scale(pattern, ndim, cfg.scale, cfg.params);
    let values = ds.values();
    let work = batches(&ds, &values, cfg.ingest_batch.max(1))?;

    let engine = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Coo,
        ds.shape.clone(),
        8,
        EngineConfig::default()
            .with_ingest(cfg.ingest_config())
            .with_observability(ObservabilityConfig::default()),
    )?;

    for (coords, vals) in &work {
        engine.ingest_points::<f64>(coords, vals)?;
    }
    engine.flush()?;
    let fragments_before = engine.fragments()?.len();
    engine.consolidate()?;

    // Read-back: the consolidated store returns every ingested point
    // (later duplicates having won).
    let (coords, _) = engine.export()?;
    let mut expected = std::collections::BTreeSet::new();
    for coord in ds.coords.iter() {
        expected.insert(coord.to_vec());
    }
    let readback_verified =
        coords.len() == expected.len() && coords.iter().all(|c| expected.contains(c));

    let stats = engine.stats()?;
    let telemetry = engine.telemetry_report();
    let totals = telemetry.as_ref().map(|t| t.totals).unwrap_or_default();
    if let (Some(dir), Some(report)) = (&cfg.telemetry_out, &telemetry) {
        let path = crate::telemetry::write_cell_document(
            dir,
            cfg,
            "INGEST",
            pattern.name(),
            ndim,
            report,
        )?;
        eprintln!("[ingest] telemetry -> {}", path.display());
    } else if cfg.telemetry {
        if let Some(report) = &telemetry {
            eprintln!("{}", report.to_ascii());
        }
    }

    Ok(Row {
        pattern: pattern.name().to_string(),
        n_points: ds.nnz(),
        batches: work.len(),
        group_commits: totals.group_commits,
        wal_bytes: totals.wal_bytes,
        fragments_before_consolidate: fragments_before,
        final_fragments: engine.fragments()?.len(),
        total_bytes: stats.total_bytes,
        readback_verified,
    })
}

/// Run the streaming-ingest experiment for MSP and GSP at 3D.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let mut rows = Vec::new();
    for pattern in [Pattern::Msp, Pattern::Gsp] {
        eprintln!(
            "[ingest] {} 3D, {}-point batches, flush at {} points",
            pattern.name(),
            cfg.ingest_batch,
            cfg.ingest_flush_points
        );
        let row = run_pattern(cfg, pattern)?;
        eprintln!(
            "[ingest]   {} points in {} batches | {} group commits | {} WAL bytes | \
             {} store bytes",
            row.n_points, row.batches, row.group_commits, row.wal_bytes, row.total_bytes
        );
        rows.push(row);
    }

    let mut table = Table::new(
        "streaming ingest — WAL-protected group commits",
        &[
            "pattern", "points", "batches", "commits", "WAL B", "store B", "verified",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.pattern.clone(),
            r.n_points.to_string(),
            r.batches.to_string(),
            r.group_commits.to_string(),
            r.wal_bytes.to_string(),
            r.total_bytes.to_string(),
            r.readback_verified.to_string(),
        ]);
    }

    Ok(ExperimentOutput {
        name: "ingest",
        notes: vec![
            "Streaming ingest: batches are WAL-acked into the write buffer and".into(),
            "group-committed into ordinary fragments at the flush threshold.".into(),
            "`verified` means the consolidated store exports exactly the".into(),
            "ingested coordinate set.".into(),
        ],
        tables: vec![table],
        json: serde_json::json!({
            "scale": cfg.scale,
            "ingest_batch": cfg.ingest_batch,
            "ingest_flush_points": cfg.ingest_flush_points,
            "rows": rows,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_commits_deterministically_and_verifies_readback() {
        let cfg = Config::smoke();
        let out = run(&cfg).unwrap();
        let rows = out.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        // Consolidation leaves one fragment: MSP's 9 525 points in three
        // ≤ 4 096-point pages of it, GSP's 2 588 in one.
        for r in rows {
            assert_eq!(r["readback_verified"].as_bool(), Some(true));
            assert!(r["group_commits"].as_u64().unwrap() >= 1);
            assert!(r["wal_bytes"].as_u64().unwrap() > 0);
            assert_eq!(r["final_fragments"].as_u64(), Some(1));
        }
        // Determinism of the pinned bytes: a second run matches.
        let again = run(&cfg).unwrap();
        let bytes = |o: &ExperimentOutput| -> Vec<(u64, u64)> {
            o.json["rows"]
                .as_array()
                .unwrap()
                .iter()
                .map(|r| {
                    (
                        r["wal_bytes"].as_u64().unwrap(),
                        r["total_bytes"].as_u64().unwrap(),
                    )
                })
                .collect()
        };
        assert_eq!(bytes(&out), bytes(&again), "bytes must be deterministic");
    }
}
