//! Live adaptive re-organization — the advisor wired into consolidation.
//!
//! Drives MSP/GSP mixed-density patterns through write→cool→consolidate
//! cycles against two stores that ingest identical batches: one with
//! `--adaptive` re-organization enabled (starting from COO, the cheapest
//! ingest organization) and one frozen in COO. After the cycles the
//! adaptive store must have converged to the organization an offline
//! advisor pass recommends over the full dataset and return
//! byte-identical reads. Both stores' sizes are deterministic on the
//! in-memory backend; `tests/exact_gates.rs` pins them at smoke scale.
//! The warm point-query timings of both stores are printed and kept in
//! `adaptive.json` as informational readings; nothing gates them.

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::Result;
use artsparse_core::advisor::recommend_from_stats;
use artsparse_core::stats::SparsityStats;
use artsparse_core::FormatKind;
use artsparse_metrics::Table;
use artsparse_patterns::{Dataset, Pattern};
use artsparse_storage::{EngineConfig, MemBackend, ObservabilityConfig, StorageEngine};
use artsparse_tensor::value::pack;
use artsparse_tensor::CoordBuffer;
use serde::Serialize;
use std::time::Instant;

/// Ingest batches per store: each batch is written then consolidated, so
/// the advisor sees the region grow cycle over cycle.
const CYCLES: usize = 4;
/// Warm-read repetitions per store (first read warms the cache and is
/// discarded).
const READ_REPS: usize = 5;
/// Point queries sampled from the dataset for the warm-read comparison.
const MAX_QUERIES: usize = 4096;

#[derive(Debug, Serialize)]
struct Row {
    pattern: String,
    n_points: usize,
    offline_recommendation: String,
    store_organization: String,
    converged: bool,
    reads_identical: bool,
    /// Informational: mean warm-read wall clock, gated by nothing.
    adaptive_read_ns: u64,
    /// Informational, as `adaptive_read_ns`.
    frozen_read_ns: u64,
    adaptive_bytes: u64,
    frozen_bytes: u64,
    fragments_migrated: u64,
    conversions_direct: u64,
    conversions_fallback: u64,
}

/// Time `READ_REPS` warm point-query passes; returns the mean in ns.
fn time_reads(engine: &StorageEngine<MemBackend>, queries: &CoordBuffer) -> Result<u64> {
    engine.read(queries)?; // warm the fragment cache
    let start = Instant::now();
    for _ in 0..READ_REPS {
        let r = engine.read(queries)?;
        assert!(!r.hits.is_empty(), "queries sample stored points");
    }
    Ok(start.elapsed().as_nanos() as u64 / READ_REPS as u64)
}

/// Drive one pattern through the cycles; returns the comparison row.
fn run_pattern(cfg: &Config, pattern: Pattern) -> Result<Row> {
    let ndim = 3;
    let ds = Dataset::for_scale(pattern, ndim, cfg.scale, cfg.params);
    let values = ds.values();
    let n = ds.nnz();

    // Telemetry is always on (for the migration counters in the output);
    // both engines carry it so the warm-read comparison stays symmetric.
    let adaptive = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Coo,
        ds.shape.clone(),
        8,
        EngineConfig::default()
            .with_adaptive_reorg(cfg.profile)
            .with_observability(ObservabilityConfig::default()),
    )?;
    let frozen = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Coo,
        ds.shape.clone(),
        8,
        EngineConfig::default().with_observability(ObservabilityConfig::default()),
    )?;

    // Write→cool→consolidate cycles with identical batches to both stores.
    for cycle in 0..CYCLES {
        let lo = n * cycle / CYCLES;
        let hi = n * (cycle + 1) / CYCLES;
        if lo == hi {
            continue;
        }
        let mut batch = CoordBuffer::with_capacity(ndim, hi - lo);
        for coord in ds.coords.iter().skip(lo).take(hi - lo) {
            batch.push(coord)?;
        }
        let payload = pack(&values[lo..hi]);
        adaptive.write(&batch, &payload)?;
        frozen.write(&batch, &payload)?;
        adaptive.consolidate()?;
        frozen.consolidate()?;
    }

    // Offline pass: characterize the full dataset and ask the advisor what
    // it would pick, exactly as the engine does at consolidation time.
    let (all_coords, all_values) = adaptive.export()?;
    let stats = SparsityStats::from_coords(&all_coords, &ds.shape);
    let offline = recommend_from_stats(&stats, &cfg.profile.access_profile()).best();

    // Convergence: one run (one fragment, or the parts of one pass) in
    // one organization, the advisor's pick, and a further consolidation
    // leaves the store unchanged (the advisor re-affirms).
    let again = adaptive.consolidate()?;
    let a_stats = adaptive.stats()?;
    let converged = again.merged_fragments == 1
        && again.fragment.is_none()
        && a_stats.by_format.keys().collect::<Vec<_>>() == vec![offline.name()];

    // Byte identity: both stores return the same points and payload.
    let (f_coords, f_values) = frozen.export()?;
    let reads_identical = all_coords.len() == f_coords.len()
        && all_coords.iter().zip(f_coords.iter()).all(|(a, b)| a == b)
        && all_values == f_values;

    // Warm point reads over a sample of stored coordinates.
    let stride = n.div_ceil(MAX_QUERIES).max(1);
    let mut queries = CoordBuffer::new(ndim);
    for coord in ds.coords.iter().step_by(stride) {
        queries.push(coord)?;
    }
    let adaptive_read_ns = time_reads(&adaptive, &queries)?;
    let frozen_read_ns = time_reads(&frozen, &queries)?;

    let f_stats = frozen.stats()?;
    let telemetry = adaptive.telemetry_report();
    let totals = telemetry.as_ref().map(|t| t.totals).unwrap_or_default();
    if let (Some(dir), Some(report)) = (&cfg.telemetry_out, &telemetry) {
        let path = crate::telemetry::write_cell_document(
            dir,
            cfg,
            "ADAPTIVE",
            pattern.name(),
            ndim,
            report,
        )?;
        eprintln!("[adaptive] telemetry -> {}", path.display());
    } else if cfg.telemetry {
        if let Some(report) = &telemetry {
            eprintln!("{}", report.to_ascii());
        }
    }

    Ok(Row {
        pattern: pattern.name().to_string(),
        n_points: n,
        offline_recommendation: offline.name().to_string(),
        store_organization: a_stats
            .by_format
            .keys()
            .cloned()
            .collect::<Vec<_>>()
            .join("+"),
        converged,
        reads_identical,
        adaptive_read_ns,
        frozen_read_ns,
        adaptive_bytes: a_stats.total_bytes,
        frozen_bytes: f_stats.total_bytes,
        fragments_migrated: totals.fragments_migrated,
        conversions_direct: totals.conversions_direct,
        conversions_fallback: totals.conversions_fallback,
    })
}

/// Run the adaptive-vs-frozen comparison for MSP and GSP at 3D.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let mut rows = Vec::new();
    for pattern in [Pattern::Msp, Pattern::Gsp] {
        eprintln!(
            "[adaptive] {} 3D, profile {}, {CYCLES} write→consolidate cycles",
            pattern.name(),
            cfg.profile.name()
        );
        let row = run_pattern(cfg, pattern)?;
        eprintln!(
            "[adaptive]   advisor {} | store {} | converged {} | reads identical {} | \
             warm read {} ns vs frozen-COO {} ns (informational)",
            row.offline_recommendation,
            row.store_organization,
            row.converged,
            row.reads_identical,
            row.adaptive_read_ns,
            row.frozen_read_ns
        );
        rows.push(row);
    }

    let mut table = Table::new(
        format!(
            "adaptive re-organization vs frozen COO — profile {}",
            cfg.profile.name()
        ),
        &[
            "pattern",
            "advisor",
            "store org",
            "converged",
            "identical",
            "adaptive ns",
            "frozen ns",
            "adaptive B",
            "frozen B",
            "migrations",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.pattern.clone(),
            r.offline_recommendation.clone(),
            r.store_organization.clone(),
            r.converged.to_string(),
            r.reads_identical.to_string(),
            r.adaptive_read_ns.to_string(),
            r.frozen_read_ns.to_string(),
            r.adaptive_bytes.to_string(),
            r.frozen_bytes.to_string(),
            r.fragments_migrated.to_string(),
        ]);
    }

    Ok(ExperimentOutput {
        name: "adaptive",
        notes: vec![
            "Two stores ingest identical batches through write→consolidate cycles:".into(),
            "adaptive (advisor-driven re-organization, COO ingest) vs frozen COO.".into(),
            "`converged` means the store is exactly one run (one fragment, or the".into(),
            "parts of one consolidation pass) in the offline advisor's recommended".into(),
            "organization, and a further pass leaves it as it is; `identical` means".into(),
            "both stores export the same coordinates and payload bytes after".into(),
            "migration. The ns columns are informational wall-clock readings; the".into(),
            "gate is bytes.".into(),
        ],
        tables: vec![table],
        json: serde_json::json!({
            "scale": cfg.scale,
            "profile": cfg.profile.name(),
            "cycles": CYCLES,
            "rows": rows,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_converges_and_reads_identically() {
        let cfg = Config::smoke();
        let out = run(&cfg).unwrap();
        let rows = out.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert_eq!(
                r["converged"].as_bool(),
                Some(true),
                "store follows the offline advisor"
            );
            assert_eq!(
                r["reads_identical"].as_bool(),
                Some(true),
                "migration preserves bytes"
            );
            assert!(r["fragments_migrated"].as_u64().unwrap() >= 1);
        }
    }
}
