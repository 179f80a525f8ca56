//! The measurement matrix: every `(organization, pattern, dimensionality)`
//! cell of the paper's evaluation grid, measured once and reused by the
//! Fig. 3/4/5 and Table III/IV experiments.

use crate::config::{BackendKind, Config};
use crate::Result;
use artsparse_core::FormatKind;
use artsparse_metrics::{Measurement, SpanKind, TelemetryReport, WriteBreakdown};
use artsparse_patterns::{Dataset, Scale};
use artsparse_storage::{FsBackend, MemBackend, SimulatedDisk, StorageBackend, StorageEngine};
use artsparse_tensor::value::pack;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Bandwidth of the simulated device (`--backend sim`), in MiB/s.
pub(crate) const SIM_BANDWIDTH_MIB: f64 = 2048.0;

/// Per-operation latency of the simulated device.
pub(crate) const SIM_LATENCY: Duration = Duration::from_micros(250);

/// One measured grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellMeasurement {
    /// Organization name (paper spelling, e.g. `"GCSR++"`).
    pub format: String,
    /// Pattern name (`"TSP"`, `"GSP"`, `"MSP"`).
    pub pattern: String,
    /// Dimensionality (2, 3, 4).
    pub ndim: usize,
    /// Tensor shape label.
    pub shape: String,
    /// Points written.
    pub n_points: usize,
    /// Cells queried by the read (all cells of the §III read region).
    pub n_queries: usize,
    /// Queries that hit a stored point.
    pub read_hits: usize,
    /// Table III-style write phase breakdown of the cell's spans.
    pub breakdown: WriteBreakdown,
    /// Total WRITE wall time, the `engine.write` span (Fig. 3's metric).
    pub write_secs: f64,
    /// Total READ wall time, the `engine.read` span (Fig. 5's metric).
    pub read_secs: f64,
    /// Fragment size on the device (Fig. 4's metric).
    pub file_bytes: u64,
    /// Encoded index bytes within the fragment.
    pub index_bytes: u64,
    /// Fragments per organization after the write — under `--adaptive`
    /// the store may hold a different organization than the one the cell
    /// requested for ingest.
    pub org_mix: std::collections::BTreeMap<String, usize>,
    /// Write-path health state when the cell's workload finished
    /// (`healthy` unless the device misbehaved mid-cell).
    pub health: String,
    /// Ingest batches shed by admission control during the cell.
    pub backpressure_rejections: u64,
}

/// The full evaluation grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Matrix {
    /// Scale the grid was measured at.
    pub scale: Scale,
    /// Backend name.
    pub backend: String,
    /// All cells.
    pub cells: Vec<CellMeasurement>,
}

impl Matrix {
    /// Look up one cell.
    pub fn get(&self, format: &str, pattern: &str, ndim: usize) -> Option<&CellMeasurement> {
        self.cells
            .iter()
            .find(|c| c.format == format && c.pattern == pattern && c.ndim == ndim)
    }

    /// Flatten one metric into the score-formula input records.
    pub fn score_measurements(&self, metric: &str) -> Vec<Measurement> {
        self.cells
            .iter()
            .map(|c| Measurement {
                org: c.format.clone(),
                pattern: c.pattern.clone(),
                dim: format!("{}D", c.ndim),
                metric: metric.to_string(),
                value: match metric {
                    "write_time" => c.write_secs,
                    "read_time" => c.read_secs,
                    "file_size" => c.file_bytes as f64,
                    other => panic!("unknown metric {other}"),
                },
            })
            .collect()
    }
}

/// A backend plus whatever keeps it alive (temp dir for `fs`).
pub struct BackendHandle {
    /// The device.
    pub backend: Box<dyn StorageBackend>,
    _tmp: Option<tempfile::TempDir>,
}

/// Instantiate a fresh backend per the configuration. `store` names the
/// cell being measured: persistent filesystem runs (`fs` with `--out`)
/// keep each cell's fragments in their own `fragments/<store>`
/// directory. One shared directory would be wrong twice over — an
/// engine refuses fragments describing a foreign tensor shape, and
/// earlier cells' same-shape fragments would silently inflate later
/// cells' read measurements.
pub fn make_backend(cfg: &Config, store: &str) -> Result<BackendHandle> {
    Ok(match cfg.backend {
        BackendKind::Mem => BackendHandle {
            backend: Box::new(MemBackend::new()),
            _tmp: None,
        },
        BackendKind::Sim => BackendHandle {
            backend: Box::new(SimulatedDisk::new(
                SIM_BANDWIDTH_MIB * (1u64 << 20) as f64,
                SIM_LATENCY,
            )),
            _tmp: None,
        },
        BackendKind::Fs => {
            if let Some(dir) = &cfg.out_dir {
                let root = dir.join("fragments").join(store);
                BackendHandle {
                    backend: Box::new(FsBackend::new(root)?),
                    _tmp: None,
                }
            } else {
                let tmp = tempfile::tempdir()?;
                BackendHandle {
                    backend: Box::new(FsBackend::new(tmp.path())?),
                    _tmp: Some(tmp),
                }
            }
        }
    })
}

/// Measure one `(format, dataset)` cell: WRITE, then the §III region READ,
/// on an engine with the observability plane on. Returns the cell, timed
/// by its spans, and the telemetry report it was read from.
pub fn measure_cell(
    cfg: &Config,
    format: FormatKind,
    dataset: &Dataset,
    payload: &[u8],
    queries: &artsparse_tensor::CoordBuffer,
) -> Result<(CellMeasurement, TelemetryReport)> {
    let store =
        crate::telemetry::cell_slug(format.name(), dataset.pattern.name(), dataset.shape.ndim());
    let handle = make_backend(cfg, &store)?;
    let engine = StorageEngine::open_with(
        handle.backend,
        format,
        dataset.shape.clone(),
        8,
        cfg.engine_config(),
    )?;

    let report = engine.write(&dataset.coords, payload)?;
    let read = engine.read(queries)?;
    let telemetry = engine
        .telemetry_report()
        .ok_or("a matrix cell's engine runs with the observability plane")?;
    let stats = engine.stats()?;
    let breakdown = telemetry.write_breakdown();

    let cell = CellMeasurement {
        format: format.name().to_string(),
        pattern: dataset.pattern.name().to_string(),
        ndim: dataset.shape.ndim(),
        shape: dataset.shape.to_string(),
        n_points: dataset.nnz(),
        n_queries: queries.len(),
        read_hits: read.hits.len(),
        breakdown,
        write_secs: breakdown.sum(),
        read_secs: telemetry.total_ns(&[SpanKind::Read]) as f64 * 1e-9,
        file_bytes: report.total_bytes as u64,
        index_bytes: report.index_bytes as u64,
        org_mix: stats.by_format,
        health: stats.health.name().to_string(),
        backpressure_rejections: stats.backpressure_rejections,
    };
    Ok((cell, telemetry))
}

/// Run the full grid: every configured pattern × dimensionality ×
/// organization. With `telemetry_out` set, one JSON document per cell is
/// written there; with plain `telemetry`, an ASCII digest is printed per
/// cell.
pub fn run_matrix(cfg: &Config) -> Result<Matrix> {
    let mut cells = Vec::new();
    for &pattern in &cfg.patterns {
        for &ndim in &cfg.ndims {
            let dataset = Dataset::for_scale(pattern, ndim, cfg.scale, cfg.params);
            let payload = pack(&dataset.values());
            let queries = dataset.read_region().to_coords();
            eprintln!(
                "[matrix] {} — {} points, {} queries",
                dataset.label(),
                dataset.nnz(),
                queries.len()
            );
            for &format in &cfg.formats {
                let (cell, report) = measure_cell(cfg, format, &dataset, &payload, &queries)?;
                eprintln!(
                    "[matrix]   {:<14} write {:.4}s  read {:.4}s  {} bytes",
                    cell.format, cell.write_secs, cell.read_secs, cell.file_bytes
                );
                if let Some(dir) = &cfg.telemetry_out {
                    let path = crate::telemetry::write_cell_document(
                        dir,
                        cfg,
                        &cell.format,
                        &cell.pattern,
                        cell.ndim,
                        &report,
                    )?;
                    eprintln!("[matrix]   telemetry -> {}", path.display());
                } else if cfg.telemetry {
                    let mix = cell
                        .org_mix
                        .iter()
                        .map(|(k, v)| format!("{v}×{k}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    eprintln!("[matrix]   org mix: {mix}");
                    eprintln!(
                        "[matrix]   write health: {} · {} batch(es) shed",
                        cell.health, cell.backpressure_rejections
                    );
                    eprintln!("{}", report.to_ascii());
                }
                cells.push(cell);
            }
        }
    }
    Ok(Matrix {
        scale: cfg.scale,
        backend: cfg.backend.name().to_string(),
        cells,
    })
}

/// Measure just the datasets (no I/O) — Table II needs only generation.
pub fn datasets_for(cfg: &Config) -> Vec<Dataset> {
    let mut out = Vec::new();
    for &ndim in &cfg.ndims {
        for &pattern in &cfg.patterns {
            out.push(Dataset::for_scale(pattern, ndim, cfg.scale, cfg.params));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use artsparse_patterns::Pattern;

    #[test]
    fn smoke_matrix_runs_and_is_complete() {
        let mut cfg = Config::smoke();
        cfg.formats = vec![FormatKind::Linear, FormatKind::Csf];
        cfg.patterns = vec![Pattern::Gsp];
        cfg.ndims = vec![2, 3];
        let m = run_matrix(&cfg).unwrap();
        assert_eq!(m.cells.len(), 4);
        let cell = m.get("LINEAR", "GSP", 2).unwrap();
        assert!(cell.n_points > 0);
        assert!(cell.write_secs > 0.0);
        assert!(cell.file_bytes > 0);
        assert!(cell.read_hits <= cell.n_queries);
        assert!(m.get("GCSR++", "GSP", 2).is_none());
    }

    #[test]
    fn score_measurements_flatten() {
        let mut cfg = Config::smoke();
        cfg.formats = vec![FormatKind::Coo, FormatKind::Linear];
        cfg.patterns = vec![Pattern::Tsp];
        cfg.ndims = vec![2];
        let m = run_matrix(&cfg).unwrap();
        let ms = m.score_measurements("file_size");
        assert_eq!(ms.len(), 2);
        let coo = ms.iter().find(|x| x.org == "COO").unwrap();
        let lin = ms.iter().find(|x| x.org == "LINEAR").unwrap();
        assert!(coo.value > lin.value, "COO fragment must be larger");
    }

    #[test]
    fn fs_backend_cells_work() {
        let mut cfg = Config::smoke();
        cfg.backend = BackendKind::Fs;
        cfg.formats = vec![FormatKind::Coo];
        cfg.patterns = vec![Pattern::Tsp];
        cfg.ndims = vec![2];
        let m = run_matrix(&cfg).unwrap();
        assert_eq!(m.cells.len(), 1);
        assert!(m.cells[0].file_bytes > 0);
    }
}
