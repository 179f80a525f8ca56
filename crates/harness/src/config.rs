//! Experiment configuration shared by every table/figure runner.

use artsparse_core::FormatKind;
use artsparse_patterns::{Pattern, PatternParams, Scale};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Which storage device backs the engine during an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// In-memory store — measures pure algorithm time.
    Mem,
    /// Local file system (a temporary directory, or `out_dir/fragments`).
    Fs,
    /// Deterministic simulated device with Lustre-like bandwidth/latency —
    /// the default, because the paper's write-time findings (Table III)
    /// hinge on bytes-written × device throughput.
    Sim,
}

impl BackendKind {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "mem" | "memory" => Some(BackendKind::Mem),
            "fs" | "file" | "disk" => Some(BackendKind::Fs),
            "sim" | "simulated" | "lustre" => Some(BackendKind::Sim),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Mem => "mem",
            BackendKind::Fs => "fs",
            BackendKind::Sim => "sim",
        }
    }
}

/// Configuration for one experiment invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Config {
    /// Tensor sizes (paper / medium / smoke).
    pub scale: Scale,
    /// Storage device.
    pub backend: BackendKind,
    /// Pattern-generation parameters (seed, thresholds, band).
    pub params: PatternParams,
    /// Organizations to evaluate (defaults to the paper's five).
    pub formats: Vec<FormatKind>,
    /// Patterns to evaluate (defaults to all three).
    pub patterns: Vec<Pattern>,
    /// Dimensionalities to evaluate (defaults to 2, 3, 4).
    pub ndims: Vec<usize>,
    /// Where to write JSON/CSV artifacts (`None` = print only).
    pub out_dir: Option<PathBuf>,
    /// Print each matrix cell's telemetry digest (span traces, I/O
    /// accounting, latency histograms). Cells always record it: their
    /// seconds are read off the spans.
    pub telemetry: bool,
    /// Directory for per-cell telemetry JSON documents
    /// (`telemetry-<format>-<pattern>-<ndim>D.json`), written instead of
    /// the printed digest.
    pub telemetry_out: Option<PathBuf>,
    /// Cap on the threads one read fans its planned fragments out over
    /// (`--threads`, the engine's `read_parallelism`): `0` (the default)
    /// bounds it by the host's available parallelism, `1` forces the
    /// sequential reference path. Builds and per-query loops run on one
    /// thread whatever this is.
    pub threads: usize,
    /// Enable live adaptive re-organization (`--adaptive`): consolidation
    /// characterizes the merged region, consults the advisor under
    /// [`profile`](Config::profile), and re-encodes in the winning
    /// organization.
    pub adaptive: bool,
    /// Advisor weight preset for adaptive re-organization and the
    /// `advise` subcommand (`--profile balanced|write-heavy|read-heavy`).
    pub profile: artsparse_storage::ReorgProfile,
    /// Points per streaming-ingest batch in the `ingest` experiment
    /// (`--ingest-batch`).
    pub ingest_batch: usize,
    /// Group-commit flush threshold in points for the `ingest` experiment
    /// (`--ingest-flush-points`).
    pub ingest_flush_points: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: Scale::Medium,
            backend: BackendKind::Sim,
            params: PatternParams::default(),
            formats: FormatKind::PAPER_FIVE.to_vec(),
            patterns: Pattern::ALL.to_vec(),
            ndims: Scale::NDIMS.to_vec(),
            out_dir: None,
            telemetry: false,
            telemetry_out: None,
            threads: 0,
            adaptive: false,
            profile: artsparse_storage::ReorgProfile::Balanced,
            ingest_batch: 64,
            ingest_flush_points: 1024,
        }
    }
}

impl Config {
    /// The streaming-ingest knobs the `ingest` experiment runs under:
    /// WAL-protected batches and the `--ingest-flush-points` group-commit
    /// threshold, the only self-flush trigger its 8-byte records reach.
    pub fn ingest_config(&self) -> artsparse_storage::IngestConfig {
        artsparse_storage::IngestConfig {
            flush_points: self.ingest_flush_points.max(1),
            flush_interval_ms: 1,
            ..Default::default()
        }
    }

    /// The engine configuration a matrix cell runs under: the
    /// observability plane, whose spans time the cell, and the
    /// `--threads` read fan-out cap.
    pub fn engine_config(&self) -> artsparse_storage::EngineConfig {
        let mut ec = artsparse_storage::EngineConfig::default()
            .with_read_parallelism(self.threads)
            .with_observability(artsparse_storage::ObservabilityConfig::default());
        if self.adaptive {
            ec = ec.with_adaptive_reorg(self.profile);
        }
        ec
    }

    /// A fast configuration for tests: smoke scale, in-memory backend.
    pub fn smoke() -> Self {
        Config {
            scale: Scale::Smoke,
            backend: BackendKind::Mem,
            ..Config::default()
        }
    }

    /// Human label like `"medium/sim"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.scale, self.backend.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parsing() {
        assert_eq!(BackendKind::parse("MEM"), Some(BackendKind::Mem));
        assert_eq!(BackendKind::parse("lustre"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("fs"), Some(BackendKind::Fs));
        assert_eq!(BackendKind::parse("nope"), None);
    }

    #[test]
    fn defaults_follow_paper_grid() {
        let c = Config::default();
        assert_eq!(c.formats.len(), 5);
        assert_eq!(c.patterns.len(), 3);
        assert_eq!(c.ndims, vec![2, 3, 4]);
        assert_eq!(c.label(), "medium/sim");
        // The simulated device is a constant.
        assert_eq!(crate::matrix::SIM_BANDWIDTH_MIB, 2048.0);
        assert_eq!(
            crate::matrix::SIM_LATENCY,
            std::time::Duration::from_micros(250)
        );
    }

    #[test]
    fn adaptive_flag_wires_engine_policy() {
        let c = Config::default();
        assert!(c.engine_config().adaptive_reorg.is_none());
        let c = Config {
            adaptive: true,
            profile: artsparse_storage::ReorgProfile::ReadHeavy,
            ..Config::default()
        };
        assert_eq!(
            c.engine_config().adaptive_reorg,
            Some(artsparse_storage::ReorgProfile::ReadHeavy)
        );
    }

    #[test]
    fn ingest_knobs_reach_the_engine_config() {
        let c = Config::default();
        assert_eq!(c.ingest_batch, 64);
        let ic = c.ingest_config();
        assert_eq!(ic.flush_points, 1024);
        let c = Config {
            ingest_flush_points: 0,
            ..Config::default()
        };
        assert_eq!(c.ingest_config().flush_points, 1, "zero is clamped");
    }

    #[test]
    fn cells_always_run_with_the_plane() {
        assert!(Config::default().engine_config().observability.is_some());
    }
}
