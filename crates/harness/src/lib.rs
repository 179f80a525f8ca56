//! # artsparse-harness
//!
//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§III–IV), plus the `artsparse-bench` CLI:
//!
//! | Experiment | Paper artifact | Module |
//! |------------|----------------|--------|
//! | `table1` | Table I complexity validation | [`experiments::table1`] |
//! | `table2` | Table II dataset densities | [`experiments::table2`] |
//! | `fig1` | Fig. 1 worked-example structures | [`experiments::fig1`] |
//! | `fig2` | Fig. 2 pattern renders | [`experiments::fig2`] |
//! | `fig3` | Fig. 3 write time | [`experiments::fig3`] |
//! | `table3` | Table III write breakdown | [`experiments::table3`] |
//! | `fig4` | Fig. 4 file size | [`experiments::fig4`] |
//! | `fig5` | Fig. 5 read time | [`experiments::fig5`] |
//! | `table4` | Table IV overall scores | [`experiments::table4`] |
//! | `ablate` | extensions + advisor (beyond the paper) | [`experiments::ablate`] |
//! | `compress` | index-codec orthogonality (beyond the paper) | [`experiments::compress`] |
//! | `sweep` | density sweep (beyond the paper) | [`experiments::sweep`] |
//! | `io` | device study: mem / simulated OST / striping | [`experiments::io`] |
//! | `adaptive` | advisor-driven re-organization vs. frozen COO | [`experiments::adaptive`] |
//! | `ingest` | group-commit / WAL byte accounting and read-back | [`experiments::ingest`] |
//! | `observe` | observability plane: byte-identical stores, valid live artifacts | [`experiments::observe`] |
//! | `torture` | seeded write-fault schedules and live recovery | [`experiments::torture`] |
//!
//! The bytes the last four store, Table I's op counts and the smoke
//! grid's file and index bytes are pure functions of seed and scale;
//! `tests/exact_gates.rs` pins them as equalities. None of these
//! experiments answers "how fast": that is `benchmark/` (BENCHMARK.json).
//!
//! Shared plumbing: [`config::Config`] (scale, backend, formats,
//! `--threads` read fan-out cap), [`matrix`] (the measurement grid Fig.
//! 3/4/5 and Tables III/IV reuse), [`telemetry`] (per-cell JSON
//! documents + schema validation), and [`watch`] (the live ASCII
//! dashboard over a store's exported metrics + journal).

#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod matrix;
pub mod telemetry;
pub mod watch;

pub use config::{BackendKind, Config};
pub use matrix::{run_matrix, Matrix};

/// Error-erased result used across the harness.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;
