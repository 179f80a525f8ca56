//! # artsparse
//!
//! A from-scratch Rust reproduction of *"The Art of Sparsity: Mastering
//! High-Dimensional Tensor Storage"* (Bin Dong, Kesheng Wu, Suren Byna;
//! 2024): the five sparse tensor storage organizations the paper compares
//! (COO, LINEAR, GCSR++, GCSC++, CSF), the fragment storage engine they
//! are benchmarked inside (Algorithm 3), the synthetic sparsity patterns
//! of its evaluation (TSP, GSP, MSP), and a harness that regenerates every
//! table and figure.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`tensor`] — shapes, coordinates, linear addressing, regions;
//! * [`core`] — the organizations, the Table I cost model, the advisor;
//! * [`storage`] — fragments, backends (fs / mem / simulated disk), engine;
//! * [`patterns`] — TSP/GSP/MSP generators and evaluation scales;
//! * [`metrics`] — op counters, phase timers, telemetry, the Table IV score;
//! * [`harness`] — the per-table/per-figure experiment runners.
//!
//! Format builds and per-query loops are single-threaded, so stored bytes
//! and Table I operation counts never depend on the host. The one
//! threading decision is the engine's: a read fans its planned fragments
//! out over at most
//! [`read_parallelism`](storage::EngineConfig::with_read_parallelism)
//! threads when the plan holds enough work to pay for them (`DESIGN.md`
//! §12).
//!
//! ## Quick start
//!
//! ```
//! use artsparse::{FormatKind, SparseTensor, Shape};
//!
//! let mut t = SparseTensor::<f64>::new(Shape::new(vec![512, 512, 512]).unwrap());
//! t.insert(&[1, 2, 3], 4.5)?;
//! t.insert(&[100, 200, 300], -1.0)?;
//!
//! // Encode under any of the paper's organizations…
//! let encoded = t.encode(FormatKind::Csf)?;
//! assert_eq!(encoded.get::<f64>(&[1, 2, 3])?, Some(4.5));
//! assert_eq!(encoded.get::<f64>(&[9, 9, 9])?, None);
//! # Ok::<(), artsparse::core::FormatError>(())
//! ```
//!
//! ## Storing fragments (Algorithm 3)
//!
//! ```
//! use artsparse::storage::{MemBackend, StorageEngine};
//! use artsparse::{CoordBuffer, FormatKind, Shape};
//!
//! let engine = StorageEngine::open(
//!     MemBackend::new(),
//!     FormatKind::GcsrPP,
//!     Shape::new(vec![64, 64]).unwrap(),
//!     8,
//! )?;
//! let coords = CoordBuffer::from_points(2, &[[1u64, 2], [3, 4]]).unwrap();
//! engine.write_points::<f64>(&coords, &[10.0, 20.0])?;
//! let vals = engine.read_values::<f64>(&coords)?;
//! assert_eq!(vals, vec![Some(10.0), Some(20.0)]);
//! # Ok::<(), artsparse::storage::StorageError>(())
//! ```
//!
//! ## Reading the telemetry digest
//!
//! ```
//! use artsparse::storage::{EngineConfig, MemBackend, ObservabilityConfig, StorageEngine};
//! use artsparse::{CoordBuffer, FormatKind, Shape};
//!
//! let engine = StorageEngine::open_with(
//!     MemBackend::new(),
//!     FormatKind::Linear,
//!     Shape::new(vec![32, 32]).unwrap(),
//!     8,
//!     EngineConfig::default().with_observability(ObservabilityConfig::default()),
//! )?;
//! let coords = CoordBuffer::from_points(2, &[[0u64, 1], [5, 6]]).unwrap();
//! engine.write_points::<f64>(&coords, &[1.0, 2.0])?;
//! engine.read_values::<f64>(&coords)?;
//!
//! let report = engine.telemetry_report().expect("the plane is on");
//! assert!(report.spans.iter().any(|s| s.count > 0));
//! println!("{}", report.to_ascii()); // per-span latencies, I/O totals
//! # Ok::<(), artsparse::storage::StorageError>(())
//! ```

#![warn(missing_docs)]

pub use artsparse_core as core;
pub use artsparse_harness as harness;
pub use artsparse_metrics as metrics;
pub use artsparse_patterns as patterns;
pub use artsparse_storage as storage;
pub use artsparse_tensor as tensor;

pub use artsparse_core::{EncodedTensor, FormatKind, Organization, SparseTensor};
pub use artsparse_patterns::{Dataset, Pattern, PatternParams, Scale};
pub use artsparse_tensor::{CoordBuffer, Region, Shape};
