//! # artsparse-storage
//!
//! The fragment-based storage engine of the paper's benchmark system
//! (Algorithm 3): a minimal TileDB-like substrate that writes sparse
//! tensors as self-describing fragments (`index ∥ values`) and answers
//! point/region queries across fragments with bounding-box discovery and
//! linear-address merge.
//!
//! * [`backend`] — storage devices: local filesystem, in-memory, and a
//!   deterministic bandwidth/latency [`backend::SimulatedDisk`] standing
//!   in for the paper's Lustre file system;
//! * [`fragment`] — the on-device fragment layout with fully validated
//!   decoding;
//! * [`catalog`] — the in-engine manifest of fragment metadata that turns
//!   discovery and bounding-box pruning into an in-memory planning step;
//! * [`cache`] — a bytes-bounded LRU of decoded fragments for
//!   repeat-read workloads;
//! * [`config`] — tuning knobs for the read pipeline (cache budget,
//!   per-fragment fan-out — the engine's one threading knob, DESIGN.md
//!   §12), retries, health, and ingest;
//! * [`engine`] — Algorithm 3's WRITE (with the Table III phase
//!   breakdown, published through a crash-safe staged commit) and READ
//!   as a layered catalog → plan → fetch → decode → merge pipeline, one
//!   type split into modules along DESIGN.md's sections;
//! * [`faults`] — a failure-injecting backend wrapper for driving the
//!   commit protocol into its crash windows (and reads into transient
//!   faults, latency, and bit-flip corruption) under test;
//! * [`integrity`] — the CRC32C checksum primitive behind fragment
//!   section verification and scrubbing;
//! * [`observe`] — a recording backend wrapper that feeds the
//!   observability plane with per-operation timings and per-span byte
//!   accounting;
//! * [`wal`] — the CRC-framed write-ahead log records that make acked
//!   streaming-ingest batches crash-durable before they reach a fragment;
//! * [`buffer`] — the in-memory streaming-ingest write buffer with an
//!   atomically swappable read snapshot;
//! * [`periodic`] — the one background loop: a named thread that runs a
//!   pass every interval, parks in between, and stops within a bound;
//! * [`scheduler`] — the background loop that flushes stale buffers and
//!   triggers size-tiered consolidation, rate-limited, with clean
//!   shutdown;
//! * [`exporter`] — the background loop of the live observability
//!   plane: it samples the engine's gauges, publishes Prometheus-text
//!   exposition (atomic rename) plus a JSONL snapshot series, and drains
//!   the trace-correlated event journal to `journal.jsonl`.

#![warn(missing_docs)]

pub mod backend;
pub mod buffer;
pub mod cache;
pub mod catalog;
pub mod codec;
pub mod config;
pub mod engine;
pub mod error;
pub mod exporter;
pub mod faults;
pub mod fragment;
pub mod integrity;
pub mod observe;
pub mod periodic;
pub mod scheduler;
pub mod striped;
pub mod wal;

pub use backend::{FsBackend, MemBackend, SimulatedDisk, StorageBackend};
pub use buffer::{BufferSnapshot, BufferStats, WriteBuffer};
pub use cache::{CacheStats, DecodedFragment, FragmentCache};
pub use catalog::{CatalogEntry, FragmentCatalog, PageEntry, ReadPlan};
pub use codec::Codec;
pub use config::{
    EngineConfig, HealthConfig, IngestConfig, ObservabilityConfig, ReorgProfile, RetryPolicy,
    SchedulerConfig,
};
pub use engine::{
    ConsolidateReport, HealthState, ReadHit, ReadOutcome, ReadResult, RecoveryReport, ScrubFinding,
    ScrubReport, StorageEngine, StoreStats, WriteReport, BUFFER_FRAGMENT, COMMIT_PAGE_POINTS,
    PAGE_POINTS,
};
pub use error::{FragmentSection, Result, StorageError};
pub use exporter::{ExporterStats, MetricsExporter, JOURNAL_JSONL, METRICS_JSONL, METRICS_PROM};
pub use faults::{injected_fault, FailingBackend, InjectedFault};
pub use fragment::FragmentChecksums;
pub use integrity::{crc32c, Crc32c};
pub use observe::RecordingBackend;
pub use periodic::Periodic;
pub use scheduler::IngestScheduler;
pub use striped::StripedBackend;
pub use wal::WalRecord;
