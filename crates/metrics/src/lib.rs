//! # artsparse-metrics
//!
//! Instrumentation for the `artsparse` reproduction:
//!
//! * [`counter`] — abstract operation counters that empirically validate
//!   the asymptotic bounds of the paper's Table I;
//! * [`score`] — the Table IV overall-score formula;
//! * [`report`] — aligned ASCII tables plus CSV emission;
//! * [`span`] / [`histogram`] / [`export`] — runtime tracing, the one
//!   timing primitive: thread-local spans with per-span I/O accounting,
//!   log₂ latency histograms, and JSON/CSV export of the aggregated
//!   report, whose [`TelemetryReport::write_breakdown`] is Table III's
//!   Build / Reorg. / Write / Others view;
//! * [`plane`] / [`registry`] / [`journal`] / [`exposition`] — the
//!   observability plane, the one sink spans report to: it aggregates
//!   them into the report, sets named atomic counters (beside gauges, with
//!   snapshot + delta semantics) from the same totals, journals
//!   trace-correlated events, and renders/parses registry snapshots as
//!   Prometheus text.

#![warn(missing_docs)]

pub mod counter;
pub mod export;
pub mod exposition;
pub mod histogram;
pub mod journal;
pub mod plane;
pub mod registry;
pub mod report;
pub mod score;
pub mod span;

pub use counter::{OpCounter, OpCounts, OpKind};
pub use export::{
    BackendOpSummary, SpanSummary, TelemetryReport, WriteBreakdown, TELEMETRY_VERSION, WRITE_ROW,
};
pub use histogram::{bucket_bounds, bucket_index, Histogram, HISTOGRAM_BUCKETS};
pub use journal::{Journal, JournalEvent, Severity, DEFAULT_JOURNAL_CAPACITY};
pub use plane::ObservabilityPlane;
pub use registry::{Counter, Gauge, MetricKind, MetricSample, MetricsRegistry, RegistrySnapshot};
pub use report::Table;
pub use score::{overall_scores, ranking, Measurement, ScoreError};
pub use span::{
    charge, current_trace_id, now_ns, IoStats, Span, SpanContext, SpanKind, SpanRecord,
};
