//! Machine-readable telemetry export.
//!
//! [`TelemetryReport`] is the stable snapshot an
//! [`ObservabilityPlane`](crate::ObservabilityPlane) produces: per-span-kind
//! summaries (count, latency percentiles, I/O totals), per-backend
//! operation timings, the grand I/O total, and the retained raw events.
//! It serializes to the JSON document the harness writes per matrix cell
//! (validated by `schemas/telemetry.schema.json` in CI) and renders an
//! ASCII digest via the shared [`Table`], like the paper tables.
//! [`TelemetryReport::write_breakdown`] reads Table
//! III's Build / Reorg. / Write / Others row off the `engine.write` span
//! tree.

use crate::histogram::Histogram;
use crate::plane::Aggregates;
use crate::report::Table;
use crate::span::{IoStats, SpanKind, SpanRecord};
use serde::{Deserialize, Serialize};

/// Schema version stamped into every exported document. Version 2 added
/// the integrity counters (`retries`, `checksum_failures`,
/// `fragments_quarantined`) and the `engine.scrub` span kinds. Version 3
/// added the spawned-task counter and the per-shard span kind of the
/// compute-parallel layer (both removed again in version 7). Version 4
/// added the adaptive re-organization span kinds
/// (`engine.consolidate.advise`, `engine.consolidate.convert`) and
/// migration counters (`fragments_migrated`, `conversions_direct`,
/// `conversions_fallback`).
/// Version 5 added the streaming-ingest span kinds (`engine.ingest`,
/// `engine.ingest.wal`, `engine.ingest.flush`, `engine.ingest.replay`,
/// `engine.scheduler.run`) and the ingest counters (`wal_bytes`,
/// `group_commits`, `scheduler_runs`). Version 6 added the `trace_id`
/// stamped on every raw span event (correlating each child span with its
/// top-level operation) and the live-observability registry-snapshot
/// document written by the metrics exporter; v5 documents — identical
/// minus the optional `trace_id` — still validate. Version 7 removed
/// version 3's counter and span kind: format builds and per-query loops
/// are single-threaded, so there is nothing to count. Version 8 added
/// `engine.write.build` and `engine.write.reorg`, the spans Table III's
/// Build and Reorg. rows are read from; v7 documents still validate.
/// Version 9 added `engine.read.buffer`, the read's write-buffer overlay,
/// and a counter of the buffered points its lookups sorted; v8 documents
/// still validate. Version 10 removed that counter again: buffer lookups
/// scan the buffered batches and sort nothing. The schema keeps the
/// property optional, so v9 documents still validate.
pub const TELEMETRY_VERSION: u32 = 10;

/// The spans of Table III's Write row: the device work of a publish —
/// staging the fragment bytes, the consolidation tombstone, and the
/// rename commit.
pub const WRITE_ROW: [SpanKind; 4] = [
    SpanKind::WriteStage,
    SpanKind::WriteCommit,
    SpanKind::ConsolidateTombstone,
    SpanKind::ConsolidateCommit,
];

/// Table III's row for the `engine.write` spans of one report, in
/// seconds: one column of the paper's write-time breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WriteBreakdown {
    /// Building the coordinate organization (`engine.write.build`).
    pub build: f64,
    /// Reorganizing the values by the build's map (`engine.write.reorg`).
    pub reorg: f64,
    /// Device work of the publish ([`WRITE_ROW`]).
    pub write: f64,
    /// Everything else in `engine.write`: validation, bounding box,
    /// fragment encoding, the catalog insert (the paper's "metadata etc.").
    pub others: f64,
}

impl WriteBreakdown {
    /// Total write time (Table III "Sum" row): the `engine.write` total.
    pub fn sum(&self) -> f64 {
        self.build + self.reorg + self.write + self.others
    }
}

/// Aggregated view of one span kind.
#[derive(Debug, Clone, Serialize)]
pub struct SpanSummary {
    /// The span kind (serialized as its dotted name).
    pub kind: SpanKind,
    /// Number of finished spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across all spans of this kind.
    pub total_ns: u64,
    /// Mean span duration in nanoseconds.
    pub mean_ns: u64,
    /// Median duration (log₂-bucket upper bound).
    pub p50_ns: u64,
    /// 95th-percentile duration.
    pub p95_ns: u64,
    /// 99th-percentile duration.
    pub p99_ns: u64,
    /// Summed I/O charged to spans of this kind.
    pub io: IoStats,
    /// The full latency histogram (mergeable offline).
    pub latency: Histogram,
}

/// Aggregated view of one backend operation on one backend kind.
#[derive(Debug, Clone, Serialize)]
pub struct BackendOpSummary {
    /// Backend kind name (`fs`, `mem`, `sim`, `striped`).
    pub backend: String,
    /// Operation name (`get`, `get_range`, `put`, …).
    pub op: String,
    /// Number of timed calls.
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub total_ns: u64,
    /// Total payload bytes moved by these calls.
    pub bytes: u64,
    /// Mean call duration in nanoseconds.
    pub mean_ns: u64,
    /// Median call duration (log₂-bucket upper bound).
    pub p50_ns: u64,
    /// 95th-percentile call duration.
    pub p95_ns: u64,
    /// 99th-percentile call duration.
    pub p99_ns: u64,
    /// The full latency histogram.
    pub latency: Histogram,
}

/// One telemetry document: everything the plane saw, aggregated.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryReport {
    /// Export schema version ([`TELEMETRY_VERSION`]).
    pub version: u32,
    /// Per-span-kind summaries, in taxonomy order.
    pub spans: Vec<SpanSummary>,
    /// Per-(backend, operation) summaries, sorted by key.
    pub backend_ops: Vec<BackendOpSummary>,
    /// Grand total of I/O across every span kind (self-IO accounting
    /// makes this sum double-count-free).
    pub totals: IoStats,
    /// The most recent raw span events (bounded ring; oldest dropped).
    pub events: Vec<SpanRecord>,
    /// Raw events dropped because the ring was full.
    pub events_dropped: u64,
}

impl TelemetryReport {
    pub(crate) fn from_aggregates(inner: &Aggregates) -> TelemetryReport {
        let spans = inner
            .spans
            .iter()
            .map(|(&kind, agg)| SpanSummary {
                kind,
                count: agg.count,
                total_ns: agg.total_ns,
                mean_ns: agg.latency.mean(),
                p50_ns: agg.latency.p50().unwrap_or(0),
                p95_ns: agg.latency.p95().unwrap_or(0),
                p99_ns: agg.latency.p99().unwrap_or(0),
                io: agg.io,
                latency: agg.latency.clone(),
            })
            .collect();
        let backend_ops = inner
            .backend_ops
            .iter()
            .map(|(&(backend, op), agg)| BackendOpSummary {
                backend: backend.to_string(),
                op: op.to_string(),
                count: agg.count,
                total_ns: agg.total_ns,
                bytes: agg.bytes,
                mean_ns: agg.latency.mean(),
                p50_ns: agg.latency.p50().unwrap_or(0),
                p95_ns: agg.latency.p95().unwrap_or(0),
                p99_ns: agg.latency.p99().unwrap_or(0),
                latency: agg.latency.clone(),
            })
            .collect();
        TelemetryReport {
            version: TELEMETRY_VERSION,
            spans,
            backend_ops,
            totals: inner.totals,
            events: inner.events.iter().cloned().collect(),
            events_dropped: inner.events_dropped,
        }
    }

    /// The summary for one span kind, if any spans of it finished.
    pub fn span(&self, kind: SpanKind) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.kind == kind)
    }

    /// Total nanoseconds of the spans of `kinds`.
    pub fn total_ns(&self, kinds: &[SpanKind]) -> u64 {
        kinds
            .iter()
            .filter_map(|&kind| self.span(kind))
            .map(|s| s.total_ns)
            .sum()
    }

    /// Table III's breakdown of every `engine.write` span in the report.
    /// Others is the `engine.write` total less the other three rows, so
    /// the row sums to that total.
    pub fn write_breakdown(&self) -> WriteBreakdown {
        let build = self.total_ns(&[SpanKind::WriteBuild]);
        let reorg = self.total_ns(&[SpanKind::WriteReorg]);
        let write = self.total_ns(&WRITE_ROW);
        let others = self
            .total_ns(&[SpanKind::Write])
            .saturating_sub(build + reorg + write);
        let secs = |ns: u64| ns as f64 * 1e-9;
        WriteBreakdown {
            build: secs(build),
            reorg: secs(reorg),
            write: secs(write),
            others: secs(others),
        }
    }

    /// The summary for one (backend, operation) pair, if recorded.
    pub fn backend_op(&self, backend: &str, op: &str) -> Option<&BackendOpSummary> {
        self.backend_ops
            .iter()
            .find(|b| b.backend == backend && b.op == op)
    }

    /// Pretty JSON — the `--telemetry-out` document format.
    pub fn to_json_string_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry serializes infallibly")
    }

    /// A short human-readable digest (for harness stdout).
    pub fn to_ascii(&self) -> String {
        let mut t = Table::new(
            "telemetry",
            &[
                "span",
                "count",
                "mean_ns",
                "p95_ns",
                "bytes_fetched",
                "bytes_written",
            ],
        );
        for s in &self.spans {
            t.push_row(vec![
                s.kind.name().to_string(),
                s.count.to_string(),
                s.mean_ns.to_string(),
                s.p95_ns.to_string(),
                s.io.bytes_fetched.to_string(),
                s.io.bytes_written.to_string(),
            ]);
        }
        t.to_ascii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::ObservabilityPlane;
    use crate::span::{charge, Span};
    use std::sync::Arc;

    fn sample_report() -> TelemetryReport {
        let t = Arc::new(ObservabilityPlane::new(0));
        {
            let _read = Span::enter(Some(&t), SpanKind::Read);
            charge(|io| io.bytes_requested += 64);
            let _fetch = Span::enter(Some(&t), SpanKind::ReadFetch);
            charge(|io| {
                io.requests += 2;
                io.bytes_fetched += 256;
            });
        }
        t.record_backend_op("sim", "get_range", 2_000, 256);
        t.report()
    }

    #[test]
    fn json_document_has_expected_shape() {
        let report = sample_report();
        let v = serde_json::to_value(&report).unwrap();
        assert_eq!(v["version"].as_u64(), Some(u64::from(TELEMETRY_VERSION)));
        assert_eq!(TELEMETRY_VERSION, 10);
        let events = v["events"].as_array().unwrap();
        assert!(events.iter().all(|e| e["trace_id"].as_u64().is_some()));
        let spans = v["spans"].as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .any(|s| s["kind"].as_str() == Some("engine.read.fetch")));
        assert_eq!(v["totals"]["bytes_fetched"].as_u64(), Some(256));
        assert_eq!(v["totals"]["bytes_requested"].as_u64(), Some(64));
        let ops = v["backend_ops"].as_array().unwrap();
        assert_eq!(ops[0]["backend"].as_str(), Some("sim"));
        assert_eq!(ops[0]["bytes"].as_u64(), Some(256));
        assert!(!v["events"].as_array().unwrap().is_empty());
    }

    #[test]
    fn ascii_digest_renders() {
        let s = sample_report().to_ascii();
        assert!(s.contains("== telemetry =="));
        assert!(s.contains("engine.read"));
    }
}
