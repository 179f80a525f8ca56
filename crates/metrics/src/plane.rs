//! The observability plane: the engine's one telemetry sink.
//!
//! [`ObservabilityPlane`] receives every finished span and every timed
//! backend operation. It folds them into per-kind aggregates (count,
//! latency histogram, I/O totals), per-backend-operation histograms and
//! a bounded ring of raw span events — the [`TelemetryReport`] —
//! and, from the same running totals, sets its live registry counters and
//! journals the derived events (slow span, retry, checksum failure,
//! quarantine) with the span's `trace_id`.
//!
//! The engine holds it behind an `Option<Arc<..>>`: `None` means the plane
//! is off, spans are inert, and **no aggregation, registry or journal call
//! happens anywhere** — the zero-overhead-when-disabled contract.

use crate::export::TelemetryReport;
use crate::histogram::Histogram;
use crate::journal::{Journal, JournalEvent, Severity, DEFAULT_JOURNAL_CAPACITY};
use crate::registry::{Counter, MetricsRegistry};
use crate::span::{now_ns, IoStats, SpanKind, SpanRecord};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};

/// Raw span events the report retains (oldest dropped first).
const SPAN_EVENTS: usize = 4096;

/// Per-span-kind aggregate.
#[derive(Debug, Clone, Default)]
pub(crate) struct KindAgg {
    pub count: u64,
    pub total_ns: u64,
    pub latency: Histogram,
    pub io: IoStats,
}

/// Per-(backend, operation) aggregate.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpAgg {
    pub count: u64,
    pub total_ns: u64,
    pub bytes: u64,
    pub latency: Histogram,
}

/// Everything the plane has folded so far; one mutex guards it. Spans
/// finish at operation granularity (not per byte or per record), so
/// contention stays negligible next to the I/O being measured.
#[derive(Debug, Default)]
pub(crate) struct Aggregates {
    pub spans: BTreeMap<SpanKind, KindAgg>,
    pub backend_ops: BTreeMap<(&'static str, &'static str), OpAgg>,
    /// The grand I/O total over every span kind.
    pub totals: IoStats,
    pub slow_spans: u64,
    pub events: VecDeque<SpanRecord>,
    pub events_dropped: u64,
}

/// Counters the plane sets from its running totals, pre-registered so the
/// exposition shows them from the first snapshot.
struct SpanCounters {
    bytes_fetched: Counter,
    bytes_written: Counter,
    requests: Counter,
    retries: Counter,
    checksum_failures: Counter,
    quarantines: Counter,
    wal_bytes: Counter,
    group_commits: Counter,
    slow_spans: Counter,
}

impl SpanCounters {
    fn record(&self, agg: &Aggregates) {
        let t = &agg.totals;
        self.bytes_fetched.record_total(t.bytes_fetched);
        self.bytes_written.record_total(t.bytes_written);
        self.requests.record_total(t.requests);
        self.retries.record_total(t.retries);
        self.checksum_failures.record_total(t.checksum_failures);
        self.quarantines.record_total(t.fragments_quarantined);
        self.wal_bytes.record_total(t.wal_bytes);
        self.group_commits.record_total(t.group_commits);
        self.slow_spans.record_total(agg.slow_spans);
    }
}

/// Aggregates + registry + journal + derived-event policy. See the module
/// docs.
pub struct ObservabilityPlane {
    registry: MetricsRegistry,
    journal: Journal,
    slow_span_ns: u64,
    aggregates: Mutex<Aggregates>,
    counters: SpanCounters,
    bytes_returned: Counter,
}

impl std::fmt::Debug for ObservabilityPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservabilityPlane")
            .field("registry", &self.registry)
            .field("journal", &self.journal)
            .field("slow_span_ns", &self.slow_span_ns)
            .finish()
    }
}

impl ObservabilityPlane {
    /// A plane whose slow-span threshold is `slow_span_ns` (0 disables
    /// slow-span events). Its journal retains
    /// [`DEFAULT_JOURNAL_CAPACITY`] events.
    pub fn new(slow_span_ns: u64) -> ObservabilityPlane {
        let registry = MetricsRegistry::new();
        let c = |name: &str, help: &str| registry.counter(name, help);
        ObservabilityPlane {
            counters: SpanCounters {
                bytes_fetched: c(
                    "artsparse_bytes_fetched_total",
                    "Bytes returned by backend reads.",
                ),
                bytes_written: c(
                    "artsparse_bytes_written_total",
                    "Bytes handed to backend writes.",
                ),
                requests: c("artsparse_requests_total", "Backend requests issued."),
                retries: c(
                    "artsparse_retries_total",
                    "Backend fetches re-attempted after transient failures.",
                ),
                checksum_failures: c(
                    "artsparse_checksum_failures_total",
                    "Section or header CRC32C verifications that failed.",
                ),
                quarantines: c(
                    "artsparse_quarantines_total",
                    "Fragments newly quarantined after integrity failures.",
                ),
                wal_bytes: c(
                    "artsparse_wal_bytes_total",
                    "Bytes appended to the streaming-ingest write-ahead log.",
                ),
                group_commits: c(
                    "artsparse_group_commits_total",
                    "Write-buffer flushes that produced a fragment.",
                ),
                slow_spans: c(
                    "artsparse_slow_spans_total",
                    "Spans that exceeded the configured slow-span threshold.",
                ),
            },
            bytes_returned: c(
                "artsparse_read_bytes_returned_total",
                "Value bytes handed back to read callers.",
            ),
            registry,
            journal: Journal::new(DEFAULT_JOURNAL_CAPACITY),
            slow_span_ns,
            aggregates: Mutex::new(Aggregates::default()),
        }
    }

    /// The live registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The slow-span threshold in nanoseconds (0 = disabled).
    pub fn slow_span_ns(&self) -> u64 {
        self.slow_span_ns
    }

    /// Snapshot the aggregated telemetry: per-kind spans, backend-op
    /// timings, I/O totals and the retained raw events.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport::from_aggregates(&self.aggregates.lock())
    }

    /// Credit value bytes handed back to a read caller (the denominator
    /// of the derived read-amplification gauge).
    pub fn note_read_returned(&self, bytes: u64) {
        self.bytes_returned.add(bytes);
    }

    /// Bytes fetched ÷ bytes returned so far, or `None` before any read
    /// returned data.
    pub fn read_amplification(&self) -> Option<f64> {
        let returned = self.bytes_returned.get();
        (returned > 0).then(|| self.counters.bytes_fetched.get() as f64 / returned as f64)
    }

    /// Record an explicit journal event (scheduler errors, lifecycle
    /// notices — anything not derivable from a span record).
    pub fn event(&self, severity: Severity, code: &'static str, message: String, trace_id: u64) {
        self.journal.record(JournalEvent {
            at_ns: now_ns(),
            severity,
            code,
            message,
            trace_id,
            span: None,
            dur_ns: None,
        });
    }

    /// Fold one timed backend operation (`backend` is the backend kind
    /// name — `fs`, `mem`, `sim`, `striped` — and `op` the method name).
    pub fn record_backend_op(
        &self,
        backend: &'static str,
        op: &'static str,
        dur_ns: u64,
        bytes: u64,
    ) {
        let mut agg = self.aggregates.lock();
        let op = agg.backend_ops.entry((backend, op)).or_default();
        op.count = op.count.saturating_add(1);
        op.total_ns = op.total_ns.saturating_add(dur_ns);
        op.bytes = op.bytes.saturating_add(bytes);
        op.latency.record(dur_ns);
    }

    /// Fold one finished span: its kind's aggregate, the running totals
    /// the live counters are set from, the event ring, and the derived
    /// journal events. Called by [`Span`](crate::Span) on drop.
    pub fn record_span(&self, record: &SpanRecord) {
        let slow = self.slow_span_ns > 0 && record.dur_ns >= self.slow_span_ns;
        {
            let mut agg = self.aggregates.lock();
            let kind = agg.spans.entry(record.kind).or_default();
            kind.count = kind.count.saturating_add(1);
            kind.total_ns = kind.total_ns.saturating_add(record.dur_ns);
            kind.latency.record(record.dur_ns);
            kind.io.merge(&record.io);
            agg.totals.merge(&record.io);
            agg.slow_spans = agg.slow_spans.saturating_add(u64::from(slow));
            if agg.events.len() >= SPAN_EVENTS {
                agg.events.pop_front();
                agg.events_dropped = agg.events_dropped.saturating_add(1);
            }
            agg.events.push_back(record.clone());
            // Under the lock, so a counter never trails the report it
            // was set from.
            self.counters.record(&agg);
        }

        let io = &record.io;
        let name = record.kind.name();
        let journal = |severity: Severity, code: &'static str, message: String| {
            self.journal.record(JournalEvent {
                at_ns: now_ns(),
                severity,
                code,
                message,
                trace_id: record.trace_id,
                span: Some(name),
                dur_ns: Some(record.dur_ns),
            })
        };
        if slow {
            journal(
                Severity::Warn,
                "slow_span",
                format!(
                    "{name} took {} ms (threshold {} ms)",
                    record.dur_ns / 1_000_000,
                    self.slow_span_ns / 1_000_000
                ),
            );
        }
        if io.retries > 0 {
            journal(
                Severity::Warn,
                "retry",
                format!(
                    "{} backend retr{} during {name}",
                    io.retries,
                    if io.retries == 1 { "y" } else { "ies" }
                ),
            );
        }
        if io.checksum_failures > 0 {
            journal(
                Severity::Error,
                "checksum_failure",
                format!("{} checksum failure(s) during {name}", io.checksum_failures),
            );
        }
        if io.fragments_quarantined > 0 {
            journal(
                Severity::Error,
                "quarantine",
                format!(
                    "{} fragment(s) quarantined during {name}",
                    io.fragments_quarantined
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{charge, Span};
    use std::sync::Arc;

    fn plane() -> Arc<ObservabilityPlane> {
        Arc::new(ObservabilityPlane::new(0))
    }

    #[test]
    fn spans_fold_into_live_counters() {
        let p = plane();
        {
            let _s = Span::enter(Some(&p), SpanKind::Ingest);
            charge(|io| {
                io.wal_bytes += 128;
                io.bytes_written += 256;
                io.requests += 2;
            });
        }
        let snap = p.registry().snapshot();
        assert_eq!(
            snap.sample("artsparse_wal_bytes_total").unwrap().value,
            128.0
        );
        assert_eq!(
            snap.sample("artsparse_bytes_written_total").unwrap().value,
            256.0
        );
        assert_eq!(snap.sample("artsparse_requests_total").unwrap().value, 2.0);
        assert!(p.journal().is_empty(), "healthy spans journal nothing");
    }

    #[test]
    fn aggregates_fold_spans_by_kind_and_match_the_counters() {
        let p = plane();
        for _ in 0..3 {
            let _s = Span::enter(Some(&p), SpanKind::ReadFetch);
            charge(|io| {
                io.requests += 1;
                io.bytes_fetched += 100;
            });
        }
        let report = p.report();
        let fetch = report.span(SpanKind::ReadFetch).unwrap();
        assert_eq!(fetch.count, 3);
        assert_eq!(fetch.io.requests, 3);
        assert_eq!(fetch.io.bytes_fetched, 300);
        assert_eq!(fetch.latency.count(), 3);
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.totals.bytes_fetched, 300);
        let snap = p.registry().snapshot();
        assert_eq!(
            snap.sample("artsparse_bytes_fetched_total").unwrap().value,
            300.0
        );
    }

    #[test]
    fn backend_ops_fold_by_backend_and_op() {
        let p = plane();
        p.record_backend_op("sim", "get_range", 1_000, 64);
        p.record_backend_op("sim", "get_range", 3_000, 128);
        p.record_backend_op("fs", "put", 500, 32);
        let report = p.report();
        let sim = report.backend_op("sim", "get_range").unwrap();
        assert_eq!(sim.count, 2);
        assert_eq!(sim.bytes, 192);
        assert_eq!(sim.total_ns, 4_000);
        assert_eq!(report.backend_op("fs", "put").unwrap().count, 1);
        assert!(report.backend_op("fs", "get_range").is_none());
    }

    #[test]
    fn event_ring_is_bounded_and_counts_drops() {
        let p = plane();
        for _ in 0..SPAN_EVENTS + 3 {
            let _s = Span::enter(Some(&p), SpanKind::Write);
        }
        let report = p.report();
        assert_eq!(report.events.len(), SPAN_EVENTS);
        assert_eq!(report.events_dropped, 3);
        // Aggregates still saw every span.
        assert_eq!(
            report.span(SpanKind::Write).unwrap().count,
            SPAN_EVENTS as u64 + 3
        );
    }

    #[test]
    fn trouble_spans_produce_trace_correlated_events() {
        let p = Arc::new(ObservabilityPlane::new(1)); // 1ns: everything is slow
        let trace = {
            let _s = Span::enter(Some(&p), SpanKind::Consolidate);
            let trace = crate::span::current_trace_id();
            charge(|io| {
                io.retries += 2;
                io.checksum_failures += 1;
                io.fragments_quarantined += 1;
            });
            trace
        };
        let events = p.journal().drain_new();
        let codes: Vec<&str> = events.iter().map(|e| e.code).collect();
        assert!(codes.contains(&"slow_span"));
        assert!(codes.contains(&"retry"));
        assert!(codes.contains(&"checksum_failure"));
        assert!(codes.contains(&"quarantine"));
        for e in &events {
            assert_eq!(e.trace_id, trace);
            assert_eq!(e.span, Some("engine.consolidate"));
        }
        assert_eq!(
            events.iter().find(|e| e.code == "retry").unwrap().severity,
            Severity::Warn
        );
        assert_eq!(
            events
                .iter()
                .find(|e| e.code == "quarantine")
                .unwrap()
                .severity,
            Severity::Error
        );
        let snap = p.registry().snapshot();
        assert_eq!(
            snap.sample("artsparse_slow_spans_total").unwrap().value,
            1.0
        );
    }

    #[test]
    fn read_amplification_derives_from_fetched_over_returned() {
        let p = plane();
        assert_eq!(p.read_amplification(), None);
        {
            let _s = Span::enter(Some(&p), SpanKind::Read);
            charge(|io| io.bytes_fetched += 4096);
        }
        p.note_read_returned(1024);
        assert_eq!(p.read_amplification(), Some(4.0));
    }
}
