//! Allocation-frugal span tracing.
//!
//! A [`Span`] brackets one engine operation (or sub-phase) on the thread
//! that runs it. While the span is open, the code inside it reports I/O
//! through [`charge`], which mutates an [`IoStats`] frame on a
//! thread-local stack — no allocation, no locking, no recorder call until
//! the span closes. On drop the span pops its frame, stamps it with a
//! monotonic start/duration, and hands the finished [`SpanRecord`] to the
//! [`Recorder`].
//!
//! Two properties keep the accounting honest:
//!
//! * **Self-IO only.** A frame accumulates only the I/O charged while it
//!   is the *innermost* open span on its thread; nothing propagates to
//!   parents. Summing any one span kind therefore never double-counts,
//!   and the sum over *all* kinds equals the global total.
//! * **Per-thread stacks.** Every thread has its own stack; the recorder
//!   is the only cross-thread rendezvous. A fan-out worker joins the
//!   operation that spawned it by adopting a [`SpanContext`]: a base frame
//!   under its spans catches whatever the worker charges outside them,
//!   and the spawner merges that frame back into its own innermost span
//!   after the join — so the totals of an operation do not depend on how
//!   many threads ran it. Nesting depth is informational, not a tree
//!   encoding.
//!
//! When the recorder is disabled, [`Span::enter`] returns an inert guard
//! and [`charge`] finds an empty stack: the whole layer reduces to one
//! branch per call site.
//!
//! # Trace correlation
//!
//! Every *outermost* span (depth 0 on its thread) allocates a fresh
//! process-unique `trace_id`; child spans opened on the same thread while
//! it is live inherit it. One `engine.ingest` or `engine.consolidate`
//! call therefore stamps its whole span tree — WAL append, flush, commit,
//! advise, convert — with a single id, which the event journal uses to
//! correlate events back to the operation that caused them. A fan-out
//! worker that adopts its spawner's [`SpanContext`] stamps its spans with
//! the spawner's id; a thread that adopts nothing starts traces of its
//! own.
//! [`current_trace_id`] exposes the live id (0 when no span is open) so
//! synthesized records and journal events can join the trace.

use crate::recorder::Recorder;
use serde::{Serialize, Value};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

/// The kinds of spans the engine emits, mirroring its layer structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum SpanKind {
    Write,
    WriteEncode,
    WriteStage,
    WriteCommit,
    Read,
    ReadPlan,
    ReadFetch,
    ReadDecode,
    ReadMerge,
    Consolidate,
    ConsolidateSnapshot,
    ConsolidateMerge,
    /// Adaptive re-organization: characterize the merged region and run
    /// the advisor's cost model to pick the output organization.
    ConsolidateAdvise,
    /// Adaptive re-organization: re-encode the merged region in the
    /// advised organization.
    ConsolidateConvert,
    ConsolidateTombstone,
    ConsolidateCommit,
    ConsolidateSweep,
    Recover,
    Scrub,
    ScrubFragment,
    /// One streaming-ingest append: validate, WAL, buffer (and possibly a
    /// threshold-triggered group commit).
    Ingest,
    /// The durable write-ahead-log record of one ingest batch.
    IngestWal,
    /// One group commit: the write buffer flushed into a fragment and its
    /// covering WAL records retired.
    IngestFlush,
    /// Replay of surviving WAL records into a fragment at engine open.
    IngestReplay,
    /// One background-scheduler pass (time-threshold flush check plus the
    /// size-tiered consolidation trigger).
    SchedulerRun,
}

impl SpanKind {
    /// The dotted span name used in exports (`engine.read.fetch`, …).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Write => "engine.write",
            SpanKind::WriteEncode => "engine.write.encode",
            SpanKind::WriteStage => "engine.write.stage",
            SpanKind::WriteCommit => "engine.write.commit",
            SpanKind::Read => "engine.read",
            SpanKind::ReadPlan => "engine.read.plan",
            SpanKind::ReadFetch => "engine.read.fetch",
            SpanKind::ReadDecode => "engine.read.decode",
            SpanKind::ReadMerge => "engine.read.merge",
            SpanKind::Consolidate => "engine.consolidate",
            SpanKind::ConsolidateSnapshot => "engine.consolidate.snapshot",
            SpanKind::ConsolidateMerge => "engine.consolidate.merge",
            SpanKind::ConsolidateAdvise => "engine.consolidate.advise",
            SpanKind::ConsolidateConvert => "engine.consolidate.convert",
            SpanKind::ConsolidateTombstone => "engine.consolidate.tombstone",
            SpanKind::ConsolidateCommit => "engine.consolidate.commit",
            SpanKind::ConsolidateSweep => "engine.consolidate.sweep",
            SpanKind::Recover => "engine.recover",
            SpanKind::Scrub => "engine.scrub",
            SpanKind::ScrubFragment => "engine.scrub.fragment",
            SpanKind::Ingest => "engine.ingest",
            SpanKind::IngestWal => "engine.ingest.wal",
            SpanKind::IngestFlush => "engine.ingest.flush",
            SpanKind::IngestReplay => "engine.ingest.replay",
            SpanKind::SchedulerRun => "engine.scheduler.run",
        }
    }

    /// All span kinds, in taxonomy order.
    pub fn all() -> &'static [SpanKind] {
        &[
            SpanKind::Write,
            SpanKind::WriteEncode,
            SpanKind::WriteStage,
            SpanKind::WriteCommit,
            SpanKind::Read,
            SpanKind::ReadPlan,
            SpanKind::ReadFetch,
            SpanKind::ReadDecode,
            SpanKind::ReadMerge,
            SpanKind::Consolidate,
            SpanKind::ConsolidateSnapshot,
            SpanKind::ConsolidateMerge,
            SpanKind::ConsolidateAdvise,
            SpanKind::ConsolidateConvert,
            SpanKind::ConsolidateTombstone,
            SpanKind::ConsolidateCommit,
            SpanKind::ConsolidateSweep,
            SpanKind::Recover,
            SpanKind::Scrub,
            SpanKind::ScrubFragment,
            SpanKind::Ingest,
            SpanKind::IngestWal,
            SpanKind::IngestFlush,
            SpanKind::IngestReplay,
            SpanKind::SchedulerRun,
        ]
    }
}

impl Serialize for SpanKind {
    fn to_json_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

/// Per-span I/O accounting, charged via [`charge`] while the span is the
/// innermost open one on its thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IoStats {
    /// Bytes the planner asked the backend for (coalesced run lengths,
    /// whole-section lengths, prefix peeks).
    pub bytes_requested: u64,
    /// Bytes the backend actually returned.
    pub bytes_fetched: u64,
    /// Bytes handed to the backend by put/rename-commit writes.
    pub bytes_written: u64,
    /// Individual backend requests issued (gets, ranges, puts, lists…).
    pub requests: u64,
    /// Value runs merged into a single range request by gap coalescing.
    pub ranges_coalesced: u64,
    /// Range plans abandoned for a whole-section fetch (too many runs or
    /// poor selectivity).
    pub whole_section_fallbacks: u64,
    /// Decoded-fragment cache hits.
    pub cache_hits: u64,
    /// Decoded-fragment cache misses.
    pub cache_misses: u64,
    /// Fragments evicted from the decoded cache while this span was open.
    pub cache_evictions: u64,
    /// Bytes those evictions released.
    pub cache_evicted_bytes: u64,
    /// Fragments the planner pruned by bounding-box intersection.
    pub fragments_skipped_bbox: u64,
    /// Fragments that vanished under a racing delete and forced a
    /// re-plan.
    pub fragments_replanned: u64,
    /// Errors injected by the fault-testing backend.
    pub fault_trips: u64,
    /// Backend fetches re-attempted after a transient failure.
    pub retries: u64,
    /// Section or header CRC32C verifications that failed.
    pub checksum_failures: u64,
    /// Fragments newly quarantined (first observations only).
    pub fragments_quarantined: u64,
    /// Source fragments whose organization differed from the adaptive
    /// consolidation's output organization (i.e. fragments migrated to a
    /// new format).
    pub fragments_migrated: u64,
    /// Presorted builds (consolidation, group commit, WAL replay) that
    /// elided their sort.
    pub conversions_direct: u64,
    /// Presorted builds that ran their organization's sort anyway
    /// (GCSC++, permuted CSF, the block organizations).
    pub conversions_fallback: u64,
    /// Bytes written to the streaming-ingest write-ahead log.
    pub wal_bytes: u64,
    /// Group commits: write-buffer flushes that produced a fragment.
    pub group_commits: u64,
    /// Background consolidation-scheduler passes executed.
    pub scheduler_runs: u64,
}

impl IoStats {
    /// Accumulate another stats block (saturating).
    pub fn merge(&mut self, other: &IoStats) {
        self.bytes_requested = self.bytes_requested.saturating_add(other.bytes_requested);
        self.bytes_fetched = self.bytes_fetched.saturating_add(other.bytes_fetched);
        self.bytes_written = self.bytes_written.saturating_add(other.bytes_written);
        self.requests = self.requests.saturating_add(other.requests);
        self.ranges_coalesced = self.ranges_coalesced.saturating_add(other.ranges_coalesced);
        self.whole_section_fallbacks = self
            .whole_section_fallbacks
            .saturating_add(other.whole_section_fallbacks);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.cache_evictions = self.cache_evictions.saturating_add(other.cache_evictions);
        self.cache_evicted_bytes = self
            .cache_evicted_bytes
            .saturating_add(other.cache_evicted_bytes);
        self.fragments_skipped_bbox = self
            .fragments_skipped_bbox
            .saturating_add(other.fragments_skipped_bbox);
        self.fragments_replanned = self
            .fragments_replanned
            .saturating_add(other.fragments_replanned);
        self.fault_trips = self.fault_trips.saturating_add(other.fault_trips);
        self.retries = self.retries.saturating_add(other.retries);
        self.checksum_failures = self
            .checksum_failures
            .saturating_add(other.checksum_failures);
        self.fragments_quarantined = self
            .fragments_quarantined
            .saturating_add(other.fragments_quarantined);
        self.fragments_migrated = self
            .fragments_migrated
            .saturating_add(other.fragments_migrated);
        self.conversions_direct = self
            .conversions_direct
            .saturating_add(other.conversions_direct);
        self.conversions_fallback = self
            .conversions_fallback
            .saturating_add(other.conversions_fallback);
        self.wal_bytes = self.wal_bytes.saturating_add(other.wal_bytes);
        self.group_commits = self.group_commits.saturating_add(other.group_commits);
        self.scheduler_runs = self.scheduler_runs.saturating_add(other.scheduler_runs);
    }

    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == IoStats::default()
    }
}

/// One finished span as delivered to the recorder.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    /// What the span measured.
    pub kind: SpanKind,
    /// The trace this span belongs to: allocated by the outermost span of
    /// the operation and inherited by every child on the same thread.
    pub trace_id: u64,
    /// Start time in nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the recording thread (0 = outermost there).
    pub depth: u32,
    /// I/O charged while this span was innermost on its thread.
    pub io: IoStats,
}

thread_local! {
    static STACK: RefCell<Vec<IoStats>> = const { RefCell::new(Vec::new()) };
    /// The trace id of this thread's outermost open span (0 = none).
    static TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide trace-id allocator; 0 is reserved for "no trace".
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// The trace id of the innermost open span tree on this thread, or 0 when
/// no span is open. Journal events and synthesized span records call this
/// to correlate themselves with the operation in flight.
pub fn current_trace_id() -> u64 {
    TRACE.with(Cell::get)
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process telemetry epoch (monotonic).
pub fn now_ns() -> u64 {
    process_epoch().elapsed().as_nanos() as u64
}

/// Charge I/O to the innermost open span on this thread, if any.
///
/// The closure only runs when a span is open, so call sites can pass
/// counter updates unconditionally without paying for disabled telemetry.
#[inline]
pub fn charge(f: impl FnOnce(&mut IoStats)) {
    STACK.with(|stack| {
        if let Some(frame) = stack.borrow_mut().last_mut() {
            f(frame);
        }
    });
}

/// The span context of an operation, captured on the thread that runs it
/// and adopted by the worker threads it fans out to. `Copy`, so one
/// capture serves every worker.
#[derive(Debug, Clone, Copy)]
pub struct SpanContext {
    trace_id: u64,
}

impl SpanContext {
    /// The calling thread's context, or `None` when no span is open on it
    /// (telemetry off, or no operation in flight) — in which case workers
    /// have nothing to inherit and pay nothing.
    pub fn current() -> Option<SpanContext> {
        let open = STACK.with(|stack| !stack.borrow().is_empty());
        open.then(|| SpanContext {
            trace_id: current_trace_id(),
        })
    }

    /// Run `f` on a worker thread inside this context: spans `f` opens
    /// carry the captured trace id, and charges `f` makes outside any span
    /// of its own land in the returned frame instead of vanishing. The
    /// spawner hands that frame to [`charge`] (`io.merge(..)`) after the
    /// join.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> (R, IoStats) {
        STACK.with(|stack| stack.borrow_mut().push(IoStats::default()));
        let outer_trace = TRACE.with(|t| t.replace(self.trace_id));
        let out = f();
        TRACE.with(|t| t.set(outer_trace));
        let io = STACK
            .with(|stack| stack.borrow_mut().pop())
            .unwrap_or_default();
        (out, io)
    }
}

/// RAII guard for one traced operation. See the module docs.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    // `None` when telemetry is disabled: drop does nothing.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    recorder: Arc<dyn Recorder>,
    kind: SpanKind,
    trace_id: u64,
    start: Instant,
    start_ns: u64,
    depth: u32,
}

impl Span {
    /// Open a span; inert (and free beyond one branch) when the recorder
    /// is disabled.
    pub fn enter(recorder: &Arc<dyn Recorder>, kind: SpanKind) -> Span {
        if !recorder.enabled() {
            return Span { live: None };
        }
        let depth = STACK.with(|stack| {
            let mut s = stack.borrow_mut();
            s.push(IoStats::default());
            (s.len() - 1) as u32
        });
        // The outermost span of the operation mints the trace id; nested
        // spans on the same thread join it.
        let trace_id = if depth == 0 {
            let id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
            TRACE.with(|t| t.set(id));
            id
        } else {
            current_trace_id()
        };
        // now_ns() and start come from the same clock; keeping the
        // Instant avoids a second epoch subtraction on the hot path.
        let start = Instant::now();
        let start_ns = start.duration_since(process_epoch()).as_nanos() as u64;
        Span {
            live: Some(LiveSpan {
                recorder: Arc::clone(recorder),
                kind,
                trace_id,
                start,
                start_ns,
                depth,
            }),
        }
    }

    /// Whether this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let io = STACK
            .with(|stack| stack.borrow_mut().pop())
            .unwrap_or_default();
        if live.depth == 0 {
            // The operation is over; later spans start fresh traces.
            TRACE.with(|t| t.set(0));
        }
        let record = SpanRecord {
            kind: live.kind,
            trace_id: live.trace_id,
            start_ns: live.start_ns,
            dur_ns: live.start.elapsed().as_nanos() as u64,
            depth: live.depth,
            io,
        };
        live.recorder.record_span(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TelemetryRecorder;

    fn telemetry() -> (Arc<TelemetryRecorder>, Arc<dyn Recorder>) {
        let t = Arc::new(TelemetryRecorder::new());
        let r: Arc<dyn Recorder> = t.clone();
        (t, r)
    }

    #[test]
    fn charge_outside_any_span_is_a_no_op() {
        charge(|io| io.bytes_fetched += 100);
        // Nothing to assert beyond "did not panic": the stack was empty.
    }

    #[test]
    fn span_collects_self_io_only() {
        let (t, r) = telemetry();
        {
            let _outer = Span::enter(&r, SpanKind::Read);
            charge(|io| io.bytes_requested += 10);
            {
                let _inner = Span::enter(&r, SpanKind::ReadFetch);
                charge(|io| io.bytes_fetched += 512);
            }
            charge(|io| io.bytes_requested += 5);
        }
        let report = t.report();
        let read = report.span(SpanKind::Read).unwrap();
        let fetch = report.span(SpanKind::ReadFetch).unwrap();
        // The inner fetch's bytes did NOT propagate to the outer span.
        assert_eq!(read.io.bytes_requested, 15);
        assert_eq!(read.io.bytes_fetched, 0);
        assert_eq!(fetch.io.bytes_fetched, 512);
        assert_eq!(report.totals.bytes_fetched, 512);
        assert_eq!(report.totals.bytes_requested, 15);
    }

    #[test]
    fn depth_tracks_nesting_per_thread() {
        let (t, r) = telemetry();
        {
            let _outer = Span::enter(&r, SpanKind::Read);
            let _inner = Span::enter(&r, SpanKind::ReadPlan);
        }
        let events = t.report().events;
        let plan = events
            .iter()
            .find(|e| e.kind == SpanKind::ReadPlan)
            .unwrap();
        let read = events.iter().find(|e| e.kind == SpanKind::Read).unwrap();
        assert_eq!(read.depth, 0);
        assert_eq!(plan.depth, 1);
        assert!(plan.start_ns >= read.start_ns);
    }

    #[test]
    fn worker_threads_record_at_depth_zero_and_aggregate() {
        let (t, r) = telemetry();
        {
            let _outer = Span::enter(&r, SpanKind::Read);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let r = &r;
                    s.spawn(move || {
                        let _fetch = Span::enter(r, SpanKind::ReadFetch);
                        charge(|io| io.bytes_fetched += 1000);
                    });
                }
            });
        }
        let report = t.report();
        let fetch = report.span(SpanKind::ReadFetch).unwrap();
        assert_eq!(fetch.count, 4);
        assert_eq!(fetch.io.bytes_fetched, 4000);
        // Each worker's stack was its own: their spans sit at depth 0.
        for e in report
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::ReadFetch)
        {
            assert_eq!(e.depth, 0);
        }
    }

    #[test]
    fn disabled_recorder_yields_inert_spans_and_empty_stack() {
        let r: Arc<dyn Recorder> = Arc::new(crate::recorder::NoopRecorder);
        let span = Span::enter(&r, SpanKind::Write);
        assert!(!span.is_recording());
        STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn nested_spans_share_one_trace_and_sequential_ops_differ() {
        let (t, r) = telemetry();
        assert_eq!(current_trace_id(), 0, "no span open, no trace");
        {
            let _outer = Span::enter(&r, SpanKind::Ingest);
            let live = current_trace_id();
            assert_ne!(live, 0);
            {
                let _wal = Span::enter(&r, SpanKind::IngestWal);
                assert_eq!(current_trace_id(), live, "children join the trace");
                let _flush = Span::enter(&r, SpanKind::IngestFlush);
                assert_eq!(current_trace_id(), live);
            }
        }
        assert_eq!(current_trace_id(), 0, "trace cleared when the op ends");
        {
            let _next = Span::enter(&r, SpanKind::Consolidate);
        }
        let events = t.report().events;
        let ingest_trace = events
            .iter()
            .find(|e| e.kind == SpanKind::Ingest)
            .unwrap()
            .trace_id;
        for e in &events {
            if matches!(e.kind, SpanKind::IngestWal | SpanKind::IngestFlush) {
                assert_eq!(e.trace_id, ingest_trace, "{:?}", e.kind);
            }
        }
        let next_trace = events
            .iter()
            .find(|e| e.kind == SpanKind::Consolidate)
            .unwrap()
            .trace_id;
        assert_ne!(next_trace, ingest_trace, "each top-level op gets its own");
        assert!(events.iter().all(|e| e.trace_id != 0));
    }

    #[test]
    fn worker_threads_start_traces_of_their_own() {
        let (t, r) = telemetry();
        {
            let _outer = Span::enter(&r, SpanKind::Read);
            let main_trace = current_trace_id();
            std::thread::scope(|s| {
                let r = &r;
                s.spawn(move || {
                    let _fetch = Span::enter(r, SpanKind::ReadFetch);
                    assert_ne!(current_trace_id(), main_trace);
                    assert_ne!(current_trace_id(), 0);
                });
            });
        }
        let events = t.report().events;
        let read = events.iter().find(|e| e.kind == SpanKind::Read).unwrap();
        let fetch = events
            .iter()
            .find(|e| e.kind == SpanKind::ReadFetch)
            .unwrap();
        assert_ne!(read.trace_id, fetch.trace_id);
    }

    #[test]
    fn workers_adopting_a_context_join_the_trace_and_return_their_charges() {
        let (t, r) = telemetry();
        let main_trace;
        {
            let _outer = Span::enter(&r, SpanKind::Read);
            main_trace = current_trace_id();
            let ctx = SpanContext::current().expect("a span is open");
            let worker_io = std::thread::scope(|s| {
                let r = &r;
                s.spawn(move || {
                    ctx.run(|| {
                        // Outside any worker span: lands in the base frame.
                        charge(|io| io.fragments_quarantined += 1);
                        let _fetch = Span::enter(r, SpanKind::ReadFetch);
                        assert_eq!(current_trace_id(), main_trace);
                        charge(|io| io.bytes_fetched += 7);
                    })
                    .1
                })
                .join()
                .unwrap()
            });
            assert_eq!(worker_io.fragments_quarantined, 1);
            assert_eq!(worker_io.bytes_fetched, 0, "span-local charges stay local");
            charge(|io| io.merge(&worker_io));
        }
        let report = t.report();
        let read = report.span(SpanKind::Read).unwrap();
        let fetch = report.span(SpanKind::ReadFetch).unwrap();
        assert_eq!(read.io.fragments_quarantined, 1);
        assert_eq!(fetch.io.bytes_fetched, 7);
        assert_eq!(report.totals.fragments_quarantined, 1);
        assert_ne!(main_trace, 0);
        assert!(report.events.iter().all(|e| e.trace_id == main_trace));
        // No span open, nothing to inherit.
        assert!(SpanContext::current().is_none());
    }

    #[test]
    fn kind_names_are_unique_and_dotted() {
        let mut seen = std::collections::BTreeSet::new();
        for &k in SpanKind::all() {
            assert!(k.name().starts_with("engine."), "{}", k.name());
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(seen.len(), 25);
    }
}
