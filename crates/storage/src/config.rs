//! Tuning knobs for the engine's read pipeline, ingest path, and fault
//! tolerance.

use artsparse_core::advisor::AccessProfile;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Bounded exponential backoff for transient device faults.
///
/// The engine wraps every backend call in this one policy — fetches and
/// mutations alike (WAL appends, staged puts, rename-commits, deletes):
/// an attempt that fails with a [transient] error (flaky I/O, or a
/// checksum mismatch — a torn read re-fetches cleanly) sleeps and
/// retries until the attempt budget runs out, at which point the last
/// error is surfaced (wrapped in `RetriesExhausted` for I/O faults, so
/// the cause chain survives).
///
/// Each sleep is capped at [`MAX_BACKOFF`] and shortened by a jitter of
/// up to [`JITTER_PCT`]% so concurrent retries decorrelate. Jitter is
/// deterministic — derived from the fragment name and attempt number,
/// not a clock — so fault-injection tests replay exactly.
///
/// [transient]: crate::error::StorageError::is_transient
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, the first one included. `1` means
    /// no retries; `0` is treated as `1`.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each retry after that.
    /// `Duration::ZERO` retries without sleeping.
    pub base_backoff: Duration,
}

/// Ceiling on any single retry backoff sleep.
pub const MAX_BACKOFF: Duration = Duration::from_millis(50);

/// Retry jitter as a percentage: each backoff sleep is shortened by a
/// deterministic 0–`JITTER_PCT`%.
pub const JITTER_PCT: u64 = 50;

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
        }
    }
}

/// SplitMix64 — tiny deterministic mixer for jitter (no clocks, no RNG
/// state to carry).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, surface the error).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Effective attempt budget (at least one).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// How long to sleep before retry number `retry` (0-based: the sleep
    /// between the first failure and the second attempt is `backoff(0,
    /// seed)`). Exponential in `retry`, capped at [`MAX_BACKOFF`], then
    /// shortened by a deterministic jitter derived from `seed`.
    pub fn backoff(&self, retry: u32, seed: u64) -> Duration {
        let base = self.base_backoff.as_nanos() as u64;
        let cap = MAX_BACKOFF.as_nanos() as u64;
        let exp = sat_shl(base, retry).min(cap.max(base));
        if exp == 0 {
            return Duration::ZERO;
        }
        let cut = splitmix64(seed ^ ((retry as u64) << 32)) % (JITTER_PCT + 1);
        Duration::from_nanos(exp - exp * cut / 100)
    }
}

/// `x << rhs`, saturating instead of overflowing.
fn sat_shl(x: u64, rhs: u32) -> u64 {
    if x == 0 {
        0
    } else if rhs >= x.leading_zeros() {
        u64::MAX
    } else {
        x << rhs
    }
}

/// Adaptive re-organization policy: the access pattern the advisor
/// optimizes for.
///
/// When set on [`EngineConfig::adaptive_reorg`], every consolidation
/// characterizes the merged region's sparsity during its merge scan, runs
/// the advisor's cost model over the paper's five organizations, and
/// re-encodes the output in the winning one — instead of freezing the
/// store's configured write format forever.
///
/// These are the advisor's Table-IV weight profiles reduced to an
/// enumerable knob: the engine configuration derives `Eq`, so it carries
/// this name rather than raw floating-point weights. Each variant maps to
/// the corresponding [`AccessProfile`] constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReorgProfile {
    /// Equal weight on build, read, and space cost (the default).
    #[default]
    Balanced,
    /// Ingest-dominated: build cost dominates the score.
    WriteHeavy,
    /// Query-dominated: read cost dominates the score.
    ReadHeavy,
}

impl ReorgProfile {
    /// Parse a profile name as accepted by the bench harness
    /// (`balanced`, `write-heavy`, `read-heavy`).
    pub fn parse(s: &str) -> Option<ReorgProfile> {
        match s.to_ascii_lowercase().as_str() {
            "balanced" => Some(ReorgProfile::Balanced),
            "write-heavy" | "write_heavy" => Some(ReorgProfile::WriteHeavy),
            "read-heavy" | "read_heavy" => Some(ReorgProfile::ReadHeavy),
            _ => None,
        }
    }

    /// The canonical name (the form [`parse`](ReorgProfile::parse)
    /// accepts).
    pub fn name(self) -> &'static str {
        match self {
            ReorgProfile::Balanced => "balanced",
            ReorgProfile::WriteHeavy => "write-heavy",
            ReorgProfile::ReadHeavy => "read-heavy",
        }
    }

    /// The advisor weight profile this preset names.
    pub fn access_profile(self) -> AccessProfile {
        match self {
            ReorgProfile::Balanced => AccessProfile::balanced(),
            ReorgProfile::WriteHeavy => AccessProfile::write_heavy(),
            ReorgProfile::ReadHeavy => AccessProfile::read_heavy(),
        }
    }
}

/// Buffered value bytes at which the write buffer group-commits, beside
/// [`IngestConfig::flush_points`]. With 8-byte records the point
/// threshold's default (4 096 points, 32 KiB) trips long before this;
/// it bounds the buffer's memory when records are wide.
pub const FLUSH_BYTES: usize = 1 << 20;

/// Thresholds for the streaming-ingest write buffer and its group
/// commits, plus the admission-control caps that bound them.
///
/// Ingested points accumulate in the in-memory write buffer (durably
/// mirrored in the WAL) until one of these thresholds, or
/// [`FLUSH_BYTES`], trips, at which point the buffer is flushed —
/// group-committed — into one ordinary fragment and the covering WAL
/// records are retired. The `max_*` caps
/// are hard admission limits: a batch that would push buffered bytes or
/// WAL backlog past its cap is rejected with a typed
/// [`Backpressure`](crate::error::StorageError::Backpressure) error
/// *before* anything is acked, and admission stays closed until
/// occupancy drains below the low watermark
/// ([`backpressure_resume_pct`](IngestConfig::backpressure_resume_pct))
/// so a saturated store sheds load instead of flapping at the cap. All
/// fields are integers so [`EngineConfig`] keeps deriving `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Flush when this many raw buffered points accumulate. Counted
    /// pre-dedup: repeated writes of one address each count, so the
    /// threshold bounds buffered *work* (WAL bytes, replay cost), not
    /// distinct addresses.
    pub flush_points: usize,
    /// Age (milliseconds) past which the background scheduler flushes a
    /// non-empty buffer even below the size thresholds, bounding how
    /// long an acked point stays WAL-only. Only the scheduler acts on
    /// this — an engine without one flushes purely by size.
    pub flush_interval_ms: u64,
    /// Hard cap on buffered value bytes (the high watermark). A batch
    /// that would exceed it is rejected with `Backpressure` before its
    /// WAL record is written. `0` disables the cap.
    pub max_buffered_bytes: usize,
    /// Hard cap on live WAL backlog bytes — acked blobs not yet retired,
    /// including blobs queued for deletion retry. `0` disables the cap.
    pub max_wal_backlog_bytes: u64,
    /// Low watermark, as a percentage of the tripped cap (`0..=100`).
    /// Once admission closes, it reopens only when the overloaded
    /// resource drains to at or below this fraction of its cap —
    /// hysteresis that prevents accept/reject flapping right at the cap.
    pub backpressure_resume_pct: u32,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            flush_points: 4096,
            flush_interval_ms: 1000,
            max_buffered_bytes: 256 << 20,
            max_wal_backlog_bytes: 1 << 30,
            backpressure_resume_pct: 75,
        }
    }
}

/// The observability plane: span tracing, the aggregated telemetry
/// report, the metrics registry, the trace-correlated event journal, and
/// the background exporter that publishes them.
///
/// Set on [`EngineConfig::observability`] to make every engine span and
/// backend operation report to one
/// [`ObservabilityPlane`](artsparse_metrics::ObservabilityPlane): it
/// aggregates them into the report `StorageEngine::telemetry_report()`
/// returns, sets the live registry counters from the same totals, keeps
/// the gauges the span system cannot express (write-buffer occupancy, WAL
/// backlog, fragment size tiers, cache occupancy, scheduler health, read
/// amplification), and journals severity-tagged events into a bounded
/// [`Journal`](artsparse_metrics::Journal) of
/// [`DEFAULT_JOURNAL_CAPACITY`](artsparse_metrics::DEFAULT_JOURNAL_CAPACITY)
/// events. `None` (the default) means spans are inert and **no**
/// aggregation, registry or journal call happens anywhere in the engine.
/// All fields are integers so [`EngineConfig`] keeps deriving `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservabilityConfig {
    /// Journal a `slow_span` event for any span at least this long
    /// (milliseconds; 0 disables slow-span events).
    pub slow_span_ms: u64,
    /// How often the [`MetricsExporter`](crate::MetricsExporter) thread
    /// publishes a registry snapshot + journal increment (milliseconds,
    /// minimum 1).
    pub export_interval_ms: u64,
}

impl Default for ObservabilityConfig {
    fn default() -> Self {
        ObservabilityConfig {
            slow_span_ms: 100,
            export_interval_ms: 500,
        }
    }
}

/// Policy of the background consolidation scheduler
/// ([`IngestScheduler`](crate::scheduler::IngestScheduler)).
///
/// The scheduler ticks, flushes stale buffers (see
/// [`IngestConfig::flush_interval_ms`]), and triggers a full
/// consolidation pass under a size-tiered policy: fragments are bucketed
/// by the log₂ of their size, and when any tier holds at least
/// [`TIER_RUNS`](crate::scheduler::TIER_RUNS) of them the store is
/// deemed fragmented enough to merge — small fresh flushes accumulate
/// into a tier and are folded together, while one big consolidated
/// fragment sits alone in its tier and never re-triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Poll interval between scheduler passes, in milliseconds.
    pub tick_ms: u64,
    /// Rate limit: minimum milliseconds between two consolidation
    /// passes, regardless of how fragmented the store looks.
    pub min_consolidate_interval_ms: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            tick_ms: 50,
            min_consolidate_interval_ms: 250,
        }
    }
}

/// Consecutive write failures before `Healthy` drops to `Degraded`.
pub const DEGRADE_AFTER: u32 = 2;

/// Thresholds of the engine's write-path health state machine
/// (`Healthy → Degraded → ReadOnly`, see
/// [`HealthState`](crate::engine::HealthState)).
///
/// Consecutive write failures — a WAL append, stage, rename-commit, or
/// consolidation commit that fails even after its retry budget — walk
/// the engine down the ladder; one successful write (or recovery probe)
/// resets it to `Healthy`. In `ReadOnly` the engine refuses new writes
/// with a typed error but keeps serving reads and preserves every acked
/// batch; a periodic probe write tests the device so recovery is
/// automatic once the fault clears. All fields are integers so
/// [`EngineConfig`] keeps deriving `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive write failures before the engine enters `ReadOnly`.
    /// At or below [`DEGRADE_AFTER`] the engine skips `Degraded`.
    pub read_only_after: u32,
    /// Minimum milliseconds between two recovery probes while the engine
    /// is `ReadOnly`. The background scheduler drives probes on its
    /// ticks; without a scheduler, [`probe_health`] can be called
    /// directly.
    ///
    /// [`probe_health`]: crate::engine::StorageEngine::probe_health
    pub probe_interval_ms: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            read_only_after: 5,
            probe_interval_ms: 500,
        }
    }
}

/// Configuration of the catalog → plan → fetch → decode → merge read
/// pipeline and of the write path around it. The default reproduces
/// Algorithm 3's semantics exactly while fetching only the bytes a query
/// needs and publishing crash-safely; the knobs trade memory, concurrency,
/// and fault tolerance for latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Budget (in decoded payload bytes) for the decoded-fragment LRU
    /// cache. Zero disables caching (the default): every read fetches
    /// from the device, which keeps transferred-byte accounting exact
    /// for the I/O experiments. Enable it for repeat-read workloads.
    pub cache_capacity_bytes: usize,
    /// Upper bound on the threads (the caller included) one read spreads
    /// its planned fragments over for fetch → decode → lookup. Zero (the
    /// default) bounds it by the host's available parallelism; one forces
    /// the sequential reference path. Within the bound the engine decides
    /// per read: it fans out only when the fragments beside the largest
    /// one hold more work than the extra threads cost to spawn
    /// (DESIGN.md §8), so a point read over a few small fragments runs on
    /// the caller alone whatever this is set to. A consolidation or export
    /// is bounded by it too, and decides by the same rule per pass
    /// (DESIGN.md §12).
    pub read_parallelism: usize,
    /// Retry policy for every backend call, fetches and mutations (see
    /// [`RetryPolicy`]). On the write side an exhausted budget surfaces
    /// `RetriesExhausted` and counts as one write failure toward
    /// [`health`](EngineConfig::health).
    pub retry: RetryPolicy,
    /// Write-path health thresholds (see [`HealthConfig`]).
    pub health: HealthConfig,
    /// Fail-closed reads (the default): a fragment that exhausts retries
    /// or fails checksum verification aborts the whole read with the
    /// typed error. With `false`, such a fragment is quarantined in the
    /// catalog instead — skipped by this and all future plans, never
    /// deleted — and the read completes over the survivors, reporting
    /// `complete == false` plus the quarantined names in its outcome.
    pub strict_reads: bool,
    /// Live adaptive re-organization under this access profile (see
    /// [`ReorgProfile`]). `None` (the default) keeps the legacy behavior:
    /// consolidation re-encodes in the store's configured write format.
    pub adaptive_reorg: Option<ReorgProfile>,
    /// Streaming-ingest thresholds (see [`IngestConfig`]): when the write
    /// buffer group-commits into a fragment and whether acked batches are
    /// WAL-protected first.
    pub ingest: IngestConfig,
    /// The observability plane (see [`ObservabilityConfig`]): span
    /// traces, per-operation I/O accounting, latency histograms, live
    /// metrics and the event journal. `None` (the default) disables it
    /// entirely: inert spans, no report, no registry, no journal, zero
    /// calls on any engine path.
    pub observability: Option<ObservabilityConfig>,
}

/// Return type of the [`EngineConfig::parallelism`] stamp shim.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeThreads {
    /// Always 1.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity_bytes: 0,
            read_parallelism: 0,
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
            strict_reads: true,
            adaptive_reorg: None,
            ingest: IngestConfig::default(),
            observability: None,
        }
    }
}

impl EngineConfig {
    /// The most threads the engine's executor may use: [`read_parallelism`],
    /// or the host's available parallelism when that is zero. The host is
    /// asked once per process — the answer costs a syscall and a walk of
    /// the cgroup files, and a read consults this bound every time.
    ///
    /// [`read_parallelism`]: EngineConfig::read_parallelism
    pub fn effective_parallelism(&self) -> usize {
        static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        if self.read_parallelism > 0 {
            self.read_parallelism
        } else {
            *HOST.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        }
    }

    /// Builder-style cache budget.
    pub fn with_cache_capacity(mut self, bytes: usize) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Builder-style parallelism override.
    pub fn with_read_parallelism(mut self, threads: usize) -> Self {
        self.read_parallelism = threads;
        self
    }

    /// Threads a format build or a per-query loop runs on: always one.
    /// Kept only because the repo benchmark stamps its runs with
    /// `EngineConfig::default().parallelism().threads`; the change that
    /// next edits `benchmark/` deletes the stamp field and this with it.
    #[doc(hidden)]
    pub fn parallelism(&self) -> ComputeThreads {
        ComputeThreads { threads: 1 }
    }

    /// Builder-style retry-policy override.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Builder-style health-threshold override.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Builder-style strict-reads toggle.
    pub fn with_strict_reads(mut self, strict: bool) -> Self {
        self.strict_reads = strict;
        self
    }

    /// Builder-style adaptive re-organization policy.
    pub fn with_adaptive_reorg(mut self, profile: ReorgProfile) -> Self {
        self.adaptive_reorg = Some(profile);
        self
    }

    /// Builder-style streaming-ingest thresholds.
    pub fn with_ingest(mut self, ingest: IngestConfig) -> Self {
        self.ingest = ingest;
        self
    }

    /// Builder-style observability plane.
    pub fn with_observability(mut self, observability: ObservabilityConfig) -> Self {
        self.observability = Some(observability);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let c = EngineConfig::default();
        assert_eq!(c.cache_capacity_bytes, 0);
        assert_eq!(c.read_parallelism, 0);
        assert!(c.observability.is_none());
        assert_eq!(c.retry, RetryPolicy::default());
        assert_eq!(c.retry.max_attempts, 3);
        assert_eq!(c.retry.base_backoff, Duration::from_millis(1));
        assert_eq!(c.health, HealthConfig::default());
        assert!(DEGRADE_AFTER < c.health.read_only_after);
        assert!(c.strict_reads);
        assert!(c.adaptive_reorg.is_none());
        assert_eq!(c.ingest, IngestConfig::default());
        assert_eq!(c.ingest.flush_points, 4096);
        assert!(c.effective_parallelism() >= 1);
        // Constants that were settings hold the values they defaulted to.
        assert_eq!(FLUSH_BYTES, 1 << 20);
        assert_eq!(DEGRADE_AFTER, 2);
        assert_eq!(crate::periodic::SHUTDOWN_TIMEOUT, Duration::from_secs(5));

        let c = EngineConfig::default()
            .with_cache_capacity(1 << 20)
            .with_read_parallelism(2)
            .with_observability(ObservabilityConfig::default())
            .with_retry(RetryPolicy::none())
            .with_health(HealthConfig {
                read_only_after: 2,
                probe_interval_ms: 10,
            })
            .with_strict_reads(false);
        assert_eq!(c.cache_capacity_bytes, 1 << 20);
        assert_eq!(c.effective_parallelism(), 2);
        assert!(c.observability.is_some());
        assert_eq!(c.retry.attempts(), 1);
        assert_eq!(c.health.read_only_after, 2);
        assert!(!c.strict_reads);
    }

    #[test]
    fn backoff_is_bounded_exponential_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(1),
        };
        for retry in [0, 1, 2, 5, 6, 7, 40, 200] {
            // Doubling from the base, capped at MAX_BACKOFF even at
            // shift-overflow retry counts, then jittered into
            // [100 - JITTER_PCT %, 100 %] of that.
            let full = Duration::from_millis(1u64 << retry.min(6)).min(MAX_BACKOFF);
            let a = p.backoff(retry, 42);
            assert_eq!(a, p.backoff(retry, 42), "jitter must be deterministic");
            assert!(
                a <= full && a * 2 >= full,
                "retry {retry}: {a:?} of {full:?}"
            );
        }
        // Different seeds should (almost always) jitter differently.
        let spread: std::collections::HashSet<_> = (0..32u64).map(|s| p.backoff(1, s)).collect();
        assert!(spread.len() > 1);
        // No base, no sleep.
        let none = RetryPolicy {
            base_backoff: Duration::ZERO,
            ..p
        };
        assert_eq!(none.backoff(3, 42), Duration::ZERO);
    }

    #[test]
    fn reorg_profile_parses_and_maps() {
        for p in [
            ReorgProfile::Balanced,
            ReorgProfile::WriteHeavy,
            ReorgProfile::ReadHeavy,
        ] {
            assert_eq!(ReorgProfile::parse(p.name()), Some(p));
        }
        assert_eq!(
            ReorgProfile::parse("WRITE_HEAVY"),
            Some(ReorgProfile::WriteHeavy)
        );
        assert_eq!(ReorgProfile::parse("fastest"), None);
        assert!(ReorgProfile::ReadHeavy.access_profile().read_weight > 1.0);

        let c = EngineConfig::default().with_adaptive_reorg(ReorgProfile::ReadHeavy);
        assert_eq!(c.adaptive_reorg, Some(ReorgProfile::ReadHeavy));
    }

    #[test]
    fn ingest_and_scheduler_defaults() {
        let i = IngestConfig {
            flush_points: 8,
            flush_interval_ms: 5,
            ..Default::default()
        };
        let c = EngineConfig::default().with_ingest(i);
        assert_eq!(c.ingest, i);
        let d = IngestConfig::default();
        assert!(d.max_buffered_bytes > FLUSH_BYTES, "caps sit above flush");
        assert!(d.max_wal_backlog_bytes > 0);
        assert!(d.backpressure_resume_pct <= 100);

        let s = SchedulerConfig::default();
        assert!(s.tick_ms > 0);
    }

    #[test]
    fn observability_defaults_off_and_builds_on() {
        let c = EngineConfig::default();
        assert!(c.observability.is_none());
        let oc = ObservabilityConfig::default();
        assert!(oc.export_interval_ms > 0);
        let c = c.with_observability(ObservabilityConfig {
            slow_span_ms: 0,
            ..oc
        });
        let got = c.observability.unwrap();
        assert_eq!(got.slow_span_ms, 0);
        assert_eq!(got.export_interval_ms, oc.export_interval_ms);
    }

    #[test]
    fn none_policy_never_sleeps_more_than_once() {
        let p = RetryPolicy::none();
        assert_eq!(p.attempts(), 1);
        // Degenerate budgets are clamped, not honored.
        let zero = RetryPolicy {
            max_attempts: 0,
            ..Default::default()
        };
        assert_eq!(zero.attempts(), 1);
    }
}
