//! Server-side metrics: one [`MetricsRegistry`] for the whole process,
//! a trace-correlated [`Journal`] of session/shutdown events, and a
//! log₂ command-latency histogram.
//!
//! All series carry the `artsparse_server_` prefix so they compose with
//! the per-engine `artsparse_*` series in one Prometheus scrape. The
//! `METRICS` protocol command and the on-disk publisher both render
//! through [`ServerMetrics::render`], so the wire and the
//! `metrics.prom` file never disagree about a sample.

use crate::quota::QuotaBook;
use artsparse_metrics::{
    exposition, now_ns, Counter, Gauge, Histogram, Journal, JournalEvent, MetricsRegistry, Severity,
};
use parking_lot::Mutex;

/// Metric-safe rendering of a tenant name: the wire charset allows `-`,
/// Prometheus metric names do not.
fn sanitize_tenant(tenant: &str) -> String {
    tenant.replace('-', "_")
}

/// The server's metrics plane. Shared by sessions, listeners, and the
/// publisher thread.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: MetricsRegistry,
    /// Session open/close, quota refusals, and shutdown milestones.
    pub journal: Journal,
    latency: Mutex<Histogram>,
    /// Sessions currently connected.
    pub sessions_open: Gauge,
    /// Sessions accepted since start.
    pub sessions_total: Counter,
    /// Commands served (OK and ERR alike).
    pub commands_total: Counter,
    /// Commands answered with an `ERR` line.
    pub protocol_errors_total: Counter,
    /// `ERR BACKPRESSURE` / `ERR READONLY` responses — the engine's
    /// load-shedding surfaced on the wire.
    pub backpressure_errors_total: Counter,
    /// `ERR QUOTA` responses.
    pub quota_rejections_total: Counter,
    /// Request bytes read from sockets.
    pub bytes_in_total: Counter,
    /// Response bytes written to sockets.
    pub bytes_out_total: Counter,
    /// Configured shard count.
    pub shards: Gauge,
    /// Datasets currently open across all shards.
    pub datasets: Gauge,
}

impl Default for ServerMetrics {
    /// A fresh plane whose journal retains
    /// [`DEFAULT_JOURNAL_CAPACITY`](artsparse_metrics::DEFAULT_JOURNAL_CAPACITY)
    /// events.
    fn default() -> ServerMetrics {
        let registry = MetricsRegistry::new();
        let sessions_open = registry.gauge(
            "artsparse_server_sessions_open",
            "Sessions currently connected.",
        );
        let sessions_total = registry.counter(
            "artsparse_server_sessions_total",
            "Sessions accepted since the server started.",
        );
        let commands_total = registry.counter(
            "artsparse_server_commands_total",
            "Protocol commands served (OK and ERR alike).",
        );
        let protocol_errors_total = registry.counter(
            "artsparse_server_protocol_errors_total",
            "Commands answered with an ERR line.",
        );
        let backpressure_errors_total = registry.counter(
            "artsparse_server_backpressure_errors_total",
            "ERR BACKPRESSURE and ERR READONLY responses (typed load shedding).",
        );
        let quota_rejections_total = registry.counter(
            "artsparse_server_quota_rejections_total",
            "Writes refused because a tenant quota was exhausted.",
        );
        let bytes_in_total = registry.counter(
            "artsparse_server_bytes_in_total",
            "Request bytes read from client sockets.",
        );
        let bytes_out_total = registry.counter(
            "artsparse_server_bytes_out_total",
            "Response bytes written to client sockets.",
        );
        let shards = registry.gauge("artsparse_server_shards", "Configured shard worker count.");
        let datasets = registry.gauge(
            "artsparse_server_datasets",
            "Datasets currently open across all shards.",
        );
        ServerMetrics {
            registry,
            journal: Journal::default(),
            latency: Mutex::new(Histogram::new()),
            sessions_open,
            sessions_total,
            commands_total,
            protocol_errors_total,
            backpressure_errors_total,
            quota_rejections_total,
            bytes_in_total,
            bytes_out_total,
            shards,
            datasets,
        }
    }
}

impl ServerMetrics {
    /// Record one served command's wall-clock latency.
    pub fn record_latency(&self, dur_ns: u64) {
        self.latency.lock().record(dur_ns);
    }

    /// Journal a session lifecycle event.
    pub fn journal_session(&self, code: &'static str, message: String, trace_id: u64) {
        self.journal.record(JournalEvent {
            at_ns: now_ns(),
            severity: Severity::Info,
            code,
            message,
            trace_id,
            span: Some("server.session"),
            dur_ns: None,
        });
    }

    /// Journal a warning (quota refusal, drain error, stuck listener).
    pub fn journal_warn(&self, code: &'static str, message: String, trace_id: u64) {
        self.journal.record(JournalEvent {
            at_ns: now_ns(),
            severity: Severity::Warn,
            code,
            message,
            trace_id,
            span: Some("server.session"),
            dur_ns: None,
        });
    }

    /// Refresh derived series (per-tenant quota gauges, the latency
    /// histogram) and render the full Prometheus exposition.
    pub fn render(&self, quotas: &QuotaBook) -> String {
        exposition::render(&self.snapshot(quotas))
    }

    /// Refresh derived series and take one registry snapshot. The
    /// publisher uses this single snapshot for both `metrics.prom` and
    /// the `metrics.jsonl` series so their delta baselines agree.
    pub fn snapshot(&self, quotas: &QuotaBook) -> artsparse_metrics::RegistrySnapshot {
        for (tenant, standing) in quotas.standings() {
            let t = sanitize_tenant(&tenant);
            self.registry
                .gauge(
                    &format!("artsparse_server_tenant_points_used_{t}"),
                    "Points currently charged against this tenant's quota.",
                )
                .set(standing.points as f64);
            self.registry
                .gauge(
                    &format!("artsparse_server_tenant_bytes_used_{t}"),
                    "Value bytes currently charged against this tenant's quota.",
                )
                .set(standing.bytes as f64);
            self.registry
                .gauge(
                    &format!("artsparse_server_tenant_points_limit_{t}"),
                    "This tenant's point cap (0 = unlimited).",
                )
                .set(standing.quota.max_points as f64);
            self.registry
                .gauge(
                    &format!("artsparse_server_tenant_bytes_limit_{t}"),
                    "This tenant's byte cap (0 = unlimited).",
                )
                .set(standing.quota.max_bytes as f64);
        }
        self.registry.set_histogram(
            "artsparse_server_command_latency_ns",
            "Wall-clock latency of served protocol commands.",
            self.latency.lock().clone(),
        );
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::Quota;

    #[test]
    fn render_is_parseable_and_carries_tenant_gauges() {
        let m = ServerMetrics::default();
        m.sessions_total.inc();
        m.commands_total.add(3);
        m.record_latency(1500);
        let quotas = QuotaBook::new(Quota {
            max_points: 100,
            max_bytes: 800,
        });
        quotas.charge("tenant-a", 5, 40).unwrap();
        let text = m.render(&quotas);
        let parsed = exposition::parse(&text).expect("strict parse");
        assert!(!parsed.samples.is_empty());
        assert_eq!(parsed.value("artsparse_server_sessions_total"), Some(1.0));
        assert!(text.contains("artsparse_server_commands_total 3"));
        assert!(
            text.contains("artsparse_server_tenant_points_used_tenant_a 5"),
            "hyphenated tenant must sanitize into the metric name:\n{text}"
        );
        assert!(text.contains("artsparse_server_command_latency_ns"));
    }

    #[test]
    fn journal_events_flow_through_drain() {
        let m = ServerMetrics::default();
        m.journal_session("session_open", "peer tcp:1".into(), 7);
        m.journal_warn("quota_refused", "tenant t".into(), 7);
        let events = m.journal.drain_new();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].code, "session_open");
        assert_eq!(events[1].severity, Severity::Warn);
        assert!(m.journal.drain_new().is_empty());
    }
}
