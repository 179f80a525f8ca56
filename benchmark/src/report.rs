//! The metric tables (the single source `BENCHMARK.json` is generated
//! from), the per-run [`Report`], and the small statistics the workloads
//! share.

use std::collections::BTreeMap;

/// Organizations of the paper, as they appear in metric names.
pub const ORGS: [(&str, artsparse_core::FormatKind); 5] = [
    ("coo", artsparse_core::FormatKind::Coo),
    ("linear", artsparse_core::FormatKind::Linear),
    ("gcsr", artsparse_core::FormatKind::GcsrPP),
    ("gcsc", artsparse_core::FormatKind::GcscPP),
    ("csf", artsparse_core::FormatKind::Csf),
];

/// One workload: name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper-matrix",
        "the paper's experiment: 5 organizations x 2 tensors on MemBackend; tensor sort/linearize and core build/read do the work, WAL/buffer/codec/cache/server do none",
    ),
    (
        "embed-lifecycle",
        "one store's life: 64-point ingests, crash-reopen, reads wider and narrower than the cache, consolidate; WAL, buffer, group commit, catalog, checksum, codec and cache all carry weight, server none",
    ),
    (
        "serve-ingest",
        "one closed-loop connection of 64-point INGESTs over TCP: fixed per-request cost (parse, quota, shard hop, WAL, buffer) dominates and the scheduler consolidates inside the window",
    ),
    (
        "serve-query",
        "the same server read-mostly (70% GET, 20% SCAN of 16x16, 10% INGEST): reply encode and the COO read path dominate while writes run beside reads",
    ),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// A metric as `BENCHMARK.json` declares it. `bound` is `Some` for
/// end-to-end metrics only.
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics: what a scientist embedding the engine or a
/// tenant of the server sees. Every workload reports every one.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", "lower", 0.25),
        bounded("write_points_per_s", "pts/s", "higher", 0.25),
        bounded("read_cells_per_s", "cells/s", "higher", 0.25),
        bounded("requests_per_s", "req/s", "higher", 0.25),
        bounded("write_p50_us", "us", "lower", 0.25),
        bounded("get_p50_us", "us", "lower", 0.25),
        bounded("scan_p50_us", "us", "lower", 0.25),
        bounded("consolidate_points_per_s", "pts/s", "higher", 0.25),
        bounded("stored_bytes_per_point", "B/pt", "lower", 0.01),
        bounded("peak_rss_mib", "MiB", "lower", 0.25),
    ]
}

/// The per-layer metrics, reported by the traced run. A value of 0
/// means the layer did no work in that workload.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        def("patterns.generate_s", "s", "lower"),
        def("tensor.linearize_ns_per_point", "ns/pt", "lower"),
        def("tensor.sort_ns_per_point", "ns/pt", "lower"),
    ];
    for (org, _) in ORGS {
        m.push(def(
            &format!("core.build_ns_per_point.{org}"),
            "ns/pt",
            "lower",
        ));
        m.push(def(&format!("core.read_ns_per_query.{org}"), "ns", "lower"));
        m.push(def(
            &format!("core.enumerate_ns_per_point.{org}"),
            "ns/pt",
            "lower",
        ));
        m.push(def(
            &format!("core.index_bytes_per_point.{org}"),
            "B/pt",
            "lower",
        ));
        m.push(def(
            &format!("storage.engine.write_ns_per_point.{org}"),
            "ns/pt",
            "lower",
        ));
        m.push(def(
            &format!("storage.engine.read_ns_per_cell.{org}"),
            "ns",
            "lower",
        ));
    }
    for (name, unit, better) in [
        ("storage.engine.ingest_us", "us", "lower"),
        ("storage.engine.flush_ms", "ms", "lower"),
        ("storage.engine.get_us", "us", "lower"),
        ("storage.engine.scan_us", "us", "lower"),
        ("storage.engine.consolidate_ms", "ms", "lower"),
        ("storage.engine.reopen_ms", "ms", "lower"),
        ("storage.engine.matched_per_scanned", "ratio", "lower"),
        ("storage.engine.self_share", "ratio", "lower"),
        ("storage.engine.durable_share", "ratio", "higher"),
        ("storage.wal.encode_ns_per_point", "ns/pt", "lower"),
        ("storage.wal.decode_ns_per_point", "ns/pt", "lower"),
        ("storage.wal.bytes_per_point", "B/pt", "lower"),
        ("storage.buffer.append_ns_per_point", "ns/pt", "lower"),
        ("storage.buffer.snapshot_us", "us", "lower"),
        ("storage.buffer.drain_us", "us", "lower"),
        (
            "storage.codec.compress_ns_per_byte.delta-varint",
            "ns/B",
            "lower",
        ),
        (
            "storage.codec.decompress_ns_per_byte.delta-varint",
            "ns/B",
            "lower",
        ),
        ("storage.codec.ratio.delta-varint", "ratio", "higher"),
        ("storage.fragment.encode_ns_per_byte", "ns/B", "lower"),
        ("storage.fragment.decode_ns_per_byte", "ns/B", "lower"),
        ("storage.fragment.decode_meta_ns", "ns", "lower"),
        ("storage.integrity.crc32c_ns_per_byte", "ns/B", "lower"),
        ("storage.cache.hit_rate.wide", "ratio", "higher"),
        ("storage.cache.hit_rate.narrow", "ratio", "higher"),
        ("storage.cache.evictions", "1/req", "lower"),
        ("storage.cache.get_ns", "ns", "lower"),
        ("storage.catalog.plan_ns_per_fragment", "ns", "lower"),
        ("storage.catalog.load_ms", "ms", "lower"),
        ("storage.backend.put_ops", "1/req", "lower"),
        ("storage.backend.get_ops", "1/req", "lower"),
        ("storage.backend.bytes_written", "B/req", "lower"),
        ("storage.backend.bytes_read", "B/req", "lower"),
        ("storage.backend.busy_share", "ratio", "lower"),
        (
            "storage.backend.bytes_written_per_user_byte",
            "ratio",
            "lower",
        ),
        (
            "storage.backend.bytes_read_per_result_byte",
            "ratio",
            "lower",
        ),
        ("storage.scheduler.device_ops", "1/req", "lower"),
        ("storage.scheduler.consolidations", "1/s", "lower"),
        ("storage.scheduler.busy_share", "ratio", "lower"),
        ("storage.scheduler.foreground_stalls", "ratio", "lower"),
        ("server.protocol.parse_request_ns", "ns", "lower"),
        ("server.protocol.parse_point_ns", "ns", "lower"),
        ("server.protocol.render_point_ns", "ns", "lower"),
        ("server.quota.charge_ns", "ns", "lower"),
        ("server.ingest_p99_us", "us", "lower"),
        ("server.ingest_samples", "count", "higher"),
        ("server.get_p99_us", "us", "lower"),
        ("server.get_samples", "count", "higher"),
        ("server.scan_p99_us", "us", "lower"),
        ("server.scan_samples", "count", "higher"),
        ("server.overhead_us.ingest", "us", "lower"),
        ("server.overhead_us.get", "us", "lower"),
        ("server.overhead_us.scan", "us", "lower"),
        ("server.request_bytes", "B/req", "lower"),
        ("server.reply_bytes", "B/req", "lower"),
        ("metrics.trace_overhead_share", "ratio", "lower"),
        ("failed_share", "ratio", "lower"),
    ] {
        m.push(def(name, unit, better));
    }
    m
}

/// What one run measured: metric values by name, plus the operations
/// attempted and failed (a wrong answer is a failed operation).
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Human-readable notes next to a metric (`est_share`, sample counts).
    notes: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the error message.
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &str, note: String) {
        self.notes.insert(name.to_string(), note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Count one checked operation; `problem` describes a wrong answer.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(problem);
        }
    }

    /// Add the checks a connection or replay thread counted on its own.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    /// The values of `defs`, in table order. A per-layer metric the
    /// workload never set is 0 (the layer did no work); a missing
    /// end-to-end metric is a bug in the workload.
    pub fn select(&self, defs: &[MetricDef]) -> Result<Vec<(String, f64, &'static str)>, String> {
        for name in self.values.keys() {
            if !end_to_end()
                .iter()
                .chain(per_layer().iter())
                .any(|d| &d.name == name)
            {
                return Err(format!("workload set undeclared metric {name:?}"));
            }
        }
        defs.iter()
            .map(|d| match self.values.get(&d.name) {
                Some(v) if v.is_finite() => Ok((d.name.clone(), *v, d.unit)),
                Some(v) => Err(format!("metric {} is {v}", d.name)),
                None if d.bound.is_none() => Ok((d.name.clone(), 0.0, d.unit)),
                None => Err(format!("workload did not report {}", d.name)),
            })
            .collect()
    }

    pub fn note_of(&self, name: &str) -> Option<&str> {
        self.notes.get(name).map(String::as_str)
    }
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The best of one value per round or slice, for a metric where higher
/// is better. The host is shared and its slowdowns come in bursts of a
/// second or so; they only ever make a round slower, so the best round
/// is the system's speed when the host leaves it alone, and it repeats
/// from run to run where a median of rounds does not.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// [`highest`] for a metric where lower is better.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The value a quarter of the way down from the highest (linear
/// interpolation between ranks), for a metric where higher is better and
/// there are tens of rounds. Like [`highest`] it ignores a burst that
/// slows fewer than three rounds in four, but it is not an extreme: the
/// best of 30 rounds spread 3-11 % from run to run where this spread 2-8 %.
pub fn upper_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

/// [`upper_quartile`] for a metric where lower is better.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    s[lo] + (s[(lo + 1).min(s.len() - 1)] - s[lo]) * frac
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>()) / 1e3
}

/// The `p`-th percentile (nearest rank) of nanosecond samples, in
/// microseconds; 0 when there are none.
pub fn percentile_us(ns: &[u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut s = ns.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1] as f64 / 1e3
}

pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_us(&[1000, 3000, 2000]), 2.0);
        assert_eq!(percentile_us(&[1000, 2000, 3000, 4000], 50.0), 2.0);
        assert_eq!(percentile_us(&[1000, 2000, 3000, 4000], 99.0), 4.0);
        assert_eq!(percentile_us(&[], 99.0), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!((lower_quartile(&v), upper_quartile(&v)), (3.0, 7.0));
        assert_eq!(lower_quartile(&[4.0, 2.0]), 2.5);
        assert_eq!(upper_quartile(&[5.0]), 5.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let e2e = end_to_end();
        let layers = per_layer();
        assert!(e2e.len() <= 16 && layers.len() <= 128);
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        for d in e2e.iter().chain(layers.iter()) {
            assert!(seen.insert(d.name.clone()), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }
}
