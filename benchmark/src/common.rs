//! What the four workloads share: run arguments, scratch directories
//! inside the checkout, engine answers turned into rows the oracle can
//! check, and the traced-run bookkeeping.

use crate::oracle::Oracle;
use crate::report::Report;
use crate::trace::{DatasetCtx, DeviceSnapshot, SelfTimes, SpanRec, TimedBackend};
use artsparse_patterns::rng::SplitMix64;
use artsparse_storage::{ReadResult, StorageEngine};
use artsparse_tensor::{CoordBuffer, Region};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Arguments of one `run`.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs: the whole run takes about a second.
    pub smoke: bool,
}

/// Times a workload sets itself up; `setup_s` is the median. A tenth of
/// a second of generation needs more repeats to be steady than half a
/// second of starting and warming a server, and can afford them.
pub const SETUPS_EMBEDDED: usize = 15;
pub const SETUPS_SERVED: usize = 5;

/// An independent generator stream of the run's seed.
pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::for_stream(seed, stream)
}

/// `benchmark/out`, where trace files go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The rows of a region read as `(address, value)`, one per stored
/// point: hits arrive sorted by (address, write order), so the last hit
/// of an address is the live one.
fn region_rows(result: &ReadResult) -> Result<Vec<(u64, f64)>, String> {
    let mut rows: Vec<(u64, f64)> = Vec::new();
    for hit in &result.hits {
        let bytes: [u8; 8] = hit.value[..]
            .try_into()
            .map_err(|_| format!("value record of {} bytes, expected 8", hit.value.len()))?;
        let row = (hit.addr, f64::from_le_bytes(bytes));
        match rows.last_mut() {
            Some(last) if last.0 == row.0 => *last = row,
            _ => rows.push(row),
        }
    }
    Ok(rows)
}

/// What a round's or a window's engine reads added up to.
#[derive(Default, Clone, Copy)]
pub struct ReadTally {
    /// Cells asked: a point query is 1, a region its cell count.
    pub cells: u64,
    /// `ReadResult.fragments_matched` and `.fragments_scanned`, summed.
    pub matched: u64,
    pub scanned: u64,
    /// Query coordinates × fragments they were looked up in.
    pub fragment_queries: u64,
    /// Points handed back to the caller.
    pub result_points: u64,
}

impl ReadTally {
    pub fn plus(self, o: ReadTally) -> ReadTally {
        ReadTally {
            cells: self.cells + o.cells,
            matched: self.matched + o.matched,
            scanned: self.scanned + o.scanned,
            fragment_queries: self.fragment_queries + o.fragment_queries,
            result_points: self.result_points + o.result_points,
        }
    }
}

/// An engine read the workloads issue: a batch of coordinates or a region.
pub enum Query<'a> {
    Points(&'a CoordBuffer),
    Region(&'a Region),
}

/// One engine read as a traced request, its answer checked against the
/// model (one attempted operation). Returns the call's nanoseconds when
/// the engine answered at all, and adds the read to `tally`.
pub fn checked_read(
    ctx: &DatasetCtx,
    engine: &StorageEngine<TimedBackend>,
    oracle: &Oracle,
    query: Query,
    label: &str,
    tally: &mut ReadTally,
    report: &mut Report,
) -> Option<u64> {
    let (cells, answer, ns) = match query {
        Query::Points(queries) => {
            let (out, ns) = ctx.request("engine.read", || engine.read(queries));
            let checked = out.map_err(|e| e.to_string()).and_then(|result| {
                let values = result
                    .to_values::<f64>(queries.len())
                    .map_err(|e| e.to_string())?;
                let wrong = queries
                    .iter()
                    .zip(&values)
                    .find_map(|(q, v)| oracle.check_get(q, *v));
                Ok((result.hits.len() as u64, wrong, result))
            });
            (queries.len() as u64, checked, ns)
        }
        Query::Region(region) => {
            let (out, ns) = ctx.request("engine.read_region", || engine.read_region(region));
            let checked = out.map_err(|e| e.to_string()).and_then(|result| {
                let rows = region_rows(&result)?;
                let returned = rows.len() as u64;
                Ok((
                    returned,
                    oracle.check_scan(region.lo(), region.hi(), rows),
                    result,
                ))
            });
            (region.volume(), checked, ns)
        }
    };
    match answer {
        Err(e) => {
            report.check(Some(format!("{label} read failed: {e}")));
            None
        }
        Ok((returned, wrong, result)) => {
            report.check(wrong.map(|w| format!("{label} {w}")));
            *tally = tally.plus(ReadTally {
                cells,
                matched: result.fragments_matched as u64,
                scanned: result.fragments_scanned as u64,
                fragment_queries: cells * result.fragments_matched as u64,
                result_points: returned,
            });
            Some(ns)
        }
    }
}

/// How a run splits its `--seconds`: an untraced run spends all of it
/// untraced; a traced run measures an untraced part first (the base of
/// `metrics.trace_overhead_share`), then a traced part, and keeps the
/// rest for replays and micro-timings.
pub struct Phases {
    pub untraced: Duration,
    pub traced: Duration,
}

impl Phases {
    pub fn of(args: &Args) -> Phases {
        let (untraced, traced) = if args.trace { (0.35, 0.40) } else { (1.0, 0.0) };
        Phases {
            untraced: Duration::from_secs_f64(args.seconds * untraced),
            traced: Duration::from_secs_f64(args.seconds * traced),
        }
    }
}

/// Run `round` repeatedly until another one would overrun `budget`
/// (at least once). Returns each round's wall time in nanoseconds.
pub fn rounds_within(budget: Duration, mut round: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        round();
        walls.push(t.elapsed().as_nanos() as f64);
        let longest = walls.iter().cloned().fold(0.0, f64::max);
        if start.elapsed().as_nanos() as f64 + longest > budget.as_nanos() as f64 {
            return walls;
        }
    }
}

/// Device counters of a window, per request, into the report.
pub fn report_device(
    report: &mut Report,
    device: DeviceSnapshot,
    requests: f64,
    wall_ns: f64,
    user_bytes: f64,
    result_bytes: f64,
) {
    let per_request = |v: u64| v as f64 / requests.max(1.0);
    report.set("storage.backend.put_ops", per_request(device.put_ops));
    report.set("storage.backend.get_ops", per_request(device.get_ops));
    report.set(
        "storage.backend.bytes_written",
        per_request(device.bytes_written),
    );
    report.set("storage.backend.bytes_read", per_request(device.bytes_read));
    report.set(
        "storage.backend.busy_share",
        device.busy_ns as f64 / wall_ns.max(1.0),
    );
    report.set(
        "storage.backend.bytes_written_per_user_byte",
        device.bytes_written as f64 / user_bytes.max(1.0),
    );
    report.set(
        "storage.backend.bytes_read_per_result_byte",
        device.bytes_read as f64 / result_bytes.max(1.0),
    );
    report.set(
        "storage.scheduler.device_ops",
        per_request(device.scheduler_ops),
    );
    report.set(
        "storage.scheduler.consolidations",
        device.scheduler_consolidations as f64 / (wall_ns.max(1.0) / 1e9),
    );
    report.set(
        "storage.scheduler.busy_share",
        device.scheduler_busy_ns as f64 / wall_ns.max(1.0),
    );
}

/// Most spans a trace file holds; aggregates always use every span.
const TRACE_FILE_SPANS: usize = 20_000;

/// Write `benchmark/out/<workload>.trace.json`: the stamp, every
/// per-layer value with its note, self time per request kind, and the
/// first spans of the traced window.
pub fn write_trace_file(
    args: &Args,
    stamp: &serde_json::Value,
    report: &Report,
    spans: &[SpanRec],
) -> std::io::Result<PathBuf> {
    let self_times = SelfTimes::of(spans);
    let mut kinds: Vec<_> = self_times.by_name.iter().collect();
    kinds.sort();
    let kinds: Vec<serde_json::Value> = kinds
        .into_iter()
        .map(|(name, &(count, total, own))| json!({"name": *name, "spans": count, "total_ns": total, "self_ns": own}))
        .collect();
    let layers: Vec<serde_json::Value> = crate::report::per_layer()
        .iter()
        .map(|d| {
            json!({
                "name": d.name.clone(),
                "value": report.get(&d.name).unwrap_or(0.0),
                "unit": d.unit,
                "note": report.note_of(&d.name).unwrap_or("")
            })
        })
        .collect();
    let listed: Vec<serde_json::Value> = spans
        .iter()
        .take(TRACE_FILE_SPANS)
        .map(|s| json!({"id": s.id, "parent": s.parent, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns}))
        .collect();
    let doc = json!({
        "stamp": stamp.clone(),
        "per_layer": layers,
        "request_kinds": kinds,
        "spans_recorded": spans.len(),
        "spans": listed
    });
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("{}.trace.json", args.workload));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("JSON renders"),
    )?;
    Ok(path)
}

/// What a workload hands back: the report, the spans of its traced
/// window, and operation counts for the stamp.
pub struct Outcome {
    pub report: Report,
    pub spans: Vec<SpanRec>,
    pub ops: std::collections::BTreeMap<String, u64>,
}
