//! Outside-in tracing: spans recorded by benchmark code around the calls
//! into each layer, and the counting/timing backend wrapper that stands
//! between the engine and the device.
//!
//! A request span is one engine call (embedded workloads) or one wire
//! request (served workloads). Its children are the device operations the
//! wrapper saw while that request was the one in flight on its dataset:
//! callers are closed-loop, so at most one is, and containment is
//! unambiguous. Device operations issued by the background scheduler
//! thread have no parent.

use artsparse_storage::{MemBackend, Result, StorageBackend};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Name of the engine's background scheduler thread
/// (`crates/storage/src/scheduler.rs`).
const SCHEDULER_THREAD: &str = "artsparse-ingest-scheduler";

/// One recorded span. `parent` is the id of the request span it ran
/// under (0 = none: a request span itself, or background work).
#[derive(Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store shared by every thread of a run.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Turn span recording on or off. Counters in [`DeviceStats`] run
    /// either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let rec = SpanRec {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store lock").push(rec);
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span store lock"))
    }
}

/// Self time per request-span name: duration minus the part of it the
/// span's children cover (children may overlap each other when the
/// engine fetches fragments on several threads).
pub struct SelfTimes {
    /// name → (spans, total ns, self ns)
    pub by_name: HashMap<&'static str, (u64, u64, u64)>,
}

impl SelfTimes {
    pub fn of(spans: &[SpanRec]) -> SelfTimes {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent == 0) {
            let total = s.end_ns - s.start_ns;
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        SelfTimes { by_name }
    }

    /// Self time ÷ total time over the request spans whose name starts
    /// with `prefix`; 0 when there are none.
    pub fn self_share(&self, prefix: &str) -> f64 {
        let (total, own) = self
            .by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold((0u64, 0u64), |acc, (_, v)| (acc.0 + v.1, acc.1 + v.2));
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }
}

/// Device-side counters of one dataset, kept by [`TimedBackend`].
#[derive(Default)]
pub struct DeviceStats {
    pub put_ops: AtomicU64,
    pub get_ops: AtomicU64,
    pub bytes_written: AtomicU64,
    pub bytes_read: AtomicU64,
    /// Time inside device operations, all threads summed.
    pub busy_ns: AtomicU64,
    /// Operations, consolidation tombstones and time on the scheduler thread.
    pub scheduler_ops: AtomicU64,
    pub scheduler_consolidations: AtomicU64,
    pub scheduler_busy_ns: AtomicU64,
}

/// A plain copy of [`DeviceStats`], for differences over a window.
#[derive(Clone, Copy, Default)]
pub struct DeviceSnapshot {
    pub put_ops: u64,
    pub get_ops: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub busy_ns: u64,
    pub scheduler_ops: u64,
    pub scheduler_consolidations: u64,
    pub scheduler_busy_ns: u64,
}

impl DeviceSnapshot {
    pub fn plus(self, o: DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            put_ops: self.put_ops + o.put_ops,
            get_ops: self.get_ops + o.get_ops,
            bytes_written: self.bytes_written + o.bytes_written,
            bytes_read: self.bytes_read + o.bytes_read,
            busy_ns: self.busy_ns + o.busy_ns,
            scheduler_ops: self.scheduler_ops + o.scheduler_ops,
            scheduler_consolidations: self.scheduler_consolidations + o.scheduler_consolidations,
            scheduler_busy_ns: self.scheduler_busy_ns + o.scheduler_busy_ns,
        }
    }

    pub fn minus(self, o: DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            put_ops: self.put_ops - o.put_ops,
            get_ops: self.get_ops - o.get_ops,
            bytes_written: self.bytes_written - o.bytes_written,
            bytes_read: self.bytes_read - o.bytes_read,
            busy_ns: self.busy_ns - o.busy_ns,
            scheduler_ops: self.scheduler_ops - o.scheduler_ops,
            scheduler_consolidations: self.scheduler_consolidations - o.scheduler_consolidations,
            scheduler_busy_ns: self.scheduler_busy_ns - o.scheduler_busy_ns,
        }
    }
}

/// One dataset's device and what the benchmark shares with the wrapper
/// around it: the tracer, the id of the request in flight, the counters.
///
/// The device is in memory on every workload. The sandbox's ext4 answers
/// a create+rename in 25 µs or 300 µs depending on where its 30-second
/// writeback cycle stands, which buried every other layer's time; device
/// operations and bytes are counted instead, and they repeat.
pub struct DatasetCtx {
    pub tracer: Arc<Tracer>,
    pub in_flight: AtomicU64,
    pub stats: DeviceStats,
    device: MemBackend,
}

impl DatasetCtx {
    pub fn new(tracer: Arc<Tracer>) -> Arc<DatasetCtx> {
        Arc::new(DatasetCtx {
            tracer,
            in_flight: AtomicU64::new(0),
            stats: DeviceStats::default(),
            device: MemBackend::new(),
        })
    }

    /// The backend the engine should be opened over.
    pub fn backend(self: &Arc<DatasetCtx>) -> TimedBackend {
        TimedBackend {
            ctx: Arc::clone(self),
        }
    }

    /// Run `f` as one request: its device operations become child spans.
    /// Returns the result and the call's duration in nanoseconds.
    pub fn request<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.tracer.next_id();
        self.in_flight.store(id, Ordering::SeqCst);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.in_flight.store(0, Ordering::SeqCst);
        if self.tracer.enabled() {
            self.tracer.record(id, 0, name, start, end);
        }
        (out, end.duration_since(start).as_nanos() as u64)
    }

    pub fn snapshot(&self) -> DeviceSnapshot {
        let s = &self.stats;
        DeviceSnapshot {
            put_ops: s.put_ops.load(Ordering::Relaxed),
            get_ops: s.get_ops.load(Ordering::Relaxed),
            bytes_written: s.bytes_written.load(Ordering::Relaxed),
            bytes_read: s.bytes_read.load(Ordering::Relaxed),
            busy_ns: s.busy_ns.load(Ordering::Relaxed),
            scheduler_ops: s.scheduler_ops.load(Ordering::Relaxed),
            scheduler_consolidations: s.scheduler_consolidations.load(Ordering::Relaxed),
            scheduler_busy_ns: s.scheduler_busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Bytes the device holds right now, every blob counted.
    pub fn device_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for name in self.device.list()? {
            total += self.device.size(&name)?;
        }
        Ok(total)
    }
}

/// The counting/timing wrapper every benchmark engine runs on.
pub struct TimedBackend {
    ctx: Arc<DatasetCtx>,
}

impl TimedBackend {
    fn op<T>(
        &self,
        name: &'static str,
        blob: &str,
        f: impl FnOnce(&MemBackend) -> Result<T>,
        account: impl FnOnce(&DeviceStats, &T),
    ) -> Result<T> {
        let ctx = &*self.ctx;
        let start = Instant::now();
        let out = f(&ctx.device);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let background = std::thread::current().name() == Some(SCHEDULER_THREAD);
        ctx.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if background {
            ctx.stats.scheduler_ops.fetch_add(1, Ordering::Relaxed);
            ctx.stats.scheduler_busy_ns.fetch_add(ns, Ordering::Relaxed);
            // One consolidation writes one tombstone (engine.rs TOMB_PREFIX).
            if name == "backend.put" && blob.starts_with("tomb-") {
                ctx.stats
                    .scheduler_consolidations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Ok(value) = &out {
            account(&ctx.stats, value);
        }
        if ctx.tracer.enabled() {
            let parent = if background {
                0
            } else {
                ctx.in_flight.load(Ordering::SeqCst)
            };
            // A parentless device span is named apart, so it is never
            // mistaken for a request span.
            let name = if parent == 0 {
                "backend.background"
            } else {
                name
            };
            ctx.tracer
                .record(ctx.tracer.next_id(), parent, name, start, end);
        }
        out
    }

    fn put_op(
        &self,
        name: &str,
        data: &[u8],
        f: impl FnOnce(&MemBackend) -> Result<()>,
    ) -> Result<()> {
        self.op("backend.put", name, f, |s, _| {
            s.put_ops.fetch_add(1, Ordering::Relaxed);
            s.bytes_written
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        })
    }

    fn get_op(
        &self,
        name: &str,
        f: impl FnOnce(&MemBackend) -> Result<Vec<u8>>,
    ) -> Result<Vec<u8>> {
        self.op("backend.get", name, f, |s, bytes| {
            s.get_ops.fetch_add(1, Ordering::Relaxed);
            s.bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        })
    }
}

impl StorageBackend for TimedBackend {
    fn kind_name(&self) -> &'static str {
        self.ctx.device.kind_name()
    }
    fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        self.put_op(name, data, |d| d.put(name, data))
    }
    fn put_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        self.put_op(name, data, |d| d.put_atomic(name, data))
    }
    fn put_exclusive(&self, name: &str, data: &[u8]) -> Result<()> {
        self.put_op(name, data, |d| d.put_exclusive(name, data))
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.op("backend.rename", from, |d| d.rename(from, to), |_, _| {})
    }
    fn get(&self, name: &str) -> Result<Vec<u8>> {
        self.get_op(name, |d| d.get(name))
    }
    fn get_prefix(&self, name: &str, len: usize) -> Result<Vec<u8>> {
        self.get_op(name, |d| d.get_prefix(name, len))
    }
    fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.get_op(name, |d| d.get_range(name, offset, len))
    }
    fn list(&self) -> Result<Vec<String>> {
        self.op("backend.list", "", |d| d.list(), |_, _| {})
    }
    fn size(&self, name: &str) -> Result<u64> {
        self.op("backend.size", name, |d| d.size(name), |_, _| {})
    }
    fn delete(&self, name: &str) -> Result<()> {
        self.op("backend.delete", name, |d| d.delete(name), |_, _| {})
    }
    fn exists(&self, name: &str) -> bool {
        self.op("backend.size", name, |d| Ok(d.exists(name)), |_, _| {})
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        let spans = [
            SpanRec {
                id: 1,
                parent: 0,
                name: "engine.read",
                start_ns: 0,
                end_ns: 100,
            },
            // Two overlapping children cover [10, 60); one sticks out past the parent.
            SpanRec {
                id: 2,
                parent: 1,
                name: "backend.get",
                start_ns: 10,
                end_ns: 50,
            },
            SpanRec {
                id: 3,
                parent: 1,
                name: "backend.get",
                start_ns: 30,
                end_ns: 60,
            },
            SpanRec {
                id: 4,
                parent: 1,
                name: "backend.get",
                start_ns: 90,
                end_ns: 120,
            },
            SpanRec {
                id: 5,
                parent: 0,
                name: "backend.background",
                start_ns: 0,
                end_ns: 500,
            },
        ];
        let st = SelfTimes::of(&spans);
        assert_eq!(st.by_name["engine.read"], (1, 100, 40));
        assert!((st.self_share("engine.") - 0.4).abs() < 1e-12);
        assert_eq!(st.self_share("wire."), 0.0);
    }

    #[test]
    fn wrapper_counts_and_parents_device_operations() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let ctx = DatasetCtx::new(Arc::clone(&tracer));
        let backend = ctx.backend();
        let ((), ns) = ctx.request("engine.write", || backend.put("a", &[1, 2, 3]).unwrap());
        assert!(ns > 0);
        assert_eq!(backend.get("a").unwrap(), vec![1, 2, 3]);
        let snap = ctx.snapshot();
        assert_eq!((snap.put_ops, snap.get_ops), (1, 1));
        assert_eq!((snap.bytes_written, snap.bytes_read), (3, 3));
        assert_eq!(ctx.device_bytes().unwrap(), 3);
        let spans = tracer.take();
        let put = spans.iter().find(|s| s.name == "backend.put").unwrap();
        let request = spans.iter().find(|s| s.name == "engine.write").unwrap();
        assert_eq!(put.parent, request.id);
        assert!(spans
            .iter()
            .any(|s| s.name == "backend.background" && s.parent == 0));
    }
}
