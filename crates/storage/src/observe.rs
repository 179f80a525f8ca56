//! Telemetry instrumentation for storage devices.
//!
//! [`RecordingBackend`] wraps any [`StorageBackend`] and, when it has an
//! observability plane, times every device operation and charges the
//! moved bytes to the innermost open span on the calling thread (see
//! `artsparse_metrics::span`). The engine stores its device inside this
//! wrapper so every existing `self.backend.…` call site is instrumented
//! without per-call-site changes. Without a plane the wrapper is one
//! `Option` check plus a direct delegate — effectively free.

use crate::backend::StorageBackend;
use crate::error::Result;
use artsparse_metrics::{charge, ObservabilityPlane};
use std::sync::Arc;
use std::time::Instant;

/// A [`StorageBackend`] decorator that reports per-operation timing and
/// byte counts to an [`ObservabilityPlane`].
///
/// Byte accounting rules:
/// * reads (`get`, `get_prefix`, `get_range`) charge `requests`,
///   `bytes_requested` (the window asked for; for `get` the blob length
///   actually returned) and, on success, `bytes_fetched` (bytes
///   returned);
/// * writes (`put`, `put_atomic`, `put_exclusive`) charge `requests` and,
///   on success, `bytes_written`;
/// * `rename`, `delete`, and `list` are timed with zero bytes;
/// * `size` and `exists` are metadata peeks and are not recorded.
pub struct RecordingBackend<B> {
    inner: B,
    plane: Option<Arc<ObservabilityPlane>>,
}

impl<B: StorageBackend> RecordingBackend<B> {
    /// Wrap `inner`, reporting to `plane` (`None`: record nothing).
    pub fn new(inner: B, plane: Option<&Arc<ObservabilityPlane>>) -> Self {
        RecordingBackend {
            inner,
            plane: plane.cloned(),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwrap, discarding the plane.
    pub fn into_inner(self) -> B {
        self.inner
    }

    #[inline]
    fn op_start(&self) -> Option<Instant> {
        self.plane.as_ref().map(|_| Instant::now())
    }

    #[inline]
    fn op_end(&self, start: Option<Instant>, op: &'static str, bytes: u64) {
        if let (Some(start), Some(plane)) = (start, &self.plane) {
            let dur_ns = start.elapsed().as_nanos() as u64;
            plane.record_backend_op(self.inner.kind_name(), op, dur_ns, bytes);
        }
    }

    #[inline]
    fn record_write(&self, start: Option<Instant>, op: &'static str, len: usize, ok: bool) {
        if start.is_some() {
            let bytes = if ok { len as u64 } else { 0 };
            charge(|io| {
                io.requests += 1;
                io.bytes_written = io.bytes_written.saturating_add(bytes);
            });
            self.op_end(start, op, bytes);
        }
    }

    #[inline]
    fn record_read(
        &self,
        start: Option<Instant>,
        op: &'static str,
        requested: u64,
        fetched: u64,
        ok: bool,
    ) {
        if start.is_some() {
            let fetched = if ok { fetched } else { 0 };
            charge(|io| {
                io.requests += 1;
                io.bytes_requested = io.bytes_requested.saturating_add(requested);
                io.bytes_fetched = io.bytes_fetched.saturating_add(fetched);
            });
            self.op_end(start, op, fetched);
        }
    }
}

impl<B: StorageBackend> StorageBackend for RecordingBackend<B> {
    fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }

    fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.put(name, data);
        self.record_write(start, "put", data.len(), r.is_ok());
        r
    }

    fn put_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.put_atomic(name, data);
        self.record_write(start, "put_atomic", data.len(), r.is_ok());
        r
    }

    fn put_exclusive(&self, name: &str, data: &[u8]) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.put_exclusive(name, data);
        self.record_write(start, "put_exclusive", data.len(), r.is_ok());
        r
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.rename(from, to);
        self.op_end(start, "rename", 0);
        r
    }

    fn get(&self, name: &str) -> Result<Vec<u8>> {
        let start = self.op_start();
        let r = self.inner.get(name);
        let got = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.record_read(start, "get", got, got, r.is_ok());
        r
    }

    fn get_prefix(&self, name: &str, len: usize) -> Result<Vec<u8>> {
        let start = self.op_start();
        let r = self.inner.get_prefix(name, len);
        let got = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.record_read(start, "get_prefix", len as u64, got, r.is_ok());
        r
    }

    fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let start = self.op_start();
        let r = self.inner.get_range(name, offset, len);
        let got = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.record_read(start, "get_range", len as u64, got, r.is_ok());
        r
    }

    fn list(&self) -> Result<Vec<String>> {
        let start = self.op_start();
        let r = self.inner.list();
        self.op_end(start, "list", 0);
        r
    }

    fn size(&self, name: &str) -> Result<u64> {
        self.inner.size(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.delete(name);
        self.op_end(start, "delete", 0);
        r
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use artsparse_metrics::{Span, SpanKind};

    fn plane() -> Option<Arc<ObservabilityPlane>> {
        Some(Arc::new(ObservabilityPlane::new(0)))
    }

    #[test]
    fn no_plane_records_nothing_and_delegates() {
        let b = RecordingBackend::new(MemBackend::new(), None);
        b.put("a", &[1, 2, 3]).unwrap();
        assert_eq!(b.get("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(b.kind_name(), "mem");
        assert!(b.exists("a"));
    }

    #[test]
    fn a_plane_times_ops_and_charges_the_open_span() {
        let p = plane();
        let b = RecordingBackend::new(MemBackend::new(), p.as_ref());
        {
            let _s = Span::enter(p.as_ref(), SpanKind::Write);
            b.put("a", &[0u8; 100]).unwrap();
        }
        {
            let _s = Span::enter(p.as_ref(), SpanKind::ReadFetch);
            assert_eq!(b.get_range("a", 10, 20).unwrap().len(), 20);
            assert_eq!(b.get("a").unwrap().len(), 100);
        }
        let rep = p.as_ref().unwrap().report();
        let w = rep.span(SpanKind::Write).unwrap();
        assert_eq!(w.io.bytes_written, 100);
        assert_eq!(w.io.requests, 1);
        let f = rep.span(SpanKind::ReadFetch).unwrap();
        assert_eq!(f.io.bytes_fetched, 120);
        assert_eq!(f.io.bytes_requested, 120);
        assert_eq!(f.io.requests, 2);
        assert_eq!(rep.backend_op("mem", "put").unwrap().bytes, 100);
        assert_eq!(rep.backend_op("mem", "get_range").unwrap().bytes, 20);
        assert_eq!(rep.backend_op("mem", "get").unwrap().bytes, 100);
    }

    #[test]
    fn failed_reads_charge_request_but_no_bytes() {
        let p = plane();
        let b = RecordingBackend::new(MemBackend::new(), p.as_ref());
        {
            let _s = Span::enter(p.as_ref(), SpanKind::ReadFetch);
            assert!(b.get("missing").is_err());
        }
        let rep = p.as_ref().unwrap().report();
        let f = rep.span(SpanKind::ReadFetch).unwrap();
        assert_eq!(f.io.requests, 1);
        assert_eq!(f.io.bytes_fetched, 0);
    }
}
