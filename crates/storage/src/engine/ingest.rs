//! Streaming ingest: buffer → WAL → group commit → replay
//! (DESIGN.md §14).
//!
//! This module owns the write buffer's lifecycle on the engine: acking a
//! batch (admission, WAL append, buffer append), the group commit that
//! folds the buffer into one ordinary fragment, WAL retirement and its
//! retries, and order-preserving WAL replay at open. [`WalLedger`] is the
//! one record of which WAL blobs this engine acked and still holds.

use super::commit::WriteReport;
use super::names::{format_fragment_name, FragmentId};
use super::{delete_if_present, StorageEngine};
use crate::backend::StorageBackend;
use crate::error::{Result, StorageError};
use artsparse_metrics::{charge, Span, SpanKind};
use artsparse_tensor::sort::{last_per_address, sort_by_address};
use artsparse_tensor::value::Element;
use artsparse_tensor::CoordBuffer;
use parking_lot::MutexGuard;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Every live WAL blob this engine acked, by name and bytes, with the
/// blobs whose batch is committed but whose delete failed marked for a
/// retry. The engine keeps it behind one lock, and admission against
/// [`max_wal_backlog_bytes`](crate::config::IngestConfig::max_wal_backlog_bytes),
/// retirement and the WAL gauges all read it there. Blobs found at open
/// are replayed and deleted before ingest starts, so they never appear.
#[derive(Default)]
pub(super) struct WalLedger {
    blobs: HashMap<String, u64>,
    /// Summed bytes of `blobs`: what the backlog cap admits against.
    pub(super) bytes: u64,
    /// The blobs of `blobs` awaiting a delete retry.
    retiring: Vec<String>,
}

impl WalLedger {
    pub(super) fn charge(&mut self, name: &str, len: u64) {
        self.blobs.insert(name.to_string(), len);
        self.bytes += len;
    }

    /// Forget a blob gone from the device (or whose put failed).
    fn forget(&mut self, name: &str) {
        if let Some(len) = self.blobs.remove(name) {
            self.bytes -= len;
        }
    }

    /// Live blobs, their bytes, and how many of them await a delete
    /// retry.
    pub(super) fn occupancy(&self) -> (usize, u64, usize) {
        (self.blobs.len(), self.bytes, self.retiring.len())
    }
}

impl<B: StorageBackend> StorageEngine<B> {
    /// Streaming ingest: append a batch of points to the in-memory write
    /// buffer, durably WAL-protected first (one `put_atomic` blob per
    /// acked batch, see [`crate::wal`]) so a crash after the ack never
    /// loses it. The batch is immediately readable — buffered points
    /// overlay fragment hits with last-write-wins precedence — and a
    /// group commit folds the buffer into one ordinary fragment when the
    /// configured thresholds trip
    /// ([`IngestConfig`](crate::config::IngestConfig)) or
    /// [`StorageEngine::flush`] is called explicitly.
    ///
    /// Returns the number of points acked. `values` is an opaque payload
    /// of `elem_size`-byte records, one per point, like
    /// [`StorageEngine::write`].
    pub fn ingest(&self, coords: &CoordBuffer, values: &[u8]) -> Result<usize> {
        let _span = Span::enter(self.plane.as_ref(), SpanKind::Ingest);
        self.validate_batch(coords, values)?;
        if coords.is_empty() {
            return Ok(0);
        }
        self.health.check_writable()?;
        let n = coords.len();
        let mut addrs = Vec::with_capacity(n);
        let mut flat = Vec::with_capacity(n * self.shape.ndim());
        for p in coords.iter() {
            addrs.push(self.shape.linearize(p)?);
            flat.extend_from_slice(p);
        }
        // Admission control: reserve the batch's value bytes against the
        // buffer cap *before* the WAL put, so two racing overweight
        // batches cannot both slip under it. The reservation converts
        // into real occupancy at the append below, or is cancelled if
        // the WAL ack fails.
        self.health
            .admit_buffer(&self.config.ingest, &self.buffer, values.len())?;
        {
            // The seq drawn for the WAL blob and the append are one step
            // to a group commit's snapshot (see `ack_order`): a flush
            // cannot commit a higher id while this batch is in flight.
            let _order = self.ack_order.lock();
            let wal = match self.wal_append(&flat, values) {
                Ok(wal) => wal,
                Err(e) => {
                    self.buffer.cancel_reservation(values.len());
                    return Err(e);
                }
            };
            self.buffer.append(addrs, flat, values.to_vec(), Some(wal));
        }
        // The batch is acked: durable in its WAL blob and readable from
        // the buffer. A group commit that fails here leaves it buffered
        // and WAL-protected — `publish` has counted the failure toward the
        // health ladder, the next flush or scheduler tick retries, and
        // the buffer cap is the back-stop — so it cannot fail the ack.
        let stats = self.buffer.stats();
        if stats.points >= self.config.ingest.flush_points
            || stats.value_bytes >= self.config.ingest.flush_bytes
        {
            let _ = self.flush();
        }
        Ok(n)
    }

    /// Durably ack one ingest batch: encode the WAL record, admit it
    /// against the backlog cap, and land it with write retries. Returns
    /// the blob name.
    fn wal_append(&self, flat: &[u64], values: &[u8]) -> Result<String> {
        let _wal_span = Span::enter(self.plane.as_ref(), SpanKind::IngestWal);
        let blob =
            crate::wal::encode_record(self.shape.ndim(), self.elem_size as usize, flat, values)?;
        // The WAL draws from the same id sequence as fragments, so
        // the name fixes the batch's place in the store's total
        // (seq, epoch, cgen) precedence order at ack time. Replay
        // commits the batch as a fragment under that very identity,
        // which is what keeps replay safe no matter who performs it
        // or when (see [`StorageEngine::replay_wal`]).
        let name = crate::wal::wal_name(self.next_id.fetch_add(1, Ordering::SeqCst), self.epoch);
        self.health
            .admit_wal(&self.config.ingest, &self.wal, &name, blob.len() as u64)?;
        // The ack point: the batch is durable once this atomic put
        // lands (re-attempted through the write retry policy for
        // transient device faults). A put that dies mid-write persists
        // nothing (or a torn prefix the CRC framing rejects at replay),
        // and the error propagates before anything reaches the buffer.
        let ack = self.retry_write(&name, || self.backend.put_atomic(&name, &blob));
        self.health.note_write(&self.config.health, &ack);
        match ack {
            Ok(()) => {
                charge(|io| io.wal_bytes += blob.len() as u64);
                Ok(name)
            }
            Err(e) => {
                self.wal.lock().forget(&name);
                Err(e)
            }
        }
    }

    /// Typed streaming-ingest convenience.
    pub fn ingest_points<V: Element>(&self, coords: &CoordBuffer, values: &[V]) -> Result<usize> {
        self.check_elem_size::<V>()?;
        self.ingest(coords, &artsparse_tensor::value::pack(values))
    }

    /// Group commit: flush the write buffer into one ordinary fragment
    /// and retire the WAL blobs it covered. Batches acked while the flush
    /// runs stay buffered for the next one. An empty buffer returns
    /// `Ok(None)` without touching the device.
    pub fn flush(&self) -> Result<Option<WriteReport>> {
        let held = self.flush_lock.lock();
        self.flush_locked(&held, || ()).map(|(report, ())| report)
    }

    /// [`StorageEngine::flush`] under a held `flush_lock`, running `then`
    /// in the same step as the snapshot. A plain write draws its id
    /// there: it must outrank everything acked before the snapshot and
    /// nothing acked after it.
    pub(super) fn flush_locked<T>(
        &self,
        _held: &MutexGuard<'_, ()>,
        then: impl FnOnce() -> T,
    ) -> Result<(Option<WriteReport>, T)> {
        // Retry WAL deletions a previous flush failed (device hiccup)
        // before anything else — even when the buffer is empty, so a
        // quiet engine still sheds its orphans.
        self.retire_wals(Vec::new());
        let (snapshot, id, after) = {
            let _order = self.ack_order.lock();
            let snapshot = self.buffer.snapshot();
            let id = (!snapshot.is_empty()).then(|| self.draw_id());
            (snapshot, id, then())
        };
        let Some(id) = id else {
            return Ok((None, after));
        };
        let _span = Span::enter(self.plane.as_ref(), SpanKind::IngestFlush);
        // The snapshot is deduplicated (the latest append per address
        // survives) and laid out in address order — exactly what the
        // within-fragment precedence rule needs (reads take the first
        // matching slot) and what the sort-eliding builders accept.
        let coords = CoordBuffer::from_flat(self.shape.ndim(), snapshot.flat_coords().to_vec())?;
        let payload = snapshot.flat_values();
        let report = self.write_with(
            self.kind,
            &coords,
            payload,
            &[coords.len()],
            1,
            id,
            None,
            true,
        )?;
        // The fragment is committed: retire the covered batches and their
        // WAL blobs. Retirement is cleanup, not correctness — a blob that
        // survives (crash, or a delete failure queued for retry) replays
        // under its original identity, ranked below the fragment just
        // committed, so it can never resurrect old values.
        self.retire_wals(self.buffer.drain(snapshot.raw_points));
        charge(|io| io.group_commits += 1);
        Ok((Some(report), after))
    }

    /// Delete retired WAL blobs plus any whose deletion failed earlier.
    /// A failed delete stays marked in the ledger for the next retry
    /// instead of failing the caller: the covering fragment is already
    /// committed, and an orphaned blob is harmless under order-preserving
    /// replay — it costs device bytes until a retry lands, never stale
    /// reads. Deletes run outside the ledger's lock, so ingest admission
    /// never waits on the device.
    fn retire_wals(&self, names: Vec<String>) {
        // Taking the retry marks makes this pass the one that deletes
        // those blobs; a failure marks its blob again.
        let mut pending = std::mem::take(&mut self.wal.lock().retiring);
        pending.extend(names);
        for name in pending {
            match delete_if_present(&self.backend, &name) {
                // Gone (or never there): the blob no longer counts
                // against the WAL backlog cap.
                Ok(()) => self.wal.lock().forget(&name),
                Err(_) => self.wal.lock().retiring.push(name),
            }
        }
    }

    /// Retry retiring WAL blobs whose deletion failed earlier, without
    /// flushing anything. The background scheduler calls this every tick
    /// and once more on shutdown, so orphans from a failed flush-time
    /// delete drain even when no further flush ever runs (previously
    /// they waited for the *next* flush, indefinitely on a quiet
    /// engine).
    pub fn retire_pending_wals(&self) {
        self.retire_wals(Vec::new());
    }

    /// Orderly shutdown for engines without a scheduler: group-commit
    /// whatever is buffered and retry any queued WAL retirements. Safe
    /// to call more than once; the engine stays usable afterwards.
    pub fn shutdown(&self) -> Result<()> {
        let report = self.flush();
        self.retire_pending_wals();
        report.map(|_| ())
    }

    /// Occupancy of the streaming-ingest write buffer.
    pub fn buffer_stats(&self) -> crate::buffer::BufferStats {
        self.buffer.stats()
    }

    /// Age of the oldest buffered ingest batch (`None` when the buffer is
    /// empty) — what the scheduler's staleness flush keys off.
    pub fn buffer_age(&self) -> Option<std::time::Duration> {
        self.buffer.age()
    }

    /// Replay surviving WAL blobs at open. Replay is *order-preserving*:
    /// WAL names draw their sequence numbers from the same id sequence as
    /// fragments, and each acked batch is committed as a fragment under
    /// the WAL's own `(seq, epoch)` identity — it materializes at exactly
    /// the precedence slot its ack was given, never at the top of the
    /// order. That single invariant makes replay safe in every window the
    /// protocol admits:
    ///
    /// * a blob whose batch already reached a fragment (the flush died —
    ///   or a delete failed — between commit and retirement) replays
    ///   *below* that fragment and everything written since: a harmless
    ///   duplicate the next consolidation folds away, never a
    ///   resurrection of overwritten values;
    /// * a blob owned by a concurrently-live engine replays below
    ///   anything that engine flushes afterwards (its ids are all
    ///   higher), so claiming it early is safe — the owner still holds
    ///   the batch in its buffer and tolerates the retired blob.
    ///
    /// Torn or corrupt blobs — atomic puts that died mid-write on a
    /// device that tears — are swept without replaying a byte.
    pub(super) fn replay_wal(&self) -> Result<()> {
        let mut wals: Vec<(u64, u64, String)> = Vec::new();
        let mut torn: Vec<String> = Vec::new();
        for name in self.backend.list()? {
            if !crate::wal::is_wal_name(&name) {
                continue;
            }
            match crate::wal::parse_wal_name(&name) {
                Some((seq, epoch)) => wals.push((epoch, seq, name)),
                None => torn.push(name),
            }
        }
        if wals.is_empty() && torn.is_empty() {
            return Ok(());
        }
        let _span = Span::enter(self.plane.as_ref(), SpanKind::IngestReplay);
        // Ack order: epoch-major (each crash/reopen cycle claims a fresh
        // epoch), sequence-minor within one engine's run.
        wals.sort();
        for (epoch, seq, name) in &wals {
            // This engine's own writes must outrank every replayed batch.
            self.next_id.fetch_max(seq + 1, Ordering::SeqCst);
            let bytes = self.backend.get(name)?;
            let rec = match crate::wal::decode_record(name, &bytes) {
                Ok(rec) => rec,
                Err(_) => {
                    // Fails the CRC framing: the put tore, the batch was
                    // never acked, nothing to replay.
                    torn.push(name.clone());
                    continue;
                }
            };
            if rec.ndim != self.shape.ndim() || rec.elem_size != self.elem_size as usize {
                return Err(StorageError::Mismatch {
                    reason: format!(
                        "WAL record {name} holds rank-{} points of {}-byte records, \
                         engine stores rank-{} of {}",
                        rec.ndim,
                        rec.elem_size,
                        self.shape.ndim(),
                        self.elem_size
                    ),
                });
            }
            let id = FragmentId::plain(*seq, *epoch);
            // Idempotency: a previous replay that died between commit
            // and WAL deletion left the fragment behind under this very
            // name — nothing to re-commit, just finish the retirement.
            if self.catalog.get(&format_fragment_name(id)).is_none() && !rec.is_empty() {
                // Dedup within the batch (last append wins) and emit in
                // address order, matching a group commit's snapshot.
                let mut order = rec
                    .coords
                    .chunks_exact(rec.ndim)
                    .enumerate()
                    .map(|(i, point)| Ok((self.shape.linearize(point)?, i)))
                    .collect::<Result<Vec<(u64, usize)>>>()?;
                sort_by_address(&mut order);
                let mut coords = CoordBuffer::with_capacity(self.shape.ndim(), order.len());
                let mut payload = Vec::with_capacity(order.len() * rec.elem_size);
                for &(_, i) in last_per_address(&order) {
                    coords.push(&rec.coords[i * rec.ndim..(i + 1) * rec.ndim])?;
                    payload
                        .extend_from_slice(&rec.values[i * rec.elem_size..(i + 1) * rec.elem_size]);
                }
                let whole = [coords.len()];
                self.write_with(self.kind, &coords, &payload, &whole, 1, id, None, true)?;
            }
            delete_if_present(&self.backend, name)?;
        }
        // Sweep the torn blobs — never acked, never replayed.
        for name in &torn {
            delete_if_present(&self.backend, name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::config::EngineConfig;
    use crate::engine::test_support::{coords, engine};
    use crate::engine::BUFFER_FRAGMENT;
    use artsparse_core::FormatKind;
    use artsparse_tensor::Shape;

    #[test]
    fn ingest_is_readable_before_and_after_flush() {
        let e = engine(FormatKind::Linear);
        assert_eq!(
            e.ingest_points::<f64>(&coords(&[[1, 2], [3, 4]]), &[12.0, 34.0])
                .unwrap(),
            2
        );
        // Buffered, not yet a fragment.
        assert_eq!(e.fragments().unwrap().len(), 0);
        assert_eq!(e.buffer_stats().points, 2);
        assert!(e.buffer_age().is_some());
        let q = coords(&[[3, 4], [0, 0], [1, 2]]);
        let r = e.read(&q).unwrap();
        assert_eq!(r.hits.len(), 2);
        assert!(r.hits.iter().all(|h| h.fragment == BUFFER_FRAGMENT));
        assert_eq!(
            e.read_values::<f64>(&q).unwrap(),
            vec![Some(34.0), None, Some(12.0)]
        );
        // Group commit: same answers, now from a fragment.
        let report = e.flush().unwrap().expect("non-empty buffer flushes");
        assert_eq!(report.n_points, 2);
        assert_eq!(e.buffer_stats().points, 0);
        assert_eq!(e.fragments().unwrap().len(), 1);
        let r = e.read(&q).unwrap();
        assert!(r.hits.iter().all(|h| h.fragment != BUFFER_FRAGMENT));
        assert_eq!(
            e.read_values::<f64>(&q).unwrap(),
            vec![Some(34.0), None, Some(12.0)]
        );
        // Empty flush is a no-op.
        assert!(e.flush().unwrap().is_none());
    }

    #[test]
    fn buffered_point_wins_over_committed_duplicate() {
        let e = engine(FormatKind::Csf);
        e.write_points::<f64>(&coords(&[[4, 4], [2, 2]]), &[1.0, 5.0])
            .unwrap();
        // Newer buffered write of the same coordinate wins unflushed...
        e.ingest_points::<f64>(&coords(&[[4, 4]]), &[2.0]).unwrap();
        let q = coords(&[[4, 4], [2, 2]]);
        assert_eq!(
            e.read_values::<f64>(&q).unwrap(),
            vec![Some(2.0), Some(5.0)]
        );
        // ...and flushed (fresh sequence number outranks the old one).
        e.flush().unwrap();
        assert_eq!(
            e.read_values::<f64>(&q).unwrap(),
            vec![Some(2.0), Some(5.0)]
        );
        // A plain write after an ingest of the same coordinate wins:
        // write() group-commits the buffer before taking its own seq.
        e.ingest_points::<f64>(&coords(&[[2, 2]]), &[6.0]).unwrap();
        e.write_points::<f64>(&coords(&[[2, 2]]), &[7.0]).unwrap();
        assert_eq!(
            e.read_values::<f64>(&coords(&[[2, 2]])).unwrap(),
            vec![Some(7.0)]
        );
    }

    #[test]
    fn ingest_within_buffer_duplicates_last_write_wins() {
        let e = engine(FormatKind::Coo);
        e.ingest_points::<f64>(&coords(&[[3, 3]]), &[1.0]).unwrap();
        e.ingest_points::<f64>(&coords(&[[3, 3]]), &[2.0]).unwrap();
        let q = coords(&[[3, 3]]);
        assert_eq!(e.read_values::<f64>(&q).unwrap(), vec![Some(2.0)]);
        // The flush dedups before encoding: one point in the fragment,
        // the later record.
        let report = e.flush().unwrap().unwrap();
        assert_eq!(report.n_points, 1);
        assert_eq!(e.read_values::<f64>(&q).unwrap(), vec![Some(2.0)]);
    }

    #[test]
    fn ingest_flushes_at_point_threshold() {
        let config = EngineConfig::default().with_ingest(crate::config::IngestConfig {
            flush_points: 3,
            ..Default::default()
        });
        let e = StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            config,
        )
        .unwrap();
        e.ingest_points::<f64>(&coords(&[[0, 1], [0, 2]]), &[1.0, 2.0])
            .unwrap();
        assert_eq!(e.fragments().unwrap().len(), 0);
        e.ingest_points::<f64>(&coords(&[[0, 3]]), &[3.0]).unwrap();
        // Threshold tripped: the buffer group-committed itself.
        assert_eq!(e.fragments().unwrap().len(), 1);
        assert_eq!(e.buffer_stats().points, 0);
        // WAL blobs were retired with the flush.
        let wals = e
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .count();
        assert_eq!(wals, 0);
    }

    #[test]
    fn wal_blobs_cover_exactly_the_buffered_batches() {
        let e = engine(FormatKind::Coo);
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        let wals: Vec<String> = e
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .collect();
        assert_eq!(wals.len(), 2);
        e.flush().unwrap();
        let wals = e
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .count();
        assert_eq!(wals, 0);
    }

    #[test]
    fn unflushed_ingest_survives_reopen_via_wal_replay() {
        let backend = MemBackend::new();
        let shape = Shape::new(vec![8, 8]).unwrap();
        let e1 = StorageEngine::open(backend, FormatKind::Coo, shape.clone(), 8).unwrap();
        e1.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        // Out of address order, and [2,2] twice: the later point wins.
        e1.ingest_points::<f64>(&coords(&[[2, 2], [0, 3], [2, 2]]), &[2.0, 3.0, 4.0])
            .unwrap();
        // Simulate a crash: drop the engine without flushing.
        let backend = e1.into_backend();
        let e2 = StorageEngine::open(backend, FormatKind::Coo, shape, 8).unwrap();
        // Replay committed the WAL batch as a fragment under its own id.
        assert_eq!(e2.buffer_stats().points, 0);
        assert_eq!(
            e2.read_values::<f64>(&coords(&[[1, 1], [2, 2], [0, 3]]))
                .unwrap(),
            vec![Some(1.0), Some(4.0), Some(3.0)]
        );
        let (replayed, _) = e2.export().unwrap();
        assert_eq!(replayed.as_flat(), [0, 3, 1, 1, 2, 2]);
        let wals = e2
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .count();
        assert_eq!(wals, 0, "replayed WAL blobs are retired");
    }

    #[test]
    fn engine_shutdown_flushes_and_retires() {
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default(),
        )
        .unwrap();
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        // Strand the WAL blob: the flush commits but cannot delete it.
        e.backend().fail_deletes(true);
        e.flush().unwrap();
        let wals = |e: &StorageEngine<FailingBackend<MemBackend>>| {
            e.backend()
                .list()
                .unwrap()
                .into_iter()
                .filter(|n| n.ends_with(".wal"))
                .count()
        };
        assert_eq!(wals(&e), 1);
        e.backend().disarm();
        // Shutdown drains the orphan without another flush trigger.
        e.shutdown().unwrap();
        assert_eq!(wals(&e), 0);
        assert_eq!(e.stats().unwrap().wal_backlog_bytes, 0);
    }
}
