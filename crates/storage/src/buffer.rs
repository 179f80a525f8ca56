//! In-memory write buffer for streaming ingest.
//!
//! Acked ingest batches land here (after their WAL record is durable)
//! and stay readable — merged over fragment hits with last-write-wins
//! precedence — until a group commit flushes them into one ordinary
//! fragment. The buffer keeps batches in append order under a mutex and
//! exposes reads through an atomically swappable [`BufferSnapshot`]: an
//! `Arc`'d list of the buffered batches, so readers never hold the append
//! lock while they merge (the double-buffer idiom — writers mutate the
//! live side, readers clone an immutable snapshot).
//!
//! `append` keeps no index: it pushes the batch and drops the cached
//! snapshot, O(1). The next snapshot is the same `Arc`'d batches plus the
//! new one, so a served store that appends between every two reads pays
//! nothing for the batches it has already seen. Lookups sort nothing
//! either: a point lookup scans each batch's addresses, newest batch
//! first and last append first, and a box filters each batch's addresses
//! by the box, keeping the newest append per address. Both cost
//! O(buffered points), which the flush thresholds bound at
//! [`IngestConfig::flush_points`](crate::config::IngestConfig::flush_points)
//! plus one batch.
//!
//! Only a group commit needs one flat, deduplicated, address-ordered
//! array set; a snapshot builds it lazily, once, by one radix sort over
//! the raw points of its batches.
//!
//! Draining is batch-aligned: a flush captures a snapshot, encodes it as
//! a fragment, and then retires exactly the batches the snapshot covered
//! (returning their WAL names for deletion) — batches acked during the
//! flush stay buffered for the next group commit.

use artsparse_tensor::sort::{last_per_address, sort_by_address};
use artsparse_tensor::{Region, Shape};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One acked ingest batch held in the buffer, shared by every snapshot
/// that covers it.
#[derive(Debug)]
struct Batch {
    /// Linear addresses, one per point (precomputed by the engine, which
    /// knows the tensor shape).
    addrs: Vec<u64>,
    /// Flattened coordinates, `ndim` per point.
    coords: Vec<u64>,
    /// Raw value records, `elem_size` bytes per point.
    values: Vec<u8>,
    /// The WAL blob covering this batch, if ingest was WAL-protected.
    wal: Option<String>,
}

impl Batch {
    /// Coordinate and value record of position `i`.
    fn point(&self, i: usize) -> (&[u64], &[u8]) {
        let ndim = self.coords.len() / self.addrs.len();
        let elem = self.values.len() / self.addrs.len();
        (
            &self.coords[i * ndim..(i + 1) * ndim],
            &self.values[i * elem..(i + 1) * elem],
        )
    }
}

/// Address-ordered, deduplicated view of the buffered points at one
/// instant. For an address appended more than once the *latest* append
/// wins — the buffer's last-write-wins contract — and `raw_points`
/// remembers how many raw (pre-dedup) points the view covers so a flush
/// can drain exactly them.
///
/// Held as the covered batches, oldest first. Lookups ([`get`],
/// [`in_box`]) search the batches; the flat arrays ([`iter`],
/// [`flat_coords`], [`flat_values`], [`len`]) are merged on first use.
///
/// [`get`]: BufferSnapshot::get
/// [`in_box`]: BufferSnapshot::in_box
/// [`iter`]: BufferSnapshot::iter
/// [`flat_coords`]: BufferSnapshot::flat_coords
/// [`flat_values`]: BufferSnapshot::flat_values
/// [`len`]: BufferSnapshot::len
#[derive(Debug, Default)]
pub struct BufferSnapshot {
    batches: Vec<Arc<Batch>>,
    /// The batches' points merged into flat arrays.
    merged: OnceLock<Merged>,
    /// Raw appended points (duplicates included) this snapshot covers.
    pub raw_points: usize,
}

/// Parallel arrays sorted by address: point `i` has address `addrs[i]`,
/// coordinate `coords[i·ndim..]` and record `values[i·elem..]` — three
/// allocations however many points they hold.
#[derive(Debug, Default)]
struct Merged {
    /// Distinct linear addresses, ascending.
    addrs: Vec<u64>,
    /// Flattened coordinates, `ndim` per point.
    coords: Vec<u64>,
    /// Value records, `elem` bytes per point.
    values: Vec<u8>,
    ndim: usize,
    elem: usize,
}

impl Merged {
    /// Sort the batches' points by address, keep the latest append of
    /// each, and lay the survivors out flat.
    fn build(batches: &[Arc<Batch>]) -> Merged {
        let Some(first) = batches.first() else {
            return Merged::default();
        };
        let (ndim, elem) = (
            first.coords.len() / first.addrs.len(),
            first.values.len() / first.addrs.len(),
        );
        // (address, (batch, position in the batch)) per raw point, in
        // append order; the stable address sort then leaves the latest
        // append last in each run of equal addresses. Full-width indices:
        // nothing the buffer holds can overflow them.
        let mut order: Vec<(u64, (usize, usize))> =
            Vec::with_capacity(batches.iter().map(|batch| batch.addrs.len()).sum());
        for (b, batch) in batches.iter().enumerate() {
            assert!(
                batch.coords.len() == batch.addrs.len() * ndim
                    && batch.values.len() == batch.addrs.len() * elem,
                "buffered batches disagree on point arity"
            );
            order.extend(
                batch
                    .addrs
                    .iter()
                    .enumerate()
                    .map(|(i, &addr)| (addr, (b, i))),
            );
        }
        let raw_points = order.len();
        sort_by_address(&mut order);
        let mut merged = Merged {
            addrs: Vec::with_capacity(raw_points),
            coords: Vec::with_capacity(raw_points * ndim),
            values: Vec::with_capacity(raw_points * elem),
            ndim,
            elem,
        };
        for &(addr, (b, i)) in last_per_address(&order) {
            let (coord, record) = batches[b].point(i);
            merged.addrs.push(addr);
            merged.coords.extend_from_slice(coord);
            merged.values.extend_from_slice(record);
        }
        merged
    }
}

impl BufferSnapshot {
    fn merged(&self) -> &Merged {
        self.merged.get_or_init(|| Merged::build(&self.batches))
    }

    /// Number of distinct buffered points.
    pub fn len(&self) -> usize {
        self.merged().addrs.len()
    }

    /// Whether the snapshot holds no points.
    pub fn is_empty(&self) -> bool {
        self.raw_points == 0
    }

    /// The coordinate and value record buffered at `addr`, if any: the
    /// newest batch that holds it answers, with its last append of it.
    pub fn get(&self, addr: u64) -> Option<(&[u64], &[u8])> {
        self.batches.iter().rev().find_map(|batch| {
            let at = batch.addrs.iter().rposition(|&a| a == addr)?;
            Some(batch.point(at))
        })
    }

    /// Every buffered point inside `inside`, a box within `shape`, as
    /// `(address, coordinate, value record)` in ascending address order.
    /// A point's address is checked against the box corners' before its
    /// coordinate is checked against the box.
    pub fn in_box(&self, inside: &Region, shape: &Shape) -> Vec<(u64, &[u64], &[u8])> {
        let (Ok(lo), Ok(hi)) = (shape.linearize(inside.lo()), shape.linearize(inside.hi())) else {
            return Vec::new();
        };
        // (address, batch counted from the newest, position).
        let mut found: Vec<(u64, usize, usize)> = Vec::new();
        for (age, batch) in self.batches.iter().rev().enumerate() {
            for (i, &addr) in batch.addrs.iter().enumerate() {
                if (lo..=hi).contains(&addr) && inside.contains(batch.point(i).0) {
                    found.push((addr, age, i));
                }
            }
        }
        // The newest batch's last append first in each run, and it stays.
        found.sort_unstable_by_key(|&(addr, age, i)| (addr, age, std::cmp::Reverse(i)));
        found.dedup_by_key(|&mut (addr, ..)| addr);
        let newest = self.batches.len().saturating_sub(1);
        (found.into_iter())
            .map(|(addr, age, i)| {
                let (coord, record) = self.batches[newest - age].point(i);
                (addr, coord, record)
            })
            .collect()
    }

    /// Every point as `(address, coordinate, value record)`, in ascending
    /// address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64], &[u8])> {
        let m = self.merged();
        m.addrs.iter().enumerate().map(move |(i, &addr)| {
            (
                addr,
                &m.coords[i * m.ndim..(i + 1) * m.ndim],
                &m.values[i * m.elem..(i + 1) * m.elem],
            )
        })
    }

    /// All coordinates, flattened, in address order.
    pub fn flat_coords(&self) -> &[u64] {
        &self.merged().coords
    }

    /// All value records, concatenated, in address order.
    pub fn flat_values(&self) -> &[u8] {
        &self.merged().values
    }
}

/// Cheap occupancy summary used by flush-threshold checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Raw appended points currently buffered (duplicates included).
    pub points: usize,
    /// Buffered value payload in bytes.
    pub value_bytes: usize,
    /// Acked batches currently buffered.
    pub batches: usize,
}

#[derive(Default)]
struct Inner {
    batches: Vec<Arc<Batch>>,
    points: usize,
    value_bytes: usize,
    /// Value bytes admitted (reserved) but not yet appended — in flight
    /// between admission control and the WAL ack. Counted against the
    /// buffer's byte cap so concurrent ingests cannot collectively
    /// overshoot it.
    reserved_bytes: usize,
    first_append: Option<Instant>,
    /// Cached snapshot; `None` after any append or drain.
    snapshot: Option<Arc<BufferSnapshot>>,
}

/// The streaming-ingest write buffer: appended batches on one side, an
/// atomically swappable read [`BufferSnapshot`] on the other.
#[derive(Default)]
pub struct WriteBuffer {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for WriteBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WriteBuffer")
            .field("points", &stats.points)
            .field("value_bytes", &stats.value_bytes)
            .field("batches", &stats.batches)
            .finish()
    }
}

impl WriteBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        WriteBuffer::default()
    }

    /// Append one acked batch. `addrs`, `coords`, and `values` must agree
    /// on the point count (the engine validates shapes before acking);
    /// `wal` names the WAL blob that made the batch durable, if any. Any
    /// reservation taken for these bytes ([`try_reserve`]) is consumed.
    ///
    /// [`try_reserve`]: WriteBuffer::try_reserve
    pub fn append(&self, addrs: Vec<u64>, coords: Vec<u64>, values: Vec<u8>, wal: Option<String>) {
        if addrs.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.points += addrs.len();
        inner.value_bytes += values.len();
        inner.reserved_bytes = inner.reserved_bytes.saturating_sub(values.len());
        inner.first_append.get_or_insert_with(Instant::now);
        inner.snapshot = None;
        inner.batches.push(Arc::new(Batch {
            addrs,
            coords,
            values,
            wal,
        }));
    }

    /// Atomically admit `bytes` of incoming value payload against `cap`:
    /// succeeds (and reserves the bytes) only when appended plus already
    /// reserved bytes would stay within the cap. The reservation is
    /// consumed by the matching [`append`] or returned by
    /// [`cancel_reservation`] when the ack fails; a cap of `0` means
    /// unlimited. Check-and-reserve happens under one lock, so concurrent
    /// ingests can never collectively overshoot the cap.
    ///
    /// [`append`]: WriteBuffer::append
    /// [`cancel_reservation`]: WriteBuffer::cancel_reservation
    pub fn try_reserve(&self, bytes: usize, cap: usize) -> bool {
        let mut inner = self.inner.lock();
        if cap > 0
            && inner
                .value_bytes
                .saturating_add(inner.reserved_bytes)
                .saturating_add(bytes)
                > cap
        {
            return false;
        }
        inner.reserved_bytes += bytes;
        true
    }

    /// Return a reservation whose batch will never be appended (the WAL
    /// ack failed after admission).
    pub fn cancel_reservation(&self, bytes: usize) {
        let mut inner = self.inner.lock();
        inner.reserved_bytes = inner.reserved_bytes.saturating_sub(bytes);
    }

    /// Current occupancy.
    pub fn stats(&self) -> BufferStats {
        let inner = self.inner.lock();
        BufferStats {
            points: inner.points,
            value_bytes: inner.value_bytes,
            batches: inner.batches.len(),
        }
    }

    /// How long the oldest buffered point has been waiting, or `None`
    /// when the buffer is empty. The scheduler's staleness flush keys off
    /// this.
    pub fn age(&self) -> Option<Duration> {
        self.inner.lock().first_append.map(|t| t.elapsed())
    }

    /// The current read snapshot: one `Arc` clone per buffered batch
    /// (and cached until the next append or drain) under a short lock
    /// hold. No point is sorted or copied here, nor by its lookups.
    pub fn snapshot(&self) -> Arc<BufferSnapshot> {
        let mut inner = self.inner.lock();
        if let Some(snap) = &inner.snapshot {
            return Arc::clone(snap);
        }
        let snap = Arc::new(BufferSnapshot {
            batches: inner.batches.clone(),
            merged: OnceLock::new(),
            raw_points: inner.points,
        });
        inner.snapshot = Some(Arc::clone(&snap));
        snap
    }

    /// Retire the batches a flushed snapshot covered: drop the first
    /// `raw_points` appended points and return the WAL names that were
    /// protecting them (for deletion). Appends are atomic, a snapshot is
    /// taken under the same lock, and flushes are serialized — so
    /// `raw_points` always lands on a batch boundary; a mismatch is an
    /// internal bug and panics rather than silently dropping acked data.
    pub fn drain(&self, raw_points: usize) -> Vec<String> {
        if raw_points == 0 {
            return Vec::new();
        }
        let mut inner = self.inner.lock();
        let mut remaining = raw_points;
        let mut covered = 0usize;
        for batch in &inner.batches {
            if remaining == 0 {
                break;
            }
            assert!(
                batch.addrs.len() <= remaining,
                "drain of {raw_points} points is not batch-aligned"
            );
            remaining -= batch.addrs.len();
            covered += 1;
        }
        assert_eq!(remaining, 0, "drain of {raw_points} points exceeds buffer");
        let mut wals = Vec::new();
        let drained: Vec<Arc<Batch>> = inner.batches.drain(..covered).collect();
        for batch in drained {
            inner.points -= batch.addrs.len();
            inner.value_bytes -= batch.values.len();
            if let Some(w) = &batch.wal {
                wals.push(w.clone());
            }
        }
        if inner.batches.is_empty() {
            inner.first_append = None;
        } else {
            // The remaining batches arrived during the flush; their wait
            // clock starts now rather than inheriting the flushed head's.
            inner.first_append = Some(Instant::now());
        }
        inner.snapshot = None;
        wals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The snapshot's contract, as the fold it replaced: later appends
    /// overwrite earlier ones in a map ordered by address.
    type Model = BTreeMap<u64, (Vec<u64>, Vec<u8>)>;
    /// One buffered point: address, coordinate, value record.
    type Point = (u64, Vec<u64>, Vec<u8>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary append sequences — duplicate addresses inside a batch
        /// and across batches, empty batches — interleaved with flushes
        /// that drain an *earlier* snapshot (batches acked since stay
        /// buffered): after every step the snapshot is the model.
        #[test]
        fn snapshot_matches_a_btreemap_fold(
            ops in prop::collection::vec(
                (0u8..8, prop::collection::vec((0u64..16, any::<bool>(), any::<u8>()), 0..6)),
                1..24,
            ),
        ) {
            // Sixteen low addresses and sixteen at the top of the range,
            // so the address sort runs one digit pass and all of them.
            let address = |low: u64, high: bool| if high { u64::MAX - low } else { low };
            let buf = WriteBuffer::new();
            // Model: the buffered batches, oldest first.
            let mut batches: Vec<Vec<Point>> = Vec::new();
            // A flush in flight: the raw point count its snapshot covered.
            let mut flushing: Option<usize> = None;
            for (step, (op, points)) in ops.into_iter().enumerate() {
                match op {
                    0..=5 => {
                        let batch: Vec<Point> = points
                            .iter()
                            .map(|&(low, high, v)| {
                                let addr = address(low, high);
                                (addr, vec![addr / 4, addr % 4], vec![v, step as u8])
                            })
                            .collect();
                        buf.append(
                            batch.iter().map(|p| p.0).collect(),
                            batch.iter().flat_map(|p| p.1.clone()).collect(),
                            batch.iter().flat_map(|p| p.2.clone()).collect(),
                            None,
                        );
                        if !batch.is_empty() {
                            batches.push(batch);
                        }
                    }
                    6 => flushing = Some(buf.snapshot().raw_points),
                    _ => {
                        if let Some(mut raw) = flushing.take() {
                            buf.drain(raw);
                            while raw > 0 {
                                raw -= batches.remove(0).len();
                            }
                        }
                    }
                }
                let model: Model = batches
                    .iter()
                    .flatten()
                    .map(|(addr, coord, record)| (*addr, (coord.clone(), record.clone())))
                    .collect();
                let snap = buf.snapshot();
                prop_assert_eq!(snap.raw_points, batches.iter().map(Vec::len).sum::<usize>());
                prop_assert_eq!(snap.len(), model.len());
                prop_assert_eq!(snap.is_empty(), model.is_empty());
                let listed: Vec<Point> = snap
                    .iter()
                    .map(|(addr, coord, record)| (addr, coord.to_vec(), record.to_vec()))
                    .collect();
                let expected: Vec<Point> = model
                    .iter()
                    .map(|(addr, (coord, record))| (*addr, coord.clone(), record.clone()))
                    .collect();
                prop_assert_eq!(listed, expected);
                for addr in (0..17).flat_map(|low| [address(low, false), address(low, true)]) {
                    let got = snap.get(addr).map(|(c, r)| (c.to_vec(), r.to_vec()));
                    prop_assert_eq!(got.as_ref(), model.get(&addr), "address {}", addr);
                }
                prop_assert_eq!(snap.flat_coords().len(), 2 * snap.len());
                prop_assert_eq!(snap.flat_values().len(), 2 * snap.len());
            }
        }

        /// Batches of points in an 8×8 grid, duplicates within and across
        /// batches: every box (corners in any order, some past the grid)
        /// answers the model's points inside it, in address order, the
        /// latest append winning.
        #[test]
        fn in_box_matches_the_fold_inside_the_box(
            batches in prop::collection::vec(
                prop::collection::vec((0u64..8, 0u64..8, any::<u8>()), 1..12),
                1..8,
            ),
            boxes in prop::collection::vec((0u64..10, 0u64..10, 0u64..10, 0u64..10), 1..8),
        ) {
            let shape = Shape::new(vec![8, 8]).unwrap();
            let buf = WriteBuffer::new();
            let mut model = Model::new();
            for (b, batch) in batches.iter().enumerate() {
                for &(r, c, v) in batch {
                    model.insert(r * 8 + c, (vec![r, c], vec![v, b as u8]));
                }
                buf.append(
                    batch.iter().map(|&(r, c, _)| r * 8 + c).collect(),
                    batch.iter().flat_map(|&(r, c, _)| [r, c]).collect(),
                    batch.iter().flat_map(|&(_, _, v)| [v, b as u8]).collect(),
                    None,
                );
            }
            let snap = buf.snapshot();
            for (r0, c0, r1, c1) in boxes {
                let region =
                    Region::from_corners(&[r0.min(r1), c0.min(c1)], &[r0.max(r1), c0.max(c1)])
                        .unwrap();
                let Some(inside) = region.within(&shape) else {
                    continue;
                };
                let got: Vec<Point> = (snap.in_box(&inside, &shape).into_iter())
                    .map(|(addr, coord, record)| (addr, coord.to_vec(), record.to_vec()))
                    .collect();
                let want: Vec<Point> = (model.iter())
                    .filter(|(_, (coord, _))| inside.contains(coord))
                    .map(|(addr, (coord, record))| (*addr, coord.clone(), record.clone()))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn empty_buffer_is_cheap() {
        let buf = WriteBuffer::new();
        assert_eq!(
            buf.stats(),
            BufferStats {
                points: 0,
                value_bytes: 0,
                batches: 0
            }
        );
        assert!(buf.age().is_none());
        let snap = buf.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.raw_points, 0);
        assert!(buf.drain(0).is_empty());
    }

    #[test]
    fn snapshot_orders_by_address_and_later_append_wins() {
        let buf = WriteBuffer::new();
        buf.append(
            vec![9, 3],
            vec![0, 9, 0, 3],
            vec![1, 1, 1, 1, 2, 2, 2, 2],
            Some("wal-a".into()),
        );
        buf.append(vec![3], vec![0, 3], vec![7, 7, 7, 7], Some("wal-b".into()));
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.raw_points, 3);
        let addrs: Vec<u64> = snap.iter().map(|(addr, ..)| addr).collect();
        assert_eq!(addrs, vec![3, 9]);
        // Address 3 was written twice; the later batch's record wins.
        let (coord, record) = snap.get(3).unwrap();
        assert_eq!(record, [7, 7, 7, 7]);
        assert_eq!(coord, [0, 3]);
        assert!(snap.get(4).is_none());
    }

    #[test]
    fn a_repeated_address_answers_its_latest_append() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let buf = WriteBuffer::new();
        // One-byte records: the batch's tag plus the point's position.
        let append = |addrs: &[u64], tag: u8| {
            buf.append(
                addrs.to_vec(),
                addrs.iter().flat_map(|&a| [a / 4, a % 4]).collect(),
                (0..addrs.len()).map(|k| tag + k as u8).collect(),
                None,
            )
        };
        let get = |snap: &BufferSnapshot, addr| snap.get(addr).map(|(_, r)| r[0]);
        let in_box = |snap: &BufferSnapshot, lo: [u64; 2], hi: [u64; 2]| {
            let region = Region::from_corners(&lo, &hi).unwrap();
            (snap.in_box(&region, &shape).into_iter())
                .map(|(addr, coord, record)| (addr, coord.to_vec(), record[0]))
                .collect::<Vec<_>>()
        };
        // Address 5, cell (1, 1), twice in one batch: its last append.
        append(&[5, 9, 5], 10);
        let snap = buf.snapshot();
        assert_eq!((get(&snap, 5), get(&snap, 9)), (Some(12), Some(11)));
        assert_eq!(
            in_box(&snap, [0, 0], [3, 3]),
            [(5, vec![1, 1], 12), (9, vec![2, 1], 11)]
        );
        // Then once more in a later batch, beside a new repeat of 6.
        append(&[6, 5, 6], 20);
        let snap = buf.snapshot();
        let got = [5, 6, 9].map(|addr| get(&snap, addr));
        assert_eq!(got, [Some(21), Some(22), Some(11)]);
        assert_eq!(
            in_box(&snap, [1, 1], [2, 2]),
            [
                (5, vec![1, 1], 21),
                (6, vec![1, 2], 22),
                (9, vec![2, 1], 11)
            ]
        );
        assert_eq!(in_box(&snap, [1, 2], [1, 3]), [(6, vec![1, 2], 22)]);
        // The group commit's merged arrays agree.
        let merged: Vec<(u64, u8)> = snap.iter().map(|(addr, _, r)| (addr, r[0])).collect();
        assert_eq!(merged, [(5, 21), (6, 22), (9, 11)]);
    }

    #[test]
    fn snapshot_is_cached_until_invalidated() {
        let buf = WriteBuffer::new();
        buf.append(vec![1], vec![1], vec![5; 8], None);
        let a = buf.snapshot();
        let b = buf.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "unchanged buffer reuses the snapshot");
        buf.append(vec![2], vec![2], vec![6; 8], None);
        let c = buf.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "append swaps in a fresh snapshot");
        assert_eq!(c.len(), 2);
        // The old snapshot is immutable — readers holding it are unaffected.
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn drain_is_batch_aligned_and_returns_wal_names() {
        let buf = WriteBuffer::new();
        buf.append(vec![1, 2], vec![1, 2], vec![0; 16], Some("wal-1".into()));
        buf.append(vec![3], vec![3], vec![0; 8], None);
        buf.append(vec![4], vec![4], vec![0; 8], Some("wal-3".into()));
        let snap_raw = 3; // as if a flush snapshotted the first two batches
        let wals = buf.drain(snap_raw);
        assert_eq!(wals, vec!["wal-1".to_string()]);
        let stats = buf.stats();
        assert_eq!(stats.points, 1);
        assert_eq!(stats.batches, 1);
        assert!(buf.age().is_some(), "a surviving batch keeps the clock");
        let wals = buf.drain(1);
        assert_eq!(wals, vec!["wal-3".to_string()]);
        assert!(buf.age().is_none());
        assert_eq!(buf.stats().points, 0);
    }

    #[test]
    fn reservations_count_against_the_cap_until_consumed_or_cancelled() {
        let buf = WriteBuffer::new();
        // A zero cap is unlimited.
        assert!(buf.try_reserve(usize::MAX, 0));
        buf.cancel_reservation(usize::MAX);
        // Reservations admit atomically against the cap.
        assert!(buf.try_reserve(6, 10));
        assert!(!buf.try_reserve(5, 10), "6 reserved + 5 > 10");
        assert!(buf.try_reserve(4, 10));
        // Appending consumes the matching reservation, so appended bytes
        // are not double-counted.
        buf.append(vec![1], vec![1], vec![0; 6], None);
        assert_eq!(buf.stats().value_bytes, 6);
        assert!(!buf.try_reserve(1, 10), "6 appended + 4 reserved = cap");
        buf.cancel_reservation(4);
        assert!(buf.try_reserve(4, 10));
        buf.cancel_reservation(4);
        // Draining frees appended bytes for new admissions.
        buf.drain(1);
        assert!(buf.try_reserve(10, 10));
    }

    #[test]
    #[should_panic(expected = "not batch-aligned")]
    fn misaligned_drain_panics() {
        let buf = WriteBuffer::new();
        buf.append(vec![1, 2], vec![1, 2], vec![0; 16], None);
        buf.drain(1);
    }
}
