//! Consolidation and export merge flat runs: the heap allocations they
//! make do not grow with the number of points merged. A counting global
//! allocator — this test binary's only — measures both on each of the
//! paper's five organizations.
//!
//! The merge used to fold every point through a `BTreeMap<u64, (Vec<u64>,
//! Vec<u8>)>`, once per fragment and again into the merged map: about
//! 2.5 allocations per point. Now it is one `(address, fragment, slot)`
//! record per point, one radix sort and one gather into flat arrays, so
//! what is left is per fragment and per pass.

use artsparse::storage::{MemBackend, StorageEngine};
use artsparse::{CoordBuffer, FormatKind, Shape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts every allocation and
/// reallocation, on every thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic increment.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SIDE: u64 = 64;
const FRAGMENTS: usize = 8;
const POINTS_PER_FRAGMENT: usize = 8_192;
/// The ceiling on heap allocations per written point, for one export and
/// for one consolidation.
const MAX_ALLOCATIONS_PER_POINT: f64 = 0.01;

/// `FRAGMENTS` batches of xorshift points in 64³, with duplicates inside
/// a batch and across batches.
fn batches() -> Vec<(CoordBuffer, Vec<f64>)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..FRAGMENTS)
        .map(|f| {
            let mut coords = CoordBuffer::with_capacity(3, POINTS_PER_FRAGMENT);
            for _ in 0..POINTS_PER_FRAGMENT {
                let r = next();
                coords
                    .push(&[r % SIDE, (r >> 16) % SIDE, (r >> 32) % SIDE])
                    .unwrap();
            }
            let values = (0..POINTS_PER_FRAGMENT)
                .map(|i| (f * POINTS_PER_FRAGMENT + i) as f64)
                .collect();
            (coords, values)
        })
        .collect()
}

/// Heap allocations made while `op` runs, per point written.
fn allocations_per_point<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = op();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (out, made as f64 / (FRAGMENTS * POINTS_PER_FRAGMENT) as f64)
}

/// One test, so no other test of this binary allocates while it counts.
/// Both merges run on one thread and on two (the fan-out's workers write
/// into buffers the pass allocated once), and the counts hold at both.
#[test]
fn export_and_consolidate_allocate_per_fragment_not_per_point() {
    let shape = Shape::cube(3, SIDE).unwrap();
    let batches = batches();
    for kind in FormatKind::PAPER_FIVE {
        for width in [1, 2] {
            let e = StorageEngine::open(MemBackend::new(), kind, shape.clone(), 8).unwrap();
            for (coords, values) in &batches {
                e.write_points::<f64>(coords, values).unwrap();
            }
            let (exported, export_rate) =
                allocations_per_point(|| e.export_at_width(width).unwrap());
            let (report, consolidate_rate) =
                allocations_per_point(|| e.consolidate_at_width(width).unwrap());
            assert_eq!(report.merged_fragments, FRAGMENTS);
            assert_eq!(report.n_points, exported.0.len());
            assert!(
                export_rate <= MAX_ALLOCATIONS_PER_POINT,
                "{kind} at width {width}: export made {export_rate:.4} allocations per point"
            );
            assert!(
                consolidate_rate <= MAX_ALLOCATIONS_PER_POINT,
                "{kind} at width {width}: consolidate made {consolidate_rate:.4} allocations per point"
            );
        }
    }
}
