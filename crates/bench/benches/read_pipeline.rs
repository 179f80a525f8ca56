//! Layered read pipeline bench — repeated region reads over a
//! many-fragment store on a simulated disk (`SimulatedDisk::lustre_like`:
//! 2 GiB/s, 250 µs/op), comparing these read paths:
//!
//! * `pre-refactor` — the old engine's read, emulated faithfully: every
//!   read lists the device, peeks every fragment header for bbox
//!   pruning, then fetches matched fragments whole, sequentially;
//! * `pipeline`     — the default configuration: catalog planning plus
//!   parallel per-fragment range fetches (index section, then only the
//!   matched value records);
//! * `pipeline-telemetry` — the same pipeline with the telemetry
//!   recorder enabled, bounding the cost of span tracing + I/O
//!   accounting;
//! * `cached`       — the pipeline plus the decoded-fragment LRU, so
//!   repeat reads skip the device entirely.
//!
//! The store is 16 fragments × 2048 points of 64-byte records in a
//! 256×256 tensor; the repeated read is a 4-row full-width band — an
//! address-interval query, so SORTED_COO's address-ordered slots give
//! each fragment one contiguous value run. The pipeline configs pin
//! `read_parallelism` to the fragment count: per-fragment reads are
//! latency-bound on the simulated device, so workers beyond the core
//! count still overlap usefully (they block in I/O, not on the CPU).
//! Besides wall time, the bench prints the simulated disk's transferred
//! bytes per read — the numbers EXPERIMENTS.md records.
//!
//! A second group, `read_point_get`, times the opposite shape at memory
//! speed: a one-cell read over one 16 384-point COO fragment plus three
//! 64-point ones (a served store between consolidations), at
//! `read_parallelism` auto and 1. Nothing in that plan can overlap, so
//! the engine should plan one worker and `point-get-auto` should cost
//! what `point-get-sequential` costs; CI gates the same-run ratio.

use artsparse_core::FormatKind;
use artsparse_metrics::OpCounter;
use artsparse_patterns::rng::SplitMix64;
use artsparse_storage::fragment::{decode_fragment, decode_meta, FragmentMeta};
use artsparse_storage::{EngineConfig, MemBackend, SimulatedDisk, StorageBackend, StorageEngine};
use artsparse_tensor::{CoordBuffer, Region, Shape};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

const SIDE: u64 = 256;
const FRAGMENTS: usize = 16;
const POINTS_PER_FRAGMENT: usize = 2048;
const ELEM_SIZE: usize = 64;

fn shape() -> Shape {
    Shape::new(vec![SIDE, SIDE]).unwrap()
}

/// A fresh simulated disk holding `FRAGMENTS` fragments of random points.
fn populate() -> SimulatedDisk {
    let engine = StorageEngine::open(
        SimulatedDisk::lustre_like(),
        FormatKind::SortedCoo,
        shape(),
        64,
    )
    .unwrap();
    let mut rng = SplitMix64::new(7);
    for _ in 0..FRAGMENTS {
        let mut coords = CoordBuffer::new(2);
        for _ in 0..POINTS_PER_FRAGMENT {
            coords
                .push(&[rng.next_below(SIDE), rng.next_below(SIDE)])
                .unwrap();
        }
        let values = vec![0xA5u8; coords.len() * ELEM_SIZE];
        engine.write(&coords, &values).unwrap();
    }
    engine.into_backend()
}

/// The pre-refactor read path: per-read device listing, per-fragment
/// header peek, whole-fragment fetch, sequential scan, address-sorted
/// merge.
fn pre_refactor_read(
    disk: &SimulatedDisk,
    shape: &Shape,
    queries: &CoordBuffer,
    counter: &OpCounter,
) -> Vec<(usize, u64)> {
    let qbbox = queries.bounding_box().unwrap();
    let header_len = FragmentMeta::header_len(shape.ndim());
    let mut hits: Vec<(usize, u64)> = Vec::new();
    let mut names = disk.list().unwrap();
    // The store also holds commit-protocol blobs (epoch markers); the
    // old engine's discovery only ever peeked fragment names.
    names.retain(|n| n.starts_with("frag-") && n.ends_with(".asf"));
    names.sort();
    for name in &names {
        let header = disk.get_prefix(name, header_len).unwrap();
        let meta = decode_meta(name, &header).unwrap();
        let overlaps = meta.bbox.as_ref().is_some_and(|b| b.intersects(&qbbox));
        if !overlaps {
            continue;
        }
        let bytes = disk.get(name).unwrap();
        let (meta, index, _values) = decode_fragment(name, &bytes).unwrap();
        let org = meta.kind.create();
        let slots = org.read(&index, queries, counter).unwrap();
        for (qi, slot) in slots.into_iter().enumerate() {
            if slot.is_some() {
                hits.push((qi, shape.linearize(queries.point(qi)).unwrap()));
            }
        }
    }
    hits.sort_by_key(|&(_, addr)| addr);
    hits
}

fn bench_read_pipeline(c: &mut Criterion) {
    // The repeated read: a 4-row full-width band (rows 120–123). In
    // SORTED_COO's address-sorted slot order this is one contiguous
    // interval.
    let queries = Region::from_corners(&[120, 0], &[123, SIDE - 1])
        .unwrap()
        .to_coords();

    let mut group = c.benchmark_group("read_pipeline");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Baseline: the old read path against the raw device.
    {
        let disk = populate();
        let shape = shape();
        let counter = OpCounter::new();
        let before = disk.bytes_read();
        let hits = pre_refactor_read(&disk, &shape, &queries, &counter);
        let per_read = disk.bytes_read() - before;
        println!(
            "read_pipeline/pre-refactor: {} hits, {per_read} bytes transferred per read",
            hits.len()
        );
        // Deterministic bytes-per-read: the stable signal CI's regression
        // guard compares (wall time on a shared runner is only coarse).
        group.throughput(Throughput::Bytes(per_read));
        group.bench_function("pre-refactor", |b| {
            b.iter(|| pre_refactor_read(&disk, &shape, &queries, &counter));
        });
    }

    let configs: [(&str, EngineConfig); 3] = [
        (
            "pipeline",
            EngineConfig::default().with_read_parallelism(FRAGMENTS),
        ),
        // `pipeline` with full telemetry recording: CI tracks both so the
        // disabled path stays free and the enabled overhead stays visible.
        (
            "pipeline-telemetry",
            EngineConfig::default()
                .with_read_parallelism(FRAGMENTS)
                .with_telemetry(true),
        ),
        (
            "cached",
            EngineConfig::default()
                .with_read_parallelism(FRAGMENTS)
                .with_cache_capacity(64 << 20),
        ),
    ];
    for (label, config) in configs {
        let engine =
            StorageEngine::open_with(populate(), FormatKind::SortedCoo, shape(), 64, config)
                .unwrap();
        // One untimed read so `cached` measures the steady (warm) state.
        let warm = engine.read(&queries).unwrap();
        assert_eq!(warm.fragments_matched, FRAGMENTS);

        let before = engine.backend().bytes_read();
        let r = engine.read(&queries).unwrap();
        let per_read = engine.backend().bytes_read() - before;
        println!(
            "read_pipeline/{label}: {} hits, {per_read} bytes transferred per read",
            r.hits.len()
        );

        group.throughput(Throughput::Bytes(per_read));
        group.bench_function(label, |b| {
            b.iter(|| engine.read(&queries).unwrap());
        });
    }
    group.finish();
}

/// One large COO fragment and three small ones on an in-memory device.
fn point_get_store(config: EngineConfig) -> StorageEngine<MemBackend> {
    let shape = Shape::new(vec![512, 512]).unwrap();
    let engine =
        StorageEngine::open_with(MemBackend::new(), FormatKind::Coo, shape, 8, config).unwrap();
    let mut rng = SplitMix64::new(11);
    for points in [16_384usize, 64, 64, 64] {
        let mut coords = CoordBuffer::new(2);
        for _ in 0..points {
            coords
                .push(&[rng.next_below(512), rng.next_below(512)])
                .unwrap();
        }
        let values = vec![0x5Au8; points * 8];
        engine.write(&coords, &values).unwrap();
    }
    engine
}

fn bench_point_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_point_get");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let query = CoordBuffer::from_points(2, &[[255u64, 255]]).unwrap();
    let configs = [
        ("point-get-auto", EngineConfig::default()),
        (
            "point-get-sequential",
            EngineConfig::default().with_read_parallelism(1),
        ),
    ];
    for (label, config) in configs {
        let engine = point_get_store(config);
        assert_eq!(engine.read(&query).unwrap().fragments_matched, 4);
        group.bench_function(label, |b| {
            b.iter(|| engine.read(&query).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_read_pipeline, bench_point_get);
criterion_main!(benches);
