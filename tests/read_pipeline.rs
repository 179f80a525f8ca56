//! The layered read pipeline must be invisible: whatever combination of
//! parallelism and caching is configured, READ returns exactly what an
//! engine-independent last-write-wins model of the written fragments
//! predicts — and stays consistent under concurrent writers and readers.
//!
//! Two further gates pin what the pipeline costs: the exact bytes a
//! region read moves off a simulated disk, and (the repo's one
//! wall-clock assertion, `#[ignore]`d, run by name in CI's `telemetry`
//! job) that a read with nothing to overlap costs what the sequential
//! path costs.

use artsparse::patterns::rng::SplitMix64;
use artsparse::storage::fragment::decode_meta;
use artsparse::storage::{
    EngineConfig, MemBackend, SimulatedDisk, StorageBackend, StorageEngine, PART_POINTS,
};
use artsparse::{CoordBuffer, FormatKind, Region, Shape};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small shape of 2–3 dimensions, each of size 2–10.
fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop::collection::vec(2u64..=10, 2..=3).prop_map(|dims| Shape::new(dims).unwrap())
}

/// A shape plus 1–5 fragments of up to 12 points each.
fn store_strategy() -> impl Strategy<Value = (Shape, Vec<Vec<Vec<u64>>>)> {
    shape_strategy().prop_flat_map(|shape| {
        let dims = shape.dims().to_vec();
        let point = dims.iter().map(|&m| 0u64..m).collect::<Vec<_>>();
        prop::collection::vec(prop::collection::vec(point, 1..12), 1..=5)
            .prop_map(move |frags| (shape.clone(), frags))
    })
}

fn buffer(ndim: usize, pts: &[Vec<u64>]) -> CoordBuffer {
    let mut buf = CoordBuffer::new(ndim);
    for p in pts {
        buf.push(p).unwrap();
    }
    buf
}

/// Write the fragments (values encode fragment and slot so collisions
/// are observable), then return the populated backend.
fn populate(shape: &Shape, kind: FormatKind, fragments: &[Vec<Vec<u64>>]) -> MemBackend {
    let writer = StorageEngine::open(MemBackend::new(), kind, shape.clone(), 8).unwrap();
    for (fi, pts) in fragments.iter().enumerate() {
        let coords = buffer(shape.ndim(), pts);
        let values: Vec<f64> = (0..pts.len())
            .map(|slot| (fi * 1000 + slot) as f64)
            .collect();
        writer.write_points::<f64>(&coords, &values).unwrap();
    }
    writer.into_backend()
}

/// The engine-independent reference for [`populate`]'s store: for every
/// linear address, the value each fragment holds there, in write order.
/// Within a fragment the first point at a coordinate wins (every format's
/// read resolves to the lowest slot); across fragments READ reports every
/// fragment's hit, and the last one is the value a lookup returns.
fn oracle(shape: &Shape, fragments: &[Vec<Vec<u64>>]) -> BTreeMap<u64, Vec<f64>> {
    let mut model: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (fi, pts) in fragments.iter().enumerate() {
        let mut this_fragment: BTreeMap<u64, f64> = BTreeMap::new();
        for (slot, p) in pts.iter().enumerate() {
            let addr = shape.linearize(p).unwrap();
            this_fragment
                .entry(addr)
                .or_insert((fi * 1000 + slot) as f64);
        }
        for (addr, value) in this_fragment {
            model.entry(addr).or_default().push(value);
        }
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every pipeline configuration returns exactly the hits the oracle
    /// predicts — address order, fragment write order on ties, the last
    /// writer's value from a lookup — and the same scan/match counts.
    #[test]
    fn pipeline_configs_are_equivalent((shape, fragments) in store_strategy()) {
        let model = oracle(&shape, &fragments);
        let expected_hits: Vec<(u64, f64)> = model
            .iter()
            .flat_map(|(&addr, values)| values.iter().map(move |&v| (addr, v)))
            .collect();
        let queries = Region::full(&shape).to_coords();
        let expected_values: Vec<Option<f64>> = queries
            .iter()
            .map(|q| model.get(&shape.linearize(q).unwrap()).and_then(|v| v.last().copied()))
            .collect();
        for kind in [FormatKind::Linear, FormatKind::Coo, FormatKind::Csf] {
            // Stores this small never earn a fan-out on their own (the
            // engine plans one worker), so the configurations that are
            // here for the parallel executor force its width.
            let configs = [
                (EngineConfig::default(), None), // section/range fetch, no cache
                (EngineConfig::default(), Some(3)),
                (EngineConfig::default().with_cache_capacity(1 << 20), None),
                // cache under eviction pressure
                (EngineConfig::default().with_cache_capacity(512), Some(2)),
            ];

            let mut backend = populate(&shape, kind, &fragments);
            for (config, width) in configs {
                let e = StorageEngine::open_with(
                    backend,
                    kind,
                    shape.clone(),
                    8,
                    config.clone(),
                )
                .unwrap();
                // Twice: the second read exercises any cache hits.
                for pass in 0..2 {
                    let got = match width {
                        Some(width) => e.read_at_width(&queries, width),
                        None => e.read(&queries),
                    }
                    .unwrap();
                    let hits: Vec<(u64, f64)> = got
                        .hits
                        .iter()
                        .map(|h| (h.addr, f64::from_le_bytes(h.value.as_slice().try_into().unwrap())))
                        .collect();
                    prop_assert_eq!(
                        &hits,
                        &expected_hits,
                        "{} {:?} width {:?} pass {}",
                        kind,
                        config,
                        width,
                        pass
                    );
                    prop_assert_eq!(
                        &got.to_values::<f64>(queries.len()).unwrap(),
                        &expected_values
                    );
                    prop_assert_eq!(got.fragments_scanned, fragments.len());
                    prop_assert_eq!(got.fragments_matched, fragments.len());
                }
                backend = e.into_backend();
            }
        }
    }

    /// `export()` is the oracle's last value per address, in address
    /// order, for every organization: as written (duplicates inside a
    /// fragment and across fragments), after `consolidate()`, and with an
    /// ingested batch over existing addresses on top.
    #[test]
    fn export_is_the_last_writer_per_address((shape, fragments) in store_strategy()) {
        let mut model: BTreeMap<u64, f64> = oracle(&shape, &fragments)
            .into_iter()
            .filter_map(|(addr, values)| Some((addr, *values.last()?)))
            .collect();
        let as_written: Vec<(u64, f64)> = model.clone().into_iter().collect();
        // Fragment 0's addresses, each once, re-ingested with new values.
        let mut overlap = BTreeMap::new();
        for p in &fragments[0] {
            overlap.insert(shape.linearize(p).unwrap(), p.clone());
        }
        let batch = buffer(shape.ndim(), &overlap.values().cloned().collect::<Vec<_>>());
        let batch_values: Vec<f64> = (0..overlap.len()).map(|k| -(k as f64) - 1.0).collect();
        model.extend(overlap.keys().copied().zip(batch_values.iter().copied()));
        let with_ingest: Vec<(u64, f64)> = model.into_iter().collect();
        let exported = |e: &StorageEngine<MemBackend>| -> Vec<(u64, f64)> {
            let (coords, payload) = e.export().unwrap();
            coords
                .iter()
                .zip(payload.chunks_exact(8))
                .map(|(p, v)| (shape.linearize(p).unwrap(), f64::from_le_bytes(v.try_into().unwrap())))
                .collect()
        };
        for kind in FormatKind::ALL {
            let e = StorageEngine::open(populate(&shape, kind, &fragments), kind, shape.clone(), 8)
                .unwrap();
            prop_assert_eq!(&exported(&e), &as_written, "{} as written", kind);
            e.consolidate().unwrap();
            prop_assert_eq!(&exported(&e), &as_written, "{} consolidated", kind);
            e.ingest_points::<f64>(&batch, &batch_values).unwrap();
            prop_assert_eq!(&exported(&e), &with_ingest, "{} with an ingest on top", kind);
        }
    }
}

/// Interleaved writers and readers on one shared engine: reads never
/// error, never return phantom points, and once the writers finish every
/// written point is read back with its final value.
#[test]
fn concurrent_writes_and_reads_stay_consistent() {
    let shape = Shape::new(vec![32, 32]).unwrap();
    let engine = Arc::new(
        StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Linear,
            shape.clone(),
            8,
            EngineConfig::default().with_cache_capacity(1 << 16),
        )
        .unwrap(),
    );

    let n_writers = 3usize;
    let frags_per_writer = 8usize;
    std::thread::scope(|scope| {
        for w in 0..n_writers {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                // Writer w owns rows w, n_writers + w, … — no cross-writer
                // collisions, so final values are deterministic.
                for f in 0..frags_per_writer {
                    let row = (w + f * n_writers) as u64 % 32;
                    let pts: Vec<[u64; 2]> = (0..8).map(|c| [row, c * 4]).collect();
                    let vals: Vec<f64> = (0..8).map(|c| (row * 100 + c * 4) as f64).collect();
                    let coords = CoordBuffer::from_points(2, &pts).unwrap();
                    engine.write_points::<f64>(&coords, &vals).unwrap();
                }
            });
        }
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let queries = Region::from_corners(&[0, 0], &[31, 31])
                    .unwrap()
                    .to_coords();
                for _ in 0..20 {
                    let r = engine.read(&queries).unwrap();
                    for hit in &r.hits {
                        // Any point a reader sees carries its final value.
                        assert_eq!(hit.value.len(), 8);
                        let v = f64::from_le_bytes(hit.value.as_slice().try_into().unwrap());
                        assert_eq!(v, (hit.coord[0] * 100 + hit.coord[1]) as f64);
                    }
                }
            });
        }
    });

    let queries = Region::full(&shape).to_coords();
    let vals = engine.read_values::<f64>(&queries).unwrap();
    let mut found = 0;
    for (q, v) in queries.iter().zip(&vals) {
        let expected_here = q[1] % 4 == 0 && (q[0] as usize) < n_writers * frags_per_writer;
        if expected_here {
            assert_eq!(*v, Some((q[0] * 100 + q[1]) as f64), "at {q:?}");
            found += 1;
        } else {
            assert_eq!(*v, None, "phantom point at {q:?}");
        }
    }
    assert_eq!(found, 24 * 8);
}

/// `points` uniform random points in a `side`×`side` tensor.
fn random_coords(rng: &mut SplitMix64, side: u64, points: usize) -> CoordBuffer {
    let mut coords = CoordBuffer::new(2);
    for _ in 0..points {
        coords
            .push(&[rng.next_below(side), rng.next_below(side)])
            .unwrap();
    }
    coords
}

/// A band read over a 16-fragment SORTED-COO store on the simulated
/// disk moves exactly the pinned bytes: each fragment's index section
/// plus the one contiguous value run the band matches, the same with
/// telemetry recording, and nothing once the decoded fragments are
/// cached. One byte more *or fewer* fails — if a change means to move
/// the numbers, re-pin them here and say why (as `fragment_golden.rs`).
#[test]
fn band_read_transfers_pinned_bytes() {
    const SIDE: u64 = 256;
    const FRAGMENTS: usize = 16;
    const POINTS_PER_FRAGMENT: usize = 2048;
    const ELEM_SIZE: u32 = 64;
    let shape = Shape::new(vec![SIDE, SIDE]).unwrap();
    let populate = || {
        let engine = StorageEngine::open(
            SimulatedDisk::lustre_like(),
            FormatKind::SortedCoo,
            shape.clone(),
            ELEM_SIZE,
        )
        .unwrap();
        let mut rng = SplitMix64::new(7);
        for _ in 0..FRAGMENTS {
            let coords = random_coords(&mut rng, SIDE, POINTS_PER_FRAGMENT);
            let values = vec![0xA5u8; coords.len() * ELEM_SIZE as usize];
            engine.write(&coords, &values).unwrap();
        }
        engine.into_backend()
    };
    // Rows 120–123, full width: one address interval, so one contiguous
    // value run per fragment in SORTED-COO's slot order.
    let band = Region::from_corners(&[120, 0], &[123, SIDE - 1])
        .unwrap()
        .to_coords();

    // The fan-out is pinned to the fragment count as the plan earns it
    // on this device; bytes do not depend on it.
    let base = EngineConfig::default().with_read_parallelism(FRAGMENTS);
    let configs = [
        ("default", base.clone(), 295_936),
        (
            "telemetry",
            base.clone().with_observability(Default::default()),
            295_936,
        ),
        ("warm-cached", base.with_cache_capacity(64 << 20), 0),
    ];
    for (label, config, pinned) in configs {
        let engine = StorageEngine::open_with(
            populate(),
            FormatKind::SortedCoo,
            shape.clone(),
            ELEM_SIZE,
            config,
        )
        .unwrap();
        // One unmeasured read, so `warm-cached` is the steady state.
        engine.read(&band).unwrap();
        let before = engine.backend().bytes_read();
        let r = engine.read(&band).unwrap();
        let transferred = engine.backend().bytes_read() - before;
        assert_eq!(r.fragments_matched, FRAGMENTS, "{label}");
        assert_eq!(r.hits.len(), 480, "{label}");
        assert_eq!(transferred, pinned, "{label}: bytes transferred per read");
    }
}

/// A point read of a consolidated 512², 16 384-point COO store moves one
/// part's header and index and the one record it matched — not the whole
/// store's 262 144-byte index, which it fetched and checksummed while
/// consolidation wrote one fragment.
#[test]
fn a_point_read_of_a_consolidated_store_fetches_one_part() {
    let shape = Shape::new(vec![512, 512]).unwrap();
    let disk = SimulatedDisk::new(1e12, Duration::ZERO);
    let engine = StorageEngine::open(disk, FormatKind::Coo, shape, 8).unwrap();
    let mut rng = SplitMix64::new(13);
    let mut points = std::collections::BTreeSet::new();
    while points.len() < 4 * PART_POINTS {
        points.insert([rng.next_below(512), rng.next_below(512)]);
    }
    let points: Vec<[u64; 2]> = points.into_iter().collect();
    for batch in points.chunks(PART_POINTS) {
        let coords = CoordBuffer::from_points(2, batch).unwrap();
        engine
            .write(&coords, &vec![0x5Au8; batch.len() * 8])
            .unwrap();
    }
    let report = engine.consolidate().unwrap();
    assert_eq!(report.n_points, 4 * PART_POINTS);
    assert!(report.parts >= 4, "{} parts", report.parts);

    let stored = CoordBuffer::from_points(2, &[points[9_000]]).unwrap();
    let before = engine.backend().bytes_read();
    let read = engine.read(&stored).unwrap();
    let transferred = engine.backend().bytes_read() - before;
    assert_eq!((read.fragments_matched, read.hits.len()), (1, 1));
    let part = &read.hits[0].fragment;
    let meta = decode_meta(part, &engine.backend().get(part).unwrap()).unwrap();
    assert!(meta.n as usize <= PART_POINTS);
    assert_eq!(transferred, meta.index_offset() + meta.index_len + 8);
    assert!(
        transferred <= (PART_POINTS * 16 + 256) as u64,
        "{transferred} B"
    );
}

/// A one-cell read over one consolidated part and three group commits,
/// 4 096 COO points each (a served store between consolidations), has
/// nothing to overlap: the engine must plan one worker, so the default
/// configuration may cost at most 10 % more than `read_parallelism = 1`. Both timings come from
/// this run on this host (min of 30 samples each), so its speed divides
/// out. `engine/read.rs::planned_workers_fans_out_only_when_it_pays` is
/// the deterministic half; this is the wall-clock half, release only.
#[test]
#[ignore = "wall clock: cargo test --release --test read_pipeline -- --ignored point_get_fan_out"]
fn point_get_fan_out_costs_nothing() {
    const SAMPLES: usize = 30;
    const SAMPLE_TIME: Duration = Duration::from_millis(60);
    let store = |config: EngineConfig| {
        let shape = Shape::new(vec![512, 512]).unwrap();
        let engine =
            StorageEngine::open_with(MemBackend::new(), FormatKind::Coo, shape, 8, config).unwrap();
        let mut rng = SplitMix64::new(11);
        let mut commit = || {
            let coords = random_coords(&mut rng, 512, PART_POINTS);
            engine
                .write(&coords, &vec![0x5Au8; coords.len() * 8])
                .unwrap();
        };
        (0..4).for_each(|_| commit());
        engine.consolidate().unwrap();
        (0..3).for_each(|_| commit());
        engine
    };
    let auto = store(EngineConfig::default());
    let sequential = store(EngineConfig::default().with_read_parallelism(1));
    let query = CoordBuffer::from_points(2, &[[255u64, 255]]).unwrap();
    for engine in [&auto, &sequential] {
        assert_eq!(engine.read(&query).unwrap().fragments_matched, 4);
    }

    // Size a sample to ~SAMPLE_TIME of reads, then interleave the two
    // engines sample by sample so a slow stretch of the host hits both.
    let per_sample = {
        let start = Instant::now();
        let mut reads = 0u32;
        while start.elapsed() < SAMPLE_TIME {
            std::hint::black_box(sequential.read(&query).unwrap());
            reads += 1;
        }
        reads.max(1)
    };
    let sample = |engine: &StorageEngine<MemBackend>| {
        let start = Instant::now();
        for _ in 0..per_sample {
            std::hint::black_box(engine.read(std::hint::black_box(&query)).unwrap());
        }
        start.elapsed() / per_sample
    };
    let (mut auto_min, mut sequential_min) = (Duration::MAX, Duration::MAX);
    for _ in 0..SAMPLES {
        auto_min = auto_min.min(sample(&auto));
        sequential_min = sequential_min.min(sample(&sequential));
    }
    let ratio = auto_min.as_secs_f64() / sequential_min.as_secs_f64();
    println!(
        "point get: auto {auto_min:?} / sequential {sequential_min:?} = {ratio:.3} \
         (min of {SAMPLES} samples × {per_sample} reads)"
    );
    assert!(
        ratio <= 1.10,
        "default read_parallelism costs {ratio:.3}× the sequential path on a plan with nothing to overlap"
    );
}
