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

use artsparse::metrics::SpanKind;
use artsparse::patterns::rng::SplitMix64;
use artsparse::storage::fragment::{decode_meta, decode_pages, FragmentMeta};
use artsparse::storage::{
    EngineConfig, FragmentCatalog, IngestConfig, MemBackend, SimulatedDisk, StorageBackend,
    StorageEngine, StorageError, COMMIT_PAGE_POINTS, PAGE_POINTS,
};
use artsparse::{CoordBuffer, FormatKind, Region, Shape};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
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
    /// ingested batch over existing addresses on top — with the merge on
    /// one thread and forced onto two, which must also leave the same
    /// device, op counts and telemetry behind.
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
        let exported = |e: &StorageEngine<MemBackend>, width: usize| -> Vec<(u64, f64)> {
            let (coords, payload) = e.export_at_width(width).unwrap();
            coords
                .iter()
                .zip(payload.chunks_exact(8))
                .map(|(p, v)| (shape.linearize(p).unwrap(), f64::from_le_bytes(v.try_into().unwrap())))
                .collect()
        };
        for kind in FormatKind::ALL {
            let mut left_behind = Vec::new();
            for width in [1, 2] {
                let e = StorageEngine::open_with(
                    populate(&shape, kind, &fragments),
                    kind,
                    shape.clone(),
                    8,
                    EngineConfig::default().with_observability(Default::default()),
                )
                .unwrap();
                prop_assert_eq!(&exported(&e, width), &as_written, "{} as written, width {}", kind, width);
                e.consolidate_at_width(width).unwrap();
                prop_assert_eq!(&exported(&e, width), &as_written, "{} consolidated, width {}", kind, width);
                e.ingest_points::<f64>(&batch, &batch_values).unwrap();
                prop_assert_eq!(
                    &exported(&e, width),
                    &with_ingest,
                    "{} with an ingest on top, width {}",
                    kind,
                    width
                );
                left_behind.push(left_behind_by(&e));
            }
            prop_assert_eq!(&left_behind[0], &left_behind[1], "{}: width 1 against 2", kind);
        }
    }
}

/// Everything an engine's passes leave behind that must not depend on
/// how many threads ran them: every blob on the device, by name, the
/// engine's `OpCounter` totals and its telemetry totals.
fn left_behind_by(e: &StorageEngine<MemBackend>) -> impl PartialEq + std::fmt::Debug {
    let device: Vec<(String, Vec<u8>)> = (e.backend().list().unwrap().into_iter())
        .map(|name| {
            let blob = e.backend().get(&name).unwrap();
            (name, blob)
        })
        .collect();
    let totals = e.telemetry_report().unwrap().totals;
    (device, e.counter().snapshot(), totals)
}

/// Three overlapping 6 000-point batches in 256², written one fragment
/// each under `kind`, on an engine with the telemetry plane on.
fn three_batch_store(kind: FormatKind) -> StorageEngine<MemBackend> {
    let shape = Shape::new(vec![256, 256]).unwrap();
    let config = EngineConfig::default().with_observability(Default::default());
    let e = StorageEngine::open_with(MemBackend::new(), kind, shape, 8, config).unwrap();
    let mut rng = SplitMix64::new(29);
    for batch in 0..3u8 {
        let coords = random_coords(&mut rng, 256, 6_000);
        e.write(&coords, &vec![batch; coords.len() * 8]).unwrap();
    }
    e
}

/// A store that consolidates into several pages, merged and re-encoded
/// with every stage on one thread and on two: the export, the pass's
/// report, the device's blobs and names, the op counts and the telemetry
/// totals are identical for every organization, and every page's encode
/// span — wherever it ran — carries the pass's trace id.
#[test]
fn consolidation_and_export_do_not_depend_on_the_width() {
    for kind in FormatKind::ALL {
        let [one, two] = [1, 2].map(|width| {
            let e = three_batch_store(kind);
            let exported = e.export_at_width(width).unwrap();
            let report = e.consolidate_at_width(width).unwrap();
            let events = e.telemetry_report().unwrap().events;
            let pass = (events.iter())
                .find(|ev| ev.kind == SpanKind::Consolidate)
                .unwrap()
                .trace_id;
            let encodes = (events.iter())
                .filter(|ev| ev.kind == SpanKind::WriteEncode && ev.trace_id == pass)
                .count();
            assert_eq!(encodes, report.pages, "{kind} width {width}");
            let summary = (report.n_points, report.pages, report.fragment);
            (exported, summary, left_behind_by(&e))
        });
        assert!(one.1 .1 > 1, "{kind}: {} pages", one.1 .1);
        assert!(one == two, "{kind}: width 1 against 2");
    }
}

/// A pass whose sources include damaged ones fails with the first damaged
/// source's typed error, in source order, whichever thread met which
/// first — and leaves the store as it was.
#[test]
fn a_corrupted_source_fails_the_pass_alike_at_every_width() {
    let errors = [1, 2].map(|width| {
        let e = three_batch_store(FormatKind::Linear);
        let names = e.fragments().unwrap();
        for victim in &names[1..] {
            let mut blob = e.backend().get(victim).unwrap();
            let last = blob.len() - 1;
            blob[last] ^= 0x40;
            e.backend().put(victim, &blob).unwrap();
        }
        let export = e.export_at_width(width).unwrap_err();
        let consolidate = e.consolidate_at_width(width).unwrap_err();
        assert!(
            matches!(consolidate, StorageError::ChecksumMismatch { ref name, .. } if *name == names[1]),
            "width {width}: {consolidate}"
        );
        assert_eq!(e.fragments().unwrap(), names, "width {width}");
        (export.to_string(), consolidate.to_string())
    });
    assert_eq!(errors[0], errors[1]);
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
/// page's header and index and the one record it matched — not the whole
/// output's 262 144-byte index, which it fetched and checksummed while
/// consolidation wrote its output unpaged.
#[test]
fn a_point_read_of_a_consolidated_store_fetches_one_page() {
    let shape = Shape::new(vec![512, 512]).unwrap();
    let disk = SimulatedDisk::new(1e12, Duration::ZERO);
    let engine = StorageEngine::open(disk, FormatKind::Coo, shape, 8).unwrap();
    let mut rng = SplitMix64::new(13);
    let mut points = std::collections::BTreeSet::new();
    while points.len() < 4 * PAGE_POINTS {
        points.insert([rng.next_below(512), rng.next_below(512)]);
    }
    let points: Vec<[u64; 2]> = points.into_iter().collect();
    for batch in points.chunks(PAGE_POINTS) {
        let coords = CoordBuffer::from_points(2, batch).unwrap();
        engine
            .write(&coords, &vec![0x5Au8; batch.len() * 8])
            .unwrap();
    }
    let report = engine.consolidate().unwrap();
    assert_eq!(report.n_points, 4 * PAGE_POINTS);
    assert!(report.pages >= 4, "{} pages", report.pages);

    let stored = CoordBuffer::from_points(2, &[points[9_000]]).unwrap();
    let before = engine.backend().bytes_read();
    let read = engine.read(&stored).unwrap();
    let transferred = engine.backend().bytes_read() - before;
    assert_eq!((read.fragments_matched, read.hits.len()), (1, 1));
    let blob = &engine.fragments().unwrap()[0];
    let pages = decode_pages(blob, &engine.backend().get(blob).unwrap()).unwrap();
    assert_eq!(pages.len(), report.pages);
    let (_, meta) = (pages.iter())
        .find(|(_, meta)| meta.bbox.as_ref().unwrap().contains(&points[9_000]))
        .unwrap();
    assert!(meta.n as usize <= PAGE_POINTS);
    assert_eq!(transferred, meta.index_offset() + meta.index_len + 8);
    assert!(
        transferred <= (PAGE_POINTS * 16 + 256) as u64,
        "{transferred} B"
    );
}

/// A point read of a 4 096-point group commit of random ingest fetches
/// one of its pages, call by call: that page's header and index in one
/// range at its offset, then the one record it matched. Before group
/// commits were cut into pages the same read fetched the header and the
/// whole commit's index — what the same points written by `write()`, one
/// page, still cost — so the read moves the cap's share of that index's
/// per-point bytes, plus one header, its fixed fields and one record.
#[test]
fn a_point_read_of_a_group_commit_fetches_one_of_its_pages() {
    let shape = Shape::new(vec![64, 64]).unwrap();
    let open = |backend: Recorder| {
        let ingest = IngestConfig {
            flush_points: 1 << 30,
            ..IngestConfig::default()
        };
        let config = (EngineConfig::default())
            .with_read_parallelism(1)
            .with_ingest(ingest);
        StorageEngine::open_with(backend, FormatKind::Linear, shape.clone(), 8, config).unwrap()
    };
    // Every cell of 64 × 64 once, shuffled, in 64-point batches, so each
    // batch spans the tensor; (r, c) holds 64 r + c.
    let mut cells: Vec<[u64; 2]> = (0..64).flat_map(|r| (0..64).map(move |c| [r, c])).collect();
    let mut rng = SplitMix64::new(45);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let value = |&[r, c]: &[u64; 2]| (64 * r + c) as f64;
    let e = open(Recorder::default());
    for batch in cells.chunks(64) {
        let values: Vec<f64> = batch.iter().map(value).collect();
        let coords = CoordBuffer::from_points(2, batch).unwrap();
        e.ingest_points::<f64>(&coords, &values).unwrap();
    }
    let name = e.flush().unwrap().unwrap().fragment;
    let blob = e.backend().inner.get(&name).unwrap();
    let pages = decode_pages(&name, &blob).unwrap();
    // Whole rows, 16 to a page.
    let rows_per_page = (COMMIT_PAGE_POINTS / 64) as u64;
    assert_eq!(pages.len(), 4096 / COMMIT_PAGE_POINTS);
    for (p, (_, meta)) in (0u64..).zip(&pages) {
        let bbox = meta.bbox.as_ref().unwrap();
        assert_eq!(meta.n as usize, COMMIT_PAGE_POINTS);
        assert_eq!(bbox.lo(), [p * rows_per_page, 0]);
        assert_eq!(bbox.hi(), [(p + 1) * rows_per_page - 1, 63]);
    }
    let unpaged = {
        let writer = open(Recorder::default());
        let values: Vec<f64> = cells.iter().map(value).collect();
        let coords = CoordBuffer::from_points(2, &cells).unwrap();
        let name = writer
            .write_points::<f64>(&coords, &values)
            .unwrap()
            .fragment;
        let blob = writer.backend().inner.get(&name).unwrap();
        let [(_, meta)] = &decode_pages(&name, &blob).unwrap()[..] else {
            panic!("a plain write is one page");
        };
        meta.clone()
    };
    let range =
        |offset: u64, len: u64| -> Call { ("get_range", name.clone(), offset, len as usize) };

    let [r, c] = [37u64, 5];
    let (offset, meta) = &pages[(r / rows_per_page) as usize];
    let want = value(&[r, c]);
    let record = {
        let at = (offset + meta.value_offset()) as usize;
        let slot = (blob[at..].chunks_exact(8))
            .position(|v| v == want.to_le_bytes())
            .unwrap();
        range((at + slot * 8) as u64, 8)
    };
    let point = CoordBuffer::from_points(2, &[[r, c]]).unwrap();
    let (read, calls) = e.backend().during(|| e.read_values::<f64>(&point).unwrap());
    assert_eq!(read, [Some(want)]);
    let head = range(*offset, meta.index_offset() + meta.index_len);
    assert_eq!(calls, [head, record]);

    // LINEAR's index is 8 B a point plus fixed fields, so the read moves
    // the cap's share of the unpaged index's per-point bytes, plus one
    // header, the fixed fields and one record.
    let fetched: u64 = calls.iter().map(|call| call.3 as u64).sum();
    let header = FragmentMeta::header_len(2) as u64;
    let fixed = meta.index_len - 8 * meta.n;
    assert_eq!(unpaged.index_len, fixed + 8 * 4096);
    let cap = COMMIT_PAGE_POINTS as u64;
    assert_eq!(fetched, header + fixed + 8 * cap + 8);
    // One read of each page moves what the unpaged read did, plus a
    // header, the fixed fields and a record for every page past one.
    let before = header + unpaged.index_len + 8;
    let pages = 4096 / cap;
    assert_eq!(fetched * pages, before + (pages - 1) * (header + fixed + 8));
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
            let coords = random_coords(&mut rng, 512, PAGE_POINTS);
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

/// One backend call as the I/O pin records it: `(op, blob, offset, len)`.
/// `get_prefix` reads at offset 0; `size` and `list` carry no window.
type Call = (&'static str, String, u64, usize);

/// A [`MemBackend`] that records every call made to it.
#[derive(Default)]
struct Recorder {
    inner: MemBackend,
    calls: Mutex<Vec<Call>>,
}

impl Recorder {
    fn note(&self, op: &'static str, name: &str, offset: u64, len: usize) {
        let call = (op, name.to_string(), offset, len);
        self.calls.lock().unwrap().push(call);
    }

    /// What `f` returned, and the calls it made in order.
    fn during<T>(&self, f: impl FnOnce() -> T) -> (T, Vec<Call>) {
        self.calls.lock().unwrap().clear();
        let out = f();
        (out, std::mem::take(&mut *self.calls.lock().unwrap()))
    }
}

impl StorageBackend for Recorder {
    fn put(&self, name: &str, data: &[u8]) -> artsparse::storage::Result<()> {
        self.note("put", name, 0, data.len());
        self.inner.put(name, data)
    }
    fn put_atomic(&self, name: &str, data: &[u8]) -> artsparse::storage::Result<()> {
        self.note("put_atomic", name, 0, data.len());
        self.inner.put_atomic(name, data)
    }
    fn put_exclusive(&self, name: &str, data: &[u8]) -> artsparse::storage::Result<()> {
        self.note("put_exclusive", name, 0, data.len());
        self.inner.put_exclusive(name, data)
    }
    fn rename(&self, from: &str, to: &str) -> artsparse::storage::Result<()> {
        self.note("rename", &format!("{from} -> {to}"), 0, 0);
        self.inner.rename(from, to)
    }
    fn get(&self, name: &str) -> artsparse::storage::Result<Vec<u8>> {
        self.note("get", name, 0, 0);
        self.inner.get(name)
    }
    fn get_prefix(&self, name: &str, len: usize) -> artsparse::storage::Result<Vec<u8>> {
        self.note("get_prefix", name, 0, len);
        self.inner.get_prefix(name, len)
    }
    fn get_range(
        &self,
        name: &str,
        offset: u64,
        len: usize,
    ) -> artsparse::storage::Result<Vec<u8>> {
        self.note("get_range", name, offset, len);
        self.inner.get_range(name, offset, len)
    }
    fn list(&self) -> artsparse::storage::Result<Vec<String>> {
        self.note("list", "", 0, 0);
        self.inner.list()
    }
    fn size(&self, name: &str) -> artsparse::storage::Result<u64> {
        self.note("size", name, 0, 0);
        self.inner.size(name)
    }
    fn delete(&self, name: &str) -> artsparse::storage::Result<()> {
        self.note("delete", name, 0, 0);
        self.inner.delete(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.note("exists", name, 0, 0);
        self.inner.exists(name)
    }
}

/// Every backend call a fragment-reading path makes — operation, blob,
/// offset and length, in order — for an uncached point read, an uncached
/// region read that falls back to whole value sections, a cached miss
/// and then hit, a scrub, and a catalog load. The byte pins above count
/// totals; this one fails on any call added, dropped, moved or resized.
#[test]
fn fragment_reads_make_exactly_the_pinned_backend_calls() {
    let shape = Shape::new(vec![64, 64]).unwrap();
    let open = |backend: Recorder, config: EngineConfig| {
        let config = config.with_read_parallelism(1);
        StorageEngine::open_with(backend, FormatKind::Linear, shape.clone(), 8, config).unwrap()
    };
    // Two fragments of 64 points over the whole tensor; fragment `f`
    // holds (i, i + f) with value 100 f + i.
    let writer = open(Recorder::default(), EngineConfig::default());
    for f in 0..2u64 {
        let pts: Vec<[u64; 2]> = (0..64).map(|i| [i, (i + f) % 64]).collect();
        let vals: Vec<f64> = (0..64).map(|i| (100 * f + i) as f64).collect();
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        writer.write_points::<f64>(&coords, &vals).unwrap();
    }
    let names = writer.fragments().unwrap();
    let backend = writer.into_backend();
    let blobs: Vec<Vec<u8>> = names
        .iter()
        .map(|n| backend.inner.get(n).unwrap())
        .collect();
    let metas: Vec<FragmentMeta> = (names.iter().zip(&blobs))
        .map(|(n, blob)| decode_meta(n, blob).unwrap())
        .collect();
    let range = |f: usize, offset: u64, len: u64| -> Call {
        ("get_range", names[f].clone(), offset, len as usize)
    };
    // Header and index in one request; the whole value section.
    let head = |f: usize| range(f, 0, metas[f].index_offset() + metas[f].index_len);
    let values = |f: usize| range(f, metas[f].value_offset(), metas[f].value_len);
    // Fragment 0's record of (5, 5), wherever its organization put it.
    let record = {
        let at = metas[0].value_offset() as usize;
        let slot = (blobs[0][at..].chunks_exact(8))
            .position(|r| r == 5f64.to_le_bytes())
            .unwrap();
        range(0, (at + slot * 8) as u64, 8)
    };
    let point = CoordBuffer::from_points(2, &[[5u64, 5]]).unwrap();

    let e = open(backend, EngineConfig::default());
    let (read, calls) = e.backend().during(|| e.read_values::<f64>(&point).unwrap());
    assert_eq!(read, [Some(5.0)]);
    assert_eq!(calls, [head(0), record, head(1)], "uncached point read");

    // 41 of each fragment's 64 records are more than half its value
    // section: one whole-section request instead of runs.
    let rows = Region::from_corners(&[0, 0], &[40, 63]).unwrap();
    let (read, calls) = e.backend().during(|| e.read_region(&rows).unwrap());
    assert_eq!(read.hits.len(), 82);
    assert_eq!(
        calls,
        [head(0), values(0), head(1), values(1)],
        "region read"
    );

    let (report, calls) = e.backend().during(|| e.scrub().unwrap());
    assert!(report.is_clean());
    let mut scrub = Vec::new();
    for f in 0..2 {
        let (name, meta) = (&names[f], &metas[f]);
        scrub.extend([
            range(f, 0, meta.index_offset()),
            ("size", name.clone(), 0, 0),
            range(f, meta.index_offset(), meta.index_len),
            values(f),
        ]);
    }
    assert_eq!(calls, scrub, "scrub");

    let (catalog, calls) = e
        .backend()
        .during(|| FragmentCatalog::load(e.backend(), 2, |n| n.starts_with("frag-")).unwrap());
    assert_eq!(catalog.names(), names);
    let mut load = vec![("list", String::new(), 0, 0)];
    for name in &names {
        let peek = FragmentMeta::header_len(2);
        load.extend([
            ("get_prefix", name.clone(), 0, peek),
            ("size", name.clone(), 0, 0),
        ]);
    }
    assert_eq!(calls, load, "catalog load");

    let cached = open(
        e.into_backend(),
        EngineConfig::default().with_cache_capacity(1 << 20),
    );
    let (read, calls) = cached
        .backend()
        .during(|| cached.read_values::<f64>(&point).unwrap());
    assert_eq!(read, [Some(5.0)]);
    assert_eq!(
        calls,
        [head(0), values(0), head(1), values(1)],
        "cached miss"
    );
    let (read, calls) = cached
        .backend()
        .during(|| cached.read_values::<f64>(&point).unwrap());
    assert_eq!(read, [Some(5.0)]);
    assert_eq!(calls, [], "cached hit");
}

/// The pinned calls of the paths above on a consolidated blob of two
/// pages: its catalog load peeks the first header with the blob's size and
/// then the second page's header; a point read fetches one page's header
/// and index in one range at the page's offset, then its record; a scrub
/// verifies each page's sections where they lie, and the blob's size with
/// its last page.
#[test]
fn a_paged_fragment_makes_exactly_the_pinned_backend_calls() {
    let shape = Shape::new(vec![128, 64]).unwrap();
    let open = |backend: Recorder| {
        let config = EngineConfig::default().with_read_parallelism(1);
        StorageEngine::open_with(backend, FormatKind::Linear, shape.clone(), 8, config).unwrap()
    };
    // Two fragments of 64 full rows each, consolidated into one blob
    // whose pages hold 4 096 points each; (r, c) holds 64 r + c.
    let writer = open(Recorder::default());
    for rows in [0..64u64, 64..128] {
        let pts: Vec<[u64; 2]> = rows.flat_map(|r| (0..64).map(move |c| [r, c])).collect();
        let vals: Vec<f64> = pts.iter().map(|&[r, c]| (64 * r + c) as f64).collect();
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        writer.write_points::<f64>(&coords, &vals).unwrap();
    }
    assert_eq!(writer.consolidate().unwrap().pages, 2);
    let names = writer.fragments().unwrap();
    assert_eq!(names.len(), 1);
    let name = names[0].clone();
    let backend = writer.into_backend();
    let blob = backend.inner.get(&name).unwrap();
    let pages = decode_pages(&name, &blob).unwrap();
    assert_eq!(pages.len(), 2);
    let range =
        |offset: u64, len: u64| -> Call { ("get_range", name.clone(), offset, len as usize) };
    let header = FragmentMeta::header_len(2);

    let e = open(backend);
    let (catalog, calls) = e
        .backend()
        .during(|| FragmentCatalog::load(e.backend(), 2, |n| n.starts_with("frag-")).unwrap());
    let cataloged = &catalog.get(&name).unwrap().pages;
    let cataloged: Vec<_> = cataloged
        .iter()
        .map(|p| (p.offset, p.meta.clone()))
        .collect();
    assert_eq!(cataloged, pages);
    let load = [
        ("list", String::new(), 0, 0),
        ("get_prefix", name.clone(), 0, header),
        ("size", name.clone(), 0, 0),
        range(pages[1].0, header as u64),
    ];
    assert_eq!(calls, load, "catalog load");

    for (p, [r, c]) in [(0, [5u64, 5]), (1, [70, 3])] {
        let (offset, meta) = (pages[p].0, &pages[p].1);
        let want = (64 * r + c) as f64;
        let record = {
            let at = (offset + meta.value_offset()) as usize;
            let slot = (blob[at..].chunks_exact(8))
                .position(|v| v == want.to_le_bytes())
                .unwrap();
            range((at + slot * 8) as u64, 8)
        };
        let point = CoordBuffer::from_points(2, &[[r, c]]).unwrap();
        let (read, calls) = e.backend().during(|| e.read_values::<f64>(&point).unwrap());
        assert_eq!(read, [Some(want)]);
        let head = range(offset, meta.index_offset() + meta.index_len);
        assert_eq!(calls, [head, record], "point read of page {p}");
    }

    let (report, calls) = e.backend().during(|| e.scrub().unwrap());
    assert!(report.is_clean());
    assert_eq!(report.fragments_checked, 2);
    let mut scrub = Vec::new();
    for (p, (offset, meta)) in pages.iter().enumerate() {
        let offset = *offset;
        scrub.push(range(offset, meta.index_offset()));
        if p == 1 {
            scrub.push(("size", name.clone(), 0, 0));
        }
        scrub.extend([
            range(offset + meta.index_offset(), meta.index_len),
            range(offset + meta.value_offset(), meta.value_len),
        ]);
    }
    assert_eq!(calls, scrub, "scrub");
}
