//! Compression codecs and fragment consolidation, end to end.

use artsparse::metrics::OpCounter;
use artsparse::storage::{Codec, MemBackend, StorageEngine};
use artsparse::{CoordBuffer, Dataset, FormatKind, Pattern, PatternParams, Region, Scale, Shape};

fn pts(p: &[[u64; 2]]) -> CoordBuffer {
    CoordBuffer::from_points(2, p).unwrap()
}

#[test]
fn compressed_fragments_roundtrip_every_format_and_codec() {
    let ds = Dataset::for_scale(Pattern::Tsp, 2, Scale::Smoke, PatternParams::default());
    let values = ds.values();
    let queries = ds.read_region().to_coords();
    for kind in FormatKind::PAPER_FIVE {
        for (ic, vc) in [
            (Codec::DeltaVarint, Codec::None),
            (Codec::Rle, Codec::Rle),
            (Codec::DeltaVarint, Codec::Rle),
        ] {
            let engine = StorageEngine::open(MemBackend::new(), kind, ds.shape.clone(), 8)
                .unwrap()
                .with_compression(ic, vc);
            engine.write_points::<f64>(&ds.coords, &values).unwrap();
            let plain = StorageEngine::open(MemBackend::new(), kind, ds.shape.clone(), 8).unwrap();
            plain.write_points::<f64>(&ds.coords, &values).unwrap();
            let a = engine.read_values::<f64>(&queries).unwrap();
            let b = plain.read_values::<f64>(&queries).unwrap();
            assert_eq!(a, b, "{kind} {ic:?}/{vc:?}");
        }
    }
}

#[test]
fn delta_varint_shrinks_linear_over_tsp() {
    // TSP's LINEAR addresses are sorted with small gaps — the codec's
    // best case, and the paper's orthogonality claim in action: same
    // organization, much smaller fragment.
    let ds = Dataset::for_scale(Pattern::Tsp, 2, Scale::Smoke, PatternParams::default());
    let values = ds.values();
    let plain =
        StorageEngine::open(MemBackend::new(), FormatKind::Linear, ds.shape.clone(), 8).unwrap();
    let packed = StorageEngine::open(MemBackend::new(), FormatKind::Linear, ds.shape.clone(), 8)
        .unwrap()
        .with_compression(Codec::DeltaVarint, Codec::None);
    let rp = plain.write_points::<f64>(&ds.coords, &values).unwrap();
    let rc = packed.write_points::<f64>(&ds.coords, &values).unwrap();
    assert!(
        (rc.total_bytes as f64) < rp.total_bytes as f64 * 0.7,
        "compressed {} vs plain {}",
        rc.total_bytes,
        rp.total_bytes
    );
}

#[test]
fn enumerate_inverts_build_for_every_format() {
    let counter = OpCounter::new();
    for pattern in Pattern::ALL {
        let ds = Dataset::for_scale(pattern, 3, Scale::Smoke, PatternParams::default());
        for kind in FormatKind::ALL {
            let org = kind.create();
            let built = org.build(&ds.coords, &ds.shape, &counter).unwrap();
            let listed = org.enumerate(&built.index, &counter).unwrap();
            assert_eq!(listed.len(), ds.nnz(), "{kind} {pattern}");
            // Slot alignment: original point i must sit at slot map[i].
            match &built.map {
                None => assert_eq!(&listed, &ds.coords, "{kind} {pattern}"),
                Some(map) => {
                    for (i, p) in ds.coords.iter().enumerate() {
                        assert_eq!(listed.point(map[i]), p, "{kind} {pattern} point {i}");
                    }
                }
            }
        }
    }
}

#[test]
fn consolidation_merges_fragments_and_preserves_reads() {
    let shape = Shape::new(vec![64, 64]).unwrap();
    let engine =
        StorageEngine::open(MemBackend::new(), FormatKind::GcsrPP, shape.clone(), 8).unwrap();
    // Ten small fragments with one overlap ([5,5] rewritten later).
    for f in 0..10u64 {
        let coords = pts(&[[f, f], [5, 5], [f + 20, 63 - f]]);
        engine
            .write_points::<f64>(&coords, &[f as f64, 100.0 + f as f64, -(f as f64)])
            .unwrap();
    }
    let all = Region::full(&shape).to_coords();
    let before = engine.read_values::<f64>(&all).unwrap();
    assert_eq!(engine.fragments().unwrap().len(), 10);

    let report = engine.consolidate().unwrap();
    assert_eq!(report.merged_fragments, 10);
    assert_eq!(engine.fragments().unwrap().len(), 1);
    // 10 fragments × 3 points, minus 10 duplicate [5,5]s (fragment 5's
    // own [f,f] point collides with its [5,5] too).
    assert_eq!(report.n_points, 20);
    assert!(report.after_bytes < report.before_bytes);

    let after = engine.read_values::<f64>(&all).unwrap();
    assert_eq!(before, after, "consolidation changed query results");
    // Last-writer-wins on the overlap.
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[5, 5]])).unwrap(),
        vec![Some(109.0)]
    );
}

#[test]
fn consolidation_across_mixed_formats() {
    let shape = Shape::new(vec![32, 32]).unwrap();
    let backend = MemBackend::new();
    let mut holder = Some(backend);
    for (i, kind) in [FormatKind::Coo, FormatKind::Csf, FormatKind::Linear]
        .into_iter()
        .enumerate()
    {
        let e = StorageEngine::open(holder.take().unwrap(), kind, shape.clone(), 8).unwrap();
        e.write_points::<f64>(&pts(&[[i as u64, 0], [0, i as u64]]), &[i as f64, i as f64])
            .unwrap();
        holder = Some(e.into_backend());
    }
    let engine = StorageEngine::open(holder.unwrap(), FormatKind::Csf, shape.clone(), 8).unwrap();
    let report = engine.consolidate().unwrap();
    assert_eq!(report.merged_fragments, 3);
    // The COO fragment wrote [0,0] twice (its [i,0] and [0,i] coincide at
    // i = 0), so 6 points collapse to 5; only COO touched [0,0].
    assert_eq!(report.n_points, 5);
    assert_eq!(
        engine.read_values::<f64>(&pts(&[[0, 0]])).unwrap(),
        vec![Some(0.0)]
    );
}

#[test]
fn consolidating_zero_or_one_fragment_is_a_noop() {
    let shape = Shape::new(vec![8, 8]).unwrap();
    let engine = StorageEngine::open(MemBackend::new(), FormatKind::Coo, shape.clone(), 8).unwrap();
    let r = engine.consolidate().unwrap();
    assert_eq!(r.merged_fragments, 0);
    assert!(r.fragment.is_none());
    engine.write_points::<f64>(&pts(&[[1, 1]]), &[1.0]).unwrap();
    let r = engine.consolidate().unwrap();
    assert_eq!(r.merged_fragments, 1);
    assert!(r.fragment.is_none());
    assert_eq!(engine.fragments().unwrap().len(), 1);
}

#[test]
fn export_lists_all_points_in_address_order() {
    let shape = Shape::new(vec![16, 16]).unwrap();
    let engine =
        StorageEngine::open(MemBackend::new(), FormatKind::GcscPP, shape.clone(), 8).unwrap();
    engine
        .write_points::<f64>(&pts(&[[9, 9], [0, 1]]), &[99.0, 1.0])
        .unwrap();
    engine
        .write_points::<f64>(&pts(&[[3, 3]]), &[33.0])
        .unwrap();
    let (coords, payload) = engine.export().unwrap();
    let addrs: Vec<u64> = coords.iter().map(|p| shape.linearize(p).unwrap()).collect();
    assert_eq!(addrs, vec![1, 51, 153]);
    let vals: Vec<f64> = artsparse::tensor::value::unpack(&payload).unwrap();
    assert_eq!(vals, vec![1.0, 33.0, 99.0]);
}

#[test]
fn consolidated_compressed_store_reads_back() {
    let ds = Dataset::for_scale(Pattern::Msp, 2, Scale::Smoke, PatternParams::default());
    let values = ds.values();
    let engine = StorageEngine::open(MemBackend::new(), FormatKind::Linear, ds.shape.clone(), 8)
        .unwrap()
        .with_compression(Codec::DeltaVarint, Codec::None);
    // Split the dataset into 4 fragments.
    let quarter = ds.nnz() / 4;
    for q in 0..4 {
        let lo = q * quarter;
        let hi = if q == 3 { ds.nnz() } else { (q + 1) * quarter };
        let mut coords = CoordBuffer::new(2);
        for i in lo..hi {
            coords.push(ds.coords.point(i)).unwrap();
        }
        engine
            .write_points::<f64>(&coords, &values[lo..hi])
            .unwrap();
    }
    let queries = ds.read_region().to_coords();
    let before = engine.read_values::<f64>(&queries).unwrap();
    let report = engine.consolidate().unwrap();
    let after = engine.read_values::<f64>(&queries).unwrap();
    assert_eq!(before, after);
    // 7 284 points are one fragment of two ≤ 4 096-point pages.
    assert_eq!((report.n_points, report.pages), (ds.nnz(), 2));
    assert_eq!(engine.fragments().unwrap().len(), 1);
    assert!(
        engine.consolidate().unwrap().fragment.is_none(),
        "one fragment"
    );
}
