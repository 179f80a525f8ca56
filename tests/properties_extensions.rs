//! Property tests for the subsystems beyond the paper's five formats:
//! codecs, striping, MatrixMarket, blocked grids, consolidation.

use artsparse::patterns::mtx::{read_mtx_str, write_mtx};
use artsparse::storage::{Codec, MemBackend, StorageBackend, StorageEngine, StripedBackend};
use artsparse::tensor::BlockGrid;
use artsparse::{CoordBuffer, FormatKind, Region, Shape};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every codec is lossless on arbitrary byte payloads.
    #[test]
    fn codecs_roundtrip_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..512)) {
        for codec in [Codec::None, Codec::Rle, Codec::DeltaVarint] {
            let packed = codec.compress(&data);
            let unpacked = codec.decompress(&packed, data.len()).unwrap();
            prop_assert_eq!(&unpacked, &data, "{:?}", codec);
        }
    }

    /// Striped backends reassemble arbitrary blobs for any geometry.
    #[test]
    fn striping_roundtrips(
        data in prop::collection::vec(any::<u8>(), 0..400),
        stripes in 1usize..6,
        stripe_size in 1usize..40,
        prefix in 0usize..450,
    ) {
        let b = StripedBackend::new(
            (0..stripes).map(|_| MemBackend::new()).collect::<Vec<_>>(),
            stripe_size,
        );
        b.put("x", &data).unwrap();
        prop_assert_eq!(b.get("x").unwrap(), data.clone());
        let want: Vec<u8> = data.iter().copied().take(prefix).collect();
        prop_assert_eq!(b.get_prefix("x", prefix).unwrap(), want);
        prop_assert_eq!(b.size("x").unwrap(), data.len() as u64);
    }

    /// MatrixMarket writes parse back identically.
    #[test]
    fn mtx_roundtrips(
        rows in 1u64..40,
        cols in 1u64..40,
        pts in prop::collection::vec((0u64..40, 0u64..40, -100i32..100), 0..60),
    ) {
        let mut coords = CoordBuffer::new(2);
        let mut values = Vec::new();
        for (r, c, v) in pts {
            coords.push(&[r % rows, c % cols]).unwrap();
            values.push(v as f64 / 4.0);
        }
        let shape = Shape::new(vec![rows, cols]).unwrap();
        let mut buf = Vec::new();
        write_mtx(&mut buf, &shape, &coords, &values).unwrap();
        let m = read_mtx_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(m.shape.dims(), shape.dims());
        prop_assert_eq!(&m.coords, &coords);
        prop_assert_eq!(&m.values, &values);
    }

    /// Block grids are bijective for arbitrary geometries.
    #[test]
    fn block_grid_bijective(
        dims in prop::collection::vec(1u64..30, 1..4),
        blocks in prop::collection::vec(1u64..12, 1..4),
        frac in prop::collection::vec(0.0f64..1.0, 1..4),
    ) {
        let d = dims.len().min(blocks.len()).min(frac.len());
        let dims = &dims[..d];
        let blocks = &blocks[..d];
        let grid = BlockGrid::new(dims, blocks).unwrap();
        let coord: Vec<u64> = (0..d)
            .map(|k| ((dims[k] as f64 * frac[k]) as u64).min(dims[k] - 1))
            .collect();
        let addr = grid.address(&coord).unwrap();
        prop_assert_eq!(grid.coordinate(addr).unwrap(), coord.clone());
        prop_assert!(grid.block_region(addr.block).unwrap().contains(&coord));
    }

    /// Consolidation never changes what a region read returns.
    #[test]
    fn consolidation_preserves_semantics(
        pts in prop::collection::vec((0u64..16, 0u64..16, -50i32..50), 1..40),
        splits in 1usize..5,
        kind_idx in 0usize..FormatKind::ALL.len(),
    ) {
        let shape = Shape::new(vec![16, 16]).unwrap();
        let kind = FormatKind::ALL[kind_idx];
        let engine =
            StorageEngine::open(MemBackend::new(), kind, shape.clone(), 8).unwrap();
        // Write the points split across `splits` fragments.
        let per = pts.len().div_ceil(splits);
        for chunk in pts.chunks(per) {
            let mut coords = CoordBuffer::new(2);
            let mut values = Vec::new();
            for (r, c, v) in chunk {
                coords.push(&[*r, *c]).unwrap();
                values.push(*v as f64);
            }
            engine.write_points::<f64>(&coords, &values).unwrap();
        }
        let all = Region::full(&shape).to_coords();
        let before = engine.read_values::<f64>(&all).unwrap();
        engine.consolidate().unwrap();
        let after = engine.read_values::<f64>(&all).unwrap();
        prop_assert_eq!(before, after, "{}", kind);
        prop_assert!(engine.fragments().unwrap().len() <= 1);
    }

    /// HiCOO round-trips arbitrary point sets through the engine.
    #[test]
    fn hicoo_engine_roundtrip(
        pts in prop::collection::vec((0u64..64, 0u64..64, 0u64..64), 0..50),
    ) {
        let shape = Shape::new(vec![64, 64, 64]).unwrap();
        let mut dedup = std::collections::HashMap::new();
        for (a, b, c) in &pts {
            dedup.insert(vec![*a, *b, *c], (*a + *b + *c) as f64);
        }
        let mut coords = CoordBuffer::new(3);
        let mut values = Vec::new();
        for (p, v) in &dedup {
            coords.push(p).unwrap();
            values.push(*v);
        }
        let engine =
            StorageEngine::open(MemBackend::new(), FormatKind::HiCoo, shape, 8).unwrap();
        engine.write_points::<f64>(&coords, &values).unwrap();
        let got = engine.read_values::<f64>(&coords).unwrap();
        for ((p, v), g) in dedup.iter().zip(coords.iter().map(|p| p.to_vec()).zip(&got).map(|(_, g)| g)) {
            let _ = (p, v);
            prop_assert!(g.is_some());
        }
        for (i, g) in got.iter().enumerate() {
            prop_assert_eq!(g.unwrap(), values[i]);
        }
    }
}
