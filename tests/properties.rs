//! Property-based tests (proptest) for the core invariants.

use artsparse::core::formats::csf::CsfTree;
use artsparse::metrics::OpCounter;
use artsparse::storage::config::RetryPolicy;
use artsparse::storage::{Codec, EngineConfig, MemBackend, StorageBackend, StorageEngine};
use artsparse::tensor::permute::is_permutation;
use artsparse::{CoordBuffer, FormatKind, Region, Shape};
use proptest::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

/// Strategy: a small shape of 1–4 dimensions, each of size 1–12.
fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1u64..=12, 1..=4).prop_map(|dims| Shape::new(dims).unwrap())
}

/// Strategy: a shape plus up to `max_points` points inside it.
fn tensor_strategy(max_points: usize) -> impl Strategy<Value = (Shape, CoordBuffer)> {
    shape_strategy().prop_flat_map(move |shape| {
        let dims = shape.dims().to_vec();
        let point = dims.iter().map(|&m| 0u64..m).collect::<Vec<_>>();
        prop::collection::vec(point, 0..max_points).prop_map(move |pts| {
            let mut buf = CoordBuffer::new(shape.ndim());
            for p in &pts {
                buf.push(p).unwrap();
            }
            (shape.clone(), buf)
        })
    })
}

/// What [`region_read_is_the_point_read_of_its_cells`] stores and asks.
#[derive(Debug, Clone)]
struct RegionReadCase {
    shape: Shape,
    /// Written batches, one fragment each; cells repeat within a batch
    /// and across batches (overwrites).
    fragments: Vec<Vec<Vec<u64>>>,
    /// Ingested last and left in the write buffer.
    buffered: Vec<Vec<u64>>,
    /// Boxes whose corners may lie up to two cells past the shape.
    regions: Vec<Region>,
}

fn region_read_case() -> impl Strategy<Value = RegionReadCase> {
    prop::collection::vec(1u64..=7, 1..=3).prop_flat_map(|dims| {
        let point = dims.iter().map(|&m| 0u64..m).collect::<Vec<_>>();
        let corner = dims
            .iter()
            .map(|&m| (0..m + 2, 0..m + 2))
            .collect::<Vec<_>>();
        (
            prop::collection::vec(prop::collection::vec(point.clone(), 1..10), 1..=4),
            prop::collection::vec(point, 0..6),
            prop::collection::vec(corner, 1..=3),
        )
            .prop_map(move |(fragments, buffered, corners)| RegionReadCase {
                shape: Shape::new(dims.clone()).unwrap(),
                fragments,
                buffered,
                regions: corners
                    .iter()
                    .map(|c| {
                        let lo: Vec<u64> = c.iter().map(|&(a, b)| a.min(b)).collect();
                        let hi: Vec<u64> = c.iter().map(|&(a, b)| a.max(b)).collect();
                        Region::from_corners(&lo, &hi).unwrap()
                    })
                    .collect(),
            })
    })
}

impl RegionReadCase {
    fn coords(&self, pts: &[Vec<u64>]) -> CoordBuffer {
        let mut buf = CoordBuffer::new(self.shape.ndim());
        for p in pts {
            buf.push(p).unwrap();
        }
        buf
    }

    /// An engine holding the case's fragments (values tell batch and
    /// position apart); the buffered points are not yet ingested.
    fn store(
        &self,
        kind: FormatKind,
        index_codec: Codec,
        config: EngineConfig,
    ) -> StorageEngine<MemBackend> {
        let engine =
            StorageEngine::open_with(MemBackend::new(), kind, self.shape.clone(), 8, config)
                .unwrap()
                .with_compression(index_codec, Codec::None);
        for (batch, pts) in self.fragments.iter().enumerate() {
            let values: Vec<f64> = (0..pts.len()).map(|i| (batch * 100 + i) as f64).collect();
            engine.write_points(&self.coords(pts), &values).unwrap();
        }
        engine
    }

    /// `read_region(r)` is `read(&r.to_coords())`, field for field, on
    /// the planned width and on two forced workers.
    fn check(&self, engine: &StorageEngine<MemBackend>, what: &str) -> Result<(), String> {
        for region in &self.regions {
            let cells = region.to_coords();
            prop_assert_eq!(
                engine.read_region(region).unwrap(),
                engine.read(&cells).unwrap(),
                "{}: {}",
                what,
                region
            );
            prop_assert_eq!(
                engine.read_region_at_width(region, 2).unwrap(),
                engine.read_at_width(&cells, 2).unwrap(),
                "{} on two workers: {}",
                what,
                region
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A region read — one `Organization::scan` per fragment — returns the
    /// `ReadResult` of the point read of the region's cells: same hits in
    /// the same order with the same `query_index`, same plan counts, same
    /// outcome. For every organization, cache off and on, index
    /// stored plain and delta-varint, over fragments that overwrite each
    /// other with points still buffered, and again after consolidation.
    #[test]
    fn region_read_is_the_point_read_of_its_cells(case in region_read_case()) {
        for kind in FormatKind::ALL {
            for cache in [0, 1 << 20] {
                for index_codec in [Codec::None, Codec::DeltaVarint] {
                    let what = format!("{kind}, cache {cache}, index {index_codec:?}");
                    let config = EngineConfig::default()
                        .with_cache_capacity(cache)
                        .with_read_parallelism(1);
                    let engine = case.store(kind, index_codec, config);
                    case.check(&engine, &format!("{what}, flushed"))?;
                    if !case.buffered.is_empty() {
                        let values: Vec<f64> =
                            (0..case.buffered.len()).map(|i| (900 + i) as f64).collect();
                        engine.ingest_points(&case.coords(&case.buffered), &values).unwrap();
                        case.check(&engine, &format!("{what}, buffered"))?;
                    }
                    engine.consolidate().unwrap();
                    case.check(&engine, &format!("{what}, consolidated"))?;
                }
            }
        }
    }

    /// The same under degraded reads: with the first fragment's index
    /// damaged on the device, both reads quarantine it and report the
    /// same incomplete outcome over the survivors.
    #[test]
    fn region_read_degrades_like_the_point_read(case in region_read_case()) {
        let lenient = || EngineConfig::default()
            .with_strict_reads(false)
            .with_read_parallelism(1)
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
            });
        for kind in FormatKind::ALL {
            // Two identical damaged stores: a quarantine is sticky, so
            // each read must meet the damage first-hand.
            let damaged = || {
                let engine = case.store(kind, Codec::None, lenient());
                let victim = engine.fragments().unwrap()[0].clone();
                let mut bytes = engine.backend().get(&victim).unwrap();
                // The last byte of the index section (values follow it).
                let at = bytes.len() - 8 * case.fragments[0].len() - 1;
                bytes[at] ^= 0x10;
                engine.backend().put(&victim, &bytes).unwrap();
                (engine, victim)
            };
            for region in &case.regions {
                let ((by_region, victim), (by_points, _)) = (damaged(), damaged());
                let scanned = by_region.read_region(region).unwrap();
                prop_assert_eq!(
                    &scanned,
                    &by_points.read(&region.to_coords()).unwrap(),
                    "{}: {}", kind, region
                );
                if scanned.fragments_matched > 0 && !scanned.outcome.complete {
                    prop_assert_eq!(&scanned.outcome.quarantined, &vec![victim]);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every format: build → read finds exactly the inserted set and
    /// never invents points.
    #[test]
    fn build_read_is_exact((shape, coords) in tensor_strategy(40)) {
        let counter = OpCounter::new();
        let truth: HashSet<Vec<u64>> = coords.iter().map(|p| p.to_vec()).collect();
        let queries = Region::full(&shape).to_coords();
        for kind in FormatKind::ALL {
            let org = kind.create();
            let built = org.build(&coords, &shape, &counter).unwrap();
            let slots = org.read(&built.index, &queries, &counter).unwrap();
            prop_assert_eq!(slots.len(), queries.len());
            for (q, slot) in queries.iter().zip(&slots) {
                prop_assert_eq!(
                    slot.is_some(),
                    truth.contains(q),
                    "{} at {:?}", kind, q
                );
                if let Some(s) = slot {
                    prop_assert!((*s as usize) < coords.len());
                }
            }
        }
    }

    /// Every sorting format returns a valid permutation map; every
    /// non-sorting format returns none.
    #[test]
    fn maps_are_permutations((shape, coords) in tensor_strategy(40)) {
        let counter = OpCounter::new();
        for kind in FormatKind::ALL {
            let built = kind.create().build(&coords, &shape, &counter).unwrap();
            match built.map {
                Some(map) => {
                    prop_assert_eq!(map.len(), coords.len());
                    prop_assert!(is_permutation(&map), "{}", kind);
                }
                None => prop_assert!(
                    matches!(kind, FormatKind::Coo | FormatKind::Linear),
                    "{} must return a map", kind
                ),
            }
        }
    }

    /// The Table I space model upper-bounds the actual index payload for
    /// every format (payload = encoded words excluding the codec header).
    #[test]
    fn space_model_bounds_actual_size((shape, coords) in tensor_strategy(60)) {
        let counter = OpCounter::new();
        let n = coords.len() as u64;
        for kind in FormatKind::ALL {
            let org = kind.create();
            let built = org.build(&coords, &shape, &counter).unwrap();
            let payload_bytes = built.index.len() as u64;
            let predicted_words = org.predicted_index_words(n, &shape);
            // Generous envelope: model words + header + per-section length
            // prefixes (≤ 3d+4 sections of 8 bytes each) + shape dims.
            let header_slack = 64 + 8 * (3 * shape.ndim() as u64 + 6) + 8 * shape.ndim() as u64;
            prop_assert!(
                payload_bytes <= predicted_words * 8 + header_slack,
                "{}: {} bytes vs {} predicted words",
                kind, payload_bytes, predicted_words
            );
        }
    }

    /// linearize ∘ delinearize = id on random addresses.
    #[test]
    fn linearize_roundtrip(shape in shape_strategy(), frac in 0.0f64..1.0) {
        let addr = (shape.volume() as f64 * frac) as u64 % shape.volume();
        let coord = shape.delinearize(addr).unwrap();
        prop_assert_eq!(shape.linearize(&coord).unwrap(), addr);
    }

    /// CSF structural invariants hold for arbitrary tensors.
    #[test]
    fn csf_tree_invariants((shape, coords) in tensor_strategy(60)) {
        let counter = OpCounter::new();
        let built = FormatKind::Csf.create().build(&coords, &shape, &counter).unwrap();
        let (tree, n) = CsfTree::decode(&built.index).unwrap();
        let d = tree.shape.ndim();
        prop_assert_eq!(n as usize, coords.len());
        prop_assert_eq!(tree.nfibs.len(), d);
        // Leaf level holds one node per point.
        prop_assert_eq!(tree.nfibs[d - 1], coords.len() as u64);
        // Level sizes never shrink going down (children ≥ parents).
        for w in tree.nfibs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // fptr invariants: monotone, spanning, consistent with nfibs.
        for i in 0..d - 1 {
            let p = &tree.fptr[i];
            prop_assert_eq!(p.len() as u64, tree.nfibs[i] + 1);
            prop_assert_eq!(p[0], 0);
            prop_assert_eq!(*p.last().unwrap(), tree.nfibs[i + 1]);
            prop_assert!(p.windows(2).all(|w| w[0] <= w[1]));
            // Children within each node are strictly increasing.
            for node in 0..tree.nfibs[i] as usize {
                let (lo, hi) = (p[node] as usize, p[node + 1] as usize);
                let kids = &tree.fids[i + 1][lo..hi];
                if i + 1 < d - 1 {
                    prop_assert!(kids.windows(2).all(|w| w[0] < w[1]));
                } else {
                    // Leaves may repeat on duplicate coordinates.
                    prop_assert!(kids.windows(2).all(|w| w[0] <= w[1]));
                }
            }
        }
        // Dimension order sorts the boundary ascending.
        let sorted_dims: Vec<u64> =
            tree.order.iter().map(|&k| tree.shape.dim(k)).collect();
        prop_assert!(sorted_dims.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Region algebra: intersection is commutative, contained in both, and
    /// `contains` agrees with membership of the intersection.
    #[test]
    fn region_intersection_laws(
        lo_a in prop::collection::vec(0u64..20, 2..4),
        sz_a in prop::collection::vec(1u64..10, 2..4),
        lo_b in prop::collection::vec(0u64..20, 2..4),
        sz_b in prop::collection::vec(1u64..10, 2..4),
    ) {
        let d = lo_a.len().min(sz_a.len()).min(lo_b.len()).min(sz_b.len());
        let a = Region::from_start_size(&lo_a[..d], &sz_a[..d]).unwrap();
        let b = Region::from_start_size(&lo_b[..d], &sz_b[..d]).unwrap();
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        prop_assert_eq!(&ab, &ba);
        match ab {
            None => prop_assert!(!a.intersects(&b)),
            Some(i) => {
                prop_assert!(a.intersects(&b));
                for cell in i.iter_cells().take(200) {
                    prop_assert!(a.contains(&cell) && b.contains(&cell));
                }
            }
        }
    }

    /// Typed value round-trip through reorganization for arbitrary maps.
    #[test]
    fn value_reorganization_is_consistent((shape, coords) in tensor_strategy(30)) {
        let counter = OpCounter::new();
        let values: Vec<u64> = (0..coords.len() as u64).collect();
        let payload = artsparse::tensor::value::pack(&values);
        for kind in FormatKind::ALL {
            let org = kind.create();
            let built = org.build(&coords, &shape, &counter).unwrap();
            let reorg = built.reorganize_values(&payload, 8);
            let decoded: Vec<u64> =
                artsparse::tensor::value::unpack(&reorg).unwrap();
            // Reorganization is a permutation of the values.
            let mut sorted = decoded.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &values, "{}", kind);
            // And each point's slot holds that point's value.
            if !coords.is_empty() {
                let q = CoordBuffer::from_points(shape.ndim(), &[coords.point(0)]).unwrap();
                let slot = org.read(&built.index, &q, &counter).unwrap()[0].unwrap();
                let got = decoded[slot as usize];
                // With duplicates, any record of the same coordinate works.
                let ok = coords
                    .iter()
                    .enumerate()
                    .any(|(i, p)| p == coords.point(0) && got == i as u64);
                prop_assert!(ok, "{}: slot value {} wrong", kind, got);
            }
        }
    }
}

#[test]
fn csf_space_spans_best_to_worst_case() {
    // Deterministic companion to the property tests: the same n yields a
    // small tree for a chain and a large one for a diagonal.
    let counter = OpCounter::new();
    let shape = Shape::new(vec![12, 12, 12]).unwrap();
    let chain: Vec<[u64; 3]> = (0..12).map(|k| [5, 5, k]).collect();
    let diag: Vec<[u64; 3]> = (0..12).map(|k| [k, k, k]).collect();
    let build = |pts: &[[u64; 3]]| {
        let coords = CoordBuffer::from_points(3, pts).unwrap();
        FormatKind::Csf
            .create()
            .build(&coords, &shape, &counter)
            .unwrap()
            .index
            .len()
    };
    assert!(build(&chain) < build(&diag));
}
