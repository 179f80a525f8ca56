//! Property tests for the one "assemble from a sorted stream" entry
//! point: `build_from_address_sorted(kind, ..)` must equal
//! `kind.create().build(..)` byte-for-byte — index bytes and value order —
//! for all nine organizations, on the inputs it gets in the engine:
//! distinct points in linear-address order (the consolidation merge and
//! the buffer snapshot both dedup).

use artsparse::core::build_from_address_sorted;
use artsparse::metrics::OpCounter;
use artsparse::{CoordBuffer, FormatKind, Shape};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a shape of 1–4 dimensions, each of size 1–12, plus up to 31
/// distinct points inside it in address order.
fn sorted_tensor_strategy() -> impl Strategy<Value = (Shape, CoordBuffer)> {
    prop::collection::vec(1u64..=12, 1..=4).prop_flat_map(|dims| {
        let shape = Shape::new(dims).unwrap();
        prop::collection::vec(0..shape.volume(), 0..32).prop_map(move |addrs| {
            let distinct: BTreeSet<u64> = addrs.into_iter().collect();
            let mut coords = CoordBuffer::new(shape.ndim());
            let mut coord = vec![0u64; shape.ndim()];
            for a in distinct {
                shape.delinearize_into(a, &mut coord);
                coords.push(&coord).unwrap();
            }
            (shape.clone(), coords)
        })
    })
}

fn check_all_kinds(shape: &Shape, coords: &CoordBuffer) {
    let c = OpCounter::new();
    let raw: Vec<u64> = (0..coords.len() as u64).collect();
    let values = artsparse::tensor::value::pack(&raw);
    for kind in FormatKind::ALL {
        let (built, direct) = build_from_address_sorted(kind, coords, shape, &c).unwrap();
        let want = kind.create().build(coords, shape, &c).unwrap();
        assert_eq!(built.index, want.index, "{kind} index bytes differ");
        assert_eq!(
            built.reorganize_values(&values, 8),
            want.reorganize_values(&values, 8),
            "{kind} value order differs"
        );
        let sort_free = matches!(
            kind,
            FormatKind::Coo | FormatKind::Linear | FormatKind::SortedCoo | FormatKind::GcsrPP
        );
        assert!(direct || !sort_free, "{kind} should skip its sort");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn presorted_build_matches_plain_build((shape, coords) in sorted_tensor_strategy()) {
        check_all_kinds(&shape, &coords);
    }
}

/// Degenerate streams — empty and single-point — through every kind.
#[test]
fn empty_and_single_point_presorted_builds() {
    let shape = Shape::new(vec![7, 5, 2]).unwrap();
    for coords in [
        CoordBuffer::new(3),
        CoordBuffer::from_points(3, &[[6u64, 4, 1]]).unwrap(),
    ] {
        check_all_kinds(&shape, &coords);
    }
}
