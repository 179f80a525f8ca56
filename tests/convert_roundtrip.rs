//! Property tests for the direct format-to-format conversion layer:
//! `convert(A→B)` must equal the decode-to-COO-and-rebuild oracle
//! byte-for-byte — index bytes and value order — for every ordered pair
//! of organizations.

use artsparse::core::convert::convert;
use artsparse::core::BuildOutput;
use artsparse::metrics::OpCounter;
use artsparse::tensor::permute::scatter_bytes;
use artsparse::{CoordBuffer, FormatKind, Shape};
use proptest::prelude::*;

/// Strategy: a small shape of 1–4 dimensions, each of size 1–12.
fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1u64..=12, 1..=4).prop_map(|dims| Shape::new(dims).unwrap())
}

/// Strategy: a shape plus up to `max_points` points inside it
/// (duplicates allowed — conversion must preserve them).
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

/// The oracle every conversion must match: enumerate the source index
/// back to coordinates (slot order) and rebuild the target from scratch.
fn oracle(from: FormatKind, index: &[u8], to: FormatKind, shape: &Shape) -> BuildOutput {
    let c = OpCounter::new();
    let coords = from.create().enumerate(index, &c).unwrap();
    to.create().build(&coords, shape, &c).unwrap()
}

/// Check one ordered pair: identical index bytes and identical value
/// payload after applying the slot maps.
fn check_pair(from: FormatKind, to: FormatKind, shape: &Shape, coords: &CoordBuffer) {
    let c = OpCounter::new();
    let src = from.create().build(coords, shape, &c).unwrap();
    let raw: Vec<u64> = (0..coords.len() as u64).collect();
    let packed = artsparse::tensor::value::pack(&raw);
    let src_values = src.reorganize_values(&packed, 8);

    let conv = convert(from, &src.index, to, shape, &c).unwrap();
    let want = oracle(from, &src.index, to, shape);
    assert_eq!(conv.index, want.index, "{from}→{to} index bytes differ");
    assert_eq!(conv.n_points, want.n_points, "{from}→{to} n differs");
    let got_values = match &conv.map {
        Some(map) => scatter_bytes(&src_values, 8, map),
        None => src_values.clone(),
    };
    let want_values = want.reorganize_values(&src_values, 8);
    assert_eq!(got_values, want_values, "{from}→{to} value order differs");
}

fn check_all_pairs(shape: &Shape, coords: &CoordBuffer) {
    for from in FormatKind::ALL {
        for to in FormatKind::ALL {
            check_pair(from, to, shape, coords);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every ordered pair.
    #[test]
    fn convert_matches_rebuild_sequential((shape, coords) in tensor_strategy(32)) {
        check_all_pairs(&shape, &coords);
    }
}

/// Degenerate fragments — empty and single-point — through every pair.
#[test]
fn empty_and_single_point_fragments_all_pairs() {
    let shape = Shape::new(vec![7, 5, 2]).unwrap();
    for coords in [
        CoordBuffer::new(3),
        CoordBuffer::from_points(3, &[[6u64, 4, 1]]).unwrap(),
    ] {
        check_all_pairs(&shape, &coords);
    }
}
