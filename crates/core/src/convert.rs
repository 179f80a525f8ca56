//! Assemble an organization from an address-sorted point stream.
//!
//! Every re-encode in the engine — consolidation, adaptive migration of a
//! single fragment, group commit, WAL replay — hands the build points in
//! nondecreasing linear-address order. Lexicographic coordinate order
//! equals row-major address order, so the sorting builds can skip their
//! sort: that is the one idea kept from Chou, Kjolstad & Amarasinghe's
//! format-conversion paper (PAPERS.md). Changing a fragment's
//! organization is a merge (which enumerates and dedups) followed by this
//! build, never a pairwise routine.

use crate::error::Result;
use crate::formats::csf::build_csf_presorted;
use crate::formats::ext::sorted_coo::build_sorted_coo_presorted;
use crate::formats::gcsr::build_gcsr_presorted;
use crate::traits::{BuildOutput, FormatKind};
use artsparse_metrics::OpCounter;
use artsparse_tensor::{CoordBuffer, Shape};

/// Build the target organization from points already in nondecreasing
/// *global* linear-address order — equivalently, lexicographic order.
///
/// The engine's merge scan and buffer snapshot yield their points in
/// canonical address order, which is exactly the order the sorting
/// builds would produce, so their sorts can be elided. Returns
/// the build plus whether a direct (sort-free) routine ran; the output is
/// byte-identical to `kind.create().build(coords, shape)` either way.
pub fn build_from_address_sorted(
    kind: FormatKind,
    coords: &CoordBuffer,
    shape: &Shape,
    counter: &OpCounter,
) -> Result<(BuildOutput, bool)> {
    match kind {
        // No sort in these builds to begin with: the rebuild is direct.
        FormatKind::Coo | FormatKind::Linear => {
            Ok((kind.create().build(coords, shape, counter)?, true))
        }
        FormatKind::SortedCoo => Ok((build_sorted_coo_presorted(coords, shape, counter)?, true)),
        FormatKind::GcsrPP => Ok((build_gcsr_presorted(coords, shape, counter)?, true)),
        FormatKind::Csf => match build_csf_presorted(coords, shape, counter)? {
            Some(built) => Ok((built, true)),
            // The boundary's dimension order permutes: address order is
            // not the tree's sort order, run the real build.
            None => Ok((kind.create().build(coords, shape, counter)?, false)),
        },
        // GCSC++ buckets by column (not address-monotone); the block
        // formats sort by block id — neither matches address order.
        _ => Ok((kind.create().build(coords, shape, counter)?, false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Shape, CoordBuffer) {
        let shape = Shape::new(vec![6, 4, 5]).unwrap();
        let coords = CoordBuffer::from_points(
            3,
            &[[0u64, 0, 1], [5, 3, 4], [2, 1, 0], [0, 3, 3], [1, 2, 2]],
        )
        .unwrap();
        (shape, coords)
    }

    #[test]
    fn build_from_address_sorted_matches_plain_build() {
        let (shape, coords) = sample();
        let c = OpCounter::new();
        // Canonical address order, as the consolidation merge produces.
        let sorted = artsparse_tensor::sort::sort_by_linear(&coords, &shape).coords;
        for kind in FormatKind::ALL {
            let (built, _direct) = build_from_address_sorted(kind, &sorted, &shape, &c).unwrap();
            let want = kind.create().build(&sorted, &shape, &c).unwrap();
            assert_eq!(built.index, want.index, "{kind} index differs");
            // A `None` map must mean the build's map was the identity.
            let raw: Vec<u64> = (0..sorted.len() as u64).collect();
            let packed = artsparse_tensor::value::pack(&raw);
            assert_eq!(
                built.reorganize_values(&packed, 8),
                want.reorganize_values(&packed, 8),
                "{kind} value order differs"
            );
        }
    }

    #[test]
    fn sort_free_kinds_are_direct_for_sorted_input() {
        let (shape, coords) = sample();
        let sorted = artsparse_tensor::sort::sort_by_linear(&coords, &shape).coords;
        let c = OpCounter::new();
        for kind in [
            FormatKind::Coo,
            FormatKind::Linear,
            FormatKind::SortedCoo,
            FormatKind::GcsrPP,
        ] {
            let (_, direct) = build_from_address_sorted(kind, &sorted, &shape, &c).unwrap();
            assert!(direct, "{kind} should skip its sort");
        }
    }
}
