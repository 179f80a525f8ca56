//! Bulk sorting of coordinate buffers with provenance maps.
//!
//! All sorting builds in the paper (GCSR++ line 12, CSF line 7) both sort
//! the coordinate buffer *and* return a `map` recording where each original
//! point went, so values can be reorganized to match. These helpers provide
//! that pattern over [`CoordBuffer`], each as one stable
//! [`argsort_by`].

use crate::coord::CoordBuffer;
use crate::permute::{argsort_by, argsort_by_key, invert_permutation};
use crate::shape::Shape;

/// Result of sorting a coordinate buffer.
#[derive(Debug, Clone)]
pub struct SortedCoords {
    /// The sorted buffer.
    pub coords: CoordBuffer,
    /// Gather permutation: sorted point `j` was original point `perm[j]`.
    pub perm: Vec<usize>,
    /// Scatter map (the paper's `map`): original point `i` is now at
    /// sorted position `map[i]`.
    pub map: Vec<usize>,
}

fn finish(coords: &CoordBuffer, perm: Vec<usize>) -> SortedCoords {
    let sorted = coords.gather(&perm);
    let map = invert_permutation(&perm);
    SortedCoords {
        coords: sorted,
        perm,
        map,
    }
}

/// Stable lexicographic sort of points (dimension 0 most significant).
///
/// CSF's build (Algorithm 2 line 7) sorts the buffer this way after
/// permuting dimensions into ascending-size order.
pub fn sort_lexicographic(coords: &CoordBuffer) -> SortedCoords {
    let perm = argsort_by(coords.len(), |a, b| coords.point(a).cmp(coords.point(b)));
    finish(coords, perm)
}

/// Stable sort of points by a single dimension (GCSR++ sorts by the first
/// dimension of the 2D remap, Algorithm 1 line 12).
pub fn sort_by_dim(coords: &CoordBuffer, dim: usize) -> SortedCoords {
    assert!(dim < coords.ndim(), "sort dimension out of range");
    let perm = argsort_by_key(coords.len(), |i| coords.point(i)[dim]);
    finish(coords, perm)
}

/// Stable sort of points by their row-major linear address in `shape`.
///
/// Algorithm 3's READ merges multi-fragment results "based on linear
/// address"; the sorted-COO extension also uses this order.
pub fn sort_by_linear(coords: &CoordBuffer, shape: &Shape) -> SortedCoords {
    debug_assert!(coords.check_against(shape).is_ok());
    let keys: Vec<u64> = coords
        .iter()
        .map(|p| shape.linearize_unchecked(p))
        .collect();
    let perm = argsort_by_key(coords.len(), |i| keys[i]);
    finish(coords, perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::is_permutation;

    fn sample() -> CoordBuffer {
        CoordBuffer::from_points(2, &[[2u64, 1], [0, 3], [2, 0], [0, 1], [1, 9]]).unwrap()
    }

    #[test]
    fn lexicographic_orders_points() {
        let s = sort_lexicographic(&sample());
        let pts: Vec<&[u64]> = s.coords.iter().collect();
        assert_eq!(
            pts,
            vec![&[0u64, 1][..], &[0, 3], &[1, 9], &[2, 0], &[2, 1]]
        );
        assert!(is_permutation(&s.perm));
        assert!(is_permutation(&s.map));
    }

    #[test]
    fn map_and_perm_are_inverse() {
        let s = sort_lexicographic(&sample());
        for (j, &i) in s.perm.iter().enumerate() {
            assert_eq!(s.map[i], j);
        }
    }

    #[test]
    fn sort_by_dim_is_stable() {
        // Two points share dim-0 value 0 and 2; original relative order of
        // equal keys must be preserved.
        let s = sort_by_dim(&sample(), 0);
        let pts: Vec<&[u64]> = s.coords.iter().collect();
        assert_eq!(
            pts,
            vec![&[0u64, 3][..], &[0, 1], &[1, 9], &[2, 1], &[2, 0]]
        );
    }

    #[test]
    fn sort_by_linear_matches_lexicographic_for_row_major() {
        let shape = Shape::new(vec![3, 10]).unwrap();
        let a = sort_by_linear(&sample(), &shape);
        let b = sort_lexicographic(&sample());
        assert_eq!(a.coords, b.coords);
    }

    #[test]
    fn empty_buffer_sorts_to_empty() {
        let empty = CoordBuffer::new(3);
        let s = sort_lexicographic(&empty);
        assert!(s.coords.is_empty());
        assert!(s.perm.is_empty());
    }
}
