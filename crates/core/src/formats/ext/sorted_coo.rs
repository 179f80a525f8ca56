//! Sorted COO — the trade-off variant of §II.A, realized.
//!
//! The paper notes that sorting the coordinate list "can reduce the
//! complexity of read … but it may take extra time: O(n log n) to sort
//! before write", and evaluates only the unsorted version. This extension
//! implements the sorted variant so the ablation benches can quantify that
//! trade-off: build sorts by linear address (and therefore must return a
//! `map`), reads binary-search in `O(log n)` per query.

use crate::codec::{IndexDecoder, IndexEncoder};
use crate::error::{FormatError, Result};
use crate::formats::{check_scan_region, lowest_slot_per_cell};
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::permute::{argsort_by, invert_permutation};
use artsparse_tensor::{CoordBuffer, Region, Shape};

/// COO sorted by row-major linear address.
#[derive(Debug, Clone, Copy, Default)]
pub struct SortedCoo;

/// Build sorted COO from points already in nondecreasing linear-address
/// order — the presorted entry used by [`crate::convert`]. The
/// sort would be the identity, so it is skipped; byte-identical to
/// [`SortedCoo::build`] (`map` omitted: it would be the identity).
pub(crate) fn build_sorted_coo_presorted(
    coords: &CoordBuffer,
    shape: &Shape,
    counter: &OpCounter,
) -> Result<BuildOutput> {
    let n = coords.len();
    let addrs = coords.linearize_all(shape)?;
    counter.add(OpKind::Transform, n as u64);
    debug_assert!(
        addrs.windows(2).all(|w| w[0] <= w[1]),
        "input not address-sorted"
    );
    counter.add(OpKind::Emit, n as u64);
    let mut enc = IndexEncoder::new(FormatKind::SortedCoo.id(), shape, n as u64);
    enc.put_section(&addrs);
    Ok(BuildOutput {
        index: enc.finish(),
        map: None,
        n_points: n,
    })
}

impl Organization for SortedCoo {
    fn kind(&self) -> FormatKind {
        FormatKind::SortedCoo
    }

    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        counter: &OpCounter,
    ) -> Result<BuildOutput> {
        let n = coords.len();
        let addrs = coords.linearize_all(shape)?;
        counter.add(OpKind::Transform, n as u64);

        let mut sort_compares = 0u64;
        let perm = argsort_by(n, |a, b| {
            sort_compares += 1;
            addrs[a].cmp(&addrs[b]).then_with(|| a.cmp(&b))
        });
        counter.add(OpKind::SortCompare, sort_compares);

        let sorted: Vec<u64> = perm.iter().map(|&i| addrs[i]).collect();
        counter.add(OpKind::Emit, n as u64);
        let mut enc = IndexEncoder::new(FormatKind::SortedCoo.id(), shape, n as u64);
        enc.put_section(&sorted);
        Ok(BuildOutput {
            index: enc.finish(),
            map: Some(invert_permutation(&perm)),
            n_points: n,
        })
    }

    fn read(
        &self,
        index: &[u8],
        queries: &CoordBuffer,
        counter: &OpCounter,
    ) -> Result<Vec<Option<u64>>> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::SortedCoo.id()))?;
        let addrs = dec.words_exact("addresses", header.n as usize)?;
        dec.expect_end()?;
        if addrs.pairs().any(|(a, b)| a > b) {
            return Err(FormatError::corrupt("sorted-COO addresses not sorted"));
        }
        let shape = header.shape;
        if queries.ndim() != shape.ndim() {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: shape.ndim(),
                got: queries.ndim(),
            }
            .into());
        }
        let lookup = |q: &[u64]| {
            if !shape.contains(q) {
                counter.inc(OpKind::Compare);
                return None;
            }
            let target = shape.linearize_unchecked(q);
            counter.inc(OpKind::Transform);
            let pos = addrs.partition_point(|a| a < target);
            // log2(n)+1 comparisons for the search plus the verify.
            counter.add(
                OpKind::Compare,
                (usize::BITS - addrs.len().leading_zeros()) as u64 + 1,
            );
            if pos < addrs.len() && addrs.get(pos) == target {
                Some(pos as u64)
            } else {
                None
            }
        };
        Ok(queries.iter().map(lookup).collect())
    }

    /// The box is a set of address runs, one per row of it, and the list
    /// is sorted: walk the stored addresses from the box's first cell,
    /// and whenever one falls between two runs binary-search ahead to the
    /// next run's start. At most one search per run and per gap.
    fn scan(
        &self,
        index: &[u8],
        region: &Region,
        counter: &OpCounter,
    ) -> Result<Vec<(usize, u64)>> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::SortedCoo.id()))?;
        let addrs = dec.words_exact("addresses", header.n as usize)?;
        dec.expect_end()?;
        if addrs.pairs().any(|(a, b)| a > b) {
            return Err(FormatError::corrupt("sorted-COO addresses not sorted"));
        }
        let shape = header.shape;
        check_scan_region(region, shape.ndim())?;
        let Some(inside) = region.within(&shape) else {
            return Ok(Vec::new());
        };
        let end = shape.linearize_unchecked(inside.hi());
        let search_compares = (usize::BITS - addrs.len().leading_zeros()) as u64;

        let mut matches = Vec::new();
        let mut coord = vec![0u64; shape.ndim()];
        let (mut compares, mut transforms) = (search_compares, 0u64);
        let mut at = addrs.partition_point(|a| a < shape.linearize_unchecked(inside.lo()));
        while at < addrs.len() && addrs.get(at) <= end {
            compares += 1;
            transforms += 1;
            shape.delinearize_into(addrs.get(at), &mut coord);
            if inside.contains(&coord) {
                matches.push((region.rank(&coord) as usize, at as u64));
                at += 1;
            } else if next_cell_inside(&inside, &mut coord) {
                let target = shape.linearize_unchecked(&coord);
                at += addrs.slice(at, addrs.len()).partition_point(|a| a < target);
                compares += search_compares;
            } else {
                break;
            }
        }
        counter.add(OpKind::Compare, compares);
        counter.add(OpKind::Transform, transforms);
        Ok(lowest_slot_per_cell(matches))
    }

    fn predicted_index_words(&self, n: u64, _shape: &Shape) -> u64 {
        n
    }

    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::SortedCoo.id()))?;
        let addrs = dec.section_exact("addresses", header.n as usize)?;
        dec.expect_end()?;
        let shape = header.shape;
        let volume = shape.volume();
        let mut coords = CoordBuffer::with_capacity(shape.ndim(), addrs.len());
        let mut coord = vec![0u64; shape.ndim()];
        for &a in &addrs {
            if a >= volume {
                return Err(
                    artsparse_tensor::TensorError::LinearOutOfBounds { addr: a, volume }.into(),
                );
            }
            shape.delinearize_into(a, &mut coord);
            coords.push(&coord)?;
        }
        counter.add(OpKind::Transform, addrs.len() as u64);
        Ok(coords)
    }
}

/// Advance `coord`, a cell outside `inside`, to the first cell of
/// `inside` after it in row-major order; `false` when there is none.
fn next_cell_inside(inside: &Region, coord: &mut [u64]) -> bool {
    let (lo, hi) = (inside.lo(), inside.hi());
    // The first dimension that leaves the box decides: below it, the box
    // resumes in this very row; above it, in the next row of an earlier
    // dimension that still has one.
    let Some(out) = (0..coord.len()).find(|&k| coord[k] < lo[k] || coord[k] > hi[k]) else {
        return true;
    };
    let from = if coord[out] < lo[out] {
        out
    } else {
        let Some(carry) = (0..out).rev().find(|&k| coord[k] < hi[k]) else {
            return false;
        };
        coord[carry] += 1;
        carry + 1
    };
    coord[from..].copy_from_slice(&lo[from..]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::testutil::{check_against_oracle, fig1};

    #[test]
    fn fig1_roundtrip_against_oracle() {
        let (shape, coords) = fig1();
        check_against_oracle(&SortedCoo, &shape, &coords);
    }

    #[test]
    fn shuffled_input_roundtrips() {
        let shape = Shape::new(vec![16, 16]).unwrap();
        let coords =
            CoordBuffer::from_points(2, &[[9u64, 9], [0, 0], [5, 5], [0, 15], [15, 0]]).unwrap();
        check_against_oracle(&SortedCoo, &shape, &coords);
    }

    #[test]
    fn map_sorts_values_by_address() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        // Addresses: 10, 2, 7 → sorted order is points 1, 2, 0.
        let coords = CoordBuffer::from_points(2, &[[2u64, 2], [0, 2], [1, 3]]).unwrap();
        let c = OpCounter::new();
        let out = SortedCoo.build(&coords, &shape, &c).unwrap();
        assert_eq!(out.map, Some(vec![2, 0, 1]));
    }

    #[test]
    fn read_is_logarithmic_not_linear() {
        let shape = Shape::new(vec![1 << 16]).unwrap();
        let pts: Vec<[u64; 1]> = (0..1024u64).map(|k| [k * 7]).collect();
        let coords = CoordBuffer::from_points(1, &pts).unwrap();
        let c = OpCounter::new();
        let out = SortedCoo.build(&coords, &shape, &c).unwrap();
        c.reset();
        let q = CoordBuffer::from_points(1, &[[7u64 * 500]]).unwrap();
        assert_eq!(SortedCoo.read(&out.index, &q, &c).unwrap(), vec![Some(500)]);
        // Far below the 1024 compares an unsorted scan would need.
        assert!(c.snapshot().compares <= 16);
    }

    #[test]
    fn unsorted_index_detected_as_corrupt() {
        let shape = Shape::new(vec![8]).unwrap();
        let mut enc = IndexEncoder::new(FormatKind::SortedCoo.id(), &shape, 2);
        enc.put_section(&[5, 3]);
        let q = CoordBuffer::from_points(1, &[[3u64]]).unwrap();
        let c = OpCounter::new();
        assert!(matches!(
            SortedCoo.read(&enc.finish(), &q, &c),
            Err(FormatError::Corrupt { .. })
        ));
    }
}
