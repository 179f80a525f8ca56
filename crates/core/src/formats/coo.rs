//! COO — the unsorted coordinate-list baseline (§II.A).
//!
//! Because the paper assumes the input already *is* an unsorted coordinate
//! vector, building COO costs `O(1)` algorithmic work: the coordinates are
//! serialized as-is and no `map` is produced. Reading is the price: every
//! query scans the whole list, `O(n · n_read)`. Space is `O(d · n)` words —
//! the baseline every other organization is trying to beat (the paper's
//! "potential reduction in storage space can be as much as O(d) times").

use crate::codec::{IndexDecoder, IndexEncoder};
use crate::error::Result;
use crate::formats::{check_scan_region, lowest_slot_per_cell};
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::{CoordBuffer, Region, Shape};

/// The COO organization.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coo;

impl Organization for Coo {
    fn kind(&self) -> FormatKind {
        FormatKind::Coo
    }

    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        _counter: &OpCounter,
    ) -> Result<BuildOutput> {
        coords.check_against(shape)?;
        let n = coords.len();
        // O(1) build: the input verbatim is the organization. The copy into
        // the index buffer is serialization cost, charged to the Write
        // phase by the engine — no abstract ops are counted here, matching
        // Table I (and Table III's measured Build time of 0 for COO).
        Ok(BuildOutput {
            index: IndexEncoder::encode(FormatKind::Coo.id(), shape, n as u64, &[coords.as_flat()]),
            map: None,
            n_points: n,
        })
    }

    fn read(
        &self,
        index: &[u8],
        queries: &CoordBuffer,
        counter: &OpCounter,
    ) -> Result<Vec<Option<u64>>> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::Coo.id()))?;
        let d = header.shape.ndim();
        if queries.ndim() != d {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: d,
                got: queries.ndim(),
            }
            .into());
        }
        let n = header.n as usize;
        let flat = dec.words_exact(
            "coords",
            n.checked_mul(d)
                .ok_or_else(|| crate::error::FormatError::corrupt("n*d overflows"))?,
        )?;
        dec.expect_end()?;
        // The stored coordinates are little-endian words; encode the
        // queries the same way once, and every comparison is a byte
        // compare in place.
        let stored = flat.as_bytes();
        let encoded: Vec<u8> = queries
            .as_flat()
            .iter()
            .flat_map(|c| c.to_le_bytes())
            .collect();

        // Every query performs a full linear scan (no sorting, §II.A),
        // stopping at the first match.
        let scan = |q: &[u8]| {
            // One coordinate comparison per stored point: the first
            // dimension as one inlined word compare (it settles nearly
            // every mismatch), the rest only behind a first-dimension
            // match.
            let first: [u8; 8] = q[..8].try_into().expect("d >= 1");
            let mut compares = 0u64;
            let mut found = None;
            for (j, p) in stored.chunks_exact(d * 8).enumerate() {
                compares += 1;
                if p[..8] == first && p[8..] == q[8..] {
                    found = Some(j as u64);
                    break;
                }
            }
            counter.add(OpKind::Compare, compares);
            found
        };
        Ok(encoded.chunks_exact(d * 8).map(scan).collect())
    }

    /// One pass over the list: `n` coordinate comparisons whatever the
    /// region's size, against `read`'s `n` per cell.
    fn scan(
        &self,
        index: &[u8],
        region: &Region,
        counter: &OpCounter,
    ) -> Result<Vec<(usize, u64)>> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::Coo.id()))?;
        let d = header.shape.ndim();
        check_scan_region(region, d)?;
        let n = header.n as usize;
        let flat = dec.words_exact(
            "coords",
            n.checked_mul(d)
                .ok_or_else(|| crate::error::FormatError::corrupt("n*d overflows"))?,
        )?;
        dec.expect_end()?;

        // Per dimension the box's lower corner and its extent: one
        // wrapping subtract and one compare settle `lo <= c <= hi`, and
        // the difference is the coordinate's digit of the cell's rank.
        let (lo, hi) = (region.lo(), region.hi());
        let spans: Vec<u64> = lo.iter().zip(hi).map(|(l, h)| h - l).collect();
        let mut matches = Vec::new();
        'points: for (j, p) in flat.as_bytes().chunks_exact(d * 8).enumerate() {
            let mut rank = 0u64;
            for (k, word) in p.chunks_exact(8).enumerate() {
                let c = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                let offset = c.wrapping_sub(lo[k]);
                if offset > spans[k] {
                    continue 'points;
                }
                rank = rank * (spans[k] + 1) + offset;
            }
            matches.push((rank as usize, j as u64));
        }
        counter.add(OpKind::Compare, n as u64);
        Ok(lowest_slot_per_cell(matches))
    }

    fn predicted_index_words(&self, n: u64, shape: &Shape) -> u64 {
        // Table I: O(n × d).
        n * shape.ndim() as u64
    }

    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::Coo.id()))?;
        let d = header.shape.ndim();
        let flat = dec.section_exact(
            "coords",
            (header.n as usize)
                .checked_mul(d)
                .ok_or_else(|| crate::error::FormatError::corrupt("n*d overflows"))?,
        )?;
        dec.expect_end()?;
        let coords = CoordBuffer::from_flat(d, flat)?;
        coords.check_against(&header.shape)?;
        counter.add(OpKind::Emit, header.n);
        Ok(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::testutil::{check_against_oracle, fig1};

    #[test]
    fn fig1_roundtrip_against_oracle() {
        let (shape, coords) = fig1();
        check_against_oracle(&Coo, &shape, &coords);
    }

    #[test]
    fn build_is_identity_order() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Coo.build(&coords, &shape, &c).unwrap();
        assert!(out.map.is_none());
        assert_eq!(out.n_points, 5);
    }

    #[test]
    fn read_returns_first_duplicate() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[1u64, 1], [2, 2], [1, 1]]).unwrap();
        let c = OpCounter::new();
        let out = Coo.build(&coords, &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[1u64, 1]]).unwrap();
        let slots = Coo.read(&out.index, &q, &c).unwrap();
        assert_eq!(slots, vec![Some(0)]);
    }

    #[test]
    fn read_cost_scales_with_n_times_nread() {
        // Miss queries must scan the entire list: compares == n per query.
        let shape = Shape::new(vec![100]).unwrap();
        let coords = CoordBuffer::from_points(1, &[[0u64], [1], [2], [3]]).unwrap();
        let c = OpCounter::new();
        let out = Coo.build(&coords, &shape, &c).unwrap();
        let queries = CoordBuffer::from_points(1, &[[50u64], [60], [70]]).unwrap();
        c.reset();
        let slots = Coo.read(&out.index, &queries, &c).unwrap();
        assert!(slots.iter().all(Option::is_none));
        assert_eq!(c.snapshot().compares, 4 * 3);
    }

    #[test]
    fn build_rejects_out_of_bounds() {
        let shape = Shape::new(vec![2, 2]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[2u64, 0]]).unwrap();
        let c = OpCounter::new();
        assert!(Coo.build(&coords, &shape, &c).is_err());
    }

    #[test]
    fn read_rejects_arity_mismatch() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Coo.build(&coords, &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[0u64, 0]]).unwrap();
        assert!(Coo.read(&out.index, &q, &c).is_err());
    }

    #[test]
    fn empty_tensor_build_and_read() {
        let shape = Shape::new(vec![5, 5]).unwrap();
        let coords = CoordBuffer::new(2);
        let c = OpCounter::new();
        let out = Coo.build(&coords, &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[0u64, 0]]).unwrap();
        assert_eq!(Coo.read(&out.index, &q, &c).unwrap(), vec![None]);
    }

    #[test]
    fn space_model_matches_table1() {
        let shape = Shape::cube(4, 16).unwrap();
        assert_eq!(Coo.predicted_index_words(100, &shape), 400);
    }

    #[test]
    fn index_words_match_prediction_exactly() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Coo.build(&coords, &shape, &c).unwrap();
        let header = crate::codec::FIXED_HEADER_BYTES + 3 * 8; // + shape dims
        let payload_words = (out.index.len() - header - 8) / 8; // - section len
        assert_eq!(payload_words as u64, Coo.predicted_index_words(5, &shape));
    }
}
