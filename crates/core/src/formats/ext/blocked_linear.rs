//! Blocked LINEAR — the overflow mitigation of §II.B, realized.
//!
//! LINEAR's risk is "the overflow of linear address when converting a
//! multiple dimensional coordinate for an extremely large tensor into a
//! single value"; the paper's practical fix is to "break large tensors
//! into small blocks" and linearize against each block's local boundary.
//! This extension stores each point as a sorted `(block id, local
//! address)` pair over a [`BlockGrid`] — both components fit in `u64`
//! even when the flat address space does not. Reads binary-search the
//! pair list.
//!
//! Two entry points exist: the [`Organization`] impl (for tensors whose
//! [`Shape`] is representable, so it can be benchmarked against the paper
//! five) and [`BlockedLinear::build_raw`]/[`BlockedLinear::read_raw`]
//! which accept raw dimension slices and therefore handle tensors whose
//! flat volume overflows `u64` — the very case LINEAR cannot store.

use crate::codec::{IndexDecoder, IndexEncoder};
use crate::error::{FormatError, Result};
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::permute::{argsort_by, invert_permutation};
use artsparse_tensor::{BlockGrid, CoordBuffer, Shape};

/// LINEAR over a block grid.
#[derive(Debug, Clone, Copy)]
pub struct BlockedLinear {
    /// Maximum block side length per dimension.
    pub block_side: u64,
}

impl Default for BlockedLinear {
    fn default() -> Self {
        // 1024 keeps any 4D block interior comfortably addressable.
        BlockedLinear { block_side: 1024 }
    }
}

impl BlockedLinear {
    /// Construct with a custom block side.
    pub fn with_block_side(block_side: u64) -> Self {
        assert!(block_side > 0, "block side must be positive");
        BlockedLinear { block_side }
    }

    fn grid_for(&self, global_dims: &[u64]) -> Result<BlockGrid> {
        let block_dims: Vec<u64> = global_dims
            .iter()
            .map(|&m| m.min(self.block_side))
            .collect();
        BlockGrid::new(global_dims, &block_dims).map_err(Into::into)
    }

    /// Build from raw dimension sizes — works even when
    /// `Π global_dims > u64::MAX`.
    pub fn build_raw(
        &self,
        coords: &CoordBuffer,
        global_dims: &[u64],
        counter: &OpCounter,
    ) -> Result<BuildOutput> {
        let grid = self.grid_for(global_dims)?;
        let n = coords.len();
        if coords.ndim() != grid.ndim() {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: grid.ndim(),
                got: coords.ndim(),
            }
            .into());
        }
        let mut pairs = Vec::with_capacity(n);
        for p in coords.iter() {
            let a = grid.address(p)?;
            pairs.push((a.block, a.local));
        }
        counter.add(OpKind::Transform, n as u64);

        let mut sort_compares = 0u64;
        let perm = argsort_by(n, |a, b| {
            sort_compares += 1;
            pairs[a].cmp(&pairs[b]).then_with(|| a.cmp(&b))
        });
        counter.add(OpKind::SortCompare, sort_compares);

        let blocks: Vec<u64> = perm.iter().map(|&i| pairs[i].0).collect();
        let locals: Vec<u64> = perm.iter().map(|&i| pairs[i].1).collect();
        counter.add(OpKind::Emit, 2 * n as u64);

        // The header shape records the *grid* (always representable); the
        // true global and block dims ride in dedicated sections.
        let grid_shape = Shape::new(grid.grid_dims().to_vec())?;
        let mut enc = IndexEncoder::new(FormatKind::BlockedLinear.id(), &grid_shape, n as u64);
        enc.put_section(global_dims);
        enc.put_section(grid.block_dims());
        enc.put_section(&blocks);
        enc.put_section(&locals);
        Ok(BuildOutput {
            index: enc.finish(),
            map: Some(invert_permutation(&perm)),
            n_points: n,
        })
    }

    /// Read from an index built by [`BlockedLinear::build_raw`].
    pub fn read_raw(
        &self,
        index: &[u8],
        queries: &CoordBuffer,
        counter: &OpCounter,
    ) -> Result<Vec<Option<u64>>> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::BlockedLinear.id()))?;
        let d = header.shape.ndim();
        let global_dims = dec.section_exact("global dims", d)?;
        let block_dims = dec.section_exact("block dims", d)?;
        let n = header.n as usize;
        // The two per-point arrays are searched in place.
        let blocks = dec.words_exact("block ids", n)?;
        let locals = dec.words_exact("local addrs", n)?;
        dec.expect_end()?;
        let grid = BlockGrid::new(&global_dims, &block_dims)?;
        if grid.grid_dims() != header.shape.dims() {
            return Err(FormatError::corrupt("grid dims disagree with header shape"));
        }
        if queries.ndim() != d {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: d,
                got: queries.ndim(),
            }
            .into());
        }
        let pair_at = |i: usize| (blocks.get(i), locals.get(i));
        if (1..n).any(|i| pair_at(i - 1) > pair_at(i)) {
            return Err(FormatError::corrupt("blocked-LINEAR pairs not sorted"));
        }

        let lookup = |q: &[u64]| {
            let addr = match grid.address(q) {
                Ok(a) => a,
                Err(_) => {
                    counter.inc(OpKind::Compare);
                    return None;
                }
            };
            counter.inc(OpKind::Transform);
            let target = (addr.block, addr.local);
            let mut lo = 0usize;
            let mut hi = n;
            let mut compares = 0u64;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                compares += 1;
                if pair_at(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let found = if lo < n {
                compares += 1;
                (pair_at(lo) == target).then_some(lo as u64)
            } else {
                None
            };
            counter.add(OpKind::Compare, compares);
            found
        };
        Ok(queries.iter().map(lookup).collect())
    }
}

impl Organization for BlockedLinear {
    fn kind(&self) -> FormatKind {
        FormatKind::BlockedLinear
    }

    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        counter: &OpCounter,
    ) -> Result<BuildOutput> {
        coords.check_against(shape)?;
        self.build_raw(coords, shape.dims(), counter)
    }

    fn read(
        &self,
        index: &[u8],
        queries: &CoordBuffer,
        counter: &OpCounter,
    ) -> Result<Vec<Option<u64>>> {
        self.read_raw(index, queries, counter)
    }

    fn predicted_index_words(&self, n: u64, shape: &Shape) -> u64 {
        // (block, local) per point plus the two dimension vectors.
        2 * n + 2 * shape.ndim() as u64
    }

    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::BlockedLinear.id()))?;
        let d = header.shape.ndim();
        let global_dims = dec.section_exact("global dims", d)?;
        let block_dims = dec.section_exact("block dims", d)?;
        let n = header.n as usize;
        let blocks = dec.section_exact("block ids", n)?;
        let locals = dec.section_exact("local addrs", n)?;
        dec.expect_end()?;
        let grid = BlockGrid::new(&global_dims, &block_dims)?;
        let mut coords = CoordBuffer::with_capacity(d, n);
        for (&block, &local) in blocks.iter().zip(&locals) {
            let c = grid.coordinate(artsparse_tensor::BlockAddr { block, local })?;
            coords.push(&c)?;
        }
        counter.add(OpKind::Transform, n as u64);
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
        check_against_oracle(&BlockedLinear::default(), &shape, &coords);
    }

    #[test]
    fn tiny_blocks_roundtrip() {
        let shape = Shape::new(vec![10, 10]).unwrap();
        let coords =
            CoordBuffer::from_points(2, &[[0u64, 0], [9, 9], [4, 5], [5, 4], [3, 3]]).unwrap();
        check_against_oracle(&BlockedLinear::with_block_side(3), &shape, &coords);
    }

    #[test]
    fn handles_overflowing_tensor() {
        // 2^40 × 2^40 = 2^80 cells: Shape (and therefore LINEAR) must
        // reject this, blocked LINEAR must store and find the points.
        let big = 1u64 << 40;
        let dims = vec![big, big];
        assert!(Shape::new(dims.clone()).is_err());

        let bl = BlockedLinear::with_block_side(1 << 20);
        let coords =
            CoordBuffer::from_points(2, &[[0u64, 0], [big - 1, big - 1], [123_456_789_012, 42]])
                .unwrap();
        let c = OpCounter::new();
        let out = bl.build_raw(&coords, &dims, &c).unwrap();
        let queries = CoordBuffer::from_points(
            2,
            &[[big - 1, big - 1], [0, 0], [123_456_789_012, 42], [7, 7]],
        )
        .unwrap();
        let slots = bl.read_raw(&out.index, &queries, &c).unwrap();
        assert!(slots[0].is_some());
        assert!(slots[1].is_some());
        assert!(slots[2].is_some());
        assert_eq!(slots[3], None);
        // Verify the value mapping: values follow the map.
        let vals: Vec<u64> = vec![10, 20, 30];
        let payload = artsparse_tensor::value::pack(&vals);
        let reorg = out.reorganize_values(&payload, 8);
        let rv = artsparse_tensor::value::unpack::<u64>(&reorg).unwrap();
        assert_eq!(rv[slots[0].unwrap() as usize], 20);
        assert_eq!(rv[slots[1].unwrap() as usize], 10);
        assert_eq!(rv[slots[2].unwrap() as usize], 30);
    }

    #[test]
    fn out_of_bounds_query_is_clean_miss() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[1u64, 1]]).unwrap();
        let bl = BlockedLinear::default();
        let c = OpCounter::new();
        let out = bl.build(&coords, &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[100u64, 100]]).unwrap();
        assert_eq!(bl.read(&out.index, &q, &c).unwrap(), vec![None]);
    }

    #[test]
    fn corrupt_unsorted_pairs_rejected() {
        let shape = Shape::new(vec![8]).unwrap();
        let bl = BlockedLinear::with_block_side(4);
        let mut enc = IndexEncoder::new(
            FormatKind::BlockedLinear.id(),
            &Shape::new(vec![2]).unwrap(),
            2,
        );
        enc.put_section(&[8]); // global dims
        enc.put_section(&[4]); // block dims
        enc.put_section(&[1, 0]); // blocks, out of order
        enc.put_section(&[0, 0]); // locals
        let q = CoordBuffer::from_points(1, &[[1u64]]).unwrap();
        let c = OpCounter::new();
        assert!(bl.read_raw(&enc.finish(), &q, &c).is_err());
        let _ = shape;
    }

    #[test]
    #[should_panic(expected = "block side must be positive")]
    fn zero_block_side_panics() {
        BlockedLinear::with_block_side(0);
    }
}
