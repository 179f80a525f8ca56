//! HiCOO-style block-compressed COO (after Li, Sun & Vuduc \[21\]).
//!
//! The paper cites HiCOO as the hierarchical COO variant it scopes out
//! ("optimized to accelerate specific applications"); this extension
//! brings the storage idea in so it can be compared: points are grouped
//! into aligned blocks of side `B ≤ 256`, each block stores its id once,
//! and every point inside stores only `d` **one-byte** local offsets.
//! For clustered data this undercuts even LINEAR (`d/8` words per point
//! vs 1), at the cost of per-block bookkeeping on scattered data.
//!
//! Index layout (sections after the common header):
//! `[block_side]`, `bptr` (`#blocks+1` offsets into the point list),
//! `block_ids` (`#blocks`, sorted ascending), `locals` (packed `n·d`
//! bytes, 8 per word).

use crate::codec::{IndexDecoder, IndexEncoder, Words};
use crate::error::{FormatError, Result};
use crate::formats::csr2d::{validate_ptr, validate_ptr_words};
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::permute::{argsort_by, invert_permutation};
use artsparse_tensor::{BlockGrid, CoordBuffer, Shape};

/// The HiCOO-style organization.
#[derive(Debug, Clone, Copy)]
pub struct HiCoo {
    /// Block side length per dimension (must be `1..=256` so offsets fit
    /// one byte).
    pub block_side: u64,
}

impl Default for HiCoo {
    fn default() -> Self {
        // 128 balances block count against intra-block scan length and is
        // HiCOO's canonical setting for byte-wide offsets.
        HiCoo { block_side: 128 }
    }
}

impl HiCoo {
    /// Construct with a custom block side (`1..=256`).
    pub fn with_block_side(block_side: u64) -> Self {
        assert!(
            (1..=256).contains(&block_side),
            "HiCOO offsets are one byte: block side must be 1..=256"
        );
        HiCoo { block_side }
    }

    fn grid_for(&self, shape: &Shape) -> Result<BlockGrid> {
        let block_dims: Vec<u64> = shape
            .dims()
            .iter()
            .map(|&m| m.min(self.block_side))
            .collect();
        BlockGrid::new(shape.dims(), &block_dims).map_err(Into::into)
    }
}

/// Pack one byte per (point, dim) local offset into u64 words.
fn pack_locals(locals: &[u8]) -> Vec<u64> {
    locals
        .chunks(8)
        .map(|chunk| {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(w)
        })
        .collect()
}

/// Bytes of local offsets an index of `n` points in `d` dimensions holds:
/// one per (point, dim). A corrupted point count can make that overflow.
fn locals_len(n: usize, d: usize) -> Result<usize> {
    n.checked_mul(d)
        .ok_or_else(|| FormatError::corrupt("n*d overflows"))
}

/// The first `n_bytes` packed local offsets of a borrowed locals section
/// — [`unpack_locals`] without the copy: [`pack_locals`] wrote the bytes
/// in order into little-endian words, so the stored bytes are the bytes.
fn packed_locals(words: Words<'_>, n_bytes: usize) -> Result<&[u8]> {
    if words.len() != n_bytes.div_ceil(8) {
        return Err(FormatError::corrupt("locals section has wrong length"));
    }
    Ok(&words.as_bytes()[..n_bytes])
}

fn unpack_locals(words: &[u64], n_bytes: usize) -> Result<Vec<u8>> {
    if words.len() != n_bytes.div_ceil(8) {
        return Err(FormatError::corrupt("locals section has wrong length"));
    }
    let mut out = Vec::with_capacity(n_bytes);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(n_bytes);
    Ok(out)
}

impl Organization for HiCoo {
    fn kind(&self) -> FormatKind {
        FormatKind::HiCoo
    }

    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        counter: &OpCounter,
    ) -> Result<BuildOutput> {
        coords.check_against(shape)?;
        let n = coords.len();
        let d = shape.ndim();
        let grid = self.grid_for(shape)?;

        // Two-level addresses for every point.
        let addrs: Vec<(u64, u64)> = coords
            .iter()
            .map(|p| {
                let a = grid.address(p).expect("validated above");
                (a.block, a.local)
            })
            .collect();
        counter.add(OpKind::Transform, n as u64);

        // Sort points by (block, local) — the HiCOO grouping.
        let mut sort_compares = 0u64;
        let perm = argsort_by(n, |a, b| {
            sort_compares += 1;
            addrs[a].cmp(&addrs[b]).then_with(|| a.cmp(&b))
        });
        counter.add(OpKind::SortCompare, sort_compares);
        let map = invert_permutation(&perm);

        // Emit per-block runs and byte-wide local offsets.
        let mut bptr: Vec<u64> = vec![0];
        let mut block_ids: Vec<u64> = Vec::new();
        let mut locals: Vec<u8> = Vec::with_capacity(n * d);
        let block_dims = grid.block_dims().to_vec();
        for (rank, &i) in perm.iter().enumerate() {
            let (block, _) = addrs[i];
            if block_ids.last() != Some(&block) {
                if !block_ids.is_empty() {
                    bptr.push(rank as u64);
                }
                block_ids.push(block);
            }
            let p = coords.point(i);
            for k in 0..d {
                locals.push((p[k] % block_dims[k]) as u8);
            }
        }
        bptr.push(n as u64);
        if block_ids.is_empty() {
            // Empty tensor: keep bptr = [0, 0] shape-compatible.
            bptr = vec![0, 0];
            block_ids = vec![0];
        }
        counter.add(OpKind::Emit, (block_ids.len() * 2 + n) as u64);

        let mut enc = IndexEncoder::new(FormatKind::HiCoo.id(), shape, n as u64);
        enc.put_section(&[self.block_side]);
        enc.put_section(&bptr);
        enc.put_section(&block_ids);
        enc.put_section(&pack_locals(&locals));
        Ok(BuildOutput {
            index: enc.finish(),
            map: Some(map),
            n_points: n,
        })
    }

    fn read(
        &self,
        index: &[u8],
        queries: &CoordBuffer,
        counter: &OpCounter,
    ) -> Result<Vec<Option<u64>>> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::HiCoo.id()))?;
        let shape = header.shape;
        let d = shape.ndim();
        if queries.ndim() != d {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: d,
                got: queries.ndim(),
            }
            .into());
        }
        let side = dec.section_exact("block side", 1)?[0];
        if !(1..=256).contains(&side) {
            return Err(FormatError::corrupt("block side out of byte range"));
        }
        // The three arrays are read in place; the byte-wide local offsets
        // are the locals section's stored bytes as they are.
        let bptr = dec.words("bptr")?;
        let nblocks = bptr.len().saturating_sub(1);
        let block_ids = dec.words_exact("block ids", nblocks.max(1))?;
        let n = header.n as usize;
        let locals_words = dec.words("locals")?;
        dec.expect_end()?;
        let locals = packed_locals(locals_words, locals_len(n, d)?)?;
        validate_ptr_words(bptr.iter(), header.n, "bptr")?;
        if block_ids.pairs().any(|(a, b)| a >= b) && header.n > 0 && nblocks > 1 {
            return Err(FormatError::corrupt("block ids not strictly sorted"));
        }
        let grid = HiCoo { block_side: side }.grid_for(&shape)?;
        let block_dims = grid.block_dims().to_vec();

        let lookup = |q: &[u64]| {
            if !shape.contains(q) {
                counter.inc(OpKind::Compare);
                return None;
            }
            let addr = grid.address(q).expect("contained");
            counter.inc(OpKind::Transform);
            // Binary-search the block, then scan its run.
            let bi = block_ids.partition_point(|b| b < addr.block);
            let mut compares = (usize::BITS - block_ids.len().leading_zeros()) as u64;
            let mut found = None;
            if bi < nblocks && block_ids.get(bi) == addr.block {
                let target: Vec<u8> = (0..d).map(|k| (q[k] % block_dims[k]) as u8).collect();
                for j in bptr.get(bi) as usize..bptr.get(bi + 1) as usize {
                    compares += 1;
                    if locals[j * d..(j + 1) * d] == target[..] {
                        found = Some(j as u64);
                        break;
                    }
                }
            }
            counter.add(OpKind::Compare, compares);
            found
        };
        Ok(queries.iter().map(lookup).collect())
    }

    fn predicted_index_words(&self, n: u64, shape: &Shape) -> u64 {
        // d bytes per point (packed 8/word) plus two words per block in
        // the worst case (every point its own block).
        let d = shape.ndim() as u64;
        (n * d).div_ceil(8) + 2 * n + 3
    }

    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::HiCoo.id()))?;
        let shape = header.shape;
        let d = shape.ndim();
        let side = dec.section_exact("block side", 1)?[0];
        if !(1..=256).contains(&side) {
            return Err(FormatError::corrupt("block side out of byte range"));
        }
        let bptr = dec.section("bptr")?;
        let nblocks = bptr.len().saturating_sub(1);
        let block_ids = dec.section_exact("block ids", nblocks.max(1))?;
        let n = header.n as usize;
        let locals_words = dec.section("locals")?;
        dec.expect_end()?;
        let locals = unpack_locals(&locals_words, locals_len(n, d)?)?;
        validate_ptr(&bptr, header.n, "bptr")?;
        let grid = HiCoo { block_side: side }.grid_for(&shape)?;

        let mut coords = CoordBuffer::with_capacity(d, n);
        for bi in 0..nblocks {
            if bptr[bi] == bptr[bi + 1] {
                continue;
            }
            let region = grid.block_region(block_ids[bi])?;
            let lo = region.lo().to_vec();
            for j in bptr[bi] as usize..bptr[bi + 1] as usize {
                let coord: Vec<u64> = (0..d).map(|k| lo[k] + locals[j * d + k] as u64).collect();
                shape.check_coord(&coord)?;
                coords.push(&coord)?;
            }
        }
        if coords.len() != n {
            return Err(FormatError::corrupt("block runs do not cover all points"));
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
        check_against_oracle(&HiCoo::default(), &shape, &coords);
    }

    #[test]
    fn tiny_blocks_roundtrip() {
        let shape = Shape::new(vec![10, 10]).unwrap();
        let coords =
            CoordBuffer::from_points(2, &[[0u64, 0], [9, 9], [4, 5], [5, 4], [3, 3], [4, 5]])
                .unwrap();
        check_against_oracle(&HiCoo::with_block_side(3), &shape, &coords);
    }

    #[test]
    fn clustered_data_beats_linear_space() {
        // All points inside one 128-block: HiCOO stores d bytes per point,
        // LINEAR stores 8.
        let shape = Shape::new(vec![1024, 1024, 1024]).unwrap();
        let pts: Vec<[u64; 3]> = (0..500u64)
            .map(|k| [k % 100, (k * 7) % 100, (k * 13) % 100])
            .collect();
        let coords = CoordBuffer::from_points(3, &pts).unwrap();
        let c = OpCounter::new();
        let hicoo = HiCoo::default().build(&coords, &shape, &c).unwrap();
        let linear = crate::formats::linear::Linear
            .build(&coords, &shape, &c)
            .unwrap();
        assert!(
            hicoo.index.len() * 2 < linear.index.len(),
            "HiCOO {} vs LINEAR {}",
            hicoo.index.len(),
            linear.index.len()
        );
    }

    #[test]
    fn map_sorts_by_block_then_local() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        // Block side 4: blocks are 2×2 grid. Points in blocks 3, 0, 0.
        let coords = CoordBuffer::from_points(2, &[[7u64, 7], [0, 1], [0, 0]]).unwrap();
        let c = OpCounter::new();
        let out = HiCoo::with_block_side(4)
            .build(&coords, &shape, &c)
            .unwrap();
        // Sorted order: (0,0), (0,1), (7,7) → original 2, 1, 0.
        assert_eq!(out.map, Some(vec![2, 1, 0]));
    }

    #[test]
    fn reads_scan_only_one_block() {
        let shape = Shape::new(vec![16, 16]).unwrap();
        let mut pts = Vec::new();
        for k in 0..8u64 {
            pts.push([k, k]); // block (0,0) with side 8
        }
        pts.push([15, 15]); // far block
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        let c = OpCounter::new();
        let out = HiCoo::with_block_side(8)
            .build(&coords, &shape, &c)
            .unwrap();
        c.reset();
        let q = CoordBuffer::from_points(2, &[[14u64, 14]]).unwrap();
        assert_eq!(
            HiCoo::with_block_side(8).read(&out.index, &q, &c).unwrap(),
            vec![None]
        );
        // One block's single point scanned (plus the binary search).
        assert!(c.snapshot().compares < 6);
    }

    #[test]
    fn enumerate_reconstructs_points() {
        let shape = Shape::new(vec![20, 20]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[19u64, 0], [0, 19], [10, 10], [3, 7]]).unwrap();
        let c = OpCounter::new();
        let h = HiCoo::with_block_side(6);
        let out = h.build(&coords, &shape, &c).unwrap();
        let listed = h.enumerate(&out.index, &c).unwrap();
        let map = out.map.unwrap();
        for (i, p) in coords.iter().enumerate() {
            assert_eq!(listed.point(map[i]), p);
        }
    }

    #[test]
    fn empty_tensor_roundtrip() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let c = OpCounter::new();
        let h = HiCoo::default();
        let out = h.build(&CoordBuffer::new(2), &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[1u64, 1]]).unwrap();
        assert_eq!(h.read(&out.index, &q, &c).unwrap(), vec![None]);
        assert!(h.enumerate(&out.index, &c).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "1..=256")]
    fn oversized_block_side_panics() {
        HiCoo::with_block_side(257);
    }

    #[test]
    fn locals_packing_roundtrip() {
        for len in [0usize, 1, 7, 8, 9, 17] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let words = pack_locals(&bytes);
            assert_eq!(unpack_locals(&words, len).unwrap(), bytes);
        }
        assert!(unpack_locals(&[0], 9).is_err());
    }
}
