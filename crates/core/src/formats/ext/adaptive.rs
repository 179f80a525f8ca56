//! ADAPTIVE — per-block bitmap/offset-list hybrid.
//!
//! The paper's MSP pattern (dense region amid scatter, §III) is exactly
//! the case where *one* organization is wrong for the whole tensor: the
//! dense block wants a bitmap (no per-point coordinates at all), the
//! scatter wants an offset list. This extension partitions the tensor
//! into aligned blocks of side 8 and picks, per block, whichever encoding
//! is smaller:
//!
//! * **list** blocks store one byte-packed local offset tuple per point
//!   (ascending local address, binary-searchable);
//! * **bitmap** blocks store one bit per cell of the block
//!   (`volume/64` words); rank (popcount-prefix) recovers the value slot.
//!
//! Slot order is `(block id, local address)` ascending for both
//! encodings, so the `map` is a single sort. The paper's own conclusion
//! points here: "automatic strategies for selecting different
//! organization … based on the characterization of sparsity" (§VI) — this
//! format applies that selection at block granularity.

use crate::codec::{IndexDecoder, IndexEncoder};
use crate::error::{FormatError, Result};
use crate::formats::csr2d::validate_ptr;
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::permute::{argsort_by, invert_permutation};
use artsparse_tensor::{BlockGrid, CoordBuffer, Shape};

/// Fixed block side: small enough that any ≤8-D block's bitmap stays
/// cache-resident (8⁴ bits = 512 B) and local offsets fit one byte.
const SIDE: u64 = 8;

/// Block encoding discriminants stored in the index.
const ENC_LIST: u64 = 0;
const ENC_BITMAP: u64 = 1;

/// The adaptive hybrid organization.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adaptive;

fn grid_for(shape: &Shape) -> Result<BlockGrid> {
    let block_dims: Vec<u64> = shape.dims().iter().map(|&m| m.min(SIDE)).collect();
    BlockGrid::new(shape.dims(), &block_dims).map_err(Into::into)
}

/// Words needed for one block's bitmap.
fn bitmap_words(block_volume: u64) -> usize {
    (block_volume as usize).div_ceil(64)
}

/// Pack one byte per (point, dim) offset into words (shared with HiCOO's
/// layout rationale).
fn pack_bytes(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|chunk| {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(w)
        })
        .collect()
}

fn unpack_bytes(words: &[u64], n_bytes: usize) -> Result<Vec<u8>> {
    if words.len() != n_bytes.div_ceil(8) {
        return Err(FormatError::corrupt("byte payload has wrong word count"));
    }
    let mut out = Vec::with_capacity(n_bytes);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(n_bytes);
    Ok(out)
}

impl Organization for Adaptive {
    fn kind(&self) -> FormatKind {
        FormatKind::Adaptive
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
        let grid = grid_for(shape)?;

        let addrs: Vec<(u64, u64)> = coords
            .iter()
            .map(|p| {
                let a = grid.address(p).expect("validated");
                (a.block, a.local)
            })
            .collect();
        counter.add(OpKind::Transform, n as u64);

        let mut sort_compares = 0u64;
        let perm = argsort_by(n, |a, b| {
            sort_compares += 1;
            addrs[a].cmp(&addrs[b]).then_with(|| a.cmp(&b))
        });
        counter.add(OpKind::SortCompare, sort_compares);
        let map = invert_permutation(&perm);

        // Per block: choose list vs bitmap by encoded size. Note
        // duplicates force a list (a bitmap cannot hold two records for
        // one cell).
        let mut block_ids: Vec<u64> = Vec::new();
        let mut block_enc: Vec<u64> = Vec::new();
        let mut bptr: Vec<u64> = vec![0];
        let mut list_locals: Vec<u8> = Vec::new();
        let mut bitmaps: Vec<u64> = Vec::new();

        let mut i = 0usize;
        while i < n {
            let block = addrs[perm[i]].0;
            let mut j = i;
            let mut has_dup = false;
            while j < n && addrs[perm[j]].0 == block {
                if j > i && addrs[perm[j]].1 == addrs[perm[j - 1]].1 {
                    has_dup = true;
                }
                j += 1;
            }
            let count = j - i;
            let region = grid.block_region(block)?;
            // Bitmaps address the *full* (unclipped) block interior — edge
            // blocks just leave their out-of-tensor bits zero — because
            // BlockGrid local addresses are computed against block_dims.
            let full_volume: u64 = grid.block_dims().iter().product();
            let list_bytes = count * d;
            let bitmap_bytes = bitmap_words(full_volume) * 8;
            let use_bitmap = !has_dup && bitmap_bytes < list_bytes;

            block_ids.push(block);
            block_enc.push(if use_bitmap { ENC_BITMAP } else { ENC_LIST });
            bptr.push(j as u64);
            if use_bitmap {
                let mut bits = vec![0u64; bitmap_words(full_volume)];
                for k in i..j {
                    let local = addrs[perm[k]].1 as usize;
                    bits[local / 64] |= 1u64 << (local % 64);
                }
                bitmaps.extend_from_slice(&bits);
            } else {
                let lo = region.lo().to_vec();
                for &pk in &perm[i..j] {
                    let p = coords.point(pk);
                    for (dim, &l) in lo.iter().enumerate() {
                        list_locals.push((p[dim] - l) as u8);
                    }
                }
            }
            i = j;
        }
        counter.add(
            OpKind::Emit,
            (block_ids.len() * 3 + list_locals.len() / d.max(1) + bitmaps.len()) as u64,
        );

        let mut enc = IndexEncoder::new(FormatKind::Adaptive.id(), shape, n as u64);
        enc.put_section(&bptr);
        enc.put_section(&block_ids);
        enc.put_section(&block_enc);
        enc.put_section(&pack_bytes(&list_locals));
        enc.put_section(&bitmaps);
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
        let decoded = DecodedAdaptive::decode(index)?;
        let d = decoded.shape.ndim();
        if queries.ndim() != d {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: d,
                got: queries.ndim(),
            }
            .into());
        }
        let lookup = |q: &[u64]| {
            if !decoded.shape.contains(q) {
                counter.inc(OpKind::Compare);
                return None;
            }
            let addr = decoded.grid.address(q).expect("contained");
            counter.inc(OpKind::Transform);
            let mut compares = (usize::BITS - decoded.block_ids.len().leading_zeros()) as u64;
            let bi = decoded.block_ids.partition_point(|&b| b < addr.block);
            let found = if bi < decoded.block_ids.len() && decoded.block_ids[bi] == addr.block {
                let (slot, extra) = decoded.lookup_in_block(bi, addr.local);
                compares += extra;
                slot
            } else {
                None
            };
            counter.add(OpKind::Compare, compares);
            found
        };
        Ok(queries.iter().map(lookup).collect())
    }

    fn predicted_index_words(&self, n: u64, shape: &Shape) -> u64 {
        // Worst case: every point its own list block.
        let d = shape.ndim() as u64;
        (n * d).div_ceil(8) + 3 * n + 4
    }

    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer> {
        let decoded = DecodedAdaptive::decode(index)?;
        let d = decoded.shape.ndim();
        let mut coords = CoordBuffer::with_capacity(d, decoded.n as usize);
        for bi in 0..decoded.block_ids.len() {
            let region = decoded.grid.block_region(decoded.block_ids[bi])?;
            let lo = region.lo().to_vec();
            let block_dims = decoded.grid.block_dims().to_vec();
            match decoded.block_enc[bi] {
                ENC_LIST => {
                    let count = (decoded.bptr[bi + 1] - decoded.bptr[bi]) as usize;
                    let base = decoded.list_start[bi] as usize;
                    for k in (0..count).map(|k| base + k) {
                        let offs = &decoded.list_locals[k * d..(k + 1) * d];
                        let coord: Vec<u64> =
                            (0..d).map(|dim| lo[dim] + offs[dim] as u64).collect();
                        decoded.shape.check_coord(&coord)?;
                        coords.push(&coord)?;
                    }
                }
                _ => {
                    let words = decoded.bitmap_for(bi);
                    let mut local_coord = vec![0u64; d];
                    let mut emitted = 0u64;
                    let full_volume: u64 = block_dims.iter().product();
                    for local in 0..full_volume {
                        if words[(local / 64) as usize] >> (local % 64) & 1 == 1 {
                            // Decode the local address within the block.
                            let mut l = local;
                            for dim in (0..d).rev() {
                                local_coord[dim] = l % block_dims[dim];
                                l /= block_dims[dim];
                            }
                            let coord: Vec<u64> =
                                (0..d).map(|dim| lo[dim] + local_coord[dim]).collect();
                            decoded.shape.check_coord(&coord)?;
                            coords.push(&coord)?;
                            emitted += 1;
                        }
                    }
                    if emitted != decoded.bptr[bi + 1] - decoded.bptr[bi] {
                        return Err(FormatError::corrupt("bitmap popcount disagrees with bptr"));
                    }
                }
            }
        }
        if coords.len() as u64 != decoded.n {
            return Err(FormatError::corrupt("blocks do not cover all points"));
        }
        counter.add(OpKind::Transform, decoded.n);
        Ok(coords)
    }
}

/// Fully decoded, validated index.
struct DecodedAdaptive {
    shape: Shape,
    grid: BlockGrid,
    n: u64,
    bptr: Vec<u64>,
    block_ids: Vec<u64>,
    block_enc: Vec<u64>,
    list_locals: Vec<u8>,
    bitmaps: Vec<u64>,
    /// Per-block starting offsets into `list_locals` (points) and
    /// `bitmaps` (words).
    list_start: Vec<u64>,
    bitmap_start: Vec<u64>,
}

impl DecodedAdaptive {
    fn decode(index: &[u8]) -> Result<DecodedAdaptive> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::Adaptive.id()))?;
        let shape = header.shape;
        let d = shape.ndim();
        let grid = grid_for(&shape)?;
        let bptr = dec.section("bptr")?;
        let nblocks = bptr.len().saturating_sub(1);
        let block_ids = dec.section_exact("block ids", nblocks)?;
        let block_enc = dec.section_exact("block encodings", nblocks)?;
        let list_words = dec.section("list locals")?;
        let bitmaps = dec.section("bitmaps")?;
        dec.expect_end()?;
        validate_ptr(&bptr, header.n, "bptr")?;
        if block_ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FormatError::corrupt("block ids not strictly sorted"));
        }
        if block_enc.iter().any(|&e| e > 1) {
            return Err(FormatError::corrupt("unknown block encoding"));
        }

        // Per-block payload offsets, validated against section lengths.
        let mut list_start = Vec::with_capacity(nblocks + 1);
        let mut bitmap_start = Vec::with_capacity(nblocks + 1);
        let mut lpoints = 0u64;
        let mut bwords = 0u64;
        for bi in 0..nblocks {
            list_start.push(lpoints);
            bitmap_start.push(bwords);
            let count = bptr[bi + 1] - bptr[bi];
            if block_enc[bi] == ENC_LIST {
                lpoints += count;
            } else {
                if block_ids[bi] >= grid.num_blocks() {
                    return Err(FormatError::corrupt("block id out of range"));
                }
                let full_volume: u64 = grid.block_dims().iter().product();
                if count > grid.block_region(block_ids[bi])?.volume() {
                    return Err(FormatError::corrupt("bitmap block overfull"));
                }
                bwords += bitmap_words(full_volume) as u64;
            }
        }
        list_start.push(lpoints);
        bitmap_start.push(bwords);
        let list_len = (lpoints as usize)
            .checked_mul(d)
            .ok_or_else(|| FormatError::corrupt("n*d overflows"))?;
        let list_locals = unpack_bytes(&list_words, list_len)?;
        if bitmaps.len() as u64 != bwords {
            return Err(FormatError::corrupt("bitmap payload length mismatch"));
        }
        // List blocks must be strictly sorted by local address.
        // (Cheap structural check, done per block on demand in lookup.)
        Ok(DecodedAdaptive {
            shape,
            grid,
            n: header.n,
            bptr,
            block_ids,
            block_enc,
            list_locals,
            bitmaps,
            list_start,
            bitmap_start,
        })
    }

    fn bitmap_for(&self, bi: usize) -> &[u64] {
        let start = self.bitmap_start[bi] as usize;
        let end = self.bitmap_start[bi + 1] as usize;
        &self.bitmaps[start..end]
    }

    /// Find `local` in block `bi`; returns `(slot, comparisons)`.
    fn lookup_in_block(&self, bi: usize, local: u64) -> (Option<u64>, u64) {
        let d = self.shape.ndim();
        let base_slot = self.bptr[bi];
        if self.block_enc[bi] == ENC_BITMAP {
            let words = self.bitmap_for(bi);
            let (w, b) = ((local / 64) as usize, local % 64);
            if w >= words.len() || words[w] >> b & 1 == 0 {
                return (None, 1);
            }
            // Rank: points before `local` in this block.
            let mut rank = 0u32;
            for &word in &words[..w] {
                rank += word.count_ones();
            }
            rank += (words[w] & ((1u64 << b) - 1)).count_ones();
            (Some(base_slot + rank as u64), 1 + w as u64)
        } else {
            // List block: points sorted by local address; reconstruct each
            // candidate's local address from its offsets and binary search.
            let start = self.list_start[bi] as usize;
            let count = (self.bptr[bi + 1] - self.bptr[bi]) as usize;
            let block_dims = self.grid.block_dims();
            let local_of = |k: usize| -> u64 {
                let offs = &self.list_locals[(start + k) * d..(start + k + 1) * d];
                let mut l = 0u64;
                for (dim, &o) in offs.iter().enumerate() {
                    l = l * block_dims[dim] + o as u64;
                }
                l
            };
            let mut lo = 0usize;
            let mut hi = count;
            let mut compares = 0u64;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                compares += 1;
                if local_of(mid) < local {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if lo < count {
                compares += 1;
                if local_of(lo) == local {
                    return (Some(base_slot + lo as u64), compares);
                }
            }
            (None, compares)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::testutil::{check_against_oracle, fig1};

    #[test]
    fn fig1_roundtrip_against_oracle() {
        let (shape, coords) = fig1();
        check_against_oracle(&Adaptive, &shape, &coords);
    }

    #[test]
    fn scattered_and_dense_blocks_roundtrip() {
        // One fully dense 8×8 block plus scattered singles.
        let shape = Shape::new(vec![32, 32]).unwrap();
        let mut pts: Vec<[u64; 2]> = Vec::new();
        for r in 8..16u64 {
            for c in 8..16u64 {
                pts.push([r, c]);
            }
        }
        pts.extend([[0, 0], [31, 31], [0, 31], [20, 3]]);
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        check_against_oracle(&Adaptive, &shape, &coords);
    }

    #[test]
    fn dense_block_chooses_bitmap_and_saves_space() {
        let shape = Shape::new(vec![64, 64]).unwrap();
        // Fully dense 8×8-aligned region: 16 blocks of 64 points each.
        let mut pts = Vec::new();
        for r in 0..32u64 {
            for c in 0..32u64 {
                pts.push([r, c]);
            }
        }
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        let c = OpCounter::new();
        let adaptive = Adaptive.build(&coords, &shape, &c).unwrap();
        let linear = crate::formats::linear::Linear
            .build(&coords, &shape, &c)
            .unwrap();
        let hicoo = crate::formats::ext::hicoo::HiCoo::default()
            .build(&coords, &shape, &c)
            .unwrap();
        // Bitmap: 1 bit per cell vs LINEAR's 64 and HiCOO's 16.
        assert!(
            adaptive.index.len() * 8 < linear.index.len(),
            "adaptive {} vs linear {}",
            adaptive.index.len(),
            linear.index.len()
        );
        assert!(adaptive.index.len() < hicoo.index.len());
        // And the decoded structure did pick bitmaps.
        let d = DecodedAdaptive::decode(&adaptive.index).unwrap();
        assert!(d.block_enc.iter().all(|&e| e == ENC_BITMAP));
    }

    #[test]
    fn sparse_blocks_choose_lists() {
        let shape = Shape::new(vec![64, 64, 64]).unwrap();
        let pts: Vec<[u64; 3]> = (0..20u64).map(|k| [k * 3, k * 2 % 64, k % 64]).collect();
        let coords = CoordBuffer::from_points(3, &pts).unwrap();
        let c = OpCounter::new();
        let out = Adaptive.build(&coords, &shape, &c).unwrap();
        let d = DecodedAdaptive::decode(&out.index).unwrap();
        assert!(d.block_enc.iter().all(|&e| e == ENC_LIST));
        check_against_oracle(&Adaptive, &shape, &coords);
    }

    #[test]
    fn duplicates_force_lists_and_still_resolve() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        // A would-be-bitmap-dense block with one duplicate coordinate.
        let mut pts: Vec<[u64; 2]> = Vec::new();
        for r in 0..8u64 {
            for c in 0..8u64 {
                pts.push([r, c]);
            }
        }
        pts.push([3, 3]);
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        let c = OpCounter::new();
        let out = Adaptive.build(&coords, &shape, &c).unwrap();
        let d = DecodedAdaptive::decode(&out.index).unwrap();
        assert_eq!(d.block_enc, vec![ENC_LIST]);
        check_against_oracle(&Adaptive, &shape, &coords);
    }

    #[test]
    fn bitmap_rank_returns_correct_slots() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        // Dense block: slot of (r, c) must be r*8 + c (row-major rank).
        let mut pts = Vec::new();
        for r in 0..8u64 {
            for c in 0..8u64 {
                pts.push([r, c]);
            }
        }
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        let c = OpCounter::new();
        let out = Adaptive.build(&coords, &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[5u64, 3], [0, 0], [7, 7]]).unwrap();
        let slots = Adaptive.read(&out.index, &q, &c).unwrap();
        assert_eq!(slots, vec![Some(43), Some(0), Some(63)]);
    }

    #[test]
    fn enumerate_inverts_build() {
        let shape = Shape::new(vec![24, 24]).unwrap();
        let mut pts: Vec<[u64; 2]> = Vec::new();
        for r in 8..16u64 {
            for c in 8..16u64 {
                pts.push([r, c]);
            }
        }
        pts.extend([[1, 2], [23, 0]]);
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        let c = OpCounter::new();
        let out = Adaptive.build(&coords, &shape, &c).unwrap();
        let listed = Adaptive.enumerate(&out.index, &c).unwrap();
        let map = out.map.unwrap();
        for (i, p) in coords.iter().enumerate() {
            assert_eq!(listed.point(map[i]), p);
        }
    }

    #[test]
    fn empty_tensor_roundtrip() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let c = OpCounter::new();
        let out = Adaptive.build(&CoordBuffer::new(2), &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[1u64, 1]]).unwrap();
        assert_eq!(Adaptive.read(&out.index, &q, &c).unwrap(), vec![None]);
        assert!(Adaptive.enumerate(&out.index, &c).unwrap().is_empty());
    }
}
