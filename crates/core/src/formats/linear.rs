//! LINEAR — linearized-offset organization (§II.B).
//!
//! Each point's coordinates are collapsed into a single row-major linear
//! address `Σ c_i · Π_{j>i} m_j`. The build pays `O(n · d)` transform work
//! and, like COO, keeps input order (no `map`); reads scan the unsorted
//! address list in `O(n · n_read)` — but each comparison is a single `u64`
//! compare rather than `d` of them, and the index is `d×` smaller than
//! COO's. The paper's finding #1: this is the best overall balance of
//! storage size and access time.

use crate::codec::{IndexDecoder, IndexEncoder};
use crate::error::Result;
use crate::formats::{check_scan_region, lowest_slot_per_cell, BoxAddresses};
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::{CoordBuffer, Region, Shape};

/// The LINEAR organization.
#[derive(Debug, Clone, Copy, Default)]
pub struct Linear;

impl Organization for Linear {
    fn kind(&self) -> FormatKind {
        FormatKind::Linear
    }

    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        counter: &OpCounter,
    ) -> Result<BuildOutput> {
        let n = coords.len();
        // O(n·d): transform every coordinate into a linear address. The
        // global shape is used (not the local boundary) so addresses are
        // comparable across fragments for Algorithm 3's merge.
        let addrs = coords.linearize_all(shape)?;
        counter.add(OpKind::Transform, n as u64);
        counter.add(OpKind::Emit, n as u64);
        Ok(BuildOutput {
            index: IndexEncoder::encode(FormatKind::Linear.id(), shape, n as u64, &[&addrs]),
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
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::Linear.id()))?;
        let addrs = dec.words_exact("addresses", header.n as usize)?;
        dec.expect_end()?;
        let shape = header.shape;
        if queries.ndim() != shape.ndim() {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: shape.ndim(),
                got: queries.ndim(),
            }
            .into());
        }

        let scan = |q: &[u64]| {
            // A query outside the build shape cannot be stored.
            if !shape.contains(q) {
                counter.inc(OpKind::Compare);
                return None;
            }
            let target = shape.linearize_unchecked(q);
            counter.inc(OpKind::Transform);
            let mut compares = 0u64;
            let mut found = None;
            for (j, a) in addrs.iter().enumerate() {
                compares += 1;
                if a == target {
                    found = Some(j as u64);
                    break;
                }
            }
            counter.add(OpKind::Compare, compares);
            found
        };
        Ok(queries.iter().map(scan).collect())
    }

    /// One pass over the addresses: `n` comparisons against the address
    /// interval the box spans, and a transform back to coordinates only
    /// for the addresses inside it (the box's rows, end to end).
    fn scan(
        &self,
        index: &[u8],
        region: &Region,
        counter: &OpCounter,
    ) -> Result<Vec<(usize, u64)>> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::Linear.id()))?;
        let addrs = dec.words_exact("addresses", header.n as usize)?;
        dec.expect_end()?;
        let shape = header.shape;
        check_scan_region(region, shape.ndim())?;
        // A cell outside the build shape cannot be stored.
        let Some(mut cells) = BoxAddresses::new(region, &shape) else {
            return Ok(Vec::new());
        };
        let mut matches = Vec::new();
        for (j, a) in addrs.iter().enumerate() {
            if let Some(rank) = cells.rank_of(a) {
                matches.push((rank, j as u64));
            }
        }
        counter.add(OpKind::Compare, addrs.len() as u64);
        counter.add(OpKind::Transform, cells.transforms);
        Ok(lowest_slot_per_cell(matches))
    }

    fn predicted_index_words(&self, n: u64, _shape: &Shape) -> u64 {
        // Table I: O(n).
        n
    }

    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::Linear.id()))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::testutil::{check_against_oracle, fig1};

    #[test]
    fn fig1_roundtrip_against_oracle() {
        let (shape, coords) = fig1();
        check_against_oracle(&Linear, &shape, &coords);
    }

    #[test]
    fn stores_paper_example_addresses() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Linear.build(&coords, &shape, &c).unwrap();
        let (h, mut dec) = IndexDecoder::new(&out.index, Some(FormatKind::Linear.id())).unwrap();
        let addrs = dec.section_exact("addresses", h.n as usize).unwrap();
        // Fig. 1(a): LINEAR column is 1, 4, 5, 25, 26 in input order.
        assert_eq!(addrs, vec![1, 4, 5, 25, 26]);
        assert!(out.map.is_none());
    }

    #[test]
    fn build_counts_one_transform_per_point() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        Linear.build(&coords, &shape, &c).unwrap();
        assert_eq!(c.snapshot().transforms, 5);
    }

    #[test]
    fn read_scans_whole_list_on_miss() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Linear.build(&coords, &shape, &c).unwrap();
        c.reset();
        let q = CoordBuffer::from_points(3, &[[1u64, 1, 1]]).unwrap();
        assert_eq!(Linear.read(&out.index, &q, &c).unwrap(), vec![None]);
        assert_eq!(c.snapshot().compares, 5);
    }

    #[test]
    fn out_of_shape_query_is_a_clean_miss() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Linear.build(&coords, &shape, &c).unwrap();
        let q = CoordBuffer::from_points(3, &[[9u64, 9, 9]]).unwrap();
        assert_eq!(Linear.read(&out.index, &q, &c).unwrap(), vec![None]);
    }

    #[test]
    fn duplicate_addresses_return_first() {
        let shape = Shape::new(vec![8]).unwrap();
        let coords = CoordBuffer::from_points(1, &[[3u64], [3], [1]]).unwrap();
        let c = OpCounter::new();
        let out = Linear.build(&coords, &shape, &c).unwrap();
        let q = CoordBuffer::from_points(1, &[[3u64]]).unwrap();
        assert_eq!(Linear.read(&out.index, &q, &c).unwrap(), vec![Some(0)]);
    }

    #[test]
    fn index_is_d_times_smaller_than_coo() {
        let shape = Shape::cube(4, 8).unwrap();
        let coords =
            CoordBuffer::from_points(4, &[[0u64, 1, 2, 3], [4, 5, 6, 7], [1, 1, 1, 1]]).unwrap();
        let c = OpCounter::new();
        let lin = Linear.build(&coords, &shape, &c).unwrap();
        let coo = crate::formats::coo::Coo.build(&coords, &shape, &c).unwrap();
        let overhead = crate::codec::FIXED_HEADER_BYTES + 4 * 8 + 8;
        let lin_payload = lin.index.len() - overhead;
        let coo_payload = coo.index.len() - overhead;
        assert_eq!(coo_payload, 4 * lin_payload);
    }

    #[test]
    fn empty_build_reads_cleanly() {
        let shape = Shape::new(vec![3, 3]).unwrap();
        let c = OpCounter::new();
        let out = Linear.build(&CoordBuffer::new(2), &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[1u64, 1]]).unwrap();
        assert_eq!(Linear.read(&out.index, &q, &c).unwrap(), vec![None]);
    }
}
