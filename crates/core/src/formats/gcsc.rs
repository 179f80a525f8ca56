//! GCSC++ — Generalized Compressed Sparse Column (§II.D).
//!
//! The column-wise dual of GCSR++: the tensor's smallest dimension becomes
//! the *column* count of the 2D remap, points are sorted by column index,
//! and the classic CSC packaging yields `col_ptr` + `row_ind`. Table I
//! gives it the same asymptotic bounds as GCSR++; the paper's measured
//! difference (Table III) comes purely from layout: a row-major-ordered
//! input stream is *nearly sorted* for GCSR++'s row sort but maximally
//! shuffled for GCSC++'s column sort — an effect this implementation
//! reproduces because the stable sort's adaptive fast path only triggers
//! for the former.

use crate::error::Result;
use crate::formats::csr2d::Remap2D;
use crate::formats::gcsr::{build_generalized, read_generalized, scan_generalized};
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::OpCounter;
use artsparse_tensor::{CoordBuffer, Region, Shape};

/// The GCSC++ organization.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcscPP;

impl Organization for GcscPP {
    fn kind(&self) -> FormatKind {
        FormatKind::GcscPP
    }

    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        counter: &OpCounter,
    ) -> Result<BuildOutput> {
        build_generalized(
            FormatKind::GcscPP,
            Remap2D::for_gcsc,
            // Bucket on the column, scan rows within it.
            |row, col| (col, row),
            |r| r.cols,
            coords,
            shape,
            counter,
        )
    }

    fn read(
        &self,
        index: &[u8],
        queries: &CoordBuffer,
        counter: &OpCounter,
    ) -> Result<Vec<Option<u64>>> {
        read_generalized(
            FormatKind::GcscPP,
            Remap2D::for_gcsc,
            |row, col| (col, row),
            |r| r.cols,
            index,
            queries,
            counter,
        )
    }

    fn scan(
        &self,
        index: &[u8],
        region: &Region,
        counter: &OpCounter,
    ) -> Result<Vec<(usize, u64)>> {
        scan_generalized(
            FormatKind::GcscPP,
            Remap2D::for_gcsc,
            |row, col| (col, row),
            |r| r.cols,
            // Column buckets repeat every `cols` addresses.
            |r, first, last, met| {
                if last - first >= r.cols - 1 {
                    met.fill(true);
                } else {
                    (first..=last).for_each(|l| met[(l % r.cols) as usize] = true);
                }
            },
            index,
            region,
            counter,
        )
    }

    fn predicted_index_words(&self, n: u64, shape: &Shape) -> u64 {
        // Table I: O(n + min{m_i}) — concretely n + (cols + 1).
        n + shape.min_dim() + 1
    }

    fn enumerate(
        &self,
        index: &[u8],
        counter: &OpCounter,
    ) -> Result<artsparse_tensor::CoordBuffer> {
        crate::formats::gcsr::enumerate_generalized(
            FormatKind::GcscPP,
            Remap2D::for_gcsc,
            |bucket, ind| (ind, bucket),
            |r| r.cols,
            index,
            counter,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::IndexDecoder;
    use crate::formats::testutil::{check_against_oracle, fig1};

    #[test]
    fn fig1_roundtrip_against_oracle() {
        let (shape, coords) = fig1();
        check_against_oracle(&GcscPP, &shape, &coords);
    }

    #[test]
    fn fig1_produces_csc_structures() {
        // 3×3×3 remapped with cols = 3, rows = 9. Linear addresses
        // 1,4,5,25,26 → (row, col) = (0,1),(1,1),(1,2),(8,1),(8,2).
        // Sorted by column: col 0 → ∅, col 1 → rows 0,1,8, col 2 → rows 1,8.
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = GcscPP.build(&coords, &shape, &c).unwrap();
        let (h, mut dec) = IndexDecoder::new(&out.index, Some(FormatKind::GcscPP.id())).unwrap();
        assert_eq!(h.n, 5);
        let col_ptr = dec.section("ptr").unwrap();
        let row_ind = dec.section("ind").unwrap();
        assert_eq!(col_ptr, vec![0, 0, 3, 5]);
        assert_eq!(row_ind, vec![0, 1, 8, 1, 8]);
        // Sorted order: points 0,1,3 (col 1) then 2,4 (col 2).
        assert_eq!(out.map, Some(vec![0, 1, 3, 2, 4]));
    }

    #[test]
    fn column_sort_shuffles_row_major_input() {
        // A dense-ish row-major stream: GCSC++ must produce a non-identity
        // map (the layout-mismatch effect of Table III), while GCSR++'s is
        // identity on the same input.
        let shape = Shape::new(vec![4, 4]).unwrap();
        let mut pts = Vec::new();
        for r in 0..4u64 {
            for cc in 0..4u64 {
                pts.push([r, cc]);
            }
        }
        let coords = CoordBuffer::from_points(2, &pts).unwrap();
        let c = OpCounter::new();
        let gcsc = GcscPP.build(&coords, &shape, &c).unwrap();
        let gcsr = crate::formats::gcsr::GcsrPP
            .build(&coords, &shape, &c)
            .unwrap();
        let identity: Vec<usize> = (0..16).collect();
        assert_eq!(gcsr.map, Some(identity.clone()));
        assert_ne!(gcsc.map, Some(identity));
    }

    #[test]
    fn read_scans_one_column() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        // Column 1 holds 3 points, column 2 holds 1.
        let coords = CoordBuffer::from_points(2, &[[0u64, 1], [1, 1], [2, 1], [3, 2]]).unwrap();
        let c = OpCounter::new();
        let out = GcscPP.build(&coords, &shape, &c).unwrap();
        c.reset();
        let q = CoordBuffer::from_points(2, &[[0u64, 2]]).unwrap();
        assert_eq!(GcscPP.read(&out.index, &q, &c).unwrap(), vec![None]);
        assert_eq!(c.snapshot().compares, 1);
    }

    #[test]
    fn agrees_with_gcsr_on_random_queries() {
        let shape = Shape::new(vec![8, 8, 8]).unwrap();
        let coords = CoordBuffer::from_points(
            3,
            &[[0u64, 0, 0], [7, 7, 7], [3, 1, 4], [1, 5, 2], [2, 6, 5]],
        )
        .unwrap();
        let c = OpCounter::new();
        let a = GcscPP.build(&coords, &shape, &c).unwrap();
        let b = crate::formats::gcsr::GcsrPP
            .build(&coords, &shape, &c)
            .unwrap();
        let q = artsparse_tensor::Region::full(&shape).to_coords();
        let ra = GcscPP.read(&a.index, &q, &c).unwrap();
        let rb = crate::formats::gcsr::GcsrPP.read(&b.index, &q, &c).unwrap();
        // Found-ness must agree even though slots differ by each map.
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.is_some(), y.is_some());
        }
    }

    #[test]
    fn empty_tensor_roundtrip() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let c = OpCounter::new();
        let out = GcscPP.build(&CoordBuffer::new(2), &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[0u64, 0]]).unwrap();
        assert_eq!(GcscPP.read(&out.index, &q, &c).unwrap(), vec![None]);
    }
}
