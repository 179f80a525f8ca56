//! GCSR++ — Generalized Compressed Sparse Row (Algorithm 1, §II.C).
//!
//! High-dimensional points are remapped to a 2D matrix whose row count is
//! the tensor's smallest dimension, then packaged with classic CSR. The
//! build pays a sort (`O(n log n + 2n)`, Table I); reads transform the
//! query the same way and linearly scan one row
//! (`O(n_read · n / min{m_i} + n)`). Space is `O(n + min{m_i})` words —
//! nearly LINEAR's footprint.
//!
//! Note on Fig. 1(b): the figure's literal `row_ptr`/`col_ind` values are
//! inconsistent with Algorithm 1 (see DESIGN.md); this implementation
//! follows the algorithm, and the unit tests pin the values the algorithm
//! actually produces for the Fig. 1 tensor.

use crate::codec::{IndexDecoder, IndexEncoder, Words};
use crate::error::Result;
use crate::formats::csr2d::{build_ptr, scan_bucket, validate_ptr, validate_ptr_words, Remap2D};
use crate::formats::{check_scan_region, lowest_slot_per_cell, BoxAddresses};
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::permute::{argsort_by, gather, invert_permutation};
use artsparse_tensor::{CoordBuffer, Region, Shape};

/// The GCSR++ organization.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcsrPP;

/// Shared build logic for GCSR++ and GCSC++ — the two differ only in
/// which 2D axis is compressed (`bucket`) and which is scanned (`ind`).
pub(crate) fn build_generalized(
    format: FormatKind,
    remap_of: fn(&Shape) -> Remap2D,
    // Extract (bucket, ind) from a decoded (row, col) pair.
    split: fn(u64, u64) -> (u64, u64),
    bucket_count: fn(&Remap2D) -> u64,
    coords: &CoordBuffer,
    shape: &Shape,
    counter: &OpCounter,
) -> Result<BuildOutput> {
    coords.check_against(shape)?;
    let n = coords.len();

    // Line 5: extract the local boundary; empty tensors fall back to the
    // global shape so the index stays self-describing.
    let s_l = coords
        .local_boundary_shape()
        .unwrap_or_else(|| shape.clone());
    let remap = remap_of(&s_l);
    let nb = bucket_count(&remap) as usize;

    // Lines 7–11: transform each point to (bucket, ind) through its linear
    // address. Two transforms per point — the `2×n` term of Table I.
    let pairs: Vec<(u64, u64)> = coords
        .iter()
        .map(|p| {
            let (row, col) = remap.decode(s_l.linearize_unchecked(p));
            split(row, col)
        })
        .collect();
    counter.add(OpKind::Transform, 2 * n as u64);

    // Line 12: stable sort by bucket, recording the provenance map. The
    // index tie-break cannot change a stable sort's result; it stays (here
    // and in the other sorting builds) because it shapes which pairs the
    // sort compares, and the recorded Table I counts were taken with it.
    let mut sort_compares = 0u64;
    let perm = argsort_by(n, |a, b| {
        sort_compares += 1;
        pairs[a].0.cmp(&pairs[b].0).then_with(|| a.cmp(&b))
    });
    counter.add(OpKind::SortCompare, sort_compares);
    let map = invert_permutation(&perm);

    // Line 13: package with classic CSR/CSC.
    let sorted_pairs = gather(&pairs, &perm);
    let ptr = build_ptr(sorted_pairs.iter().map(|&(b, _)| b), nb);
    let ind: Vec<u64> = sorted_pairs.iter().map(|&(_, i)| i).collect();
    counter.add(OpKind::Emit, (ptr.len() + ind.len()) as u64);

    // Line 14: concatenate buffers.
    Ok(BuildOutput {
        index: IndexEncoder::encode(format.id(), &s_l, n as u64, &[&ptr, &ind]),
        map: Some(map),
        n_points: n,
    })
}

/// Build GCSR++ from points already in nondecreasing linear-address
/// (equivalently: lexicographic) order — the presorted entry used by
/// [`crate::convert`].
///
/// Algorithm 1's sort key, the remapped 2D row `⌊l / cols⌋`, is monotone
/// in the linear address, so for address-sorted input the stable sort is
/// the identity permutation and is skipped entirely. The output is
/// byte-identical to [`GcsrPP::build`] on the same points; `map` is
/// omitted because it would be the identity.
pub(crate) fn build_gcsr_presorted(
    coords: &CoordBuffer,
    shape: &Shape,
    counter: &OpCounter,
) -> Result<BuildOutput> {
    coords.check_against(shape)?;
    let n = coords.len();
    let s_l = coords
        .local_boundary_shape()
        .unwrap_or_else(|| shape.clone());
    let remap = Remap2D::for_gcsr(&s_l);
    let nb = remap.rows as usize;

    let pairs: Vec<(u64, u64)> = coords
        .iter()
        .map(|p| remap.decode(s_l.linearize_unchecked(p)))
        .collect();
    counter.add(OpKind::Transform, 2 * n as u64);
    debug_assert!(
        pairs.windows(2).all(|w| w[0].0 <= w[1].0),
        "input not address-sorted"
    );

    let ptr = build_ptr(pairs.iter().map(|&(b, _)| b), nb);
    let ind: Vec<u64> = pairs.iter().map(|&(_, c)| c).collect();
    counter.add(OpKind::Emit, (ptr.len() + ind.len()) as u64);

    Ok(BuildOutput {
        index: IndexEncoder::encode(FormatKind::GcsrPP.id(), &s_l, n as u64, &[&ptr, &ind]),
        map: None,
        n_points: n,
    })
}

/// A GCSR++/GCSC++ index validated and borrowed in place.
struct Packed2D<'a> {
    /// The local boundary shape the transforms were computed against.
    s_l: Shape,
    remap: Remap2D,
    ptr: Words<'a>,
    ind: Words<'a>,
}

/// The front shared by [`read_generalized`] and [`scan_generalized`]:
/// decode the header (Algorithm 1 line 5), let the caller check what it
/// asks against the index's arity, then validate both arrays in one pass
/// each. They stay where the fetch put them and are read in place.
fn decode_generalized<'a>(
    format: FormatKind,
    remap_of: fn(&Shape) -> Remap2D,
    bucket_count: fn(&Remap2D) -> u64,
    index: &'a [u8],
    check_asked: impl FnOnce(usize) -> Result<()>,
) -> Result<Packed2D<'a>> {
    let (header, mut dec) = IndexDecoder::new(index, Some(format.id()))?;
    let s_l = header.shape;
    check_asked(s_l.ndim())?;
    let remap = remap_of(&s_l);
    let nb = bucket_count(&remap) as usize;
    let ptr = dec.words_exact("ptr", nb + 1)?;
    let ind = dec.words_exact("ind", header.n as usize)?;
    dec.expect_end()?;
    validate_ptr_words(ptr.iter(), header.n, "ptr")?;
    let limit = if nb as u64 == remap.rows {
        remap.cols
    } else {
        remap.rows
    };
    if ind.iter().any(|v| v >= limit) {
        return Err(crate::error::FormatError::corrupt(
            "ind entry out of 2D range",
        ));
    }
    Ok(Packed2D {
        s_l,
        remap,
        ptr,
        ind,
    })
}

/// Shared read logic for GCSR++ and GCSC++.
pub(crate) fn read_generalized(
    format: FormatKind,
    remap_of: fn(&Shape) -> Remap2D,
    split: fn(u64, u64) -> (u64, u64),
    bucket_count: fn(&Remap2D) -> u64,
    index: &[u8],
    queries: &CoordBuffer,
    counter: &OpCounter,
) -> Result<Vec<Option<u64>>> {
    let Packed2D {
        s_l,
        remap,
        ptr,
        ind,
    } = decode_generalized(format, remap_of, bucket_count, index, |d| {
        if queries.ndim() != d {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: d,
                got: queries.ndim(),
            }
            .into());
        }
        Ok(())
    })?;
    // Lines 6–13: transform each query the same way and scan one bucket.
    let lookup = |q: &[u64]| {
        // Outside the local boundary ⇒ cannot be present.
        if !s_l.contains(q) {
            counter.inc(OpKind::Compare);
            return None;
        }
        let l = s_l.linearize_unchecked(q);
        let (row, col) = remap.decode(l);
        let (bucket, target) = split(row, col);
        counter.inc(OpKind::Transform);
        let (slot, compares) = scan_bucket(ind, ptr, bucket, target);
        counter.add(OpKind::Compare, compares);
        slot
    };
    Ok(queries.iter().map(lookup).collect())
}

/// Shared scan logic for GCSR++ and GCSC++: after `read`'s validation,
/// mark the buckets the box's 2-D image meets — the box is a set of
/// address runs, one per row of it, and `mark_run` knows which buckets a
/// run of addresses falls in — then walk those buckets once each, mapping
/// every entry back to its coordinate. Comparisons are the sizes of the
/// buckets met, not `cells × bucket size`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_generalized(
    format: FormatKind,
    remap_of: fn(&Shape) -> Remap2D,
    // `(row, col) → (bucket, ind)` and, being its own inverse, back.
    split: fn(u64, u64) -> (u64, u64),
    bucket_count: fn(&Remap2D) -> u64,
    // Set `met[b]` for every bucket `b` holding an address of `first..=last`.
    mark_run: fn(&Remap2D, u64, u64, &mut [bool]),
    index: &[u8],
    region: &Region,
    counter: &OpCounter,
) -> Result<Vec<(usize, u64)>> {
    let Packed2D {
        s_l,
        remap,
        ptr,
        ind,
    } = decode_generalized(format, remap_of, bucket_count, index, |d| {
        check_scan_region(region, d)
    })?;
    // Outside the local boundary ⇒ cannot be present.
    let Some(mut cells) = BoxAddresses::new(region, &s_l) else {
        return Ok(Vec::new());
    };
    // The box's address runs: dimensions it spans whole, from the last
    // one up, are contiguous with the one before them, so a run covers
    // them and the box's extent in dimension `k`; one run per cell of the
    // dimensions before `k`.
    let (lo, hi) = (cells.inside.lo(), cells.inside.hi());
    let whole = |j: usize| lo[j] == 0 && hi[j] == s_l.dim(j) - 1;
    let k = (1..s_l.ndim()).rev().find(|&j| !whole(j)).unwrap_or(0);
    let run_end = [&lo[..k], &hi[k..]].concat();
    let run = s_l.linearize_unchecked(&run_end) - s_l.linearize_unchecked(lo);
    let last_start = [&hi[..k], &lo[k..]].concat();
    let mut met = vec![false; ptr.len() - 1];
    for start in Region::from_corners(lo, &last_start)?.iter_cells() {
        let first = s_l.linearize_unchecked(&start);
        mark_run(&remap, first, first + run, &mut met);
    }

    let mut matches = Vec::new();
    let mut compares = 0u64;
    for bucket in (0..met.len()).filter(|&b| met[b]) {
        let (lo, hi) = (ptr.get(bucket) as usize, ptr.get(bucket + 1) as usize);
        compares += (hi - lo) as u64;
        for (off, v) in ind.slice(lo, hi).iter().enumerate() {
            let (row, col) = split(bucket as u64, v);
            if let Some(rank) = cells.rank_of(row * remap.cols + col) {
                matches.push((rank, (lo + off) as u64));
            }
        }
    }
    counter.add(OpKind::Compare, compares);
    counter.add(OpKind::Transform, cells.transforms);
    Ok(lowest_slot_per_cell(matches))
}

/// Shared enumeration logic: walk every bucket's segment, reconstruct the
/// 2D cell, invert the linear remap, and delinearize into the local
/// boundary shape. Output is in slot (= `ind`) order.
pub(crate) fn enumerate_generalized(
    format: FormatKind,
    remap_of: fn(&Shape) -> Remap2D,
    // Reassemble (row, col) from (bucket, ind entry).
    unsplit: fn(u64, u64) -> (u64, u64),
    bucket_count: fn(&Remap2D) -> u64,
    index: &[u8],
    counter: &OpCounter,
) -> Result<CoordBuffer> {
    let (header, mut dec) = IndexDecoder::new(index, Some(format.id()))?;
    let s_l = header.shape;
    let remap = remap_of(&s_l);
    let nb = bucket_count(&remap) as usize;
    let ptr = dec.section_exact("ptr", nb + 1)?;
    let ind = dec.section_exact("ind", header.n as usize)?;
    dec.expect_end()?;
    validate_ptr(&ptr, header.n, "ptr")?;

    let mut coords = CoordBuffer::with_capacity(s_l.ndim(), ind.len());
    let mut coord = vec![0u64; s_l.ndim()];
    let volume = s_l.volume();
    for b in 0..nb as u64 {
        for j in ptr[b as usize]..ptr[b as usize + 1] {
            let (row, col) = unsplit(b, ind[j as usize]);
            let l = row
                .checked_mul(remap.cols)
                .and_then(|x| x.checked_add(col))
                .filter(|&l| l < volume)
                .ok_or_else(|| {
                    crate::error::FormatError::corrupt("2D cell outside local boundary")
                })?;
            s_l.delinearize_into(l, &mut coord);
            coords.push(&coord)?;
        }
    }
    counter.add(OpKind::Transform, 2 * ind.len() as u64);
    Ok(coords)
}

impl Organization for GcsrPP {
    fn kind(&self) -> FormatKind {
        FormatKind::GcsrPP
    }

    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        counter: &OpCounter,
    ) -> Result<BuildOutput> {
        build_generalized(
            FormatKind::GcsrPP,
            Remap2D::for_gcsr,
            |row, col| (row, col),
            |r| r.rows,
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
            FormatKind::GcsrPP,
            Remap2D::for_gcsr,
            |row, col| (row, col),
            |r| r.rows,
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
            FormatKind::GcsrPP,
            Remap2D::for_gcsr,
            |row, col| (row, col),
            |r| r.rows,
            // Row buckets are `cols` consecutive addresses each.
            |r, first, last, met| {
                met[(first / r.cols) as usize..=(last / r.cols) as usize].fill(true)
            },
            index,
            region,
            counter,
        )
    }

    fn predicted_index_words(&self, n: u64, shape: &Shape) -> u64 {
        // Table I: O(n + min{m_i}) — concretely n + (rows + 1).
        n + shape.min_dim() + 1
    }

    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer> {
        enumerate_generalized(
            FormatKind::GcsrPP,
            Remap2D::for_gcsr,
            |bucket, ind| (bucket, ind),
            |r| r.rows,
            index,
            counter,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::testutil::{check_against_oracle, fig1};

    #[test]
    fn fig1_roundtrip_against_oracle() {
        let (shape, coords) = fig1();
        check_against_oracle(&GcsrPP, &shape, &coords);
    }

    #[test]
    fn fig1_produces_algorithm1_structures() {
        // Algorithm 1 on the Fig. 1 tensor: local boundary is 3×3×3 but the
        // points span rows {0,2}; remap rows=3, cols=9; linear addresses
        // 1,4,5,25,26 → (0,1),(0,4),(0,5),(2,7),(2,8).
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = GcsrPP.build(&coords, &shape, &c).unwrap();
        let (h, mut dec) = IndexDecoder::new(&out.index, Some(FormatKind::GcsrPP.id())).unwrap();
        // Local boundary of the five points: dims (3,3,2)… no: coords span
        // [0..2]×[0..2]×[1..2] ⇒ boundary shape (3,3,3) anchored at origin.
        assert_eq!(h.shape.dims(), &[3, 3, 3]);
        let ptr = dec.section("ptr").unwrap();
        let ind = dec.section("ind").unwrap();
        assert_eq!(ptr, vec![0, 3, 3, 5]);
        assert_eq!(ind, vec![1, 4, 5, 7, 8]);
    }

    #[test]
    fn build_returns_identity_map_for_presorted_input() {
        // Input already sorted by row ⇒ stable sort keeps order.
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = GcsrPP.build(&coords, &shape, &c).unwrap();
        assert_eq!(out.map, Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn map_tracks_row_sort() {
        let shape = Shape::new(vec![3, 4]).unwrap();
        // Rows: 2, 0, 1 → sorted order is points 1, 2, 0.
        let coords = CoordBuffer::from_points(2, &[[2u64, 0], [0, 1], [1, 3]]).unwrap();
        let c = OpCounter::new();
        let out = GcsrPP.build(&coords, &shape, &c).unwrap();
        assert_eq!(out.map, Some(vec![2, 0, 1]));
    }

    #[test]
    fn read_scans_only_one_row() {
        // 4×4: row 0 holds 3 points, row 1 holds 1. A miss in row 1 must
        // cost 1 compare, not 4.
        let shape = Shape::new(vec![4, 4]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[0u64, 0], [0, 1], [0, 2], [1, 3]]).unwrap();
        let c = OpCounter::new();
        let out = GcsrPP.build(&coords, &shape, &c).unwrap();
        c.reset();
        let q = CoordBuffer::from_points(2, &[[1u64, 0]]).unwrap();
        assert_eq!(GcsrPP.read(&out.index, &q, &c).unwrap(), vec![None]);
        assert_eq!(c.snapshot().compares, 1);
    }

    #[test]
    fn query_outside_local_boundary_misses() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = GcsrPP.build(&coords, &shape, &c).unwrap();
        // (2,2,2) is the boundary corner; anything beyond is absent.
        let q = CoordBuffer::from_points(3, &[[2u64, 2, 2], [0, 0, 0]]).unwrap();
        let slots = GcsrPP.read(&out.index, &q, &c).unwrap();
        assert!(slots[0].is_some());
        assert_eq!(slots[1], None);
    }

    #[test]
    fn corrupted_ptr_is_rejected() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = GcsrPP.build(&coords, &shape, &c).unwrap();
        let mut bad = out.index.clone();
        // ptr section starts right after header+dims+len; make it non-monotone.
        let at = crate::codec::FIXED_HEADER_BYTES + 3 * 8 + 8;
        bad[at..at + 8].copy_from_slice(&9u64.to_le_bytes());
        let q = CoordBuffer::from_points(3, &[[0u64, 0, 1]]).unwrap();
        assert!(GcsrPP.read(&bad, &q, &c).is_err());
    }

    #[test]
    fn empty_tensor_roundtrip() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let c = OpCounter::new();
        let out = GcsrPP.build(&CoordBuffer::new(2), &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[1u64, 1]]).unwrap();
        assert_eq!(GcsrPP.read(&out.index, &q, &c).unwrap(), vec![None]);
    }

    #[test]
    fn space_model_close_to_linear() {
        let shape = Shape::new(vec![512, 512, 512]).unwrap();
        let n = 100_000;
        let gcsr = GcsrPP.predicted_index_words(n, &shape);
        let linear = crate::formats::linear::Linear.predicted_index_words(n, &shape);
        assert_eq!(gcsr, linear + 513);
    }

    #[test]
    fn duplicates_resolve_to_some_matching_record() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[1u64, 2], [1, 2], [0, 0]]).unwrap();
        check_against_oracle(&GcsrPP, &shape, &coords);
    }
}
