//! CSF — Compressed Sparse Fiber tree (Algorithm 2, §II.E).
//!
//! The SPLATT-style tree: one level per dimension, duplicated coordinate
//! prefixes collapsed into shared nodes. Three structures represent it:
//!
//! * `nfibs[i]` — node count at level `i`;
//! * `fids[i]`  — the level-`i` coordinate of every level-`i` node;
//! * `fptr[i]`  — for each level-`i` node, the start of its child range in
//!   level `i+1` (`nfibs[i] + 1` entries).
//!
//! Before building, dimensions are sorted by size ascending (Algorithm 2
//! line 6) to maximize prefix sharing at the root, and the points are
//! sorted lexicographically in that order (line 7). Space therefore ranges
//! from `O(n + d)` (one chain) to `O(d·n)` (no sharing) — the variance the
//! paper highlights in Fig. 4. Reads descend the tree once per query; each
//! level's child range is sorted, so a binary search locates the branch.

use crate::codec::{IndexDecoder, IndexEncoder, Words};
use crate::error::{FormatError, Result};
use crate::formats::csr2d::validate_ptr_words;
use crate::formats::{check_scan_region, lowest_slot_per_cell};
use crate::traits::{BuildOutput, FormatKind, Organization};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::sort::sort_lexicographic;
use artsparse_tensor::{CoordBuffer, Region, Shape};

/// The CSF organization.
#[derive(Debug, Clone, Copy, Default)]
pub struct Csf;

/// Decoded CSF tree, used by reads and by white-box tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsfTree {
    /// The local boundary shape (original dimension order).
    pub shape: Shape,
    /// Dimension permutation applied before sorting (`m_dim` in Alg. 2):
    /// tree level `k` stores original dimension `order[k]`.
    pub order: Vec<usize>,
    /// Node count per level.
    pub nfibs: Vec<u64>,
    /// Per-level node coordinate values.
    pub fids: Vec<Vec<u64>>,
    /// Per-level child-range starts (levels `0..d-1`).
    pub fptr: Vec<Vec<u64>>,
}

impl CsfTree {
    /// Construct the tree from lexicographically sorted, dimension-permuted
    /// points (Algorithm 2 lines 8–18) — shared by the sorting build and
    /// the presorted one, which skips the sort.
    fn from_sorted(shape: &Shape, order: Vec<usize>, sorted: &CoordBuffer) -> CsfTree {
        let d = shape.ndim();
        let n = sorted.len();
        let mut fids: Vec<Vec<u64>> = vec![Vec::new(); d];
        let mut fptr: Vec<Vec<u64>> = vec![Vec::new(); d.saturating_sub(1)];

        for j in 0..n {
            let p = sorted.point(j);
            // First level at which this point diverges from its predecessor.
            let start = if j == 0 {
                0
            } else {
                let prev = sorted.point(j - 1);
                let diff = (0..d).find(|&k| p[k] != prev[k]).unwrap_or(d);
                // Exact duplicates still get their own leaf (the paper sets
                // nfibs[d-1] = number of points).
                diff.min(d - 1)
            };
            for lvl in start..d {
                if lvl < d - 1 {
                    // This node's children begin at the current end of the
                    // next level (its first child is appended right after).
                    fptr[lvl].push(fids[lvl + 1].len() as u64);
                }
                fids[lvl].push(p[lvl]);
            }
        }
        // Close the last open node at every internal level.
        for lvl in 0..d.saturating_sub(1) {
            fptr[lvl].push(fids[lvl + 1].len() as u64);
        }
        let nfibs: Vec<u64> = fids.iter().map(|f| f.len() as u64).collect();
        CsfTree {
            shape: shape.clone(),
            order,
            nfibs,
            fids,
            fptr,
        }
    }

    /// Serialize (Algorithm 2 line 19: concatenate `nfibs + fids + fptr`).
    pub(crate) fn encode(&self, n: u64) -> Vec<u8> {
        let mut enc = IndexEncoder::new(FormatKind::Csf.id(), &self.shape, n);
        enc.put_section(&self.order.iter().map(|&o| o as u64).collect::<Vec<_>>());
        enc.put_section(&self.nfibs);
        for f in &self.fids {
            enc.put_section(f);
        }
        for p in &self.fptr {
            enc.put_section(p);
        }
        enc.finish()
    }

    /// Decode and validate every structural invariant, copying the tree
    /// out of the index. Reads look the tree up in place (`CsfView`); this
    /// owning form serves enumeration, conversion and white-box tests.
    pub fn decode(index: &[u8]) -> Result<(CsfTree, u64)> {
        let view = CsfView::decode(index)?;
        Ok((
            CsfTree {
                shape: view.shape,
                order: view.order,
                nfibs: view.nfibs,
                fids: view.fids.iter().map(Words::to_vec).collect(),
                fptr: view.fptr.iter().map(Words::to_vec).collect(),
            },
            view.n,
        ))
    }

    /// Total payload words (the quantity Fig. 4 measures for CSF).
    pub fn payload_words(&self) -> u64 {
        let fids: u64 = self.fids.iter().map(|f| f.len() as u64).sum();
        let fptr: u64 = self.fptr.iter().map(|p| p.len() as u64).sum();
        self.order.len() as u64 + self.nfibs.len() as u64 + fids + fptr
    }
}

/// A CSF tree read in place from an encoded index: the per-level `fids`
/// and `fptr` arrays stay in the fetched bytes, so a lookup touches only
/// the words its binary searches compare. Decoding validates exactly what
/// [`CsfTree::decode`] promises (it *is* that function's validation).
struct CsfView<'a> {
    shape: Shape,
    order: Vec<usize>,
    nfibs: Vec<u64>,
    fids: Vec<Words<'a>>,
    fptr: Vec<Words<'a>>,
    /// Point count from the index header.
    n: u64,
}

impl<'a> CsfView<'a> {
    fn decode(index: &'a [u8]) -> Result<CsfView<'a>> {
        let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::Csf.id()))?;
        let d = header.shape.ndim();
        let mut order = Vec::with_capacity(d);
        for w in dec.words_exact("order", d)?.iter() {
            let o = usize::try_from(w)
                .ok()
                .filter(|&o| o < d)
                .ok_or_else(|| FormatError::corrupt("dimension order entry out of range"))?;
            order.push(o);
        }
        if !artsparse_tensor::permute::is_permutation(&order) {
            return Err(FormatError::corrupt("dimension order is not a permutation"));
        }
        let nfibs = dec.words_exact("nfibs", d)?.to_vec();
        let mut fids = Vec::with_capacity(d);
        for &nf in &nfibs {
            let want =
                usize::try_from(nf).map_err(|_| FormatError::corrupt("nfibs entry too large"))?;
            fids.push(dec.words_exact("fids", want)?);
        }
        let mut fptr = Vec::with_capacity(d - 1);
        for i in 0..d - 1 {
            let want = nfibs[i] as usize + 1;
            let p = dec.words_exact("fptr", want)?;
            validate_ptr_words(p.iter(), nfibs[i + 1], "fptr level")?;
            fptr.push(p);
        }
        dec.expect_end()?;
        if d > 0 && nfibs[d - 1] != header.n {
            return Err(FormatError::corrupt(format!(
                "leaf level has {} nodes for {} points",
                nfibs[d - 1],
                header.n
            )));
        }
        Ok(CsfView {
            shape: header.shape,
            order,
            nfibs,
            fids,
            fptr,
            n: header.n,
        })
    }

    /// Descend the tree for one (already dimension-permuted) query point.
    /// Returns the leaf index (= value slot) and counts operations.
    fn lookup(&self, qp: &[u64], counter: &OpCounter) -> Option<u64> {
        let d = self.shape.ndim();
        let mut lo = 0usize;
        let mut hi = self.nfibs[0] as usize;
        let mut compares = 0u64;
        let mut visits = 0u64;
        let mut found = None;
        for (i, &q) in qp.iter().enumerate().take(d) {
            visits += 1;
            // Children of one node are sorted ascending: binary search.
            let seg = self.fids[i].slice(lo, hi);
            let (pos, cmp) = binary_search_counted(seg, q);
            compares += cmp;
            match pos {
                None => break,
                Some(off) => {
                    let fi = lo + off;
                    if i == d - 1 {
                        found = Some(fi as u64);
                    } else {
                        lo = self.fptr[i].get(fi) as usize;
                        hi = self.fptr[i].get(fi + 1) as usize;
                    }
                }
            }
        }
        counter.add(OpKind::Compare, compares);
        counter.add(OpKind::NodeVisit, visits);
        found
    }

    /// Walk the subtrees inside `inside` (a box within the tree's shape),
    /// depth-first: at each level the children whose coordinate lies in
    /// the box's interval there are one sorted sub-range, found by two
    /// binary searches; nothing outside it is visited. Calls `emit` with
    /// each leaf's coordinate (original dimension order) and slot.
    fn walk_box(&self, inside: &Region, counter: &OpCounter, mut emit: impl FnMut(&[u64], u64)) {
        let d = self.shape.ndim();
        let (mut compares, mut visits) = (0u64, 0u64);
        // The children of `lo..hi` at `lvl` inside the box's interval.
        let mut children = |lvl: usize, lo: usize, hi: usize| {
            let seg = self.fids[lvl].slice(lo, hi);
            let (min, max) = (inside.lo()[self.order[lvl]], inside.hi()[self.order[lvl]]);
            let from = seg.partition_point(|c| c < min);
            let to = seg.partition_point(|c| c <= max);
            compares += 2 * (usize::BITS - seg.len().leading_zeros()) as u64;
            lo + from..lo + to
        };
        let mut coord = vec![0u64; d];
        // Stack of (level, node index), first child on top.
        let mut stack: Vec<(usize, usize)> = children(0, 0, self.nfibs[0] as usize)
            .rev()
            .map(|node| (0, node))
            .collect();
        while let Some((lvl, node)) = stack.pop() {
            visits += 1;
            let (dim, c) = (self.order[lvl], self.fids[lvl].get(node));
            if c < inside.lo()[dim] || c > inside.hi()[dim] {
                continue; // only an unsorted (damaged) level gets here
            }
            coord[dim] = c;
            if lvl == d - 1 {
                emit(&coord, node as u64);
            } else {
                let lo = self.fptr[lvl].get(node) as usize;
                let hi = self.fptr[lvl].get(node + 1) as usize;
                stack.extend(children(lvl + 1, lo, hi).rev().map(|c| (lvl + 1, c)));
            }
        }
        counter.add(OpKind::Compare, compares);
        counter.add(OpKind::NodeVisit, visits);
    }
}

/// Binary search returning `(position, comparisons)`. For runs of equal
/// values, returns the first.
fn binary_search_counted(seg: Words<'_>, target: u64) -> (Option<usize>, u64) {
    let mut lo = 0usize;
    let mut hi = seg.len();
    let mut compares = 0u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        compares += 1;
        if seg.get(mid) < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < seg.len() {
        compares += 1;
        if seg.get(lo) == target {
            return (Some(lo), compares);
        }
    }
    (None, compares)
}

/// Build CSF from points already lexicographically sorted in *original*
/// dimension order — the presorted entry used by [`crate::convert`].
///
/// Valid only when the local boundary's ascending-size dimension order is
/// the identity, i.e. [`Csf::build`] would not permute dimensions and its
/// sort would be the identity; returns `Ok(None)` otherwise so the caller
/// falls back to the sorting build. On the `Some` path the output is
/// byte-identical to [`Csf::build`] (`map` omitted: it would be the
/// identity).
pub(crate) fn build_csf_presorted(
    coords: &CoordBuffer,
    shape: &Shape,
    counter: &OpCounter,
) -> Result<Option<BuildOutput>> {
    coords.check_against(shape)?;
    let n = coords.len();
    let s_l = coords
        .local_boundary_shape()
        .unwrap_or_else(|| shape.clone());
    let order = s_l.ascending_dim_order();
    if order.iter().enumerate().any(|(i, &o)| i != o) {
        return Ok(None);
    }
    debug_assert!(
        (1..n).all(|j| coords.point(j - 1) <= coords.point(j)),
        "input not lexicographically sorted"
    );
    let tree = CsfTree::from_sorted(&s_l, order, coords);
    counter.add(OpKind::Transform, (n * s_l.ndim()) as u64);
    counter.add(OpKind::Emit, tree.payload_words());
    Ok(Some(BuildOutput {
        index: tree.encode(n as u64),
        map: None,
        n_points: n,
    }))
}

impl Organization for Csf {
    fn kind(&self) -> FormatKind {
        FormatKind::Csf
    }

    fn build(
        &self,
        coords: &CoordBuffer,
        shape: &Shape,
        counter: &OpCounter,
    ) -> Result<BuildOutput> {
        coords.check_against(shape)?;
        let n = coords.len();
        // Line 5: local boundary; line 6: sort dimensions ascending.
        let s_l = coords
            .local_boundary_shape()
            .unwrap_or_else(|| shape.clone());
        let order = s_l.ascending_dim_order();
        let permuted = coords.permute_dims(&order)?;
        // Line 7: sort the buffer in the permuted dimension order.
        let sorted = sort_lexicographic(&permuted);
        counter.add(
            OpKind::SortCompare,
            // Lexicographic sort comparisons ≈ n log2 n (counted
            // analytically: `sort_lexicographic`'s comparator is not
            // instrumented).
            approx_sort_compares(n),
        );
        // Lines 8–18: build the tree level by level.
        let tree = CsfTree::from_sorted(&s_l, order, &sorted.coords);
        counter.add(OpKind::Transform, (n * s_l.ndim()) as u64);
        counter.add(OpKind::Emit, tree.payload_words());
        // Line 19: serialize.
        Ok(BuildOutput {
            index: tree.encode(n as u64),
            map: Some(sorted.map),
            n_points: n,
        })
    }

    fn read(
        &self,
        index: &[u8],
        queries: &CoordBuffer,
        counter: &OpCounter,
    ) -> Result<Vec<Option<u64>>> {
        let tree = CsfView::decode(index)?;
        let d = tree.shape.ndim();
        if queries.ndim() != d {
            return Err(artsparse_tensor::TensorError::DimensionMismatch {
                expected: d,
                got: queries.ndim(),
            }
            .into());
        }
        let lookup = |q: &[u64]| {
            if !tree.shape.contains(q) {
                counter.inc(OpKind::Compare);
                return None;
            }
            // Permute the query into tree-level order (one transform).
            counter.inc(OpKind::Transform);
            let qp: Vec<u64> = tree.order.iter().map(|&k| q[k]).collect();
            tree.lookup(&qp, counter)
        };
        Ok(queries.iter().map(lookup).collect())
    }

    /// One descent for the whole box: only children whose coordinate lies
    /// in the box's interval at their level are entered.
    fn scan(
        &self,
        index: &[u8],
        region: &Region,
        counter: &OpCounter,
    ) -> Result<Vec<(usize, u64)>> {
        let tree = CsfView::decode(index)?;
        check_scan_region(region, tree.shape.ndim())?;
        // Outside the local boundary ⇒ cannot be present.
        let Some(inside) = region.within(&tree.shape) else {
            return Ok(Vec::new());
        };
        let mut matches = Vec::new();
        tree.walk_box(&inside, counter, |coord, slot| {
            matches.push((region.rank(coord) as usize, slot));
        });
        Ok(lowest_slot_per_cell(matches))
    }

    fn enumerate(&self, index: &[u8], counter: &OpCounter) -> Result<CoordBuffer> {
        let (tree, n) = CsfTree::decode(index)?;
        let d = tree.shape.ndim();
        // Walk the tree depth-first; leaves come out in slot order because
        // the levels were built from lexicographically sorted points.
        let mut coords = CoordBuffer::with_capacity(d, n as usize);
        let mut permuted = vec![0u64; d];
        let mut original = vec![0u64; d];
        // Stack of (level, node index).
        let mut stack: Vec<(usize, usize)> = (0..tree.nfibs[0] as usize)
            .rev()
            .map(|i| (0usize, i))
            .collect();
        while let Some((lvl, node)) = stack.pop() {
            permuted[lvl] = tree.fids[lvl][node];
            if lvl == d - 1 {
                for (k, &orig_dim) in tree.order.iter().enumerate() {
                    original[orig_dim] = permuted[k];
                }
                coords.push(&original)?;
            } else {
                let lo = tree.fptr[lvl][node] as usize;
                let hi = tree.fptr[lvl][node + 1] as usize;
                for child in (lo..hi).rev() {
                    stack.push((lvl + 1, child));
                }
            }
        }
        if coords.len() as u64 != n {
            return Err(FormatError::corrupt("tree walk did not reach every leaf"));
        }
        counter.add(OpKind::NodeVisit, tree.nfibs.iter().sum());
        Ok(coords)
    }

    fn predicted_index_words(&self, n: u64, shape: &Shape) -> u64 {
        // Table I worst case O(d·n): every point its own chain —
        // fids = d·n, fptr = (d-1)(n+1), plus nfibs and the order vector.
        let d = shape.ndim() as u64;
        d * n + (d - 1) * (n + 1) + 2 * d
    }
}

/// Analytic `n·log2(n)` estimate used for sort-comparison accounting.
fn approx_sort_compares(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let n = n as u64;
    n * (63 - n.leading_zeros() as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::testutil::{check_against_oracle, fig1};

    #[test]
    fn fig1_roundtrip_against_oracle() {
        let (shape, coords) = fig1();
        check_against_oracle(&Csf, &shape, &coords);
    }

    #[test]
    fn fig1_tree_matches_paper_exactly() {
        // §II.E lists, for the Fig. 1 tensor: nfibs = {2, 3, 5},
        // fids = {{0,2},{0,1,2},{1,1,2,1,2}}, fptr = {{0,2,3},{0,1,3,5}}.
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        let (tree, n) = CsfTree::decode(&out.index).unwrap();
        assert_eq!(n, 5);
        assert_eq!(tree.nfibs, vec![2, 3, 5]);
        assert_eq!(
            tree.fids,
            vec![vec![0, 2], vec![0, 1, 2], vec![1, 1, 2, 1, 2]]
        );
        assert_eq!(tree.fptr, vec![vec![0, 2, 3], vec![0, 1, 3, 5]]);
    }

    #[test]
    fn dimension_sort_reorders_levels() {
        // Shape (8, 2, 4): ascending order is [1, 2, 0], so level 0 holds
        // the size-2 dimension.
        let shape = Shape::new(vec![8, 2, 4]).unwrap();
        let coords = CoordBuffer::from_points(3, &[[5u64, 0, 3], [5, 1, 3], [2, 0, 1]]).unwrap();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        let (tree, _) = CsfTree::decode(&out.index).unwrap();
        assert_eq!(tree.order, vec![1, 2, 0]);
        // Level 0 values come from original dimension 1 ∈ {0, 1}.
        assert!(tree.fids[0].iter().all(|&v| v < 2));
        check_against_oracle(&Csf, &shape, &coords);
    }

    #[test]
    fn compact_tensor_shares_prefixes() {
        // All points share the same first two (sorted-order) coordinates:
        // one chain down to the leaves ⇒ near best-case O(n + d) space.
        let shape = Shape::cube(3, 16).unwrap();
        let pts: Vec<[u64; 3]> = (0..10).map(|k| [7u64, 3, k]).collect();
        let coords = CoordBuffer::from_points(3, &pts).unwrap();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        let (tree, _) = CsfTree::decode(&out.index).unwrap();
        assert_eq!(tree.nfibs, vec![1, 1, 10]);
        assert!(tree.payload_words() < 25);
    }

    #[test]
    fn divergent_tensor_hits_worst_case() {
        // Diagonal points: unique in *every* dimension, so even after the
        // ascending dimension sort there is no prefix sharing at all.
        let shape = Shape::cube(3, 16).unwrap();
        let pts: Vec<[u64; 3]> = (0..10).map(|k| [k, k, k]).collect();
        let coords = CoordBuffer::from_points(3, &pts).unwrap();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        let (tree, _) = CsfTree::decode(&out.index).unwrap();
        assert_eq!(tree.nfibs, vec![10, 10, 10]);
        let words = tree.payload_words();
        assert!(words <= Csf.predicted_index_words(10, &shape));
    }

    #[test]
    fn read_descends_d_levels() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        c.reset();
        let q = CoordBuffer::from_points(3, &[[0u64, 1, 2]]).unwrap();
        let slots = Csf.read(&out.index, &q, &c).unwrap();
        assert_eq!(slots, vec![Some(2)]);
        assert_eq!(c.snapshot().node_visits, 3);
    }

    #[test]
    fn miss_at_root_stops_early() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        c.reset();
        let q = CoordBuffer::from_points(3, &[[1u64, 1, 1]]).unwrap();
        assert_eq!(Csf.read(&out.index, &q, &c).unwrap(), vec![None]);
        assert_eq!(c.snapshot().node_visits, 1);
    }

    #[test]
    fn duplicates_get_individual_leaves() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[1u64, 1], [1, 1], [1, 2]]).unwrap();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        let (tree, _) = CsfTree::decode(&out.index).unwrap();
        assert_eq!(tree.nfibs, vec![1, 3]);
        assert_eq!(tree.fids[1], vec![1, 1, 2]);
        check_against_oracle(&Csf, &shape, &coords);
    }

    #[test]
    fn corrupt_fptr_rejected() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        // Flip a late byte (inside the last fptr section payload).
        let mut bad = out.index.clone();
        let at = bad.len() - 4;
        bad[at] = 0xFF;
        assert!(CsfTree::decode(&bad).is_err());
    }

    #[test]
    fn corrupt_order_rejected() {
        let (shape, coords) = fig1();
        let c = OpCounter::new();
        let out = Csf.build(&coords, &shape, &c).unwrap();
        // The order section starts after header + dims; set entry 0 to 9.
        let mut bad = out.index.clone();
        let at = crate::codec::FIXED_HEADER_BYTES + 3 * 8 + 8;
        bad[at..at + 8].copy_from_slice(&9u64.to_le_bytes());
        assert!(matches!(
            CsfTree::decode(&bad),
            Err(FormatError::Corrupt { .. })
        ));
    }

    #[test]
    fn one_dimensional_tensor_works() {
        let shape = Shape::new(vec![32]).unwrap();
        let coords = CoordBuffer::from_points(1, &[[3u64], [17], [9]]).unwrap();
        check_against_oracle(&Csf, &shape, &coords);
    }

    #[test]
    fn empty_tensor_roundtrip() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let c = OpCounter::new();
        let out = Csf.build(&CoordBuffer::new(2), &shape, &c).unwrap();
        let q = CoordBuffer::from_points(2, &[[0u64, 0]]).unwrap();
        assert_eq!(Csf.read(&out.index, &q, &c).unwrap(), vec![None]);
    }

    #[test]
    fn binary_search_counts_and_finds_first() {
        let bytes: Vec<u8> = [2u64, 4, 4, 4, 9]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let seg = Words::new(&bytes).unwrap();
        let (pos, _) = binary_search_counted(seg, 4);
        assert_eq!(pos, Some(1));
        let (pos, _) = binary_search_counted(seg, 5);
        assert_eq!(pos, None);
        let (pos, _) = binary_search_counted(Words::new(&[]).unwrap(), 1);
        assert_eq!(pos, None);
    }
}
