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

/// One pass over lexicographically sorted points: the level at which
/// each opens its first node — where it diverges from its predecessor;
/// every point opens a leaf, so exact duplicates still get their own (the
/// paper sets nfibs[d-1] = number of points) — and the points' local
/// boundary (Algorithm 2 line 5), `None` when there are none or it has no
/// `u64` address space.
fn scan_sorted(sorted: &CoordBuffer) -> (Vec<u32>, Option<Shape>) {
    let d = sorted.ndim();
    let internal = d.saturating_sub(1);
    let mut opens = Vec::with_capacity(sorted.len());
    let mut corner = vec![0u64; d];
    let mut prev: &[u64] = &[];
    for p in sorted.iter() {
        let same = prev.iter().zip(&p[..internal]);
        opens.push(same.take_while(|(a, b)| a == b).count() as u32);
        corner
            .iter_mut()
            .zip(p)
            .for_each(|(c, &x)| *c = (*c).max(x));
        prev = p;
    }
    let dims: Option<Vec<u64>> = corner.iter().map(|c| c.checked_add(1)).collect();
    let bounds = dims.filter(|_| !sorted.is_empty());
    (opens, bounds.and_then(|dims| Shape::new(dims).ok()))
}

/// Build and serialize the tree of lexicographically sorted,
/// dimension-permuted points (Algorithm 2 lines 8–19) straight into its
/// index — shared by the sorting build and the presorted one, which skips
/// the sort. `opens` is [`scan_sorted`]'s; every section is one pass over
/// it, written in index order, so the index is the build's one large
/// allocation. Returns it with its payload word count (what `Emit`
/// charges).
fn encode_sorted(
    shape: &Shape,
    order: &[usize],
    sorted: &CoordBuffer,
    opens: &[u32],
) -> (Vec<u8>, u64) {
    let d = shape.ndim();
    let internal = d - 1;
    let points = sorted.as_flat();
    let mut nfibs = vec![0u64; d];
    for &lvl in opens {
        nfibs[lvl as usize] += 1;
    }
    for lvl in 1..d {
        nfibs[lvl] += nfibs[lvl - 1];
    }
    let order_words: Vec<u64> = order.iter().map(|&o| o as u64).collect();
    let nodes: u64 = nfibs.iter().sum();
    let payload = 2 * d as u64 + nodes + nfibs[..internal].iter().map(|&f| f + 1).sum::<u64>();
    let sections = 2 * d + 1;
    let mut enc = IndexEncoder::with_capacity(
        FormatKind::Csf.id(),
        shape,
        sorted.len() as u64,
        payload as usize + sections,
    );
    enc.put_section(&order_words);
    enc.put_section(&nfibs);
    // fids[lvl]: the coordinate of every point that opens a node there
    // (at the leaf level, every point).
    for (lvl, &count) in nfibs[..internal].iter().enumerate() {
        let opening = opens.iter().zip(points.chunks_exact(d));
        let fids = opening
            .filter(|(&at, _)| at as usize <= lvl)
            .map(|(_, p)| p[lvl]);
        enc.put_section_from(count as usize, fids);
    }
    let leaves = points.chunks_exact(d).map(|p| p[internal]);
    enc.put_section_from(sorted.len(), leaves);
    // fptr[lvl]: a node's children begin at the number of level-(lvl+1)
    // nodes opened before the point that opened it; the last entry closes
    // the last node.
    for lvl in 0..internal {
        let mut below = 0u64;
        let starts = opens.iter().filter_map(|&at| {
            let at = at as usize;
            let start = (at <= lvl).then_some(below);
            below += u64::from(at <= lvl + 1);
            start
        });
        let fptr = starts.chain(std::iter::once(nfibs[lvl + 1]));
        enc.put_section_from(nfibs[lvl] as usize + 1, fptr);
    }
    (enc.finish(), payload)
}

impl CsfTree {
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

/// `bounds`, the points' local boundary (Algorithm 2 line 5), checked
/// against `shape`: every point lies in `shape` exactly when the boundary
/// does, so only a buffer that fails pays for
/// [`CoordBuffer::check_against`]'s point-by-point error. Points without
/// a boundary have `shape`'s.
fn checked_boundary(coords: &CoordBuffer, shape: &Shape, bounds: Option<Shape>) -> Result<Shape> {
    match bounds {
        Some(s_l)
            if s_l.ndim() == shape.ndim()
                && s_l.dims().iter().zip(shape.dims()).all(|(l, m)| l <= m) =>
        {
            Ok(s_l)
        }
        _ => {
            coords.check_against(shape)?;
            if coords.is_empty() {
                return Ok(shape.clone());
            }
            Err(FormatError::corrupt(
                "local boundary exceeds a shape that holds every point",
            ))
        }
    }
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
    let n = coords.len();
    let (opens, bounds) = scan_sorted(coords);
    let s_l = checked_boundary(coords, shape, bounds)?;
    let order = s_l.ascending_dim_order();
    if order.iter().enumerate().any(|(i, &o)| i != o) {
        return Ok(None);
    }
    debug_assert!(
        (1..n).all(|j| coords.point(j - 1) <= coords.point(j)),
        "input not lexicographically sorted"
    );
    let (index, payload_words) = encode_sorted(&s_l, &order, coords, &opens);
    counter.add(OpKind::Transform, (n * s_l.ndim()) as u64);
    counter.add(OpKind::Emit, payload_words);
    Ok(Some(BuildOutput {
        index,
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
        let n = coords.len();
        // Line 5: local boundary; line 6: sort dimensions ascending.
        let s_l = checked_boundary(coords, shape, coords.local_boundary_shape())?;
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
        let (opens, _) = scan_sorted(&sorted.coords);
        let (index, payload_words) = encode_sorted(&s_l, &order, &sorted.coords, &opens);
        counter.add(OpKind::Transform, (n * s_l.ndim()) as u64);
        counter.add(OpKind::Emit, payload_words);
        Ok(BuildOutput {
            index,
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
        let tree = CsfView::decode(index)?;
        let d = tree.shape.ndim();
        let n =
            usize::try_from(tree.n).map_err(|_| FormatError::corrupt("point count too large"))?;
        // Level at a time, from the leaves up. Leaf `j` is point `j`, so
        // the last level is one coordinate column. Above it, `first[i]`
        // is the first leaf under node `i` of the current level (and
        // `first[nodes]` is `n`), so node `i`'s coordinate fills leaves
        // `first[i]..first[i + 1]`: a node's first leaf is its first
        // child's, and a child of the last internal level is a leaf.
        // Decoding validated each `fptr` (0 first, monotone, the next
        // level's node count last), so every lookup is in range, and a
        // node without children covers no leaf.
        let mut points = vec![0u64; n * d];
        let leaves = points.chunks_exact_mut(d).zip(tree.fids[d - 1].iter());
        leaves.for_each(|(p, c)| p[tree.order[d - 1]] = c);
        let mut first: Vec<usize> = Vec::new();
        for lvl in (0..d - 1).rev() {
            let children = tree.fptr[lvl].iter().map(|c| c as usize);
            first = if lvl == d - 2 {
                children.collect()
            } else {
                children.map(|c| first[c]).collect()
            };
            let dim = tree.order[lvl];
            for (i, c) in tree.fids[lvl].iter().enumerate() {
                let leaves = &mut points[first[i] * d..first[i + 1] * d];
                leaves.chunks_exact_mut(d).for_each(|p| p[dim] = c);
            }
        }
        counter.add(OpKind::NodeVisit, tree.nfibs.iter().sum());
        Ok(CoordBuffer::from_flat(d, points)?)
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
    use crate::convert::build_from_address_sorted;
    use crate::formats::testutil::{check_against_oracle, fig1};
    use artsparse_tensor::permute::argsort_by;
    use artsparse_tensor::sort::sort_by_linear;
    use proptest::prelude::*;

    /// The per-point kernels the level-at-a-time loops replaced, kept as
    /// the reference they must equal word for word.
    mod reference {
        use super::*;

        pub fn encode_sorted(shape: &Shape, order: &[usize], sorted: &CoordBuffer) -> Vec<u8> {
            let d = shape.ndim();
            let internal = d.saturating_sub(1);
            let first_new = |j: usize| -> usize {
                let Some(prev) = j.checked_sub(1).map(|i| sorted.point(i)) else {
                    return 0;
                };
                let p = sorted.point(j);
                (0..d).find(|&k| p[k] != prev[k]).unwrap_or(d).min(internal)
            };
            let mut nfibs = vec![0u64; d];
            for j in 0..sorted.len() {
                nfibs[first_new(j)..].iter_mut().for_each(|c| *c += 1);
            }
            let mut fids: Vec<Vec<u64>> = nfibs.iter().map(|&f| vec![0; f as usize]).collect();
            let mut fptr: Vec<Vec<u64>> = (nfibs[..internal].iter())
                .map(|&f| vec![0; f as usize + 1])
                .collect();
            let mut nodes_at = vec![0usize; d];
            for j in 0..sorted.len() {
                let p = sorted.point(j);
                for lvl in first_new(j)..d {
                    if lvl < internal {
                        fptr[lvl][nodes_at[lvl]] = nodes_at[lvl + 1] as u64;
                    }
                    fids[lvl][nodes_at[lvl]] = p[lvl];
                    nodes_at[lvl] += 1;
                }
            }
            for lvl in 0..internal {
                fptr[lvl][nodes_at[lvl]] = nodes_at[lvl + 1] as u64;
            }
            let order_words: Vec<u64> = order.iter().map(|&o| o as u64).collect();
            let mut sections: Vec<&[u64]> = vec![&order_words, &nfibs];
            sections.extend(fids.iter().map(Vec::as_slice));
            sections.extend(fptr.iter().map(Vec::as_slice));
            let n = sorted.len() as u64;
            IndexEncoder::encode(FormatKind::Csf.id(), shape, n, &sections)
        }

        /// The sorting build: permute, compare-sort, encode.
        pub fn build(coords: &CoordBuffer) -> (Vec<u8>, Vec<usize>) {
            let s_l = coords.local_boundary_shape().unwrap();
            let order = s_l.ascending_dim_order();
            let permuted = coords.permute_dims(&order).unwrap();
            let perm = argsort_by(permuted.len(), |a, b| {
                permuted.point(a).cmp(permuted.point(b))
            });
            let sorted = permuted.gather(&perm);
            let mut map = vec![0; perm.len()];
            for (j, &i) in perm.iter().enumerate() {
                map[i] = j;
            }
            (encode_sorted(&s_l, &order, &sorted), map)
        }

        pub fn enumerate(index: &[u8]) -> CoordBuffer {
            let (tree, n) = CsfTree::decode(index).unwrap();
            let d = tree.shape.ndim();
            let mut coords = CoordBuffer::with_capacity(d, n as usize);
            let mut node = vec![0usize; d];
            let mut point = vec![0u64; d];
            for leaf in 0..n as usize {
                node[d - 1] = leaf;
                for lvl in (0..d - 1).rev() {
                    while tree.fptr[lvl][node[lvl] + 1] as usize <= node[lvl + 1] {
                        node[lvl] += 1;
                    }
                }
                for (lvl, &dim) in tree.order.iter().enumerate() {
                    point[dim] = tree.fids[lvl][node[lvl]];
                }
                coords.push(&point).unwrap();
            }
            coords
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random points in 1- to 4-D shapes small enough that duplicates
        /// and shared prefixes are common: the sorting build, the
        /// presorted build (direct exactly when the boundary's ascending
        /// dimension order is the identity, the sorting build otherwise)
        /// and enumerate equal the per-point kernels, with the same
        /// `Emit` and `NodeVisit` charges.
        #[test]
        fn kernels_match_the_per_point_reference(
            dims in prop::collection::vec(1u64..6, 1..5),
            raw in prop::collection::vec(prop::collection::vec(any::<u64>(), 4), 1..48),
        ) {
            let shape = Shape::new(dims.clone()).unwrap();
            let d = dims.len();
            let points: Vec<Vec<u64>> = (raw.iter())
                .map(|r| (0..d).map(|k| r[k] % dims[k]).collect())
                .collect();
            let coords = CoordBuffer::from_points(d, &points).unwrap();
            let (want, want_map) = reference::build(&coords);

            let c = OpCounter::new();
            let built = Csf.build(&coords, &shape, &c).unwrap();
            prop_assert_eq!(&built.index, &want);
            prop_assert_eq!(built.map.as_ref(), Some(&want_map));

            let sorted = sort_by_linear(&coords, &shape).coords;
            let s_l = sorted.local_boundary_shape().unwrap();
            let identity = (s_l.ascending_dim_order().iter().enumerate()).all(|(i, &o)| i == o);
            let c = OpCounter::new();
            let (presorted, direct) =
                build_from_address_sorted(FormatKind::Csf, &sorted, &shape, &c).unwrap();
            prop_assert_eq!(direct, identity);
            prop_assert_eq!(&presorted.index, &reference::build(&sorted).0);
            let (tree, _) = CsfTree::decode(&presorted.index).unwrap();
            prop_assert_eq!(c.snapshot().emits, tree.payload_words());
            prop_assert_eq!(c.snapshot().transforms, (sorted.len() * d) as u64);

            let c = OpCounter::new();
            let listed = Csf.enumerate(&built.index, &c).unwrap();
            prop_assert_eq!(&listed, &reference::enumerate(&built.index));
            let (tree, _) = CsfTree::decode(&built.index).unwrap();
            prop_assert_eq!(c.snapshot().node_visits, tree.nfibs.iter().sum::<u64>());
        }
    }

    #[test]
    fn enumerate_skips_a_childless_node_like_the_reference() {
        // Valid to decode (fptr starts at 0, is monotone, ends at the
        // leaf count) but node 0 of level 0 has no children.
        let shape = Shape::new(vec![4, 2]).unwrap();
        let index = IndexEncoder::encode(
            FormatKind::Csf.id(),
            &shape,
            2,
            &[&[0, 1], &[2, 2], &[1, 3], &[0, 1], &[0, 0, 2]],
        );
        let c = OpCounter::new();
        let listed = Csf.enumerate(&index, &c).unwrap();
        assert_eq!(listed, reference::enumerate(&index));
        assert_eq!(listed.as_flat(), [3, 0, 3, 1]);
    }

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
