//! Direct format-to-format conversion (after Chou, Kjolstad & Amarasinghe,
//! "Automatic Generation of Efficient Sparse Tensor Format Conversion
//! Routines").
//!
//! The baseline way to change a fragment's organization is
//! decode-to-COO-and-rebuild: enumerate the source index back into a
//! coordinate buffer, then run the target's full build — including its
//! sort. That is always correct, and [`convert`] uses it as the fallback
//! for every pair. But many common migrations can skip the expensive part
//! because the source index *already is* sorted in an order the target
//! build would reproduce:
//!
//! * **any → itself** — the index is returned verbatim;
//! * **COO-SORTED → GCSR++** — address order is lexicographic order, and
//!   Algorithm 1's bucket (`⌊l/cols⌋`) is monotone in the address, so the
//!   build's stable sort is the identity and is skipped;
//! * **COO-SORTED → CSF** — when the local boundary's ascending-size
//!   dimension order is the identity, the tree is assembled straight from
//!   the sorted stream (Algorithm 2 lines 8–18 with lines 6–7 elided);
//! * **LINEAR → COO-SORTED** — the raw address words are sorted directly;
//!   no delinearize/relinearize round-trip;
//! * **GCSR++ → CSF** — buckets partition the address space into
//!   contiguous ranges, so a *per-bucket* sort of the (mostly shorter)
//!   bucket segments reproduces the global lexicographic sort.
//!
//! Every path — fast or fallback — is byte-identical to
//! `to.build(from.enumerate(index))` on the same index; the
//! `convert_roundtrip` proptest pins that for all 81 ordered pairs.

use crate::codec::IndexDecoder;
use crate::error::{FormatError, Result};
use crate::formats::csf::{build_csf_presorted, CsfTree};
use crate::formats::csr2d::{validate_ptr, Remap2D};
use crate::formats::ext::sorted_coo::build_sorted_coo_presorted;
use crate::formats::gcsr::build_gcsr_presorted;
use crate::traits::{BuildOutput, FormatKind};
use artsparse_metrics::{OpCounter, OpKind};
use artsparse_tensor::permute::{argsort_by, invert_permutation};
use artsparse_tensor::{CoordBuffer, Shape};

/// The result of re-encoding an index in another organization.
#[derive(Debug, Clone)]
pub struct Conversion {
    /// The target organization's index bytes.
    pub index: Vec<u8>,
    /// Scatter map for the value payload: source slot `i` moves to target
    /// slot `map[i]`. `None` means the identity (values stay put).
    pub map: Option<Vec<usize>>,
    /// Points carried over.
    pub n_points: usize,
    /// `true` when a direct routine ran (verbatim, sort elided, or
    /// per-bucket); `false` when the COO fallback rebuilt from scratch.
    pub direct: bool,
}

impl Conversion {
    fn from_build(built: BuildOutput, direct: bool) -> Conversion {
        Conversion {
            index: built.index,
            map: built.map,
            n_points: built.n_points,
            direct,
        }
    }
}

/// Re-encode `index` (an organization index of kind `from`) as kind `to`.
///
/// `shape` is the *global* tensor shape the fragment belongs to — the
/// same shape that was passed to the original build (formats that store a
/// local boundary shape in their header derive it from the points, not
/// from this parameter). The output is byte-identical to
/// `to.create().build(&from.create().enumerate(index)?, shape)?` — index
/// bytes and (map-applied) value order both — with the sort skipped or
/// narrowed whenever the source order makes that possible.
pub fn convert(
    from: FormatKind,
    index: &[u8],
    to: FormatKind,
    shape: &Shape,
    counter: &OpCounter,
) -> Result<Conversion> {
    if from == to {
        // Re-encoding in the same organization reproduces the same bytes:
        // every enumerate emits in the build's canonical slot order, so
        // the rebuild's sort is the identity. Skip the whole round-trip.
        let (header, _dec) = IndexDecoder::new(index, Some(from.id()))?;
        return Ok(Conversion {
            index: index.to_vec(),
            map: None,
            n_points: header.n as usize,
            direct: true,
        });
    }
    let fast = match (from, to) {
        (FormatKind::SortedCoo, FormatKind::GcsrPP) => sorted_coo_to_gcsr(index, shape, counter)?,
        (FormatKind::SortedCoo, FormatKind::Csf) => sorted_coo_to_csf(index, shape, counter)?,
        (FormatKind::Linear, FormatKind::SortedCoo) => linear_to_sorted_coo(index, shape, counter)?,
        (FormatKind::GcsrPP, FormatKind::Csf) => gcsr_to_csf(index, shape, counter)?,
        _ => None,
    };
    if let Some(conv) = fast {
        return Ok(conv);
    }
    // COO fallback: enumerate the source into coordinates and run the
    // target's full build.
    let coords = from.create().enumerate(index, counter)?;
    let built = to.create().build(&coords, shape, counter)?;
    Ok(Conversion::from_build(built, false))
}

/// Build the target organization from points already in nondecreasing
/// *global* linear-address order — equivalently, lexicographic order.
///
/// This is the consolidation entry point: the engine's merge scan yields
/// its points in canonical address order, which is exactly the order the
/// sorting builds would produce, so their sorts can be elided. Returns
/// the build plus whether a direct (sort-free) routine ran; the output is
/// byte-identical to `kind.create().build(coords, shape)` either way.
pub fn build_from_address_sorted(
    kind: FormatKind,
    coords: &CoordBuffer,
    shape: &Shape,
    counter: &OpCounter,
) -> Result<(BuildOutput, bool)> {
    match kind {
        // No sort in these builds to begin with: the rebuild is direct.
        FormatKind::Coo | FormatKind::Linear => {
            Ok((kind.create().build(coords, shape, counter)?, true))
        }
        FormatKind::SortedCoo => Ok((build_sorted_coo_presorted(coords, shape, counter)?, true)),
        FormatKind::GcsrPP => Ok((build_gcsr_presorted(coords, shape, counter)?, true)),
        FormatKind::Csf => match build_csf_presorted(coords, shape, counter)? {
            Some(built) => Ok((built, true)),
            // The boundary's dimension order permutes: address order is
            // not the tree's sort order, run the real build.
            None => Ok((kind.create().build(coords, shape, counter)?, false)),
        },
        // GCSC++ buckets by column (not address-monotone); the block
        // formats sort by block id — neither matches address order.
        _ => Ok((kind.create().build(coords, shape, counter)?, false)),
    }
}

/// Decode the single address section shared by LINEAR and COO-SORTED.
fn decode_addr_index(format: FormatKind, index: &[u8]) -> Result<(Shape, Vec<u64>)> {
    let (header, mut dec) = IndexDecoder::new(index, Some(format.id()))?;
    let addrs = dec.section_exact("addresses", header.n as usize)?;
    dec.expect_end()?;
    let volume = header.shape.volume();
    if let Some(&a) = addrs.iter().find(|&&a| a >= volume) {
        return Err(artsparse_tensor::TensorError::LinearOutOfBounds { addr: a, volume }.into());
    }
    Ok((header.shape, addrs))
}

/// Delinearize sorted addresses back into a (sorted) coordinate buffer.
fn coords_of_addrs(shape: &Shape, addrs: &[u64], counter: &OpCounter) -> Result<CoordBuffer> {
    let mut coords = CoordBuffer::with_capacity(shape.ndim(), addrs.len());
    let mut coord = vec![0u64; shape.ndim()];
    for &a in addrs {
        shape.delinearize_into(a, &mut coord);
        coords.push(&coord)?;
    }
    counter.add(OpKind::Transform, addrs.len() as u64);
    Ok(coords)
}

fn sorted_coo_to_gcsr(
    index: &[u8],
    shape: &Shape,
    counter: &OpCounter,
) -> Result<Option<Conversion>> {
    let (build_shape, addrs) = decode_addr_index(FormatKind::SortedCoo, index)?;
    if addrs.windows(2).any(|w| w[0] > w[1]) {
        return Err(FormatError::corrupt("sorted-COO addresses not sorted"));
    }
    let coords = coords_of_addrs(&build_shape, &addrs, counter)?;
    let built = build_gcsr_presorted(&coords, shape, counter)?;
    Ok(Some(Conversion::from_build(built, true)))
}

fn sorted_coo_to_csf(
    index: &[u8],
    shape: &Shape,
    counter: &OpCounter,
) -> Result<Option<Conversion>> {
    let (build_shape, addrs) = decode_addr_index(FormatKind::SortedCoo, index)?;
    if addrs.windows(2).any(|w| w[0] > w[1]) {
        return Err(FormatError::corrupt("sorted-COO addresses not sorted"));
    }
    let coords = coords_of_addrs(&build_shape, &addrs, counter)?;
    Ok(build_csf_presorted(&coords, shape, counter)?
        .map(|built| Conversion::from_build(built, true)))
}

fn linear_to_sorted_coo(
    index: &[u8],
    shape: &Shape,
    counter: &OpCounter,
) -> Result<Option<Conversion>> {
    let (build_shape, addrs) = decode_addr_index(FormatKind::Linear, index)?;
    if build_shape != *shape {
        // The rebuild would re-linearize under `shape`; only when the two
        // shapes agree are the raw words reusable as-is.
        return Ok(None);
    }
    let n = addrs.len();
    // The exact sort the target build would run (same comparator, same
    // argsort), minus the delinearize/relinearize round-trip on either
    // side of it.
    let mut sort_compares = 0u64;
    let perm = argsort_by(n, |a, b| {
        sort_compares += 1;
        addrs[a].cmp(&addrs[b]).then_with(|| a.cmp(&b))
    });
    counter.add(OpKind::SortCompare, sort_compares);
    let sorted: Vec<u64> = perm.iter().map(|&i| addrs[i]).collect();
    counter.add(OpKind::Emit, n as u64);
    let mut enc = crate::codec::IndexEncoder::new(FormatKind::SortedCoo.id(), shape, n as u64);
    enc.put_section(&sorted);
    Ok(Some(Conversion {
        index: enc.finish(),
        map: Some(invert_permutation(&perm)),
        n_points: n,
        direct: true,
    }))
}

fn gcsr_to_csf(index: &[u8], shape: &Shape, counter: &OpCounter) -> Result<Option<Conversion>> {
    let (header, mut dec) = IndexDecoder::new(index, Some(FormatKind::GcsrPP.id()))?;
    let s_l_src = header.shape;
    let remap = Remap2D::for_gcsr(&s_l_src);
    let nb = remap.rows as usize;
    let ptr = dec.section_exact("ptr", nb + 1)?;
    let ind = dec.section_exact("ind", header.n as usize)?;
    dec.expect_end()?;
    validate_ptr(&ptr, header.n, "ptr")?;
    let n = header.n as usize;
    if n == 0 {
        // An empty build's boundary falls back to the caller's shape, not
        // the source header's — let the trivial fallback handle it.
        return Ok(None);
    }

    // Addresses in enumerate (slot) order.
    let volume = s_l_src.volume();
    let mut addrs = Vec::with_capacity(n);
    for b in 0..nb as u64 {
        for j in ptr[b as usize]..ptr[b as usize + 1] {
            let l = b
                .checked_mul(remap.cols)
                .and_then(|x| x.checked_add(ind[j as usize]))
                .filter(|&l| l < volume)
                .ok_or_else(|| FormatError::corrupt("2D cell outside local boundary"))?;
            addrs.push(l);
        }
    }
    counter.add(OpKind::Transform, 2 * n as u64);

    // Buckets hold contiguous address ranges `[b·cols, (b+1)·cols)`, so
    // stable per-bucket address sorts concatenate to the global stable
    // lexicographic sort — the narrowing that makes this routine direct.
    let mut perm: Vec<usize> = Vec::with_capacity(n);
    let mut sort_compares = 0u64;
    for b in 0..nb {
        let (lo, hi) = (ptr[b] as usize, ptr[b + 1] as usize);
        let mut seg: Vec<usize> = (lo..hi).collect();
        seg.sort_by(|&a, &b| {
            sort_compares += 1;
            addrs[a].cmp(&addrs[b]).then_with(|| a.cmp(&b))
        });
        perm.extend(seg);
    }
    counter.add(OpKind::SortCompare, sort_compares);

    let mut coords = CoordBuffer::with_capacity(s_l_src.ndim(), n);
    let mut coord = vec![0u64; s_l_src.ndim()];
    for &j in &perm {
        s_l_src.delinearize_into(addrs[j], &mut coord);
        coords.push(&coord)?;
    }
    counter.add(OpKind::Transform, n as u64);

    // The tree's own boundary (equal to the source's for n > 0). The
    // no-permutation precondition: address order is only the tree's sort
    // order when the ascending-size dimension order is the identity.
    let s_l = coords
        .local_boundary_shape()
        .unwrap_or_else(|| shape.clone());
    let order = s_l.ascending_dim_order();
    if order.iter().enumerate().any(|(i, &o)| i != o) {
        return Ok(None);
    }
    let tree = CsfTree::from_sorted(&s_l, order, &coords);
    counter.add(OpKind::Emit, tree.payload_words());
    Ok(Some(Conversion {
        index: tree.encode(n as u64),
        map: Some(invert_permutation(&perm)),
        n_points: n,
        direct: true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use artsparse_tensor::permute::scatter_bytes;

    fn counter() -> OpCounter {
        OpCounter::new()
    }

    /// The oracle every path must match byte-for-byte: enumerate + rebuild.
    fn oracle(from: FormatKind, index: &[u8], to: FormatKind, shape: &Shape) -> BuildOutput {
        let c = counter();
        let coords = from.create().enumerate(index, &c).unwrap();
        to.create().build(&coords, shape, &c).unwrap()
    }

    fn check_pair(from: FormatKind, to: FormatKind, shape: &Shape, coords: &CoordBuffer) {
        let c = counter();
        let src = from.create().build(coords, shape, &c).unwrap();
        // Value payload in the source fragment's slot order.
        let raw: Vec<u64> = (0..coords.len() as u64).collect();
        let packed = artsparse_tensor::value::pack(&raw);
        let src_values = src.reorganize_values(&packed, 8);

        let conv = convert(from, &src.index, to, shape, &c).unwrap();
        let want = oracle(from, &src.index, to, shape);
        assert_eq!(conv.index, want.index, "{from}→{to} index bytes differ");
        assert_eq!(conv.n_points, want.n_points);
        let got_values = match &conv.map {
            Some(map) => scatter_bytes(&src_values, 8, map),
            None => src_values.clone(),
        };
        let want_values = want.reorganize_values(&src_values, 8);
        assert_eq!(got_values, want_values, "{from}→{to} value order differs");
    }

    fn sample() -> (Shape, CoordBuffer) {
        let shape = Shape::new(vec![6, 4, 5]).unwrap();
        let coords = CoordBuffer::from_points(
            3,
            &[
                [0u64, 0, 1],
                [5, 3, 4],
                [2, 1, 0],
                [0, 3, 3],
                [2, 1, 0],
                [1, 2, 2],
            ],
        )
        .unwrap();
        (shape, coords)
    }

    #[test]
    fn all_pairs_match_oracle_on_sample() {
        let (shape, coords) = sample();
        for from in FormatKind::ALL {
            for to in FormatKind::ALL {
                check_pair(from, to, &shape, &coords);
            }
        }
    }

    #[test]
    fn named_fast_paths_report_direct() {
        let (shape, coords) = sample();
        let c = counter();
        for (from, to) in [
            (FormatKind::SortedCoo, FormatKind::GcsrPP),
            (FormatKind::Linear, FormatKind::SortedCoo),
            (FormatKind::Coo, FormatKind::Coo),
        ] {
            let src = from.create().build(&coords, &shape, &c).unwrap();
            let conv = convert(from, &src.index, to, &shape, &c).unwrap();
            assert!(conv.direct, "{from}→{to} should be direct");
        }
        // CSF targets are direct when the boundary needs no permutation:
        // the sample's boundary is (6,4,5) → order [1,2,0], so these fall
        // back; a cube boundary keeps them direct.
        let cube = Shape::cube(3, 8).unwrap();
        let pts = CoordBuffer::from_points(3, &[[0u64, 3, 1], [2, 0, 0], [7, 7, 7]]).unwrap();
        for from in [FormatKind::SortedCoo, FormatKind::GcsrPP] {
            let src = from.create().build(&pts, &cube, &c).unwrap();
            let conv = convert(from, &src.index, FormatKind::Csf, &cube, &c).unwrap();
            assert!(conv.direct, "{from}→CSF on cube should be direct");
            check_pair(from, FormatKind::Csf, &cube, &pts);
        }
    }

    #[test]
    fn gcsc_fallback_still_matches() {
        // GCSC++'s bucket is not address-monotone: no fast path exists,
        // and the fallback must still be exact.
        let (shape, coords) = sample();
        let c = counter();
        let src = FormatKind::SortedCoo
            .create()
            .build(&coords, &shape, &c)
            .unwrap();
        let conv = convert(
            FormatKind::SortedCoo,
            &src.index,
            FormatKind::GcscPP,
            &shape,
            &c,
        )
        .unwrap();
        assert!(!conv.direct);
        check_pair(FormatKind::SortedCoo, FormatKind::GcscPP, &shape, &coords);
    }

    #[test]
    fn empty_and_single_point_fragments() {
        let shape = Shape::new(vec![9, 3]).unwrap();
        for coords in [
            CoordBuffer::new(2),
            CoordBuffer::from_points(2, &[[4u64, 2]]).unwrap(),
        ] {
            for from in FormatKind::ALL {
                for to in FormatKind::ALL {
                    check_pair(from, to, &shape, &coords);
                }
            }
        }
    }

    #[test]
    fn build_from_address_sorted_matches_plain_build() {
        let (shape, coords) = sample();
        let c = counter();
        // Canonical address order, as the consolidation merge produces.
        let sorted = artsparse_tensor::sort::sort_by_linear(&coords, &shape).coords;
        for kind in FormatKind::ALL {
            let (built, _direct) = build_from_address_sorted(kind, &sorted, &shape, &c).unwrap();
            let want = kind.create().build(&sorted, &shape, &c).unwrap();
            assert_eq!(built.index, want.index, "{kind} index differs");
            // A `None` map must mean the build's map was the identity.
            let raw: Vec<u64> = (0..sorted.len() as u64).collect();
            let packed = artsparse_tensor::value::pack(&raw);
            assert_eq!(
                built.reorganize_values(&packed, 8),
                want.reorganize_values(&packed, 8),
                "{kind} value order differs"
            );
        }
    }

    #[test]
    fn sort_free_kinds_are_direct_for_sorted_input() {
        let (shape, coords) = sample();
        let sorted = artsparse_tensor::sort::sort_by_linear(&coords, &shape).coords;
        let c = counter();
        for kind in [
            FormatKind::Coo,
            FormatKind::Linear,
            FormatKind::SortedCoo,
            FormatKind::GcsrPP,
        ] {
            let (_, direct) = build_from_address_sorted(kind, &sorted, &shape, &c).unwrap();
            assert!(direct, "{kind} should skip its sort");
        }
    }
}
