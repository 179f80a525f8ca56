//! The storage organizations.
//!
//! * [`coo`] — Coordinate list (baseline, §II.A)
//! * [`linear`] — Linearized addresses (§II.B)
//! * [`gcsr`] — Generalized Compressed Sparse Row, GCSR++ (§II.C)
//! * [`gcsc`] — Generalized Compressed Sparse Column, GCSC++ (§II.D)
//! * [`csf`] — Compressed Sparse Fiber tree (§II.E)
//! * [`csr2d`] — classic 2D CSR/CSC packaging shared by GCSR++/GCSC++
//! * [`ext`] — extensions beyond the paper (sorted COO, HiCOO, ADAPTIVE)

pub mod coo;
pub mod csf;
pub mod csr2d;
pub mod ext;
pub mod gcsc;
pub mod gcsr;
pub mod linear;

use crate::error::Result;
use artsparse_tensor::{Region, Shape, TensorError};

/// The front of every [`Organization::scan`](crate::Organization::scan):
/// the arity check `read` makes of its queries (against the index's `d`
/// dimensions), and the guarantee [`Region::rank`] needs — the region's
/// cells can be numbered in a `u64`.
pub(crate) fn check_scan_region(region: &Region, d: usize) -> Result<()> {
    if region.ndim() != d {
        return Err(TensorError::DimensionMismatch {
            expected: d,
            got: region.ndim(),
        }
        .into());
    }
    region.checked_volume()?;
    Ok(())
}

/// The part of a scanned `region` inside an index's `shape`, for the
/// organizations that store linear addresses: which stored addresses are
/// cells of the box, and what rank each has in `region`.
pub(crate) struct BoxAddresses<'a> {
    region: &'a Region,
    shape: &'a Shape,
    /// `region ∩ shape` — only these cells can be stored.
    pub inside: Region,
    /// The address of `inside`'s first cell, and how far beyond it its
    /// last one lies: every address outside that interval is settled by
    /// one compare, without a transform.
    first: u64,
    width: u64,
    coord: Vec<u64>,
    /// Addresses transformed back to coordinates so far.
    pub transforms: u64,
}

impl<'a> BoxAddresses<'a> {
    /// `None` when no cell of `region` lies inside `shape`.
    pub fn new(region: &'a Region, shape: &'a Shape) -> Option<Self> {
        let inside = region.within(shape)?;
        let first = shape.linearize_unchecked(inside.lo());
        Some(BoxAddresses {
            region,
            shape,
            first,
            width: shape.linearize_unchecked(inside.hi()) - first,
            inside,
            coord: vec![0; shape.ndim()],
            transforms: 0,
        })
    }

    /// The rank in `region` of the cell stored as `addr`, if it is one of
    /// the box's.
    #[inline]
    pub fn rank_of(&mut self, addr: u64) -> Option<usize> {
        if addr.wrapping_sub(self.first) > self.width {
            return None;
        }
        self.transforms += 1;
        self.shape.delinearize_into(addr, &mut self.coord);
        (self.inside.contains(&self.coord)).then(|| self.region.rank(&self.coord) as usize)
    }
}

/// The back of every native scan: matches gathered in index order, put in
/// the order `read` reports them — by query index, and where a coordinate
/// was stored more than once, its lowest slot only.
pub(crate) fn lowest_slot_per_cell(mut matches: Vec<(usize, u64)>) -> Vec<(usize, u64)> {
    matches.sort_unstable();
    matches.dedup_by_key(|&mut (query_index, _)| query_index);
    matches
}

#[cfg(test)]
pub(crate) mod testutil {
    use artsparse_tensor::{CoordBuffer, Shape};

    /// The worked example of Fig. 1: a 3×3×3 tensor with five points.
    pub fn fig1() -> (Shape, CoordBuffer) {
        let shape = Shape::cube(3, 3).unwrap();
        let coords = CoordBuffer::from_points(
            3,
            &[[0u64, 0, 1], [0, 1, 1], [0, 1, 2], [2, 2, 1], [2, 2, 2]],
        )
        .unwrap();
        (shape, coords)
    }

    /// `scan ≡ read ∘ to_coords`, pair for pair, on `coords` with some of
    /// its points stored twice: over the full domain, every stored cell
    /// alone, boxes past the shape (and so past any local boundary), one
    /// wholly outside it, and a spread of pseudo-random boxes.
    pub fn check_scan_against_read(
        org: &dyn crate::traits::Organization,
        shape: &Shape,
        coords: &CoordBuffer,
    ) {
        use artsparse_metrics::OpCounter;
        use artsparse_tensor::Region;

        let d = shape.ndim();
        let mut stored = coords.clone();
        for p in coords.iter().step_by(2) {
            stored.push(p).unwrap(); // in-fragment duplicates
        }
        let counter = OpCounter::new();
        let index = org.build(&stored, shape, &counter).unwrap().index;

        let mut boxes = vec![Region::full(shape)];
        boxes.extend(coords.iter().map(|p| Region::from_corners(p, p).unwrap()));
        let past: Vec<u64> = shape.dims().iter().map(|&m| m + 2).collect();
        boxes.push(Region::from_corners(&vec![0; d], &past).unwrap());
        boxes.push(Region::from_corners(shape.dims(), &past).unwrap());
        // A fixed LCG: corners anywhere from the origin to just past the
        // shape, so boxes straddle, leave and miss the local boundary.
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ coords.len() as u64;
        let mut draw = |below: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % below
        };
        for _ in 0..48 {
            let lo: Vec<u64> = shape.dims().iter().map(|&m| draw(m + 1)).collect();
            let hi: Vec<u64> = (0..d)
                .map(|k| lo[k] + draw(shape.dim(k) + 2 - lo[k]))
                .collect();
            boxes.push(Region::from_corners(&lo, &hi).unwrap());
        }

        for region in &boxes {
            let want: Vec<(usize, u64)> = org
                .read(&index, &region.to_coords(), &counter)
                .unwrap()
                .into_iter()
                .enumerate()
                .filter_map(|(qi, slot)| slot.map(|s| (qi, s)))
                .collect();
            let got = org.scan(&index, region, &counter).unwrap();
            assert_eq!(got, want, "{} scan of {region}", org.kind());
        }
        // What `read` refuses, `scan` refuses the same way.
        let wrong_arity = Region::from_corners(&vec![0; d + 1], &vec![0; d + 1]).unwrap();
        assert_eq!(
            org.scan(&index, &wrong_arity, &counter).map(|_| ()),
            org.read(&index, &wrong_arity.to_coords(), &counter)
                .map(|_| ()),
            "{} wrong-arity scan",
            org.kind()
        );
    }

    /// Exhaustive oracle check: every cell of `shape` queried against the
    /// organization must agree with membership in `coords`, and found slots
    /// must point at the right value after reorganization by `map`; and a
    /// region scan must agree with that read (`check_scan_against_read`).
    pub fn check_against_oracle(
        org: &dyn crate::traits::Organization,
        shape: &Shape,
        coords: &CoordBuffer,
    ) {
        use artsparse_metrics::OpCounter;
        use std::collections::HashMap;

        check_scan_against_read(org, shape, coords);
        let counter = OpCounter::new();
        let built = org.build(coords, shape, &counter).unwrap();

        // Values: the original index of each point, as u64 payload.
        let values: Vec<u64> = (0..coords.len() as u64).collect();
        let payload = artsparse_tensor::value::pack(&values);
        let reorg = built.reorganize_values(&payload, 8);
        let reorg_vals = artsparse_tensor::value::unpack::<u64>(&reorg).unwrap();

        let mut truth: HashMap<Vec<u64>, u64> = HashMap::new();
        for (i, p) in coords.iter().enumerate() {
            // First occurrence wins for duplicates: keep earliest.
            truth.entry(p.to_vec()).or_insert(i as u64);
        }

        let all = artsparse_tensor::Region::full(shape).to_coords();
        let slots = org.read(&built.index, &all, &counter).unwrap();
        assert_eq!(slots.len(), all.len());
        let dup_set: std::collections::HashSet<Vec<u64>> = {
            let mut seen = std::collections::HashSet::new();
            let mut dups = std::collections::HashSet::new();
            for p in coords.iter() {
                if !seen.insert(p.to_vec()) {
                    dups.insert(p.to_vec());
                }
            }
            dups
        };
        for (q, slot) in all.iter().zip(&slots) {
            match truth.get(q) {
                None => assert_eq!(*slot, None, "phantom hit at {q:?}"),
                Some(&orig) => {
                    let slot = slot.unwrap_or_else(|| panic!("missing hit at {q:?}"));
                    let got = reorg_vals[slot as usize];
                    if dup_set.contains(q) {
                        // Any of the duplicate records is acceptable.
                        let ok = coords
                            .iter()
                            .enumerate()
                            .any(|(i, c)| c == q && got == i as u64);
                        assert!(ok, "slot points at wrong record for duplicate {q:?}");
                    } else {
                        assert_eq!(got, orig, "wrong value slot at {q:?}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::check_scan_against_read;
    use crate::traits::FormatKind;
    use artsparse_tensor::{CoordBuffer, Shape};

    /// Tensors dense enough that every box holds several points per row,
    /// bucket and subtree — the small fixtures of the per-organization
    /// oracle tests rarely put two points in one box.
    #[test]
    fn scan_agrees_with_read_on_crowded_tensors() {
        for dims in [vec![40], vec![9, 11], vec![7, 5, 6], vec![3, 4, 2, 5]] {
            let shape = Shape::new(dims).unwrap();
            let mut coords = CoordBuffer::new(shape.ndim());
            let mut coord = vec![0u64; shape.ndim()];
            // Every third cell or so, in a scattered order.
            for i in 0..shape.volume() / 3 {
                shape.delinearize_into(i * 7 % shape.volume(), &mut coord);
                coords.push(&coord).unwrap();
            }
            for kind in FormatKind::ALL {
                check_scan_against_read(kind.create().as_ref(), &shape, &coords);
            }
        }
    }
}
