//! Axis-aligned hyper-rectangular regions.
//!
//! Regions serve three roles in the reproduction:
//! * the *local boundary* (bounding box) a fragment records in its
//!   metadata, used by Algorithm 3's READ to discover overlapping
//!   fragments;
//! * the *read query region* of the evaluation (§III: start `(m/2, …)`,
//!   size `(m/10, …)`);
//! * the *dense contiguous region* of the MSP pattern (start `(m/3, …)`,
//!   size `(m/3, …)`).

use crate::coord::CoordBuffer;
use crate::error::{Result, TensorError};
use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// A non-empty axis-aligned box `[lo, hi]` with *inclusive* corners.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl Region {
    /// Build from inclusive corners; `lo[d] ≤ hi[d]` must hold.
    pub fn from_corners(lo: &[u64], hi: &[u64]) -> Result<Self> {
        Self::from_corner_vecs(lo.to_vec(), hi.to_vec())
    }

    /// [`from_corners`](Self::from_corners), taking the corners' storage
    /// instead of copying it.
    pub fn from_corner_vecs(lo: Vec<u64>, hi: Vec<u64>) -> Result<Self> {
        if lo.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        if lo.len() != hi.len() {
            return Err(TensorError::DimensionMismatch {
                expected: lo.len(),
                got: hi.len(),
            });
        }
        for (d, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            if l > h {
                return Err(TensorError::CoordOutOfBounds {
                    dim: d,
                    coord: l,
                    size: h.saturating_add(1),
                });
            }
        }
        Ok(Region { lo, hi })
    }

    /// Build from an inclusive lower corner and per-dimension sizes (≥ 1).
    pub fn from_start_size(start: &[u64], size: &[u64]) -> Result<Self> {
        if start.len() != size.len() {
            return Err(TensorError::DimensionMismatch {
                expected: start.len(),
                got: size.len(),
            });
        }
        if let Some(dim) = size.iter().position(|&s| s == 0) {
            return Err(TensorError::ZeroDimension { dim });
        }
        let hi: Vec<u64> = start
            .iter()
            .zip(size)
            .map(|(&s, &sz)| s + (sz - 1))
            .collect();
        Region::from_corners(start, &hi)
    }

    /// The whole extent of a shape: `[0, m_d - 1]` in every dimension.
    pub fn full(shape: &Shape) -> Self {
        let lo = vec![0u64; shape.ndim()];
        let hi: Vec<u64> = shape.dims().iter().map(|&m| m - 1).collect();
        Region { lo, hi }
    }

    /// The paper's evaluation read region: start `(m_i/2)`, size `(m_i/10)`
    /// (§III, reading test).
    pub fn paper_read_region(shape: &Shape) -> Result<Self> {
        let start: Vec<u64> = shape.dims().iter().map(|&m| m / 2).collect();
        let size: Vec<u64> = shape.dims().iter().map(|&m| (m / 10).max(1)).collect();
        Region::from_start_size(&start, &size)
    }

    /// The MSP dense region: start `(m_i/3)`, size `(m_i/3)` (§III).
    pub fn msp_dense_region(shape: &Shape) -> Result<Self> {
        let start: Vec<u64> = shape.dims().iter().map(|&m| m / 3).collect();
        let size: Vec<u64> = shape.dims().iter().map(|&m| (m / 3).max(1)).collect();
        Region::from_start_size(&start, &size)
    }

    /// Inclusive lower corner.
    #[inline]
    pub fn lo(&self) -> &[u64] {
        &self.lo
    }

    /// Inclusive upper corner.
    #[inline]
    pub fn hi(&self) -> &[u64] {
        &self.hi
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.lo.len()
    }

    /// Per-dimension sizes (`hi - lo + 1`).
    pub fn sizes(&self) -> Vec<u64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| h - l + 1)
            .collect()
    }

    /// Number of cells, saturating at `u64::MAX` on overflow.
    pub fn volume(&self) -> u64 {
        let mut v: u128 = 1;
        for (&l, &h) in self.lo.iter().zip(&self.hi) {
            v = v.saturating_mul((h - l) as u128 + 1);
        }
        v.min(u64::MAX as u128) as u64
    }

    /// The cell count when it fits in a `u64` — what [`rank`](Self::rank),
    /// [`cell_into`](Self::cell_into) and [`to_coords`](Self::to_coords)
    /// need of a region — and [`TensorError::AddressOverflow`] of its
    /// (saturated) sizes when it does not.
    pub fn checked_volume(&self) -> Result<u64> {
        match self.volume() {
            u64::MAX => Err(TensorError::AddressOverflow {
                shape: (self.lo.iter().zip(&self.hi))
                    .map(|(&l, &h)| (h - l).saturating_add(1))
                    .collect(),
            }),
            volume => Ok(volume),
        }
    }

    /// Whether `coord` lies inside the region.
    pub fn contains(&self, coord: &[u64]) -> bool {
        coord.len() == self.ndim()
            && coord
                .iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&c, (&l, &h))| c >= l && c <= h)
    }

    /// Row-major rank of `coord` among the region's cells: its index in
    /// [`to_coords`](Self::to_coords). `coord` must lie inside the region
    /// and the region's [`volume`](Self::volume) must fit in `u64`
    /// (debug-asserted only, like [`Shape::linearize_unchecked`]).
    #[inline]
    pub fn rank(&self, coord: &[u64]) -> u64 {
        debug_assert!(self.contains(coord), "coord {coord:?} outside {self}");
        let mut rank = 0u64;
        for (&c, (&l, &h)) in coord.iter().zip(self.lo.iter().zip(&self.hi)) {
            rank = rank * (h - l + 1) + (c - l);
        }
        rank
    }

    /// Inverse of [`rank`](Self::rank): decode a cell's rank into a
    /// caller-provided buffer. `rank` must be `< volume()`.
    pub fn cell_into(&self, mut rank: u64, out: &mut [u64]) {
        debug_assert!(rank < self.volume());
        debug_assert_eq!(out.len(), self.ndim());
        for i in (0..self.ndim()).rev() {
            let size = self.hi[i] - self.lo[i] + 1;
            out[i] = self.lo[i] + rank % size;
            rank /= size;
        }
    }

    /// Whether two regions share at least one cell.
    ///
    /// This is the fragment-discovery predicate of Algorithm 3's READ
    /// (line 4: "Find all fragments containing b_coor").
    pub fn intersects(&self, other: &Region) -> bool {
        self.ndim() == other.ndim()
            && self
                .lo
                .iter()
                .zip(&self.hi)
                .zip(other.lo.iter().zip(&other.hi))
                .all(|((&al, &ah), (&bl, &bh))| al <= bh && bl <= ah)
    }

    /// The intersection box, if any.
    pub fn intersection(&self, other: &Region) -> Option<Region> {
        if !self.intersects(other) {
            return None;
        }
        let lo: Vec<u64> = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(&a, &b)| a.max(b))
            .collect();
        let hi: Vec<u64> = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(&a, &b)| a.min(b))
            .collect();
        Some(Region { lo, hi })
    }

    /// The part of this region inside `shape`, if any.
    pub fn within(&self, shape: &Shape) -> Option<Region> {
        self.intersection(&Region::full(shape))
    }

    /// Whether this region lies entirely within `shape`.
    pub fn fits_in(&self, shape: &Shape) -> bool {
        self.ndim() == shape.ndim() && self.hi.iter().zip(shape.dims()).all(|(&h, &m)| h < m)
    }

    /// Enumerate every cell of the region in row-major order.
    pub fn iter_cells(&self) -> RegionCells<'_> {
        RegionCells {
            region: self,
            next: Some(self.lo.clone()),
        }
    }

    /// Materialize every cell into a [`CoordBuffer`] (row-major order).
    ///
    /// This is how the evaluation builds the READ query `b_coor`: all
    /// cells of the query region, present or not.
    pub fn to_coords(&self) -> CoordBuffer {
        let mut buf = CoordBuffer::with_capacity(self.ndim(), self.volume() as usize);
        for cell in self.iter_cells() {
            buf.push(&cell).expect("arity matches by construction");
        }
        buf
    }
}

/// Row-major iterator over the cells of a [`Region`].
pub struct RegionCells<'a> {
    region: &'a Region,
    next: Option<Vec<u64>>,
}

impl Iterator for RegionCells<'_> {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        let current = self.next.take()?;
        // Compute successor in row-major order (last dim fastest).
        let mut succ = current.clone();
        let mut d = self.region.ndim();
        loop {
            if d == 0 {
                // Wrapped past the first dimension: iteration complete.
                self.next = None;
                break;
            }
            d -= 1;
            if succ[d] < self.region.hi[d] {
                succ[d] += 1;
                self.next = Some(succ);
                break;
            }
            succ[d] = self.region.lo[d];
        }
        Some(current)
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}..={:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_and_sizes() {
        let r = Region::from_start_size(&[2, 3], &[4, 1]).unwrap();
        assert_eq!(r.lo(), &[2, 3]);
        assert_eq!(r.hi(), &[5, 3]);
        assert_eq!(r.sizes(), vec![4, 1]);
        assert_eq!(r.volume(), 4);
    }

    #[test]
    fn rejects_bad_corners() {
        assert!(Region::from_corners(&[3], &[2]).is_err());
        assert!(Region::from_corners(&[1, 2], &[3]).is_err());
        assert!(Region::from_corners(&[], &[]).is_err());
        assert!(Region::from_start_size(&[0], &[0]).is_err());
    }

    #[test]
    fn contains_is_inclusive() {
        let r = Region::from_corners(&[1, 1], &[3, 3]).unwrap();
        assert!(r.contains(&[1, 1]));
        assert!(r.contains(&[3, 3]));
        assert!(!r.contains(&[0, 2]));
        assert!(!r.contains(&[2, 4]));
        assert!(!r.contains(&[2]));
    }

    #[test]
    fn intersection_logic() {
        let a = Region::from_corners(&[0, 0], &[4, 4]).unwrap();
        let b = Region::from_corners(&[3, 3], &[6, 6]).unwrap();
        let c = Region::from_corners(&[5, 0], &[6, 2]).unwrap();
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.lo(), &[3, 3]);
        assert_eq!(i.hi(), &[4, 4]);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_none());
        // Different arity never intersects.
        let d1 = Region::from_corners(&[0], &[9]).unwrap();
        assert!(!a.intersects(&d1));
    }

    #[test]
    fn full_and_fits() {
        let s = Shape::new(vec![4, 5]).unwrap();
        let f = Region::full(&s);
        assert_eq!(f.lo(), &[0, 0]);
        assert_eq!(f.hi(), &[3, 4]);
        assert!(f.fits_in(&s));
        let over = Region::from_corners(&[0, 0], &[4, 4]).unwrap();
        assert!(!over.fits_in(&s));
        assert_eq!(over.within(&s), Some(f));
        assert_eq!(
            Region::from_corners(&[4, 0], &[9, 9]).unwrap().within(&s),
            None
        );
    }

    #[test]
    fn paper_regions() {
        let s = Shape::new(vec![512, 512, 512]).unwrap();
        let read = Region::paper_read_region(&s).unwrap();
        assert_eq!(read.lo(), &[256, 256, 256]);
        assert_eq!(read.sizes(), vec![51, 51, 51]);
        let dense = Region::msp_dense_region(&s).unwrap();
        assert_eq!(dense.lo(), &[170, 170, 170]);
        assert_eq!(dense.sizes(), vec![170, 170, 170]);
    }

    #[test]
    fn cell_iteration_row_major() {
        let r = Region::from_corners(&[1, 2], &[2, 3]).unwrap();
        let cells: Vec<Vec<u64>> = r.iter_cells().collect();
        assert_eq!(cells, vec![vec![1, 2], vec![1, 3], vec![2, 2], vec![2, 3]]);
        let coords = r.to_coords();
        assert_eq!(coords.len(), 4);
        assert_eq!(coords.point(2), &[2, 2]);
    }

    #[test]
    fn rank_and_cell_invert_row_major_enumeration() {
        let r = Region::from_corners(&[1, 2, 5], &[2, 4, 5]).unwrap();
        let mut cell = [0u64; 3];
        for (i, want) in r.iter_cells().enumerate() {
            assert_eq!(r.rank(&want), i as u64);
            r.cell_into(i as u64, &mut cell);
            assert_eq!(cell.as_slice(), want);
        }
    }

    #[test]
    fn single_cell_region_iterates_once() {
        let r = Region::from_corners(&[7, 7, 7], &[7, 7, 7]).unwrap();
        assert_eq!(r.iter_cells().count(), 1);
        assert_eq!(r.volume(), 1);
    }

    #[test]
    fn volume_saturates() {
        let r = Region::from_corners(&[0, 0], &[u64::MAX - 1, u64::MAX - 1]).unwrap();
        assert_eq!(r.volume(), u64::MAX);
        let r = Region::from_corners(&[0], &[u64::MAX]).unwrap();
        assert_eq!(r.volume(), u64::MAX);
        assert!(matches!(
            r.checked_volume(),
            Err(TensorError::AddressOverflow { shape }) if shape == [u64::MAX]
        ));
        let r = Region::from_corners(&[3, 0], &[4, 9]).unwrap();
        assert_eq!(r.checked_volume(), Ok(20));
    }
}
