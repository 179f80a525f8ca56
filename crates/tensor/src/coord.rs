//! Interleaved coordinate buffers — the paper's input representation.
//!
//! §II.A: *"The input of our sparse tensor is assumed to be an unsorted 1D
//! coordinate vector."* A [`CoordBuffer`] is exactly that: a flat `Vec<u64>`
//! holding `n` points of `d` coordinates each, point-major
//! (`[p0c0, p0c1, …, p0c{d-1}, p1c0, …]`). The paper standardizes the
//! coordinate type as `unsigned long long int` (8 bytes), i.e. `u64`.

use crate::error::{Result, TensorError};
use crate::region::Region;
use crate::shape::Shape;

/// An unsorted buffer of `n` points × `ndim` coordinates, interleaved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoordBuffer {
    ndim: usize,
    data: Vec<u64>,
}

impl CoordBuffer {
    /// An empty buffer of the given dimensionality.
    pub fn new(ndim: usize) -> Self {
        CoordBuffer {
            ndim,
            data: Vec::new(),
        }
    }

    /// An empty buffer with room for `n` points.
    pub fn with_capacity(ndim: usize, n: usize) -> Self {
        CoordBuffer {
            ndim,
            data: Vec::with_capacity(ndim * n),
        }
    }

    /// Wrap an existing flat interleaved buffer.
    pub fn from_flat(ndim: usize, data: Vec<u64>) -> Result<Self> {
        if ndim == 0 {
            return Err(TensorError::EmptyShape);
        }
        if !data.len().is_multiple_of(ndim) {
            return Err(TensorError::RaggedBuffer {
                len: data.len(),
                ndim,
            });
        }
        Ok(CoordBuffer { ndim, data })
    }

    /// Build from a slice of points.
    pub fn from_points<P: AsRef<[u64]>>(ndim: usize, points: &[P]) -> Result<Self> {
        let mut buf = CoordBuffer::with_capacity(ndim, points.len());
        for p in points {
            buf.push(p.as_ref())?;
        }
        Ok(buf)
    }

    /// Append one point.
    pub fn push(&mut self, coord: &[u64]) -> Result<()> {
        if coord.len() != self.ndim {
            return Err(TensorError::DimensionMismatch {
                expected: self.ndim,
                got: coord.len(),
            });
        }
        self.data.extend_from_slice(coord);
        Ok(())
    }

    /// Number of dimensions per point.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Number of points (`n` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.ndim).unwrap_or(0)
    }

    /// Whether the buffer holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `i`-th point as a slice of `ndim` coordinates.
    #[inline]
    pub fn point(&self, i: usize) -> &[u64] {
        &self.data[i * self.ndim..(i + 1) * self.ndim]
    }

    /// The raw interleaved buffer.
    #[inline]
    pub fn as_flat(&self) -> &[u64] {
        &self.data
    }

    /// Consume into the raw interleaved buffer.
    pub fn into_flat(self) -> Vec<u64> {
        self.data
    }

    /// Iterate over points as `&[u64]` slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        self.data.chunks_exact(self.ndim)
    }

    /// Validate that every point lies inside `shape`.
    pub fn check_against(&self, shape: &Shape) -> Result<()> {
        if shape.ndim() != self.ndim {
            return Err(TensorError::DimensionMismatch {
                expected: self.ndim,
                got: shape.ndim(),
            });
        }
        for p in self.iter() {
            shape.check_coord(p)?;
        }
        Ok(())
    }

    /// Extract the local bounding box of the points (the paper's
    /// "local boundary" `s_l`, Algorithms 1 & 2 line 5).
    ///
    /// Returns `None` when the buffer is empty (or its points have no
    /// dimensions).
    pub fn bounding_box(&self) -> Option<Region> {
        // `lo ≤ hi` by construction: only a 0-dimensional buffer fails.
        Region::from_corner_vecs(self.corner(u64::min)?, self.corner(u64::max)?).ok()
    }

    /// One corner of the bounding box: `pick` (`min` or `max`) folded over
    /// every point, dimension by dimension. `None` when the buffer is
    /// empty.
    fn corner(&self, pick: fn(u64, u64) -> u64) -> Option<Vec<u64>> {
        let mut corner = self.iter().next()?.to_vec();
        for p in self.iter().skip(1) {
            for (c, &x) in corner.iter_mut().zip(p) {
                *c = pick(*c, x);
            }
        }
        Some(corner)
    }

    /// The tight shape implied by the bounding box upper corner
    /// (dimension sizes `hi_i + 1`).
    ///
    /// GCSR++/GCSC++/CSF builds extract this "local boundary size" before
    /// remapping; anchoring at the origin matches the paper's use of the
    /// boundary purely as dimension *sizes* for the transform.
    /// `None` when the buffer is empty or the boundary has no `u64`
    /// address space.
    pub fn local_boundary_shape(&self) -> Option<Shape> {
        let corner = self.corner(u64::max)?;
        let dims: Option<Vec<u64>> = corner.iter().map(|h| h.checked_add(1)).collect();
        Shape::new(dims?).ok()
    }

    /// Linearize every point against `shape` (row-major).
    ///
    /// This is the bulk transform behind the LINEAR build (`O(n·d)`).
    pub fn linearize_all(&self, shape: &Shape) -> Result<Vec<u64>> {
        self.check_against(shape)?;
        Ok(self.iter().map(|p| shape.linearize_unchecked(p)).collect())
    }

    /// Reorder points so that output point `j` is input point `perm[j]`.
    pub fn gather(&self, perm: &[usize]) -> CoordBuffer {
        let mut data = Vec::with_capacity(self.data.len());
        for &src in perm {
            data.extend_from_slice(self.point(src));
        }
        CoordBuffer {
            ndim: self.ndim,
            data,
        }
    }

    /// Reorder coordinate axes of every point: output dimension `k` is
    /// input dimension `order[k]` (used by CSF's dimension sort).
    pub fn permute_dims(&self, order: &[usize]) -> Result<CoordBuffer> {
        if order.len() != self.ndim {
            return Err(TensorError::DimensionMismatch {
                expected: self.ndim,
                got: order.len(),
            });
        }
        let ndim = self.ndim;
        let data: Vec<u64> = self
            .data
            .chunks_exact(ndim)
            .flat_map(|p| order.iter().map(move |&k| p[k]))
            .collect();
        Ok(CoordBuffer { ndim, data })
    }
}

impl<'a> IntoIterator for &'a CoordBuffer {
    type Item = &'a [u64];
    type IntoIter = std::slice::ChunksExact<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.ndim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_points() -> CoordBuffer {
        CoordBuffer::from_points(
            3,
            &[[0u64, 0, 1], [0, 1, 1], [0, 1, 2], [2, 2, 1], [2, 2, 2]],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let b = fig1_points();
        assert_eq!(b.len(), 5);
        assert_eq!(b.ndim(), 3);
        assert_eq!(b.point(3), &[2, 2, 1]);
        assert_eq!(b.iter().count(), 5);
        assert!(!b.is_empty());
    }

    #[test]
    fn from_flat_rejects_ragged() {
        assert!(matches!(
            CoordBuffer::from_flat(3, vec![1, 2, 3, 4]),
            Err(TensorError::RaggedBuffer { .. })
        ));
        assert!(matches!(
            CoordBuffer::from_flat(0, vec![]),
            Err(TensorError::EmptyShape)
        ));
    }

    #[test]
    fn push_rejects_wrong_arity() {
        let mut b = CoordBuffer::new(2);
        assert!(b.push(&[1, 2]).is_ok());
        assert!(matches!(
            b.push(&[1, 2, 3]),
            Err(TensorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn bounding_box_of_fig1() {
        let b = fig1_points();
        let bbox = b.bounding_box().unwrap();
        assert_eq!(bbox.lo(), &[0, 0, 1]);
        assert_eq!(bbox.hi(), &[2, 2, 2]);
        let shape = b.local_boundary_shape().unwrap();
        assert_eq!(shape.dims(), &[3, 3, 3]);
    }

    #[test]
    fn bounding_box_of_empty_is_none() {
        let b = CoordBuffer::new(4);
        assert!(b.bounding_box().is_none());
        assert!(b.local_boundary_shape().is_none());
    }

    #[test]
    fn linearize_all_matches_paper() {
        let b = fig1_points();
        let shape = Shape::cube(3, 3).unwrap();
        assert_eq!(b.linearize_all(&shape).unwrap(), vec![1, 4, 5, 25, 26]);
    }

    #[test]
    fn linearize_all_checks_bounds() {
        let b = CoordBuffer::from_points(2, &[[5u64, 0]]).unwrap();
        let shape = Shape::new(vec![4, 4]).unwrap();
        assert!(b.linearize_all(&shape).is_err());
    }

    #[test]
    fn gather_reorders_points() {
        let b = fig1_points();
        let g = b.gather(&[4, 0, 1, 2, 3]);
        assert_eq!(g.point(0), &[2, 2, 2]);
        assert_eq!(g.point(1), &[0, 0, 1]);
    }

    #[test]
    fn permute_dims_reorders_axes() {
        let b = CoordBuffer::from_points(3, &[[1u64, 2, 3]]).unwrap();
        let p = b.permute_dims(&[2, 0, 1]).unwrap();
        assert_eq!(p.point(0), &[3, 1, 2]);
        assert!(b.permute_dims(&[0, 1]).is_err());
    }

    #[test]
    fn check_against_validates_every_point() {
        let b = fig1_points();
        assert!(b.check_against(&Shape::cube(3, 3).unwrap()).is_ok());
        assert!(b.check_against(&Shape::cube(3, 2).unwrap()).is_err());
        assert!(b.check_against(&Shape::cube(2, 3).unwrap()).is_err());
    }
}
