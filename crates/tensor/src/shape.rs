//! Tensor shapes and checked row-major linearization.
//!
//! The paper linearizes a point with coordinates `(c_1, …, c_d)` inside a
//! tensor of size `(m_1, …, m_d)` as `Σ c_i · Π_{j>i} m_j` (row-major
//! order, §II.B). All stride arithmetic here is performed in `u128` and
//! rejected with [`TensorError::AddressOverflow`] if the address space does
//! not fit in `u64`, which is exactly the overflow risk the paper flags for
//! the LINEAR organization.

use crate::error::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// The dimension sizes of a (dense bounding-box of a) tensor.
///
/// Invariants enforced at construction:
/// * at least one dimension,
/// * no zero-sized dimension,
/// * the total volume fits in `u64` (so every cell has a linear address).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<u64>,
}

impl Shape {
    /// Create a shape, validating the invariants listed on [`Shape`].
    pub fn new(dims: impl Into<Vec<u64>>) -> Result<Self> {
        let dims = dims.into();
        if dims.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        if let Some(dim) = dims.iter().position(|&m| m == 0) {
            return Err(TensorError::ZeroDimension { dim });
        }
        let mut vol: u128 = 1;
        for &m in &dims {
            vol = vol.saturating_mul(m as u128);
            if vol > u64::MAX as u128 {
                return Err(TensorError::AddressOverflow { shape: dims });
            }
        }
        Ok(Shape { dims })
    }

    /// A square/cubic/hyper-cubic shape: `d` dimensions each of size `m`.
    ///
    /// This is the shape family used by the paper's evaluation
    /// (8192², 512³, 128⁴).
    pub fn cube(ndim: usize, side: u64) -> Result<Self> {
        Shape::new(vec![side; ndim])
    }

    /// Number of dimensions (`d` in the paper).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Size of dimension `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> u64 {
        self.dims[i]
    }

    /// Total number of cells. Guaranteed to fit by construction.
    #[inline]
    pub fn volume(&self) -> u64 {
        self.dims.iter().product()
    }

    /// The smallest dimension size, `min{m_1, …, m_d}`.
    ///
    /// GCSR++/GCSC++ use this as the short side of their 2D remap and it
    /// appears in the paper's read-time complexity `O(n_read · n / min m_i)`.
    #[inline]
    pub fn min_dim(&self) -> u64 {
        *self.dims.iter().min().expect("shape is non-empty")
    }

    /// Whether `coord` lies inside this shape.
    pub fn contains(&self, coord: &[u64]) -> bool {
        coord.len() == self.ndim() && coord.iter().zip(&self.dims).all(|(&c, &m)| c < m)
    }

    /// Validate a coordinate, returning a precise error on failure.
    pub fn check_coord(&self, coord: &[u64]) -> Result<()> {
        if coord.len() != self.ndim() {
            return Err(TensorError::DimensionMismatch {
                expected: self.ndim(),
                got: coord.len(),
            });
        }
        for (dim, (&c, &m)) in coord.iter().zip(&self.dims).enumerate() {
            if c >= m {
                return Err(TensorError::CoordOutOfBounds {
                    dim,
                    coord: c,
                    size: m,
                });
            }
        }
        Ok(())
    }

    /// Row-major linear address of `coord` (the paper's LINEAR transform).
    ///
    /// Complexity `O(d)`; this is the per-point cost behind the paper's
    /// `O(n·d)` LINEAR build bound.
    pub fn linearize(&self, coord: &[u64]) -> Result<u64> {
        self.check_coord(coord)?;
        let mut addr = 0u64;
        for (&c, &m) in coord.iter().zip(&self.dims) {
            // In-bounds by check_coord and volume ≤ u64::MAX, so no overflow.
            addr = addr * m + c;
        }
        Ok(addr)
    }

    /// Row-major linear address without bounds validation.
    ///
    /// Used on hot paths where the caller has already validated the buffer
    /// (e.g. inside format builds that validated once up front). Debug
    /// builds still assert.
    #[inline]
    pub fn linearize_unchecked(&self, coord: &[u64]) -> u64 {
        debug_assert!(
            self.contains(coord),
            "coord {coord:?} outside {:?}",
            self.dims
        );
        let mut addr = 0u64;
        for (&c, &m) in coord.iter().zip(&self.dims) {
            addr = addr * m + c;
        }
        addr
    }

    /// Inverse of [`Shape::linearize`]: decode a linear address into
    /// coordinates (the paper's `reverse_transform_row-major`).
    pub fn delinearize(&self, addr: u64) -> Result<Vec<u64>> {
        let volume = self.volume();
        if addr >= volume {
            return Err(TensorError::LinearOutOfBounds { addr, volume });
        }
        let mut out = vec![0u64; self.ndim()];
        self.delinearize_into(addr, &mut out);
        Ok(out)
    }

    /// Decode a linear address into a caller-provided buffer (no allocation).
    ///
    /// `addr` must be `< volume()`; debug-asserted only.
    pub fn delinearize_into(&self, mut addr: u64, out: &mut [u64]) {
        debug_assert!(addr < self.volume());
        debug_assert_eq!(out.len(), self.ndim());
        for i in (1..self.ndim()).rev() {
            let m = self.dims[i];
            out[i] = addr % m;
            addr /= m;
        }
        // What is left is below dimension 0's size: no division.
        out[0] = addr;
    }

    /// The density of `n` points inside this shape, as a fraction in `[0,1]`.
    pub fn density(&self, n: u64) -> f64 {
        n as f64 / self.volume() as f64
    }

    /// Shape with dimensions reordered by `order` (`new[i] = old[order[i]]`).
    ///
    /// CSF (Algorithm 2 line 6) sorts dimensions by size ascending; this is
    /// the helper it uses.
    pub fn permuted(&self, order: &[usize]) -> Result<Self> {
        if order.len() != self.ndim() {
            return Err(TensorError::DimensionMismatch {
                expected: self.ndim(),
                got: order.len(),
            });
        }
        Shape::new(order.iter().map(|&i| self.dims[i]).collect::<Vec<_>>())
    }

    /// Dimension order sorted by size ascending (stable on ties).
    ///
    /// Returns `order` such that `dims[order[0]] ≤ dims[order[1]] ≤ …`.
    pub fn ascending_dim_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.ndim()).collect();
        order.sort_by_key(|&i| (self.dims[i], i));
        order
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.dims.iter().map(|m| m.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_shapes() {
        assert_eq!(Shape::new(Vec::<u64>::new()), Err(TensorError::EmptyShape));
        assert_eq!(
            Shape::new(vec![4, 0, 3]),
            Err(TensorError::ZeroDimension { dim: 1 })
        );
        assert!(matches!(
            Shape::new(vec![u64::MAX, 3]),
            Err(TensorError::AddressOverflow { .. })
        ));
    }

    #[test]
    fn accepts_max_volume_shape() {
        // Exactly u64::MAX cells is representable (addresses 0..MAX-1 … in
        // fact 0..=MAX-1 plus MAX-1? volume == MAX means max addr MAX-1).
        let s = Shape::new(vec![u64::MAX]).unwrap();
        assert_eq!(s.volume(), u64::MAX);
    }

    #[test]
    fn paper_figure1_linear_addresses() {
        // Fig. 1(a): in a 3×3×3 tensor the five example points map to
        // linear addresses 1, 4, 5, 25, 26.
        let s = Shape::cube(3, 3).unwrap();
        assert_eq!(s.linearize(&[0, 0, 1]).unwrap(), 1);
        assert_eq!(s.linearize(&[0, 1, 1]).unwrap(), 4);
        assert_eq!(s.linearize(&[0, 1, 2]).unwrap(), 5);
        assert_eq!(s.linearize(&[2, 2, 1]).unwrap(), 25);
        assert_eq!(s.linearize(&[2, 2, 2]).unwrap(), 26);
    }

    #[test]
    fn linearize_checks_bounds() {
        let s = Shape::new(vec![2, 2]).unwrap();
        assert!(matches!(
            s.linearize(&[0, 2]),
            Err(TensorError::CoordOutOfBounds { dim: 1, .. })
        ));
        assert!(matches!(
            s.linearize(&[0]),
            Err(TensorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn delinearize_roundtrip_exhaustive_small() {
        let s = Shape::new(vec![3, 4, 5]).unwrap();
        for addr in 0..s.volume() {
            let c = s.delinearize(addr).unwrap();
            assert_eq!(s.linearize(&c).unwrap(), addr);
        }
        assert!(matches!(
            s.delinearize(s.volume()),
            Err(TensorError::LinearOutOfBounds { .. })
        ));
    }

    #[test]
    fn min_max_and_order() {
        let s = Shape::new(vec![128, 8, 64]).unwrap();
        assert_eq!(s.min_dim(), 8);
        assert_eq!(s.ascending_dim_order(), vec![1, 2, 0]);
        let p = s.permuted(&[1, 2, 0]).unwrap();
        assert_eq!(p.dims(), &[8, 64, 128]);
    }

    #[test]
    fn ascending_order_is_stable_on_ties() {
        let s = Shape::new(vec![4, 4, 2, 4]).unwrap();
        assert_eq!(s.ascending_dim_order(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn density_is_fraction() {
        let s = Shape::new(vec![10, 10]).unwrap();
        assert!((s.density(1) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn display_formats_dims() {
        let s = Shape::new(vec![8192, 8192]).unwrap();
        assert_eq!(s.to_string(), "8192x8192");
    }
}
