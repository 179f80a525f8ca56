//! `SparseTensor<V>` — the typed, user-facing API.
//!
//! The [`crate::traits::Organization`] trait deliberately mirrors the
//! paper's buffer-level algorithms (coordinates in, value *slots* out).
//! [`SparseTensor`] wraps that machinery for application code: insert
//! typed values at coordinates, encode under any organization, and query
//! points or whole regions getting typed values back.

use crate::error::Result;
use crate::traits::FormatKind;
use artsparse_metrics::OpCounter;
use artsparse_tensor::value::{get_packed, pack, Element};
use artsparse_tensor::{CoordBuffer, Region, Shape, TensorError};

/// A mutable, in-memory sparse tensor holding typed values.
#[derive(Debug, Clone)]
pub struct SparseTensor<V: Element> {
    shape: Shape,
    coords: CoordBuffer,
    values: Vec<V>,
}

impl<V: Element> SparseTensor<V> {
    /// An empty tensor of the given shape.
    pub fn new(shape: Shape) -> Self {
        let ndim = shape.ndim();
        SparseTensor {
            shape,
            coords: CoordBuffer::new(ndim),
            values: Vec::new(),
        }
    }

    /// Construct from pre-existing parallel buffers.
    pub fn from_parts(shape: Shape, coords: CoordBuffer, values: Vec<V>) -> Result<Self> {
        coords.check_against(&shape)?;
        if coords.len() != values.len() {
            return Err(TensorError::ValueLengthMismatch {
                len: values.len(),
                elem_size: coords.len(),
            }
            .into());
        }
        Ok(SparseTensor {
            shape,
            coords,
            values,
        })
    }

    /// Insert one point (duplicates are permitted and preserved).
    pub fn insert(&mut self, coord: &[u64], value: V) -> Result<()> {
        self.shape.check_coord(coord)?;
        self.coords.push(coord)?;
        self.values.push(value);
        Ok(())
    }

    /// Number of stored points.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Fraction of cells occupied.
    pub fn density(&self) -> f64 {
        self.shape.density(self.nnz() as u64)
    }

    /// The coordinate buffer.
    pub fn coords(&self) -> &CoordBuffer {
        &self.coords
    }

    /// The value buffer (input order).
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Encode under the given organization.
    pub fn encode(&self, kind: FormatKind) -> Result<EncodedTensor> {
        let org = kind.create();
        let counter = OpCounter::new();
        let built = org.build(&self.coords, &self.shape, &counter)?;
        let payload = pack(&self.values);
        let values = built.reorganize_values(&payload, V::SIZE);
        Ok(EncodedTensor {
            kind,
            shape: self.shape.clone(),
            n: built.n_points,
            index: built.index,
            values,
            elem_size: V::SIZE,
        })
    }
}

/// An immutable tensor encoded under one organization: the in-memory twin
/// of a fragment (`index ∥ values`, Algorithm 3 line 6).
#[derive(Debug, Clone)]
pub struct EncodedTensor {
    kind: FormatKind,
    shape: Shape,
    n: usize,
    index: Vec<u8>,
    values: Vec<u8>,
    elem_size: usize,
}

impl EncodedTensor {
    /// The organization used.
    pub fn kind(&self) -> FormatKind {
        self.kind
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of stored points.
    pub fn nnz(&self) -> usize {
        self.n
    }

    /// Encoded index bytes (what Fig. 4 measures, plus codec header).
    pub fn index_bytes(&self) -> &[u8] {
        &self.index
    }

    /// Reorganized value payload bytes.
    pub fn value_bytes(&self) -> &[u8] {
        &self.values
    }

    /// Total footprint (index + values), the fragment's size on disk.
    pub fn total_bytes(&self) -> usize {
        self.index.len() + self.values.len()
    }

    /// Look up one point.
    pub fn get<V: Element>(&self, coord: &[u64]) -> Result<Option<V>> {
        debug_assert_eq!(V::SIZE, self.elem_size);
        let org = self.kind.create();
        let q = CoordBuffer::from_points(self.shape.ndim(), &[coord])?;
        let counter = OpCounter::new();
        let slots = org.read(&self.index, &q, &counter)?;
        Ok(slots[0].and_then(|s| get_packed::<V>(&self.values, s as usize)))
    }

    /// Query many points at once; the result aligns with `queries`.
    pub fn get_many<V: Element>(&self, queries: &CoordBuffer) -> Result<Vec<Option<V>>> {
        let org = self.kind.create();
        let counter = OpCounter::new();
        let slots = org.read(&self.index, queries, &counter)?;
        Ok(slots
            .into_iter()
            .map(|s| s.and_then(|s| get_packed::<V>(&self.values, s as usize)))
            .collect())
    }

    /// Read every stored point inside `region`, in row-major coordinate
    /// order — the paper's evaluation read (§III) asks for every cell of
    /// the region and keeps the hits; [`Organization::scan`] answers that
    /// in one pass over the index.
    ///
    /// [`Organization::scan`]: crate::traits::Organization::scan
    pub fn read_region<V: Element>(&self, region: &Region) -> Result<Vec<(Vec<u64>, V)>> {
        let org = self.kind.create();
        let matched = org.scan(&self.index, region, &OpCounter::new())?;
        let mut cell = vec![0u64; region.ndim()];
        Ok(matched
            .into_iter()
            .filter_map(|(rank, slot)| {
                let value = get_packed::<V>(&self.values, slot as usize)?;
                region.cell_into(rank as u64, &mut cell);
                Some((cell.clone(), value))
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseTensor<f64> {
        let mut t = SparseTensor::new(Shape::new(vec![8, 8]).unwrap());
        t.insert(&[0, 1], 1.5).unwrap();
        t.insert(&[3, 3], -2.0).unwrap();
        t.insert(&[7, 0], 42.0).unwrap();
        t
    }

    #[test]
    fn insert_and_stats() {
        let t = sample();
        assert_eq!(t.nnz(), 3);
        assert!((t.density() - 3.0 / 64.0).abs() < 1e-12);
        assert!(t.clone().insert(&[8, 0], 0.0).is_err());
    }

    #[test]
    fn every_format_roundtrips_typed_values() {
        let t = sample();
        for kind in FormatKind::ALL {
            let enc = t.encode(kind).unwrap();
            assert_eq!(enc.nnz(), 3, "{kind}");
            assert_eq!(enc.get::<f64>(&[0, 1]).unwrap(), Some(1.5), "{kind}");
            assert_eq!(enc.get::<f64>(&[3, 3]).unwrap(), Some(-2.0), "{kind}");
            assert_eq!(enc.get::<f64>(&[7, 0]).unwrap(), Some(42.0), "{kind}");
            assert_eq!(enc.get::<f64>(&[1, 1]).unwrap(), None, "{kind}");
        }
    }

    #[test]
    fn region_read_returns_row_major_hits() {
        let t = sample();
        let enc = t.encode(FormatKind::Csf).unwrap();
        let r = Region::from_corners(&[0, 0], &[3, 3]).unwrap();
        let hits = enc.read_region::<f64>(&r).unwrap();
        assert_eq!(hits, vec![(vec![0, 1], 1.5), (vec![3, 3], -2.0)]);
    }

    #[test]
    fn from_parts_validates() {
        let shape = Shape::new(vec![4, 4]).unwrap();
        let coords = CoordBuffer::from_points(2, &[[0u64, 0]]).unwrap();
        assert!(SparseTensor::from_parts(shape.clone(), coords.clone(), vec![1.0, 2.0]).is_err());
        let bad = CoordBuffer::from_points(2, &[[9u64, 0]]).unwrap();
        assert!(SparseTensor::<f64>::from_parts(shape.clone(), bad, vec![1.0]).is_err());
        assert!(SparseTensor::from_parts(shape, coords, vec![1.0]).is_ok());
    }

    #[test]
    fn index_smaller_for_linear_than_coo() {
        let t = sample();
        let coo = t.encode(FormatKind::Coo).unwrap();
        let lin = t.encode(FormatKind::Linear).unwrap();
        assert!(lin.index_bytes().len() < coo.index_bytes().len());
        assert_eq!(lin.value_bytes(), coo.value_bytes());
        assert!(lin.total_bytes() < coo.total_bytes());
    }

    #[test]
    fn get_many_aligns_with_queries() {
        let t = sample();
        let enc = t.encode(FormatKind::GcsrPP).unwrap();
        let q = CoordBuffer::from_points(2, &[[3u64, 3], [2, 2], [0, 1]]).unwrap();
        assert_eq!(
            enc.get_many::<f64>(&q).unwrap(),
            vec![Some(-2.0), None, Some(1.5)]
        );
    }

    #[test]
    fn integer_values_work() {
        let mut t = SparseTensor::<u32>::new(Shape::new(vec![4]).unwrap());
        t.insert(&[2], 7).unwrap();
        let enc = t.encode(FormatKind::Linear).unwrap();
        assert_eq!(enc.get::<u32>(&[2]).unwrap(), Some(7));
    }
}
