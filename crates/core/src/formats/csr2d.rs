//! Classic 2D CSR/CSC packaging (Templates book \[24\]) shared by
//! GCSR++ and GCSC++.
//!
//! Both generalized formats remap a high-dimensional point to a cell of a
//! 2D matrix and then package the points with the classic compressed
//! row/column scheme: a `ptr` array with one entry per bucket (row for
//! CSR, column for CSC) plus one, and an `ind` array holding the other
//! 2D coordinate of each point in bucket-sorted order.

use crate::codec::Words;
use crate::error::{FormatError, Result};
use artsparse_tensor::Shape;

/// The 2D matrix a high-dimensional tensor is remapped onto.
///
/// GCSR++ picks `rows = min{m_i}` and `cols = volume / rows`
/// (Algorithm 1 line 6); GCSC++ symmetrically picks `cols = min{m_i}`.
/// A linear address `l` decodes row-major: `(l / cols, l % cols)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Remap2D {
    /// Number of rows of the 2D matrix.
    pub rows: u64,
    /// Number of columns of the 2D matrix.
    pub cols: u64,
}

impl Remap2D {
    /// GCSR++ remap: smallest dimension becomes the row count.
    pub fn for_gcsr(shape: &Shape) -> Remap2D {
        let rows = shape.min_dim();
        Remap2D {
            rows,
            cols: shape.volume() / rows,
        }
    }

    /// GCSC++ remap: smallest dimension becomes the column count.
    pub fn for_gcsc(shape: &Shape) -> Remap2D {
        let cols = shape.min_dim();
        Remap2D {
            rows: shape.volume() / cols,
            cols,
        }
    }

    /// Decode a linear address into `(row, col)`
    /// (`reverse_transform_row-major`, Algorithm 1 line 9).
    #[inline]
    pub fn decode(&self, l: u64) -> (u64, u64) {
        (l / self.cols, l % self.cols)
    }
}

/// Build the compressed `ptr` array for points already sorted by bucket.
///
/// `buckets` are the bucket ids of the points in sorted order;
/// `num_buckets` is the bucket-axis extent. Returns `num_buckets + 1`
/// offsets with `ptr[b]..ptr[b+1]` delimiting bucket `b`'s points.
pub fn build_ptr(buckets: impl Iterator<Item = u64>, num_buckets: usize) -> Vec<u64> {
    let mut ptr = vec![0u64; num_buckets + 1];
    for b in buckets {
        debug_assert!((b as usize) < num_buckets, "bucket out of range");
        ptr[b as usize + 1] += 1;
    }
    for i in 0..num_buckets {
        ptr[i + 1] += ptr[i];
    }
    ptr
}

/// Validate a decoded `ptr` array: monotone, starts at 0, ends at `n`.
pub fn validate_ptr(ptr: &[u64], n: u64, what: &str) -> Result<()> {
    validate_ptr_words(ptr.iter().copied(), n, what)
}

/// [`validate_ptr`] over any word sequence — one pass, so a borrowed
/// [`Words`] section is checked in place.
pub(crate) fn validate_ptr_words(
    mut ptr: impl Iterator<Item = u64>,
    n: u64,
    what: &str,
) -> Result<()> {
    let Some(first) = ptr.next() else {
        return Err(FormatError::corrupt(format!("{what} is empty")));
    };
    if first != 0 {
        return Err(FormatError::corrupt(format!("{what} does not start at 0")));
    }
    let mut last = first;
    for p in ptr {
        if last > p {
            return Err(FormatError::corrupt(format!("{what} is not monotone")));
        }
        last = p;
    }
    if last != n {
        return Err(FormatError::corrupt(format!(
            "{what} ends at {last} instead of n={n}"
        )));
    }
    Ok(())
}

/// Linearly scan one bucket's segment of `ind` for `target`, counting
/// comparisons. Returns `(absolute position, comparisons)`. Both arrays
/// are read in place from the encoded index.
///
/// Both GCSR++ and GCSC++ read this way (Algorithm 1 lines 8–9) — the
/// paper deliberately does *not* sort within a bucket, yielding the
/// `O(n / min{m_i})` per-query scan of Table I.
#[inline]
pub fn scan_bucket(ind: Words<'_>, ptr: Words<'_>, bucket: u64, target: u64) -> (Option<u64>, u64) {
    let lo = ptr.get(bucket as usize) as usize;
    let hi = ptr.get(bucket as usize + 1) as usize;
    let mut compares = 0u64;
    for (off, v) in ind.slice(lo, hi).iter().enumerate() {
        compares += 1;
        if v == target {
            return (Some((lo + off) as u64), compares);
        }
    }
    (None, compares)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn gcsr_remap_uses_min_dim_as_rows() {
        let s = Shape::new(vec![128, 8, 64]).unwrap();
        let r = Remap2D::for_gcsr(&s);
        assert_eq!(r.rows, 8);
        assert_eq!(r.cols, 128 * 64);
        let l = s.linearize(&[5, 3, 10]).unwrap();
        let (row, col) = r.decode(l);
        assert_eq!(row * r.cols + col, l);
        assert!(row < r.rows && col < r.cols);
    }

    #[test]
    fn gcsc_remap_uses_min_dim_as_cols() {
        let s = Shape::new(vec![128, 8, 64]).unwrap();
        let r = Remap2D::for_gcsc(&s);
        assert_eq!(r.cols, 8);
        assert_eq!(r.rows, 128 * 64);
    }

    #[test]
    fn remaps_are_bijective_on_a_small_tensor() {
        let s = Shape::new(vec![3, 4, 5]).unwrap();
        for remap in [Remap2D::for_gcsr(&s), Remap2D::for_gcsc(&s)] {
            let mut seen = std::collections::HashSet::new();
            for l in 0..s.volume() {
                let rc = remap.decode(l);
                assert!(rc.0 < remap.rows && rc.1 < remap.cols);
                assert!(seen.insert(rc), "collision at {l}");
            }
        }
    }

    #[test]
    fn ptr_matches_fig1_example() {
        // Fig. 1 tensor remapped by GCSR++: 3×3×3 → rows=3, cols=9.
        // Linear addresses 1,4,5,25,26 → rows 0,0,0,2,2.
        let ptr = build_ptr([0u64, 0, 0, 2, 2].into_iter(), 3);
        assert_eq!(ptr, vec![0, 3, 3, 5]);
        validate_ptr(&ptr, 5, "row_ptr").unwrap();
    }

    #[test]
    fn validate_rejects_corruption() {
        assert!(validate_ptr(&[], 0, "p").is_err());
        assert!(validate_ptr(&[1, 2], 2, "p").is_err());
        assert!(validate_ptr(&[0, 3, 2], 2, "p").is_err());
        assert!(validate_ptr(&[0, 1, 2], 3, "p").is_err());
        assert!(validate_ptr(&[0, 1, 3], 3, "p").is_ok());
    }

    #[test]
    fn scan_bucket_finds_and_counts() {
        let ind = le_bytes(&[7, 3, 9, 1, 4]);
        let ptr = le_bytes(&[0, 3, 5]);
        let (ind, ptr) = (Words::new(&ind).unwrap(), Words::new(&ptr).unwrap());
        let (pos, cmp) = scan_bucket(ind, ptr, 0, 9);
        assert_eq!(pos, Some(2));
        assert_eq!(cmp, 3);
        let (pos, cmp) = scan_bucket(ind, ptr, 1, 99);
        assert_eq!(pos, None);
        assert_eq!(cmp, 2);
        let (pos, _) = scan_bucket(ind, ptr, 1, 1);
        assert_eq!(pos, Some(3));
    }

    #[test]
    fn empty_bucket_scans_zero() {
        let ptr = le_bytes(&[0, 0, 0]);
        let (ind, ptr) = (Words::new(&[]).unwrap(), Words::new(&ptr).unwrap());
        let (pos, cmp) = scan_bucket(ind, ptr, 0, 5);
        assert_eq!(pos, None);
        assert_eq!(cmp, 0);
    }

    #[test]
    fn agrees_with_gcsr_on_a_2d_tensor() {
        // GCSR++ on a square 2D tensor *is* classic CSR of the matrix.
        // (GCSR++ keeps *input* order within a row — Algorithm 1 sorts
        // only by the first dimension — so the points come already in
        // (row, col) order, CSR's canonical form.)
        use crate::traits::Organization;
        let shape = Shape::new(vec![4, 4]).unwrap();
        let pts = [[0u64, 1], [2, 0], [2, 3], [3, 3]];
        let coords = artsparse_tensor::CoordBuffer::from_points(2, &pts).unwrap();
        let counter = artsparse_metrics::OpCounter::new();
        let built = crate::formats::gcsr::GcsrPP
            .build(&coords, &shape, &counter)
            .unwrap();
        let (_, mut dec) = crate::codec::IndexDecoder::new(&built.index, None).unwrap();
        // Row 0 holds column 1, row 1 nothing, row 2 columns 0 and 3,
        // row 3 column 3.
        assert_eq!(dec.section("ptr").unwrap(), [0, 1, 1, 3, 4]);
        assert_eq!(dec.section("ind").unwrap(), [1, 0, 3, 3]);
    }
}
