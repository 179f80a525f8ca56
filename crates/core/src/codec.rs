//! Self-describing binary encoding of organization indexes.
//!
//! A fragment (Algorithm 3) is `index ∥ values`; the index half must be
//! decodable on its own so READ can "extract and unpack index from f".
//! Every organization serializes through this little codec:
//!
//! ```text
//! magic   u32  = 0x58505341 ("ASPX" little-endian)
//! version u16  = 1
//! format  u16  — FormatKind id
//! ndim    u16
//! flags   u16  — reserved, zero
//! pad     u32  — zero; keeps every subsequent u64 8-byte aligned so
//!                word-oriented fragment codecs (delta-varint) see whole
//!                words
//! n       u64  — number of points
//! shape   ndim × u64 — the shape the transforms were computed against
//! …format-specific u64 sections, each length-prefixed…
//! ```
//!
//! All integers are little-endian. Decoding is fully validated: truncated
//! or corrupted buffers produce [`FormatError`]s, never panics — the
//! failure-injection integration tests depend on this.
//!
//! A section can be taken two ways, through the same bounds checks:
//! [`IndexDecoder::words`] borrows it in place as a [`Words`] view — what
//! `Organization::read` uses, so a lookup materialises nothing — and
//! [`IndexDecoder::section`] copies it out into a `Vec<u64>`, for
//! `build`/`enumerate`, which rearrange the words anyway.

use crate::error::{FormatError, Result};
use artsparse_tensor::Shape;
use bytes::{Buf, BufMut};

/// `"ASPX"` interpreted as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ASPX");
/// Current codec version.
pub const VERSION: u16 = 1;

/// Size in bytes of the fixed header before the shape dims.
pub const FIXED_HEADER_BYTES: usize = 4 + 2 + 2 + 2 + 2 + 4 + 8;

/// Writer for an index buffer.
#[derive(Debug)]
pub struct IndexEncoder {
    buf: Vec<u8>,
}

impl IndexEncoder {
    /// Begin an index for `format` covering `n` points transformed against
    /// `shape`.
    pub fn new(format: u16, shape: &Shape, n: u64) -> Self {
        let mut buf = Vec::with_capacity(FIXED_HEADER_BYTES + shape.ndim() * 8);
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(format);
        buf.put_u16_le(shape.ndim() as u16);
        buf.put_u16_le(0);
        buf.put_u32_le(0);
        buf.put_u64_le(n);
        for &m in shape.dims() {
            buf.put_u64_le(m);
        }
        IndexEncoder { buf }
    }

    /// Append a length-prefixed section of u64 words.
    pub fn put_section(&mut self, words: &[u64]) {
        self.buf.reserve(8 + words.len() * 8);
        self.buf.put_u64_le(words.len() as u64);
        for &w in words {
            self.buf.put_u64_le(w);
        }
    }

    /// Finish, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoded header common to all organizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexHeader {
    /// Format id the index was built by.
    pub format: u16,
    /// Number of points.
    pub n: u64,
    /// The shape transforms were computed against.
    pub shape: Shape,
}

/// Reader over an encoded index buffer.
#[derive(Debug)]
pub struct IndexDecoder<'a> {
    rest: &'a [u8],
}

impl<'a> IndexDecoder<'a> {
    /// Validate the header; `expected_format` of `None` accepts any format.
    pub fn new(bytes: &'a [u8], expected_format: Option<u16>) -> Result<(IndexHeader, Self)> {
        let mut cur = bytes;
        if cur.remaining() < FIXED_HEADER_BYTES {
            return Err(FormatError::UnexpectedEof { reading: "header" });
        }
        let magic = cur.get_u32_le();
        if magic != MAGIC {
            let found = bytes[..4].try_into().expect("checked length");
            return Err(FormatError::BadMagic { found });
        }
        let version = cur.get_u16_le();
        if version != VERSION {
            return Err(FormatError::BadVersion { found: version });
        }
        let format = cur.get_u16_le();
        if let Some(expected) = expected_format {
            if format != expected {
                return Err(FormatError::WrongFormat {
                    expected,
                    found: format,
                });
            }
        }
        let ndim = cur.get_u16_le() as usize;
        let _flags = cur.get_u16_le();
        let _pad = cur.get_u32_le();
        let n = cur.get_u64_le();
        if cur.remaining() < ndim * 8 {
            return Err(FormatError::UnexpectedEof {
                reading: "shape dims",
            });
        }
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            dims.push(cur.get_u64_le());
        }
        let shape = Shape::new(dims).map_err(FormatError::Tensor)?;
        Ok((IndexHeader { format, n, shape }, IndexDecoder { rest: cur }))
    }

    /// Borrow the next length-prefixed u64 section in place: the length
    /// prefix is read and checked against what is left of the buffer,
    /// and nothing is copied. This is the one place a section's bounds
    /// are validated; [`section`](Self::section) is this plus a copy.
    pub fn words(&mut self, what: &'static str) -> Result<Words<'a>> {
        if self.rest.remaining() < 8 {
            return Err(FormatError::UnexpectedEof { reading: what });
        }
        let len = self.rest.get_u64_le();
        let len_usize = usize::try_from(len)
            .map_err(|_| FormatError::corrupt(format!("{what} length {len} too large")))?;
        let bytes_needed = len_usize
            .checked_mul(8)
            .ok_or_else(|| FormatError::corrupt(format!("{what} length {len} too large")))?;
        if self.rest.remaining() < bytes_needed {
            return Err(FormatError::UnexpectedEof { reading: what });
        }
        let (section, rest) = self.rest.split_at(bytes_needed);
        self.rest = rest;
        Ok(Words { bytes: section })
    }

    /// Borrow a section whose length must equal `expect`.
    pub fn words_exact(&mut self, what: &'static str, expect: usize) -> Result<Words<'a>> {
        let s = self.words(what)?;
        if s.len() != expect {
            return Err(FormatError::corrupt(format!(
                "{what} has {} entries, expected {expect}",
                s.len()
            )));
        }
        Ok(s)
    }

    /// Read the next length-prefixed u64 section into an owned vector.
    pub fn section(&mut self, what: &'static str) -> Result<Vec<u64>> {
        Ok(self.words(what)?.to_vec())
    }

    /// Read a section whose length must equal `expect`.
    pub fn section_exact(&mut self, what: &'static str, expect: usize) -> Result<Vec<u64>> {
        Ok(self.words_exact(what, expect)?.to_vec())
    }

    /// Assert the buffer is fully consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(FormatError::corrupt(format!(
                "{} trailing bytes after index payload",
                self.rest.len()
            )))
        }
    }
}

/// A borrowed section of an encoded index: little-endian `u64` words read
/// in place from the bytes a fetch returned (the stored `pos`/`crd`
/// arrays of a level format), so a lookup touches only the words it
/// compares. Obtained from [`IndexDecoder::words`], which has already
/// checked the section's length against the buffer; indexing past
/// [`len`](Self::len) panics, as it does on a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Words<'a> {
    /// The section body, a whole number of 8-byte words.
    bytes: &'a [u8],
}

impl<'a> Words<'a> {
    /// View `bytes` as words; `None` unless it is a whole number of them.
    pub fn new(bytes: &'a [u8]) -> Option<Self> {
        bytes.len().is_multiple_of(8).then_some(Words { bytes })
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the section holds no words.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Word `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        let at = i * 8;
        u64::from_le_bytes(self.bytes[at..at + 8].try_into().expect("8-byte word"))
    }

    /// The words `lo..hi`.
    pub fn slice(&self, lo: usize, hi: usize) -> Words<'a> {
        Words {
            bytes: &self.bytes[lo * 8..hi * 8],
        }
    }

    /// Every word in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
    }

    /// Every adjacent pair `(w[i], w[i + 1])`, for order checks.
    pub fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.iter().zip(self.iter().skip(1))
    }

    /// The section's bytes as stored (little-endian words).
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Copy the words out.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Index of the first word for which `pred` is false, assuming the
    /// section is partitioned by it (as `[T]::partition_point`): a binary
    /// search over the stored bytes.
    pub fn partition_point(&self, mut pred: impl FnMut(u64) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape::new(vec![3, 4, 5]).unwrap()
    }

    #[test]
    fn header_roundtrip() {
        let enc = IndexEncoder::new(7, &shape(), 42);
        let bytes = enc.finish();
        let (h, dec) = IndexDecoder::new(&bytes, Some(7)).unwrap();
        assert_eq!(h.format, 7);
        assert_eq!(h.n, 42);
        assert_eq!(h.shape, shape());
        dec.expect_end().unwrap();
    }

    #[test]
    fn sections_roundtrip() {
        let mut enc = IndexEncoder::new(1, &shape(), 3);
        enc.put_section(&[10, 20, 30]);
        enc.put_section(&[]);
        enc.put_section(&[u64::MAX]);
        let bytes = enc.finish();
        let (_, mut dec) = IndexDecoder::new(&bytes, None).unwrap();
        assert_eq!(dec.section("a").unwrap(), vec![10, 20, 30]);
        assert_eq!(dec.section("b").unwrap(), Vec::<u64>::new());
        assert_eq!(dec.section_exact("c", 1).unwrap(), vec![u64::MAX]);
        dec.expect_end().unwrap();
    }

    #[test]
    fn rejects_bad_magic_version_format() {
        let bytes = IndexEncoder::new(1, &shape(), 0).finish();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            IndexDecoder::new(&bad, None),
            Err(FormatError::BadMagic { .. })
        ));

        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            IndexDecoder::new(&bad, None),
            Err(FormatError::BadVersion { found: 99 })
        ));

        assert!(matches!(
            IndexDecoder::new(&bytes, Some(2)),
            Err(FormatError::WrongFormat {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn rejects_truncations_everywhere() {
        let mut enc = IndexEncoder::new(1, &shape(), 5);
        enc.put_section(&[1, 2, 3, 4]);
        let bytes = enc.finish();
        // Every proper prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            let r = IndexDecoder::new(prefix, Some(1)).and_then(|(_, mut d)| {
                let s = d.section("payload")?;
                d.expect_end()?;
                Ok(s)
            });
            assert!(r.is_err(), "prefix of {cut} bytes unexpectedly decoded");
        }
        // The full buffer succeeds.
        let (_, mut d) = IndexDecoder::new(&bytes, Some(1)).unwrap();
        assert_eq!(d.section("payload").unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = IndexEncoder::new(1, &shape(), 0).finish();
        bytes.push(0xAB);
        let (_, dec) = IndexDecoder::new(&bytes, None).unwrap();
        assert!(matches!(dec.expect_end(), Err(FormatError::Corrupt { .. })));
    }

    #[test]
    fn rejects_absurd_section_length() {
        let mut enc = IndexEncoder::new(1, &shape(), 0);
        enc.put_section(&[]);
        let mut bytes = enc.finish();
        // Overwrite the section length with u64::MAX.
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        let (_, mut dec) = IndexDecoder::new(&bytes, None).unwrap();
        assert!(dec.section("payload").is_err());
    }

    #[test]
    fn rejects_corrupt_shape() {
        let mut bytes = IndexEncoder::new(1, &shape(), 0).finish();
        // Zero out the first shape dim → invalid Shape.
        let at = FIXED_HEADER_BYTES;
        bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            IndexDecoder::new(&bytes, None),
            Err(FormatError::Tensor(_))
        ));
    }
}
