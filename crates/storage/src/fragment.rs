//! Fragment files — `b_frag = b_coor_new ∥ b_data` (Algorithm 3 line 6)
//! plus the metadata READ needs to discover and unpack them.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic       u32 = "ASFR"
//! version     u16 = 3 (the only layout; anything else is rejected)
//! format      u16 — FormatKind id of the embedded index
//! ndim        u16
//! flags       u16 — bit 0: bounding box present (0 for empty tensors)
//!                   bits 1–3: index codec id, bits 4–6: value codec id
//!                   bit 7: another page follows this one in the blob
//! n           u64 — number of points
//! elem_size   u32 — bytes per value record
//! index_len   u64 — stored (possibly compressed) index bytes
//! value_len   u64 — stored (possibly compressed) value bytes
//! index_raw   u64 — uncompressed index bytes
//! value_raw   u64 — uncompressed value bytes
//! shape       ndim × u64 — the global tensor shape
//! bbox lo     ndim × u64 — fragment bounding box (zeros when absent)
//! bbox hi     ndim × u64
//! index_crc   u32 — CRC32C of the stored index bytes
//! value_crc   u32 — CRC32C of the stored value bytes
//! header_crc  u32 — CRC32C of every preceding header byte
//! index       index_len bytes (self-describing, see artsparse-core codec)
//! values      value_len bytes (reorganized by the build's map)
//! ```
//!
//! A blob is one or more such *pages* laid end to end, each with its own
//! header and CRCs; all but the last set bit 7, so a blob cut at a page
//! boundary is corrupt ([`decode_pages`]), never a shorter fragment.
//!
//! Compression is the paper's §II orthogonality point made concrete: the
//! organization is chosen first, then a [`Codec`] optionally shrinks each
//! payload. Decoding validates every length and cross-check; corrupted or
//! truncated fragments produce [`StorageError::CorruptFragment`], never
//! panics.
//!
//! Integrity is end to end: the checksums cover the *stored* bytes,
//! so a fetch can be verified before any decompression or organization
//! decode runs — corruption surfaces as a typed
//! [`StorageError::ChecksumMismatch`] naming the fragment and section.
//! The header CRC is last in the header so it covers the section CRCs
//! too; a flipped bit anywhere in the header fails verification before
//! any field is trusted. There is exactly one layout version: a header
//! whose version field is not [`FRAGMENT_VERSION`] is rejected as
//! [`StorageError::CorruptFragment`] before anything else is read, so no
//! bit flip can route a fragment around its checksums.

use crate::codec::Codec;
use crate::error::{FragmentSection, Result, StorageError};
use crate::integrity::crc32c;
use artsparse_core::FormatKind;
use artsparse_metrics::charge;
use artsparse_tensor::{Region, Shape};
use bytes::{Buf, BufMut};
use std::borrow::Cow;

/// `"ASFR"` as a little-endian u32.
pub const FRAGMENT_MAGIC: u32 = u32::from_le_bytes(*b"ASFR");
/// The fragment layout version (checksummed sections).
pub const FRAGMENT_VERSION: u16 = 3;

const FLAG_HAS_BBOX: u16 = 1;
const FLAG_CONTINUED: u16 = 1 << 7;
const INDEX_CODEC_SHIFT: u16 = 1;
const VALUE_CODEC_SHIFT: u16 = 4;
const CODEC_MASK: u16 = 0b111;

/// Bytes of the header's checksum trailer: index, value, and header
/// CRC32C values.
const CHECKSUM_TRAILER_LEN: usize = 3 * 4;

/// The per-section CRC32C values a header carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentChecksums {
    /// CRC32C of the stored (possibly compressed) index bytes.
    pub index: u32,
    /// CRC32C of the stored (possibly compressed) value bytes.
    pub value: u32,
    /// CRC32C of every header byte preceding this field.
    pub header: u32,
}

/// Decoded fragment metadata (everything before the payloads).
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentMeta {
    /// Organization of the embedded index.
    pub kind: FormatKind,
    /// Global tensor shape.
    pub shape: Shape,
    /// Number of points.
    pub n: u64,
    /// Bytes per value record.
    pub elem_size: u32,
    /// Bounding box of the stored points (`None` for empty fragments).
    pub bbox: Option<Region>,
    /// Stored length of the index payload.
    pub index_len: u64,
    /// Stored length of the value payload.
    pub value_len: u64,
    /// Uncompressed length of the index payload.
    pub index_raw_len: u64,
    /// Uncompressed length of the value payload.
    pub value_raw_len: u64,
    /// Codec applied to the index payload.
    pub index_codec: Codec,
    /// Codec applied to the value payload.
    pub value_codec: Codec,
    /// Section and header checksums.
    pub checksums: FragmentChecksums,
    /// Whether another page follows this one in its blob.
    pub continued: bool,
}

impl FragmentMeta {
    /// Byte length of the header for `ndim` dimensions (what a discovery
    /// peek fetches).
    pub fn header_len(ndim: usize) -> usize {
        4 + 2 + 2 + 2 + 2 + 8 + 4 + 8 + 8 + 8 + 8 + 3 * ndim * 8 + CHECKSUM_TRAILER_LEN
    }

    /// Total fragment size this metadata describes.
    pub fn total_len(&self) -> u64 {
        self.value_offset() + self.value_len
    }

    /// Byte offset of the stored index section within the fragment (the
    /// header's length).
    pub fn index_offset(&self) -> u64 {
        Self::header_len(self.shape.ndim()) as u64
    }

    /// Byte offset of the stored value section within the fragment.
    pub fn value_offset(&self) -> u64 {
        self.index_offset() + self.index_len
    }
}

/// Compare the CRC32C of `bytes` with the recorded one; a mismatch is
/// charged to telemetry and typed with the section it damaged.
fn check_crc(name: &str, section: FragmentSection, expected: u32, bytes: &[u8]) -> Result<()> {
    let found = crc32c(bytes);
    if found != expected {
        charge(|io| io.checksum_failures += 1);
        return Err(StorageError::checksum_mismatch(
            name, section, expected, found,
        ));
    }
    Ok(())
}

/// One fragment's stored bytes as the engine fetches them: which byte
/// ranges each call asks the device for, and how each range is verified
/// before anything in it is trusted. It is the only code that knows the
/// sections' offsets; callers wrap each call in their retry policy.
///
/// | call | fetches | verified by |
/// |------|---------|-------------|
/// | [`index`](Self::index) | header + stored index, one request | the header decodes (its CRC) and equals `meta`; the index's length and CRC32C; decompression to its raw length |
/// | [`values`](Self::values) | the stored value section | length and CRC32C; decompression to its raw length |
/// | [`value_run`](Self::value_run) | bytes `lo..hi` of an uncompressed value section | the run's length (a CRC covers only a whole section) |
/// | [`verify`](Self::verify) | one section: the header, or a stored payload | as above, with nothing decompressed |
/// | [`check_size`](Self::check_size) | nothing: the caller's size of the blob | the blob ends where the header says |
///
/// `get_range(offset, len)` returns up to `len` bytes at `offset` of the
/// page (of its blob from the page on), fewer where the blob ends inside
/// the window — the contract of [`StorageBackend::get_range`](crate::backend::StorageBackend::get_range).
/// `meta` is what the caller already believes about the fragment (the
/// catalog's entry); a header on the device that no longer equals it
/// fails every call that fetches it — a blob mutated behind the engine's
/// back must fail the read, not serve stale or garbage metadata.
/// Discovery, which has no `meta` yet, peeks headers with [`peek_meta`]
/// and walks a blob's further pages with `pages`.
pub struct FragmentReader<'a, F> {
    name: &'a str,
    meta: &'a FragmentMeta,
    get_range: F,
}

impl<'a, F> FragmentReader<'a, F>
where
    F: Fn(u64, usize) -> Result<Vec<u8>>,
{
    /// A reader of fragment `name`, described by `meta`, over `get_range`.
    pub fn new(name: &'a str, meta: &'a FragmentMeta, get_range: F) -> Self {
        FragmentReader {
            name,
            meta,
            get_range,
        }
    }

    /// A fetched header (or a longer prefix) must decode and equal `meta`.
    fn check_header(&self, head: &[u8]) -> Result<()> {
        if decode_meta(self.name, head)? != *self.meta {
            let reason = "header on device no longer matches the catalog";
            return Err(StorageError::corrupt(self.name, reason));
        }
        Ok(())
    }

    /// A stored payload section (index or values) must have the length
    /// and CRC32C the header records; a short one means the blob was
    /// truncated or rewritten.
    fn check_section(&self, section: FragmentSection, stored: &[u8]) -> Result<()> {
        let (len, crc) = match section {
            FragmentSection::Index => (self.meta.index_len, self.meta.checksums.index),
            _ => (self.meta.value_len, self.meta.checksums.value),
        };
        if stored.len() as u64 != len {
            let reason = format!(
                "{section} section is {} bytes, header says {len}",
                stored.len()
            );
            return Err(StorageError::corrupt(self.name, reason));
        }
        check_crc(self.name, section, crc, stored)
    }

    /// [`check_section`](Self::check_section) of `buf[start..]`, then its
    /// payload: the fetched buffer itself when the section was stored
    /// uncompressed, decompressed to the header's raw length otherwise.
    fn decode(
        &self,
        section: FragmentSection,
        buf: Vec<u8>,
        start: usize,
    ) -> Result<DecodedSection> {
        let stored = buf.get(start..).unwrap_or_default();
        self.check_section(section, stored)?;
        let (codec, raw_len) = match section {
            FragmentSection::Index => (self.meta.index_codec, self.meta.index_raw_len),
            _ => (self.meta.value_codec, self.meta.value_raw_len),
        };
        if codec == Codec::None && stored.len() as u64 == raw_len {
            return Ok(DecodedSection { buf, start });
        }
        let payload = (codec.decompress(stored, raw_len as usize))
            .map_err(|e| StorageError::corrupt(self.name, format!("{section} payload: {e}")))?;
        Ok(DecodedSection {
            buf: payload,
            start: 0,
        })
    }

    /// The verified, uncompressed index payload, fetched with the header
    /// in one request.
    pub fn index(&self) -> Result<DecodedSection> {
        let at = self.meta.index_offset();
        let head = (self.get_range)(0, (at + self.meta.index_len) as usize)?;
        self.check_header(&head)?;
        self.decode(FragmentSection::Index, head, at as usize)
    }

    /// The verified, uncompressed value payload.
    pub fn values(&self) -> Result<DecodedSection> {
        let stored = (self.get_range)(self.meta.value_offset(), self.meta.value_len as usize)?;
        self.decode(FragmentSection::Value, stored, 0)
    }

    /// Bytes `lo..hi` of the value payload, for a section stored
    /// uncompressed (where payload and stored bytes coincide).
    pub fn value_run(&self, lo: u64, hi: u64) -> Result<Vec<u8>> {
        let len = (hi - lo) as usize;
        let run = (self.get_range)(self.meta.value_offset() + lo, len)?;
        if run.len() != len {
            let reason = format!(
                "value records at {lo}..{hi} truncated ({} bytes returned)",
                run.len()
            );
            return Err(StorageError::corrupt(self.name, reason));
        }
        Ok(run)
    }

    /// Fetch one section on its own and verify it without decompressing
    /// or decoding anything (the checksums cover the stored bytes): a
    /// scrub's question.
    pub fn verify(&self, section: FragmentSection) -> Result<()> {
        let (offset, len) = match section {
            FragmentSection::Header => (0, self.meta.index_offset()),
            FragmentSection::Index => (self.meta.index_offset(), self.meta.index_len),
            FragmentSection::Value => (self.meta.value_offset(), self.meta.value_len),
        };
        let stored = (self.get_range)(offset, len as usize)?;
        match section {
            FragmentSection::Header => self.check_header(&stored),
            _ => self.check_section(section, &stored),
        }
    }

    /// A blob of `size` bytes from the page on must end exactly where
    /// the header says: the check of a blob's last page.
    pub fn check_size(&self, size: u64) -> Result<()> {
        let want = self.meta.total_len();
        if size != want {
            let reason = format!("fragment is {size} bytes on the device, header says {want}");
            return Err(StorageError::corrupt(self.name, reason));
        }
        Ok(())
    }
}

/// A verified, decoded section that owns its bytes without having copied
/// them: the fetched buffer from `start` on when the section was stored
/// uncompressed, the decompressed payload otherwise.
#[derive(Debug)]
pub struct DecodedSection {
    buf: Vec<u8>,
    start: usize,
}

impl DecodedSection {
    /// The payload bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// The payload as its own vector (for the decoded-fragment cache).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.buf.drain(..self.start);
        self.buf
    }
}

/// Decode the header of fragment `name` in a store of `ndim`-dimensional
/// tensors from a discovery peek: `get_prefix(len)` returns at most the
/// blob's first `len` bytes, and is asked for exactly the header.
pub fn peek_meta(
    name: &str,
    ndim: usize,
    get_prefix: impl FnOnce(usize) -> Result<Vec<u8>>,
) -> Result<FragmentMeta> {
    decode_meta(name, &get_prefix(FragmentMeta::header_len(ndim))?)
}

/// Walk the pages of blob `name`, `size` bytes long, whose first header
/// is `first`: each page starts where the one before it ends, and its
/// header is `peek(offset, len)`, asked for exactly the header. Returns
/// each page's offset and header. A page that says another follows where
/// the blob ends is [`StorageError::CorruptFragment`].
pub(crate) fn pages<T: AsRef<[u8]>>(
    name: &str,
    first: FragmentMeta,
    size: u64,
    peek: impl Fn(u64, usize) -> Result<T>,
) -> Result<Vec<(u64, FragmentMeta)>> {
    let header_len = FragmentMeta::header_len(first.shape.ndim());
    let mut pages = vec![(0u64, first)];
    while let Some(&(at, ref meta)) = pages.last().filter(|(_, meta)| meta.continued) {
        let Some(offset) = (at.checked_add(meta.total_len())).filter(|&end| end < size) else {
            let reason = format!("page at {at} says another follows; the blob ends at {size}");
            return Err(StorageError::corrupt(name, reason));
        };
        let meta = decode_meta(name, peek(offset, header_len)?.as_ref())?;
        pages.push((offset, meta));
    }
    Ok(pages)
}

/// The pages of an in-memory blob — each one's offset and header — walked
/// as the catalog walks a device's: a page that says another follows
/// where the blob ends is [`StorageError::CorruptFragment`].
pub fn decode_pages(name: &str, blob: &[u8]) -> Result<Vec<(u64, FragmentMeta)>> {
    let first = decode_meta(name, blob)?;
    pages(name, first, blob.len() as u64, |at, _| {
        Ok(&blob[at as usize..])
    })
}

/// A payload as stored under `codec`: itself when no codec applies.
fn stored(codec: Codec, payload: &[u8]) -> Cow<'_, [u8]> {
    match codec {
        Codec::None => Cow::Borrowed(payload),
        codec => Cow::Owned(codec.compress(payload)),
    }
}

/// One page of a blob before it is encoded: the organization of its
/// index, its number of points and their bounding box (`None` when
/// empty), and its uncompressed index and (reorganized) value payloads.
pub(crate) struct PagePayload<'a> {
    pub kind: FormatKind,
    pub n: u64,
    pub bbox: Option<Region>,
    pub index: Cow<'a, [u8]>,
    pub values: Cow<'a, [u8]>,
}

/// Lay `pages` end to end into one blob of `shape`-shaped tensors of
/// `elem_size`-byte records, each page's payloads stored under the
/// `(index, value)` codecs and every page but the last marked continued.
/// A page is dropped as soon as it is laid, so the pages and the blob
/// together hold about one copy of the payloads.
pub(crate) fn encode_pages(
    shape: &Shape,
    elem_size: u32,
    (index_codec, value_codec): (Codec, Codec),
    pages: Vec<PagePayload<'_>>,
) -> Vec<u8> {
    let ndim = shape.ndim();
    let len = (pages.iter())
        .map(|page| FragmentMeta::header_len(ndim) + page.index.len() + page.values.len())
        .sum();
    let mut buf = Vec::with_capacity(len);
    let last = pages.len().saturating_sub(1);
    for (i, page) in pages.into_iter().enumerate() {
        let start = buf.len();
        let stored_index = stored(index_codec, &page.index);
        let stored_values = stored(value_codec, &page.values);
        buf.put_u32_le(FRAGMENT_MAGIC);
        buf.put_u16_le(FRAGMENT_VERSION);
        buf.put_u16_le(page.kind.id());
        buf.put_u16_le(ndim as u16);
        let mut flags = 0u16;
        if page.bbox.is_some() {
            flags |= FLAG_HAS_BBOX;
        }
        if i < last {
            flags |= FLAG_CONTINUED;
        }
        flags |= index_codec.id() << INDEX_CODEC_SHIFT;
        flags |= value_codec.id() << VALUE_CODEC_SHIFT;
        buf.put_u16_le(flags);
        buf.put_u64_le(page.n);
        buf.put_u32_le(elem_size);
        buf.put_u64_le(stored_index.len() as u64);
        buf.put_u64_le(stored_values.len() as u64);
        buf.put_u64_le(page.index.len() as u64);
        buf.put_u64_le(page.values.len() as u64);
        for &m in shape.dims() {
            buf.put_u64_le(m);
        }
        match &page.bbox {
            Some(b) => {
                for &v in b.lo().iter().chain(b.hi()) {
                    buf.put_u64_le(v);
                }
            }
            None => {
                for _ in 0..2 * ndim {
                    buf.put_u64_le(0);
                }
            }
        }
        buf.put_u32_le(crc32c(&stored_index));
        buf.put_u32_le(crc32c(&stored_values));
        // The header CRC is computed over everything written so far, section
        // CRCs included, and appended last.
        let header_crc = crc32c(&buf[start..]);
        buf.put_u32_le(header_crc);
        buf.extend_from_slice(&stored_index);
        buf.extend_from_slice(&stored_values);
    }
    buf
}

/// Assemble a one-page fragment file, applying the codecs to the payloads.
#[allow(clippy::too_many_arguments)]
pub fn encode_fragment(
    kind: FormatKind,
    shape: &Shape,
    n: u64,
    elem_size: u32,
    bbox: Option<&Region>,
    index: &[u8],
    values: &[u8],
    index_codec: Codec,
    value_codec: Codec,
) -> Vec<u8> {
    let page = PagePayload {
        kind,
        n,
        bbox: bbox.cloned(),
        index: Cow::Borrowed(index),
        values: Cow::Borrowed(values),
    };
    encode_pages(shape, elem_size, (index_codec, value_codec), vec![page])
}

/// The little-endian `u32` at `bytes[at..at + 4]`, or `None` past the end.
fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let word = bytes.get(at..)?.first_chunk()?;
    Some(u32::from_le_bytes(*word))
}

/// Decode and validate a fragment header. `bytes` may be just the header
/// prefix (for discovery peeks) or the whole file. The header CRC is
/// verified *before* any field beyond the version/ndim is trusted, so a
/// flipped bit in the header surfaces as
/// [`StorageError::ChecksumMismatch`] rather than a misleading semantic
/// error (or, worse, a silently wrong plan); a version other than
/// [`FRAGMENT_VERSION`] is [`StorageError::CorruptFragment`].
pub fn decode_meta(name: &str, bytes: &[u8]) -> Result<FragmentMeta> {
    let corrupt = |reason: &str| StorageError::corrupt(name, reason);
    let mut cur = bytes;
    if cur.remaining() < FragmentMeta::header_len(0) {
        return Err(corrupt("header truncated"));
    }
    if cur.get_u32_le() != FRAGMENT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = cur.get_u16_le();
    if version != FRAGMENT_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let format = cur.get_u16_le();
    let ndim = cur.get_u16_le() as usize;
    let header_len = FragmentMeta::header_len(ndim);
    if bytes.len() < header_len {
        return Err(corrupt("header dims truncated"));
    }
    let crc_at = header_len - 4;
    let word = |at: usize| u32_at(bytes, at).ok_or_else(|| corrupt("header checksums truncated"));
    let expected = word(crc_at)?;
    check_crc(name, FragmentSection::Header, expected, &bytes[..crc_at])?;
    let trailer = header_len - CHECKSUM_TRAILER_LEN;
    let checksums = FragmentChecksums {
        index: word(trailer)?,
        value: word(trailer + 4)?,
        header: expected,
    };
    let kind = FormatKind::from_id(format)
        .ok_or_else(|| corrupt(&format!("unknown format id {format}")))?;
    let flags = cur.get_u16_le();
    let index_codec = Codec::from_id((flags >> INDEX_CODEC_SHIFT) & CODEC_MASK)
        .ok_or_else(|| corrupt("unknown index codec"))?;
    let value_codec = Codec::from_id((flags >> VALUE_CODEC_SHIFT) & CODEC_MASK)
        .ok_or_else(|| corrupt("unknown value codec"))?;
    let n = cur.get_u64_le();
    let elem_size = cur.get_u32_le();
    let index_len = cur.get_u64_le();
    let value_len = cur.get_u64_le();
    let index_raw_len = cur.get_u64_le();
    let value_raw_len = cur.get_u64_le();
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        dims.push(cur.get_u64_le());
    }
    let shape = Shape::new(dims).map_err(|e| corrupt(&format!("bad shape: {e}")))?;
    let mut lo = Vec::with_capacity(ndim);
    let mut hi = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        lo.push(cur.get_u64_le());
    }
    for _ in 0..ndim {
        hi.push(cur.get_u64_le());
    }
    let bbox = if flags & FLAG_HAS_BBOX != 0 {
        let b = Region::from_corner_vecs(lo, hi).map_err(|e| corrupt(&format!("bad bbox: {e}")))?;
        if !b.fits_in(&shape) {
            return Err(corrupt("bbox outside shape"));
        }
        Some(b)
    } else {
        None
    };
    if n > 0 && bbox.is_none() {
        return Err(corrupt("non-empty fragment without bounding box"));
    }
    if elem_size > 0 && value_raw_len != n * elem_size as u64 {
        return Err(corrupt("value length inconsistent with n × elem_size"));
    }
    if index_codec == Codec::None && index_len != index_raw_len {
        return Err(corrupt("uncompressed index lengths disagree"));
    }
    if value_codec == Codec::None && value_len != value_raw_len {
        return Err(corrupt("uncompressed value lengths disagree"));
    }
    Ok(FragmentMeta {
        continued: flags & FLAG_CONTINUED != 0,
        kind,
        shape,
        n,
        elem_size,
        bbox,
        index_len,
        value_len,
        index_raw_len,
        value_raw_len,
        index_codec,
        value_codec,
        checksums,
    })
}

/// Decode a whole in-memory one-page fragment into `(meta, index,
/// values)`: its header, then both sections through a [`FragmentReader`],
/// so they are verified as a device read verifies them. A header that
/// says another page follows is corrupt here.
pub fn decode_fragment(name: &str, bytes: &[u8]) -> Result<(FragmentMeta, Vec<u8>, Vec<u8>)> {
    let meta = decode_meta(name, bytes)?;
    if meta.continued {
        return Err(StorageError::corrupt(
            name,
            "a page follows a one-page fragment",
        ));
    }
    let need = meta.total_len();
    if bytes.len() as u64 != need {
        let reason = format!("fragment is {} bytes, header says {need}", bytes.len());
        return Err(StorageError::corrupt(name, reason));
    }
    let reader = FragmentReader::new(name, &meta, |offset, len| {
        let start = (offset as usize).min(bytes.len());
        Ok(bytes[start..start.saturating_add(len).min(bytes.len())].to_vec())
    });
    let index = reader.index()?.into_vec();
    let values = reader.values()?.into_vec();
    Ok((meta, index, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_with(index_codec: Codec, value_codec: Codec) -> Vec<u8> {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let bbox = Region::from_corners(&[1, 1], &[5, 6]).unwrap();
        encode_fragment(
            FormatKind::Linear,
            &shape,
            3,
            8,
            Some(&bbox),
            &[1, 2, 3, 4],
            &[0u8; 24],
            index_codec,
            value_codec,
        )
    }

    fn sample() -> Vec<u8> {
        sample_with(Codec::None, Codec::None)
    }

    #[test]
    fn roundtrip_uncompressed() {
        let bytes = sample();
        let (meta, index, values) = decode_fragment("t", &bytes).unwrap();
        assert_eq!(meta.kind, FormatKind::Linear);
        assert_eq!(meta.n, 3);
        assert_eq!(meta.elem_size, 8);
        assert_eq!(meta.shape.dims(), &[8, 8]);
        assert_eq!(meta.bbox.as_ref().unwrap().lo(), &[1, 1]);
        assert_eq!(index, &[1, 2, 3, 4]);
        assert_eq!(values.len(), 24);
        assert_eq!(meta.total_len() as usize, bytes.len());
    }

    #[test]
    fn roundtrip_every_codec_combination() {
        for ic in [Codec::None, Codec::Rle, Codec::DeltaVarint] {
            for vc in [Codec::None, Codec::Rle, Codec::DeltaVarint] {
                let bytes = sample_with(ic, vc);
                let (meta, index, values) = decode_fragment("t", &bytes).unwrap();
                assert_eq!(meta.index_codec, ic);
                assert_eq!(meta.value_codec, vc);
                assert_eq!(index, &[1, 2, 3, 4], "{ic:?}/{vc:?}");
                assert_eq!(values, vec![0u8; 24], "{ic:?}/{vc:?}");
            }
        }
    }

    #[test]
    fn rle_values_shrink_the_fragment() {
        let plain = sample_with(Codec::None, Codec::None);
        let packed = sample_with(Codec::None, Codec::Rle);
        assert!(packed.len() < plain.len());
    }

    #[test]
    fn meta_decodes_from_header_prefix_alone() {
        let bytes = sample();
        let meta = peek_meta("t", 2, |len| {
            assert_eq!(len, FragmentMeta::header_len(2));
            Ok(bytes[..len].to_vec())
        })
        .unwrap();
        assert_eq!(meta, decode_meta("t", &bytes).unwrap());
        assert_eq!(meta.n, 3);
    }

    /// `get_range` over an in-memory blob: up to `len` bytes at `offset`.
    fn window(bytes: &[u8], offset: u64, len: usize) -> Vec<u8> {
        let start = bytes.len().min(offset as usize);
        bytes[start..start.saturating_add(len).min(bytes.len())].to_vec()
    }

    /// A blob behind a `get_range` that records every `(offset, len)`.
    struct Device {
        blob: Vec<u8>,
        asked: std::cell::RefCell<Vec<(u64, usize)>>,
    }

    impl Device {
        fn new(blob: Vec<u8>) -> Device {
            Device {
                blob,
                asked: Default::default(),
            }
        }

        fn get_range(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            self.asked.borrow_mut().push((offset, len));
            Ok(window(&self.blob, offset, len))
        }

        /// What `f` returned, and every range it asked for.
        fn asked<T>(&self, f: impl FnOnce() -> T) -> (T, Vec<(u64, usize)>) {
            self.asked.borrow_mut().clear();
            let out = f();
            (out, self.asked.take())
        }
    }

    #[test]
    fn each_call_fetches_the_ranges_the_layout_gives_it() {
        let device = Device::new(sample());
        let meta = decode_meta("t", &device.blob).unwrap();
        let reader = FragmentReader::new("t", &meta, |o, l| device.get_range(o, l));
        let head = FragmentMeta::header_len(2);
        let (index, values) = (meta.index_len as usize, meta.value_offset());
        assert_eq!(meta.index_offset(), head as u64);
        assert_eq!(values, (head + index) as u64);

        let (payload, asked) = device.asked(|| reader.index().unwrap());
        assert_eq!(asked, [(0, head + index)], "header + index, one request");
        assert_eq!(payload.bytes(), [1, 2, 3, 4]);
        let (payload, asked) = device.asked(|| reader.values().unwrap());
        assert_eq!(asked, [(values, 24)]);
        assert_eq!(payload.into_vec(), [0u8; 24]);
        let (run, asked) = device.asked(|| reader.value_run(8, 24).unwrap());
        assert_eq!(asked, [(values + 8, 16)]);
        assert_eq!(run, [0u8; 16]);

        for (section, want) in [
            (FragmentSection::Header, (0, head)),
            (FragmentSection::Index, (head as u64, index)),
            (FragmentSection::Value, (values, 24)),
        ] {
            let (verified, asked) = device.asked(|| reader.verify(section));
            verified.unwrap();
            assert_eq!(asked, [want], "{section}");
        }
        let (checked, asked) = device.asked(|| reader.check_size(meta.total_len() + 1));
        assert!(checked.unwrap_err().to_string().contains("header says"));
        assert!(asked.is_empty());
        reader.check_size(meta.total_len()).unwrap();
    }

    #[test]
    fn sections_decode_to_the_payloads_under_every_codec() {
        for (ic, vc) in [(Codec::None, Codec::None), (Codec::DeltaVarint, Codec::Rle)] {
            let bytes = sample_with(ic, vc);
            let meta = decode_meta("t", &bytes).unwrap();
            let (_, index, values) = decode_fragment("t", &bytes).unwrap();
            let reader = FragmentReader::new("t", &meta, |o, l| Ok(window(&bytes, o, l)));
            assert_eq!(reader.index().unwrap().bytes(), index);
            assert_eq!(reader.values().unwrap().into_vec(), values);
            assert_eq!(meta.value_offset() + meta.value_len, meta.total_len());
        }
    }

    #[test]
    fn short_sections_are_rejected() {
        let bytes = sample();
        let meta = decode_meta("t", &bytes).unwrap();
        // Cut inside the index, then inside the values.
        for cut in [meta.index_offset() as usize + 1, bytes.len() - 1] {
            let short = &bytes[..cut];
            let reader = FragmentReader::new("t", &meta, |o, l| Ok(window(short, o, l)));
            let (fetched, section) = if cut < meta.value_offset() as usize {
                (reader.index().map(drop), FragmentSection::Index)
            } else {
                (reader.values().map(drop), FragmentSection::Value)
            };
            for err in [fetched.unwrap_err(), reader.verify(section).unwrap_err()] {
                assert!(
                    matches!(&err, StorageError::CorruptFragment { reason, .. }
                        if reason.contains("section is")),
                    "cut {cut}: {err}"
                );
            }
            if section == FragmentSection::Value {
                let err = reader.value_run(16, 24).unwrap_err();
                assert!(err.to_string().contains("truncated"), "{err}");
            }
        }
    }

    #[test]
    fn a_header_that_no_longer_matches_the_callers_fails_the_reader() {
        let stale = decode_meta("t", &sample()).unwrap();
        // Same layout and lengths, another bounding box: a rewritten blob.
        let shape = Shape::new(vec![8, 8]).unwrap();
        let bbox = Region::from_corners(&[0, 0], &[5, 6]).unwrap();
        let rewritten = encode_fragment(
            FormatKind::Linear,
            &shape,
            3,
            8,
            Some(&bbox),
            &[1, 2, 3, 4],
            &[0u8; 24],
            Codec::None,
            Codec::None,
        );
        let reader = FragmentReader::new("t", &stale, |o, l| Ok(window(&rewritten, o, l)));
        let header = reader.verify(FragmentSection::Header);
        for err in [reader.index().unwrap_err(), header.unwrap_err()] {
            assert!(err.to_string().contains("no longer matches"), "{err}");
        }
        // A flipped header bit is the header's own checksum failure.
        let mut flipped = sample();
        flipped[20] ^= 0x04;
        let reader = FragmentReader::new("t", &stale, |o, l| Ok(window(&flipped, o, l)));
        assert!(matches!(
            reader.verify(FragmentSection::Header).unwrap_err(),
            StorageError::ChecksumMismatch {
                section: FragmentSection::Header,
                ..
            }
        ));
        let reader = FragmentReader::new("t", &stale, |o, l| Ok(window(&flipped[..10], o, l)));
        assert!(reader.verify(FragmentSection::Header).is_err());
    }

    #[test]
    fn empty_fragment_has_no_bbox() {
        let shape = Shape::new(vec![4]).unwrap();
        let bytes = encode_fragment(
            FormatKind::Coo,
            &shape,
            0,
            8,
            None,
            &[],
            &[],
            Codec::None,
            Codec::None,
        );
        let (meta, ..) = decode_fragment("t", &bytes).unwrap();
        assert!(meta.bbox.is_none());
    }

    #[test]
    fn every_truncation_is_rejected() {
        for bytes in [sample(), sample_with(Codec::DeltaVarint, Codec::Rle)] {
            for cut in 0..bytes.len() {
                assert!(
                    decode_fragment("t", &bytes[..cut]).is_err(),
                    "prefix {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let mut bad = sample();
        bad[0] ^= 0xFF; // magic
        assert!(decode_meta("t", &bad).is_err());

        let mut bad = sample();
        bad[4] = 9; // version
        assert!(decode_meta("t", &bad).is_err());

        let mut bad = sample();
        bad[6] = 200; // format id
        assert!(decode_meta("t", &bad).is_err());

        // codec id 7 (undefined)
        let mut bad = sample();
        bad[10] |= (7u16 << INDEX_CODEC_SHIFT) as u8;
        assert!(decode_meta("t", &bad).is_err());

        // value_raw_len inconsistent with n.
        let mut bad = sample();
        bad[12] = 99; // n low byte
        assert!(decode_meta("t", &bad).is_err());

        // bbox outside shape: hi = (5,6) -> (50,6).
        let mut bad = sample();
        let hi_off = FragmentMeta::header_len(2) - CHECKSUM_TRAILER_LEN - 2 * 8;
        bad[hi_off..hi_off + 8].copy_from_slice(&50u64.to_le_bytes());
        assert!(decode_meta("t", &bad).is_err());
    }

    #[test]
    fn corrupt_compressed_payload_is_rejected() {
        let mut bytes = sample_with(Codec::DeltaVarint, Codec::None);
        // Overwrite the whole compressed index with continuation markers:
        // the checksum (and, beneath it, the never-terminating varint
        // stream) must reject the fragment.
        let meta = decode_meta("t", &bytes).unwrap();
        let at = meta.index_offset() as usize;
        for b in &mut bytes[at..at + meta.index_len as usize] {
            *b = 0x80;
        }
        assert!(decode_fragment("t", &bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(decode_fragment("t", &bytes).is_err());
    }

    #[test]
    fn nonempty_without_bbox_rejected() {
        let shape = Shape::new(vec![4]).unwrap();
        let bytes = encode_fragment(
            FormatKind::Coo,
            &shape,
            2,
            0,
            None,
            &[],
            &[],
            Codec::None,
            Codec::None,
        );
        assert!(decode_meta("t", &bytes).is_err());
    }

    #[test]
    fn header_bit_flip_fails_as_header_checksum_mismatch() {
        let bytes = sample();
        // Skip magic/version (guarded by their own checks). The ndim
        // field (bytes 8..10) locates the CRC itself, so flipping it may
        // fail the structural length check before the CRC can run —
        // either way the flip must be rejected, never parsed.
        for at in 6..FragmentMeta::header_len(2) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            let err = decode_meta("t", &bad).unwrap_err();
            match err {
                StorageError::ChecksumMismatch { section, .. } => {
                    assert_eq!(section, FragmentSection::Header, "byte {at}")
                }
                StorageError::CorruptFragment { .. } if (8..10).contains(&at) => {}
                other => panic!("byte {at}: expected checksum mismatch, got {other}"),
            }
        }
    }

    #[test]
    fn payload_bit_flips_fail_as_section_checksum_mismatch() {
        let bytes = sample_with(Codec::DeltaVarint, Codec::Rle);
        let meta = decode_meta("t", &bytes).unwrap();
        for at in meta.index_offset() as usize..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x80;
            let err = decode_fragment("t", &bad).unwrap_err();
            let want = if (at as u64) < meta.value_offset() {
                FragmentSection::Index
            } else {
                FragmentSection::Value
            };
            match err {
                StorageError::ChecksumMismatch { section, name, .. } => {
                    assert_eq!(section, want, "byte {at}");
                    assert_eq!(name, "t");
                }
                other => panic!("byte {at}: expected checksum mismatch, got {other}"),
            }
        }
    }

    #[test]
    fn pages_lay_end_to_end_and_walk_back() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let page = |row: u64| PagePayload {
            kind: FormatKind::Linear,
            n: 2,
            bbox: Some(Region::from_corners(&[row, 0], &[row, 7]).unwrap()),
            index: Cow::Owned(vec![row as u8; 4]),
            values: Cow::Owned(vec![7u8; 16]),
        };
        let codecs = (Codec::DeltaVarint, Codec::Rle);
        let blob = encode_pages(&shape, 8, codecs, vec![page(1), page(4)]);
        let pages = decode_pages("t", &blob).unwrap();
        let first = pages[0].1.total_len();
        assert_eq!((pages.len(), pages[1].0), (2, first));
        assert_eq!(first + pages[1].1.total_len(), blob.len() as u64);
        assert!(pages[0].1.continued && !pages[1].1.continued);
        // Each page is a fragment of its own; the first says one follows.
        let (head, tail) = blob.split_at(first as usize);
        let err = decode_fragment("t", head).unwrap_err();
        assert!(err.to_string().contains("a page follows"), "{err}");
        let (meta, index, values) = decode_fragment("t", tail).unwrap();
        assert_eq!(
            (&meta, index, values),
            (&pages[1].1, vec![4; 4], vec![7; 16])
        );
        // Cut where the first page says another follows: corrupt.
        let err = decode_pages("t", head).unwrap_err();
        assert!(err.to_string().contains("says another follows"), "{err}");
        // One page is the fragment `encode_fragment` writes.
        let one = encode_pages(&shape, 8, codecs, vec![page(4)]);
        assert_eq!(one, tail);
        assert_eq!(decode_pages("t", &one).unwrap(), [(0, meta)]);
    }
}
