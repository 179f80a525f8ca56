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
use artsparse_tensor::{Region, Shape};
use bytes::{Buf, BufMut};
use std::borrow::Cow;

/// `"ASFR"` as a little-endian u32.
pub const FRAGMENT_MAGIC: u32 = u32::from_le_bytes(*b"ASFR");
/// The fragment layout version (checksummed sections).
pub const FRAGMENT_VERSION: u16 = 3;

const FLAG_HAS_BBOX: u16 = 1;
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
    /// Layout version the fragment was written with.
    pub version: u16,
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

/// Verify a fetched stored section against the header's length and its
/// CRC32C — without decompressing or decoding anything.
/// This is the integrity gate every read and scrub passes through.
pub fn verify_section_checksum(
    name: &str,
    meta: &FragmentMeta,
    section: FragmentSection,
    bytes: &[u8],
) -> Result<()> {
    let (want_len, want_crc) = match section {
        FragmentSection::Index => (meta.index_len, meta.checksums.index),
        FragmentSection::Value => (meta.value_len, meta.checksums.value),
        FragmentSection::Header => {
            // Header integrity is established by `decode_meta`; re-verify
            // the serialized prefix directly.
            let hl = meta.index_offset() as usize;
            if bytes.len() < hl {
                return Err(StorageError::corrupt(
                    name,
                    format!("header is {} bytes, layout says {hl}", bytes.len()),
                ));
            }
            return check_crc(name, section, meta.checksums.header, &bytes[..hl - 4]);
        }
    };
    if bytes.len() != want_len as usize {
        return Err(StorageError::corrupt(
            name,
            format!(
                "{section} section is {} bytes, header says {want_len}",
                bytes.len()
            ),
        ));
    }
    check_crc(name, section, want_crc, bytes)
}

/// Compare the CRC32C of `bytes` with the recorded one; a mismatch is
/// charged to telemetry and typed with the section it damaged.
fn check_crc(name: &str, section: FragmentSection, expected: u32, bytes: &[u8]) -> Result<()> {
    let found = crc32c(bytes);
    if found != expected {
        artsparse_metrics::charge(|io| io.checksum_failures += 1);
        return Err(StorageError::checksum_mismatch(
            name, section, expected, found,
        ));
    }
    Ok(())
}

/// Decode the stored index section (as fetched from
/// [`FragmentMeta::index_offset`]) into the uncompressed index payload.
/// Verifies the section checksum before decompressing; a short
/// section means the device returned fewer bytes than the header
/// promised — a truncated or externally modified fragment. An
/// uncompressed section ([`Codec::None`]) is returned borrowed: the
/// verified bytes *are* the payload.
pub fn decode_index_section<'a>(
    name: &str,
    meta: &FragmentMeta,
    section: &'a [u8],
) -> Result<Cow<'a, [u8]>> {
    verify_section_checksum(name, meta, FragmentSection::Index, section)?;
    decompress_section(meta.index_codec, section, meta.index_raw_len)
        .map_err(|e| StorageError::corrupt(name, format!("index payload: {e}")))
}

/// Decode the stored value section (as fetched from
/// [`FragmentMeta::value_offset`]) into the uncompressed value payload.
/// Verifies the section checksum before decompressing; borrows when the
/// section is uncompressed, like [`decode_index_section`].
pub fn decode_value_section<'a>(
    name: &str,
    meta: &FragmentMeta,
    section: &'a [u8],
) -> Result<Cow<'a, [u8]>> {
    verify_section_checksum(name, meta, FragmentSection::Value, section)?;
    decompress_section(meta.value_codec, section, meta.value_raw_len)
        .map_err(|e| StorageError::corrupt(name, format!("value payload: {e}")))
}

/// A verified stored section as its payload: the bytes themselves when no
/// codec was applied and the length is the raw length the header
/// promises, a decompressed (and length-checked) copy otherwise.
fn decompress_section(codec: Codec, section: &[u8], raw_len: u64) -> Result<Cow<'_, [u8]>> {
    if codec == Codec::None && section.len() as u64 == raw_len {
        return Ok(Cow::Borrowed(section));
    }
    codec.decompress(section, raw_len as usize).map(Cow::Owned)
}

/// A payload as stored under `codec`: itself when no codec applies.
fn stored(codec: Codec, payload: &[u8]) -> Cow<'_, [u8]> {
    match codec {
        Codec::None => Cow::Borrowed(payload),
        codec => Cow::Owned(codec.compress(payload)),
    }
}

/// Assemble a fragment file, applying the codecs to the payloads.
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
    let ndim = shape.ndim();
    let stored_index = stored(index_codec, index);
    let stored_values = stored(value_codec, values);
    let mut buf = Vec::with_capacity(
        FragmentMeta::header_len(ndim) + stored_index.len() + stored_values.len(),
    );
    buf.put_u32_le(FRAGMENT_MAGIC);
    buf.put_u16_le(FRAGMENT_VERSION);
    buf.put_u16_le(kind.id());
    buf.put_u16_le(ndim as u16);
    let mut flags = 0u16;
    if bbox.is_some() {
        flags |= FLAG_HAS_BBOX;
    }
    flags |= index_codec.id() << INDEX_CODEC_SHIFT;
    flags |= value_codec.id() << VALUE_CODEC_SHIFT;
    buf.put_u16_le(flags);
    buf.put_u64_le(n);
    buf.put_u32_le(elem_size);
    buf.put_u64_le(stored_index.len() as u64);
    buf.put_u64_le(stored_values.len() as u64);
    buf.put_u64_le(index.len() as u64);
    buf.put_u64_le(values.len() as u64);
    for &m in shape.dims() {
        buf.put_u64_le(m);
    }
    match bbox {
        Some(b) => {
            for &v in b.lo() {
                buf.put_u64_le(v);
            }
            for &v in b.hi() {
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
    let header_crc = crc32c(&buf);
    buf.put_u32_le(header_crc);
    buf.extend_from_slice(&stored_index);
    buf.extend_from_slice(&stored_values);
    buf
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
        version,
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

/// Decode a whole fragment into `(meta, index, values)`, verifying the
/// section checksums and decompressing the payloads if codecs were
/// applied.
pub fn decode_fragment(name: &str, bytes: &[u8]) -> Result<(FragmentMeta, Vec<u8>, Vec<u8>)> {
    let meta = decode_meta(name, bytes)?;
    let header = meta.index_offset() as usize;
    let need = meta.total_len() as usize;
    if bytes.len() != need {
        return Err(StorageError::corrupt(
            name,
            format!("fragment is {} bytes, header says {need}", bytes.len()),
        ));
    }
    let stored_index = &bytes[header..header + meta.index_len as usize];
    let stored_values = &bytes[header + meta.index_len as usize..];
    let index = decode_index_section(name, &meta, stored_index)?.into_owned();
    let values = decode_value_section(name, &meta, stored_values)?.into_owned();
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
        assert_eq!(meta.version, FRAGMENT_VERSION);
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
        let header = FragmentMeta::header_len(2);
        let meta = decode_meta("t", &bytes[..header]).unwrap();
        assert_eq!(meta.n, 3);
    }

    #[test]
    fn section_offsets_slice_the_fragment() {
        for (ic, vc) in [(Codec::None, Codec::None), (Codec::DeltaVarint, Codec::Rle)] {
            let bytes = sample_with(ic, vc);
            let meta = decode_meta("t", &bytes).unwrap();
            let (_, index, values) = decode_fragment("t", &bytes).unwrap();
            let isec = &bytes
                [meta.index_offset() as usize..(meta.index_offset() + meta.index_len) as usize];
            let vsec = &bytes
                [meta.value_offset() as usize..(meta.value_offset() + meta.value_len) as usize];
            assert_eq!(*decode_index_section("t", &meta, isec).unwrap(), index[..]);
            assert_eq!(*decode_value_section("t", &meta, vsec).unwrap(), values[..]);
            assert_eq!(meta.value_offset() + meta.value_len, meta.total_len());
        }
    }

    #[test]
    fn short_sections_are_rejected() {
        let bytes = sample();
        let meta = decode_meta("t", &bytes).unwrap();
        let isec =
            &bytes[meta.index_offset() as usize..(meta.index_offset() + meta.index_len) as usize];
        assert!(decode_index_section("t", &meta, &isec[..isec.len() - 1]).is_err());
        assert!(decode_value_section("t", &meta, &[]).is_err());
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
    fn verify_section_checksum_covers_header_reverification() {
        let bytes = sample();
        let meta = decode_meta("t", &bytes).unwrap();
        verify_section_checksum("t", &meta, FragmentSection::Header, &bytes).unwrap();
        let mut bad = bytes.clone();
        bad[20] ^= 0x04;
        assert!(verify_section_checksum("t", &meta, FragmentSection::Header, &bad).is_err());
        assert!(
            verify_section_checksum("t", &meta, FragmentSection::Header, &bytes[..10]).is_err()
        );
    }
}
