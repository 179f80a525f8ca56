//! Borrowed index views fail exactly like the owning decoder.
//!
//! `Organization::read` looks queries up in place over [`Words`] views of
//! the encoded index; `enumerate` (and `build`) still copy each
//! section out through `IndexDecoder::section`/`section_exact`. Both go
//! through the same bounds checks, and this suite pins that from the
//! outside: on every truncation of an index and every damaged section
//! length prefix, for each of the eight organizations, the in-place read
//! returns the verdict the owning decode returns — the same `Ok`, or the
//! same typed [`FormatError`] — and never panics. `Organization::scan`,
//! the region read's one bounded pass over the same views, is held to the
//! same verdicts.

use artsparse_core::codec::{IndexDecoder, IndexEncoder, Words, FIXED_HEADER_BYTES};
use artsparse_core::{FormatError, FormatKind};
use artsparse_metrics::OpCounter;
use artsparse_tensor::{CoordBuffer, Region, Shape};

/// A small 3-D tensor with shared coordinate prefixes and rows holding
/// zero, one and several points, so no organization's index is trivial
/// (CSF levels share nodes, GCSR++/GCSC++ have empty and full buckets).
fn fixture() -> (Shape, CoordBuffer) {
    let shape = Shape::new(vec![6, 5, 7]).unwrap();
    let coords = CoordBuffer::from_points(
        3,
        &[
            [0u64, 0, 1],
            [0, 1, 1],
            [0, 1, 2],
            [2, 2, 1],
            [2, 2, 6],
            [5, 4, 0],
            [3, 0, 3],
        ],
    )
    .unwrap();
    (shape, coords)
}

/// Byte offset of every section's 8-byte length prefix in an intact index.
fn section_prefixes(index: &[u8]) -> Vec<usize> {
    let (header, _) = IndexDecoder::new(index, None).unwrap();
    let mut at = FIXED_HEADER_BYTES + header.shape.ndim() * 8;
    let mut prefixes = Vec::new();
    while at < index.len() {
        prefixes.push(at);
        let len = u64::from_le_bytes(index[at..at + 8].try_into().unwrap());
        at += 8 + len as usize * 8;
    }
    assert_eq!(at, index.len(), "index is header + whole sections");
    prefixes
}

/// Every damaged variant of `index` the suite probes: each proper prefix,
/// and each byte of each section length prefix flipped two ways (low bit:
/// off by one; all bits: absurd lengths).
fn damaged(index: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = (0..index.len())
        .map(|cut| (format!("truncated to {cut}"), index[..cut].to_vec()))
        .collect();
    for prefix in section_prefixes(index) {
        for at in prefix..prefix + 8 {
            for mask in [0x01u8, 0xFF] {
                let mut bad = index.to_vec();
                bad[at] ^= mask;
                out.push((format!("byte {at} ^ {mask:#04x}"), bad));
            }
        }
    }
    out
}

#[test]
fn read_through_views_fails_like_the_owning_decoder() {
    let (shape, coords) = fixture();
    let full = Region::full(&shape);
    let queries = full.to_coords();
    // A box that cuts rows, buckets and subtrees instead of taking all.
    let inner = Region::from_corners(&[0, 1, 1], &[3, 2, 6]).unwrap();
    let counter = OpCounter::new();
    for kind in FormatKind::ALL {
        let org = kind.create();
        let built = org.build(&coords, &shape, &counter).unwrap();

        // Intact: the in-place read finds exactly the stored points, at
        // the slots the owning enumeration lists them under.
        let slots = org.read(&built.index, &queries, &counter).unwrap();
        let listed = org.enumerate(&built.index, &counter).unwrap();
        assert_eq!(listed.len(), coords.len(), "{kind}");
        let mut found = 0;
        for (qi, slot) in slots.iter().enumerate() {
            if let Some(slot) = slot {
                assert_eq!(
                    listed.point(*slot as usize),
                    queries.point(qi),
                    "{kind}: slot {slot}"
                );
                found += 1;
            }
        }
        assert_eq!(found, coords.len(), "{kind}: every stored point is found");

        for (what, bad) in damaged(&built.index) {
            let viewed = org.read(&bad, &queries, &counter).map(|_| ());
            let owned = org.enumerate(&bad, &counter).map(|_| ());
            assert_eq!(viewed, owned, "{kind}, {what}");
            for region in [&full, &inner] {
                let scanned = org.scan(&bad, region, &counter).map(|_| ());
                assert_eq!(scanned, viewed, "{kind}, {what}: scan of {region}");
            }
            if bad.len() < built.index.len() {
                assert!(viewed.is_err(), "{kind}, {what}: decoded");
            }
        }
    }
}

/// The codec-level statement of the same thing: on every damaged buffer,
/// walking the sections through `words`/`words_exact` gives the verdicts
/// and the contents `section`/`section_exact` give.
#[test]
fn words_and_sections_agree_on_every_damaged_buffer() {
    let shape = Shape::new(vec![3, 4]).unwrap();
    let sections: [&[u64]; 4] = [&[10, 20, 30], &[], &[u64::MAX], &[7, 7]];
    let mut enc = IndexEncoder::new(1, &shape, 3);
    for s in sections {
        enc.put_section(s);
    }
    let index = enc.finish();

    type Walk = Result<Vec<Vec<u64>>, FormatError>;
    let owning = |bytes: &[u8]| -> Walk {
        let (_, mut dec) = IndexDecoder::new(bytes, Some(1))?;
        let mut out = Vec::new();
        for (i, s) in sections.iter().enumerate() {
            // Alternate the exact and the free-length reader.
            out.push(if i % 2 == 0 {
                dec.section_exact("section", s.len())?
            } else {
                dec.section("section")?
            });
        }
        dec.expect_end()?;
        Ok(out)
    };
    let borrowed = |bytes: &[u8]| -> Walk {
        let (_, mut dec) = IndexDecoder::new(bytes, Some(1))?;
        let mut out = Vec::new();
        for (i, s) in sections.iter().enumerate() {
            let words: Words<'_> = if i % 2 == 0 {
                dec.words_exact("section", s.len())?
            } else {
                dec.words("section")?
            };
            assert_eq!(words.iter().len(), words.len());
            out.push((0..words.len()).map(|i| words.get(i)).collect());
        }
        dec.expect_end()?;
        Ok(out)
    };

    let intact: Vec<Vec<u64>> = sections.iter().map(|s| s.to_vec()).collect();
    assert_eq!(borrowed(&index), Ok(intact));
    for (what, bad) in damaged(&index) {
        assert_eq!(borrowed(&bad), owning(&bad), "{what}");
    }
}

#[test]
fn words_search_matches_the_slice_search() {
    let sorted: Vec<u64> = vec![1, 3, 3, 3, 8, 13, 21];
    let bytes: Vec<u8> = sorted.iter().flat_map(|w| w.to_le_bytes()).collect();
    let words = Words::new(&bytes).unwrap();
    for target in 0..25 {
        assert_eq!(
            words.partition_point(|w| w < target),
            sorted.partition_point(|&w| w < target),
            "target {target}"
        );
    }
    assert_eq!(words.slice(2, 5).to_vec(), sorted[2..5]);
    assert_eq!(words.slice(7, 7).len(), 0);
    assert!(Words::new(&bytes[..bytes.len() - 1]).is_none());
    assert!(Words::new(&[]).unwrap().is_empty());
}
