//! Stored bytes and blob names must not drift under refactors of the
//! engine: the CRC32C of every organization's encoded fragment and the
//! exact committed name of every commit flavour are pinned here. The
//! constants were recorded at the commit *before* `engine.rs` was split
//! (PR 12's parent), so a green run proves the split wrote the same bytes
//! under the same names.

use artsparse::metrics::OpCounter;
use artsparse::storage::fragment::encode_fragment;
use artsparse::storage::{crc32c, Codec, MemBackend, StorageEngine};
use artsparse::{CoordBuffer, FormatKind, Shape};

/// One fixed, unsorted 3-D point set with a duplicated coordinate.
fn points() -> (Shape, CoordBuffer, Vec<u8>) {
    let shape = Shape::new(vec![16, 12, 20]).unwrap();
    let mut coords = CoordBuffer::new(3);
    for i in 0..96u64 {
        coords
            .push(&[(i * 7 + 3) % 16, (i * 5 + 1) % 12, (i * 11 + 2) % 20])
            .unwrap();
    }
    coords.push(&[3, 4, 5]).unwrap();
    coords.push(&[3, 4, 5]).unwrap();
    let values: Vec<u8> = (0..coords.len())
        .flat_map(|i| (i as f64 * 1.5 - 7.0).to_le_bytes())
        .collect();
    (shape, coords, values)
}

/// `crc32c(encode_fragment(..))` per organization (in `FormatKind::ALL`
/// order) for `[Codec::None, Codec::DeltaVarint]` on both sections.
const GOLDEN_CRC: [[u32; 2]; 8] = [
    [0xd246d355, 0xdc462613],
    [0x115f658d, 0xac858cdb],
    [0x9e7bf09a, 0x309dd461],
    [0x6fb39e46, 0x3da6d639],
    [0x1340e472, 0x9bd3e04d],
    [0x6c33d5af, 0x8a90e1d1],
    [0x9ae0dbc2, 0xa66fc5db],
    [0x7b7537e3, 0x05441620],
];

#[test]
fn encoded_fragment_bytes_are_pinned() {
    let (shape, coords, values) = points();
    let bbox = coords.bounding_box();
    let counter = OpCounter::new();
    let mut got = [[0u32; 2]; 8];
    for (row, kind) in FormatKind::ALL.into_iter().enumerate() {
        let built = kind.create().build(&coords, &shape, &counter).unwrap();
        let reorganized = built.reorganize_values(&values, 8);
        for (col, codec) in [Codec::None, Codec::DeltaVarint].into_iter().enumerate() {
            let frag = encode_fragment(
                kind,
                &shape,
                coords.len() as u64,
                8,
                bbox.as_ref(),
                &built.index,
                &reorganized,
                codec,
                codec,
            );
            got[row][col] = crc32c(&frag);
        }
    }
    assert_eq!(got, GOLDEN_CRC, "got {got:#010x?}");
}

#[test]
fn committed_blob_names_are_pinned() {
    let shape = Shape::new(vec![16, 16]).unwrap();
    let pt = |r: u64, c: u64| CoordBuffer::from_points(2, &[[r, c]]).unwrap();
    let e = StorageEngine::open(MemBackend::new(), FormatKind::Linear, shape.clone(), 8).unwrap();

    // A plain write takes the next sequence number under the epoch.
    let write = e.write_points::<f64>(&pt(1, 1), &[1.0]).unwrap();
    assert_eq!(write.fragment, "frag-00000001-00000001.asf");

    // A group commit: the WAL ack drew seq 2, the flushed fragment seq 3.
    e.ingest_points::<f64>(&pt(2, 2), &[2.0]).unwrap();
    let flushed = e.flush().unwrap().unwrap();
    assert_eq!(flushed.fragment, "frag-00000003-00000001.asf");

    // A WAL replay commits under the WAL's own (seq, epoch) identity,
    // not the reopening engine's.
    e.ingest_points::<f64>(&pt(3, 3), &[3.0]).unwrap();
    let e = StorageEngine::open(e.into_backend(), FormatKind::Linear, shape, 8).unwrap();
    assert_eq!(e.epoch(), 2);
    assert_eq!(
        e.fragments().unwrap(),
        [
            "frag-00000001-00000001.asf",
            "frag-00000003-00000001.asf",
            "frag-00000004-00000001.asf",
        ]
    );

    // A consolidation keeps the highest source seq, takes the engine's
    // epoch, and bumps the consolidation generation.
    let merged = e.consolidate().unwrap();
    assert_eq!(
        merged.fragment.as_deref(),
        Some("frag-00000004-00000002c000001.asf")
    );
    assert_eq!(
        e.fragments().unwrap(),
        ["frag-00000004-00000002c000001.asf"]
    );
}
