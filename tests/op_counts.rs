//! Exact Table I operation counts of the sorting builds, pinned.
//!
//! `tests/paper_claims.rs` asserts rankings and ratios; this file asserts
//! the numbers themselves, so a build whose abstract work depends on
//! anything but its input — the host's core count, a thread knob — fails
//! here. The constants were recorded at a9c46a8 under `taskset -c 0`
//! (the sequential stable sort every build now always runs). The sort
//! compares are those of the standard library's `sort_by` (rustc 1.95):
//! a toolchain that changes that algorithm moves them on every host
//! alike, and they are then re-recorded the same way.

use artsparse::metrics::{OpCounter, OpCounts};
use artsparse::{CoordBuffer, FormatKind, Shape};

const N: usize = 16_384;

/// One fixed, unordered, duplicate-free 3-D buffer: point `i` is cell
/// `i * 40503 (mod 64^3)`. The multiplier is odd, so no cell repeats, and
/// the stride scatters input order across rows, columns and blocks.
fn fixed_buffer() -> (Shape, CoordBuffer) {
    let shape = Shape::new(vec![64, 64, 64]).unwrap();
    let mut coords = CoordBuffer::with_capacity(3, N);
    for i in 0..N as u64 {
        let cell = i * 40_503 % (64 * 64 * 64);
        coords
            .push(&[cell / 4096, cell / 64 % 64, cell % 64])
            .unwrap();
    }
    (shape, coords)
}

fn counts(transforms: u64, sort_compares: u64, emits: u64) -> OpCounts {
    OpCounts {
        transforms,
        sort_compares,
        emits,
        ..OpCounts::default()
    }
}

/// Table I build counts do not depend on the host: every sorting
/// organization charges exactly these operations for the fixed buffer,
/// on one core and on many.
#[test]
fn sorting_build_op_counts_are_pinned() {
    let (shape, coords) = fixed_buffer();
    let expected = [
        (FormatKind::GcsrPP, counts(32_768, 215_549, 16_449)),
        (FormatKind::GcscPP, counts(32_768, 232_769, 16_449)),
        (FormatKind::Csf, counts(49_152, 245_760, 24_554)),
        (FormatKind::SortedCoo, counts(16_384, 225_112, 16_384)),
        (FormatKind::BlockedLinear, counts(16_384, 225_112, 32_768)),
        (FormatKind::HiCoo, counts(16_384, 225_112, 16_386)),
        (FormatKind::Adaptive, counts(16_384, 241_466, 5_632)),
    ];
    for (kind, want) in expected {
        let counter = OpCounter::new();
        kind.create().build(&coords, &shape, &counter).unwrap();
        assert_eq!(counter.snapshot(), want, "{kind} build of {N} points");
    }
}
