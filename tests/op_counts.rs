//! Exact Table I operation counts of the sorting builds, and of the
//! region scans (`Organization::scan`), pinned.
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
use artsparse::{CoordBuffer, FormatKind, Region, Shape};

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
        (FormatKind::HiCoo, counts(16_384, 225_112, 16_386)),
        (FormatKind::Adaptive, counts(16_384, 241_466, 5_632)),
    ];
    for (kind, want) in expected {
        let counter = OpCounter::new();
        kind.create().build(&coords, &shape, &counter).unwrap();
        assert_eq!(counter.snapshot(), want, "{kind} build of {N} points");
    }
}

/// The boxes the scan rows ask for: one cell, a small cube, the paper's
/// read region (start `m/2`, size `m/10`), a slab, and the whole tensor.
fn scan_boxes(shape: &Shape) -> Vec<Region> {
    vec![
        Region::from_corners(&[10, 20, 30], &[10, 20, 30]).unwrap(),
        Region::from_corners(&[10, 10, 10], &[13, 13, 13]).unwrap(),
        Region::paper_read_region(shape).unwrap(),
        Region::from_corners(&[0, 5, 0], &[63, 6, 63]).unwrap(),
        Region::full(shape),
    ]
}

/// A region scan's abstract work is a function of the fragment and the
/// box, not of the box's cell count times the fragment: COO and LINEAR
/// compare each stored point once, GCSR++ walks exactly the buckets the
/// box's 2-D image meets, CSF visits exactly the tree nodes whose path
/// lies inside the box. The expected counts are derived here from the
/// points, not from the index; the last column pins them as numbers.
#[test]
fn scan_op_counts_are_pinned() {
    let (shape, coords) = fixed_buffer();
    let scan = |kind: FormatKind, region: &Region| {
        let build = OpCounter::new();
        let index = kind.create().build(&coords, &shape, &build).unwrap().index;
        let counter = OpCounter::new();
        let matches = kind.create().scan(&index, region, &counter).unwrap();
        (matches.len(), counter.snapshot())
    };
    // GCSR++ buckets a point by the row of its local-boundary address.
    let s_l = coords.local_boundary_shape().unwrap();
    let cols = s_l.volume() / s_l.min_dim();
    let row_of = |p: &[u64]| s_l.linearize_unchecked(p) / cols;
    // CSF levels follow the local boundary's dimensions, smallest first.
    let order = s_l.ascending_dim_order();

    // (stored points inside, GCSR++ compares, CSF node visits) per box.
    let pinned = [
        (0, 255, 2),
        (3, 1_025, 23),
        (13, 1_534, 54),
        (512, 16_384, 702),
        (16_384, 16_384, 20_465),
    ];
    for (region, pin) in scan_boxes(&shape).iter().zip(pinned) {
        let inside = coords.iter().filter(|p| region.contains(p)).count();
        for kind in [FormatKind::Coo, FormatKind::Linear] {
            let (found, ops) = scan(kind, region);
            assert_eq!(found, inside, "{kind} {region}");
            assert_eq!(ops.compares, N as u64, "{kind} {region}: one pass");
        }

        let rows_met: std::collections::BTreeSet<u64> =
            region.to_coords().iter().map(row_of).collect();
        let in_rows_met = coords
            .iter()
            .filter(|p| rows_met.contains(&row_of(p)))
            .count() as u64;
        let (found, ops) = scan(FormatKind::GcsrPP, region);
        assert_eq!(found, inside, "GCSR++ {region}");
        assert_eq!(ops.compares, in_rows_met, "GCSR++ {region}: buckets met");

        // Distinct level-order prefixes of the stored points that lie
        // inside the box: the nodes on root-to-leaf paths within it.
        let mut paths_inside = std::collections::BTreeSet::new();
        for p in coords.iter() {
            let in_level = |k: &usize| (region.lo()[*k]..=region.hi()[*k]).contains(&p[*k]);
            let depth = order.iter().take_while(|k| in_level(k)).count();
            let path: Vec<u64> = order.iter().map(|&k| p[k]).collect();
            paths_inside.extend((1..=depth).map(|len| path[..len].to_vec()));
        }
        let (found, ops) = scan(FormatKind::Csf, region);
        assert_eq!(found, inside, "CSF {region}");
        assert!(
            ops.node_visits <= paths_inside.len() as u64,
            "CSF {region}: {} visits for {} nodes inside",
            ops.node_visits,
            paths_inside.len()
        );

        assert_eq!(
            (inside, in_rows_met, ops.node_visits),
            pin,
            "pinned counts of {region}"
        );
    }
}
