//! Exact gates: the reproduction's deterministic numbers, pinned as
//! equalities.
//!
//! Stored bytes, WAL bytes, read hits and Table I's operation counts are
//! pure functions of seed and scale on the in-memory backend, so each one
//! equals its recorded value or something changed: one byte fewer fails
//! exactly as one byte more does. The experiments run here as
//! `artsparse-bench <experiment> --scale smoke` runs them; Table I runs at
//! its default scale, the one `results/table1.json` was recorded at. A
//! change that means to move a number re-records it here (and
//! `results/table1.*` for Table I) and says why, as `fragment_golden.rs`
//! is re-pinned. Wall-clock columns are never pinned: how fast something
//! runs is the repo benchmark's question (`benchmark/`).

use artsparse_harness::experiments::{adaptive, ingest, observe, table1, table2, torture};
use artsparse_harness::{run_matrix, Config};
use serde_json::Value;

/// `(row[label], row[field])` for every row of `rows`.
fn column<'a>(rows: &'a Value, label: &str, field: &str) -> Vec<(&'a str, u64)> {
    rows.as_array()
        .expect("rows array")
        .iter()
        .map(|r| {
            let name = r[label].as_str().expect("row label");
            (name, r[field].as_u64().expect("integer field"))
        })
        .collect()
}

/// The MSP stores hold 9 525 points, so since consolidation cuts its
/// output into ≤ 4 096-point parts each is a run of three fragments: every
/// MSP store byte count below is its parts' headers (and, for GCSR++,
/// their `ptr` arrays) more than the one fragment it was before. GSP's
/// 2 588 points are one part and did not move.
#[test]
fn adaptive_store_bytes_are_pinned() {
    let out = adaptive::run(&Config::smoke()).unwrap();
    let rows = &out.json["rows"];
    assert_eq!(
        column(rows, "pattern", "adaptive_bytes"),
        [("MSP", 154_100), ("GSP", 42_132)]
    );
    assert_eq!(
        column(rows, "pattern", "frozen_bytes"),
        [("MSP", 305_388), ("GSP", 83_012)]
    );
}

#[test]
fn ingest_wal_and_store_bytes_are_pinned() {
    let out = ingest::run(&Config::smoke()).unwrap();
    let rows = &out.json["rows"];
    // WAL + store: 614 360 B (MSP, a run of three parts, see above) and
    // 166 976 B (GSP).
    assert_eq!(
        column(rows, "pattern", "wal_bytes"),
        [("MSP", 308_972), ("GSP", 83_964)]
    );
    assert_eq!(
        column(rows, "pattern", "total_bytes"),
        [("MSP", 305_388), ("GSP", 83_012)]
    );
}

#[test]
fn observe_store_bytes_are_pinned() {
    let out = observe::run(&Config::smoke()).unwrap();
    let rows = &out.json["rows"];
    // The plane-on store (MSP a run of three parts, see above);
    // `verified` says plane-off and the scheduler-live run stored the
    // same bytes.
    assert_eq!(
        column(rows, "pattern", "store_bytes"),
        [("MSP", 305_388), ("GSP", 83_012)]
    );
    for r in rows.as_array().unwrap() {
        assert_eq!(r["verified"].as_bool(), Some(true), "{}", r["pattern"]);
    }
}

#[test]
fn torture_schedule_store_bytes_are_pinned() {
    let out = torture::run(&Config::smoke()).unwrap();
    // The live row stays unpinned: its acked set depends on timing.
    assert_eq!(
        column(&out.json["schedules"], "schedule", "store_bytes"),
        [("sched0", 11_156), ("sched1", 11_012), ("sched2", 11_444)]
    );
}

#[test]
fn table1_reproduces_the_recorded_file() {
    let out = table1::run(&Config::default()).unwrap();
    let json = serde_json::to_string_pretty(&out.json).unwrap();
    assert!(
        json == include_str!("../results/table1.json"),
        "Table I moved; regenerated:\n{json}"
    );
}

/// The smoke paper grid, `(format, pattern, ndim, file_bytes,
/// index_bytes, read_hits)`, in `run_matrix`'s order.
const GRID: [(&str, &str, usize, u64, u64, usize); 45] = [
    ("COO", "TSP", 2, 54_980, 36_592, 205),
    ("LINEAR", "TSP", 2, 36_708, 18_320, 205),
    ("GCSR++", "TSP", 2, 38_772, 20_384, 205),
    ("GCSC++", "TSP", 2, 38_772, 20_384, 205),
    ("CSF", "TSP", 2, 40_876, 22_488, 205),
    ("COO", "TSP", 3, 156_484, 117_272, 194),
    ("LINEAR", "TSP", 3, 78_340, 39_128, 194),
    ("GCSR++", "TSP", 3, 78_868, 39_656, 194),
    ("GCSC++", "TSP", 3, 78_868, 39_656, 194),
    ("CSF", "TSP", 3, 88_372, 49_160, 194),
    ("COO", "TSP", 4, 323_588, 258_752, 1),
    ("LINEAR", "TSP", 4, 129_572, 64_736, 1),
    ("GCSR++", "TSP", 4, 129_716, 64_880, 1),
    ("GCSC++", "TSP", 4, 129_716, 64_880, 1),
    ("CSF", "TSP", 4, 147_900, 83_064, 1),
    ("COO", "GSP", 2, 15_788, 10_464, 4),
    ("LINEAR", "GSP", 2, 10_580, 5_256, 4),
    ("GCSR++", "GSP", 2, 12_644, 7_320, 4),
    ("GCSC++", "GSP", 2, 12_644, 7_320, 4),
    ("CSF", "GSP", 2, 14_428, 9_104, 4),
    ("COO", "GSP", 3, 83_012, 62_168, 3),
    ("LINEAR", "GSP", 3, 41_604, 20_760, 3),
    ("GCSR++", "GSP", 3, 42_132, 21_288, 3),
    ("GCSC++", "GSP", 3, 42_132, 21_288, 3),
    ("CSF", "GSP", 3, 73_732, 52_888, 3),
    ("COO", "GSP", 4, 26_268, 20_896, 0),
    ("LINEAR", "GSP", 4, 10_644, 5_272, 0),
    ("GCSR++", "GSP", 4, 10_788, 5_416, 0),
    ("GCSC++", "GSP", 4, 10_788, 5_416, 0),
    ("CSF", "GSP", 4, 24_428, 19_056, 0),
    ("COO", "MSP", 2, 174_980, 116_592, 625),
    ("LINEAR", "MSP", 2, 116_708, 58_320, 625),
    ("GCSR++", "MSP", 2, 118_756, 60_368, 625),
    ("GCSC++", "MSP", 2, 118_756, 60_368, 625),
    ("CSF", "MSP", 2, 118_716, 60_328, 625),
    ("COO", "MSP", 3, 304_996, 228_656, 216),
    ("LINEAR", "MSP", 3, 152_596, 76_256, 216),
    ("GCSR++", "MSP", 3, 153_124, 76_784, 216),
    ("GCSC++", "MSP", 3, 153_124, 76_784, 216),
    ("CSF", "MSP", 3, 164_612, 88_272, 216),
    ("COO", "MSP", 4, 27_788, 22_112, 1),
    ("LINEAR", "MSP", 4, 11_252, 5_576, 1),
    ("GCSR++", "MSP", 4, 11_396, 5_720, 1),
    ("GCSC++", "MSP", 4, 11_396, 5_720, 1),
    ("CSF", "MSP", 4, 15_836, 10_160, 1),
];

#[test]
fn paper_grid_bytes_and_hits_are_pinned() {
    let matrix = run_matrix(&Config::smoke()).unwrap();
    let measured: Vec<_> = matrix
        .cells
        .iter()
        .map(|c| {
            (
                &*c.format,
                &*c.pattern,
                c.ndim,
                c.file_bytes,
                c.index_bytes,
                c.read_hits,
            )
        })
        .collect();
    assert_eq!(measured, GRID);

    // Table II's point counts, rows 2-D, 3-D, 4-D.
    let table2 = table2::run(&Config::smoke()).unwrap();
    assert_eq!(
        column(&table2.json["rows"], "pattern", "n_points"),
        [
            ("TSP", 2_284),
            ("GSP", 651),
            ("MSP", 7_284),
            ("TSP", 4_884),
            ("GSP", 2_588),
            ("MSP", 9_525),
            ("TSP", 8_084),
            ("GSP", 651),
            ("MSP", 689),
        ]
    );
}
