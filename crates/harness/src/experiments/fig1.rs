//! Fig. 1 — the paper's worked example, regenerated from the real
//! implementations.
//!
//! The paper illustrates all five organizations on one 3×3×3 tensor with
//! five points. This experiment builds that exact tensor with each
//! organization and prints the resulting structures. Note (DESIGN.md):
//! the paper's printed `row_ptr`/`col_ind` values in Fig. 1(b,c) are
//! internally inconsistent with its own Algorithm 1; what is shown here
//! is what the algorithms actually produce (the CSF values match the
//! paper exactly).

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::Result;
use artsparse_core::codec::IndexDecoder;
use artsparse_core::formats::csf::CsfTree;
use artsparse_core::FormatKind;
use artsparse_metrics::{OpCounter, Table};
use artsparse_tensor::{CoordBuffer, Shape};

/// The Fig. 1 tensor: 3×3×3 with five points v1..v5.
fn fig1_tensor() -> (Shape, CoordBuffer) {
    let shape = Shape::cube(3, 3).expect("3x3x3 is valid");
    let coords = CoordBuffer::from_points(
        3,
        &[[0u64, 0, 1], [0, 1, 1], [0, 1, 2], [2, 2, 1], [2, 2, 2]],
    )
    .expect("five 3D points");
    (shape, coords)
}

fn fmt_words(words: &[u64]) -> String {
    let parts: Vec<String> = words.iter().map(|w| w.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

/// Build each organization over the Fig. 1 tensor and print it.
pub fn run(_cfg: &Config) -> Result<ExperimentOutput> {
    let (shape, coords) = fig1_tensor();
    let counter = OpCounter::new();
    let mut notes = vec![
        "3x3x3 tensor, points (0,0,1) (0,1,1) (0,1,2) (2,2,1) (2,2,2) = v1..v5".into(),
        String::new(),
    ];
    let mut json = serde_json::Map::new();

    // (a) COO and LINEAR.
    let coo = FormatKind::Coo.create().build(&coords, &shape, &counter)?;
    let (_, mut dec) = IndexDecoder::new(&coo.index, None)?;
    let flat = dec.section("coords")?;
    let coo_rows: Vec<String> = flat
        .chunks_exact(3)
        .map(|p| format!("({}, {}, {})", p[0], p[1], p[2]))
        .collect();
    let lin = FormatKind::Linear
        .create()
        .build(&coords, &shape, &counter)?;
    let (_, mut dec) = IndexDecoder::new(&lin.index, None)?;
    let addrs = dec.section("addresses")?;
    let mut ab = Table::new("Fig. 1(a) — COO and LINEAR", &["COO", "LINEAR", "value"]);
    for (i, (c, a)) in coo_rows.iter().zip(&addrs).enumerate() {
        ab.push_row(vec![c.clone(), a.to_string(), format!("v{}", i + 1)]);
    }
    json.insert("linear_addresses".into(), serde_json::json!(addrs));

    // (b, c) GCSR++ / GCSC++.
    let mut bc = Table::new(
        "Fig. 1(b, c) — GCSR++ and GCSC++ (as Algorithm 1 produces them)",
        &["organization", "ptr", "ind"],
    );
    for kind in [FormatKind::GcsrPP, FormatKind::GcscPP] {
        let built = kind.create().build(&coords, &shape, &counter)?;
        let (_, mut dec) = IndexDecoder::new(&built.index, None)?;
        let ptr = dec.section("ptr")?;
        let ind = dec.section("ind")?;
        bc.push_row(vec![kind.name().into(), fmt_words(&ptr), fmt_words(&ind)]);
        json.insert(
            kind.name().to_lowercase(),
            serde_json::json!({"ptr": ptr, "ind": ind}),
        );
    }

    // (d) CSF.
    let built = FormatKind::Csf.create().build(&coords, &shape, &counter)?;
    let (tree, _) = CsfTree::decode(&built.index)
        .map_err(|e| -> Box<dyn std::error::Error + Send + Sync> { Box::new(e) })?;
    let mut d = Table::new(
        "Fig. 1(d) — CSF tree (matches the paper's §II.E values exactly)",
        &["structure", "contents"],
    );
    d.push_row(vec!["nfibs".into(), fmt_words(&tree.nfibs)]);
    for (lvl, f) in tree.fids.iter().enumerate() {
        d.push_row(vec![format!("fids[{lvl}]"), fmt_words(f)]);
    }
    for (lvl, p) in tree.fptr.iter().enumerate() {
        d.push_row(vec![format!("fptr[{lvl}]"), fmt_words(p)]);
    }
    json.insert(
        "csf".into(),
        serde_json::json!({"nfibs": tree.nfibs, "fids": tree.fids, "fptr": tree.fptr}),
    );

    notes.push(
        "Paper check: nfibs={2,3,5}, fids={{0,2},{0,1,2},{1,1,2,1,2}}, fptr={{0,2,3},{0,1,3,5}}"
            .into(),
    );

    Ok(ExperimentOutput {
        name: "fig1",
        notes,
        tables: vec![ab, bc, d],
        json: serde_json::Value::Object(json),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerates_paper_values() {
        let out = run(&Config::smoke()).unwrap();
        assert_eq!(
            out.json["linear_addresses"],
            serde_json::json!([1, 4, 5, 25, 26])
        );
        assert_eq!(out.json["csf"]["nfibs"], serde_json::json!([2, 3, 5]));
        assert_eq!(
            out.json["csf"]["fptr"],
            serde_json::json!([[0, 2, 3], [0, 1, 3, 5]])
        );
        assert_eq!(out.json["gcsr++"]["ptr"], serde_json::json!([0, 3, 3, 5]));
        assert_eq!(out.tables.len(), 3);
    }
}
