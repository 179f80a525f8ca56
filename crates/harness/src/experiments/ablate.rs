//! Ablations beyond the paper: the sorted-COO trade-off, the
//! block-compressed layouts, and the organization advisor.
//!
//! * §II.A sketches (but does not evaluate) sorting COO to speed reads at
//!   an `O(n log n)` build cost — measured here against plain COO.
//! * HICOO and ADAPTIVE store clustered data in fewer bytes than LINEAR —
//!   measured here on GSP and on MSP's dense region.
//! * §VI names automatic organization selection as future work — the
//!   advisor's recommendation is checked against the measured best.

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::matrix::measure_cell;
use crate::Result;
use artsparse_core::advisor::{recommend, AccessProfile};
use artsparse_core::FormatKind;
use artsparse_metrics::Table;
use artsparse_patterns::{Dataset, Pattern};
use artsparse_tensor::value::pack;

/// Formats compared in the ablation.
const FORMATS: [FormatKind; 6] = [
    FormatKind::Coo,
    FormatKind::SortedCoo,
    FormatKind::Linear,
    FormatKind::HiCoo,
    FormatKind::Adaptive,
    FormatKind::Csf,
];

/// Run the ablation on the 3D GSP and 2D MSP datasets (the latter is the
/// ADAPTIVE format's home turf: a dense region bitmap-encodes).
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let mut tables = Vec::new();
    let mut cells = Vec::new();
    for (pattern, ndim) in [(Pattern::Gsp, 3usize), (Pattern::Msp, 2)] {
        let dataset = Dataset::for_scale(pattern, ndim, cfg.scale, cfg.params);
        let payload = pack(&dataset.values());
        let queries = dataset.read_region().to_coords();
        let mut table = Table::new(
            format!(
                "Ablation — extensions vs baselines ({}, {} points)",
                dataset.label(),
                dataset.nnz()
            ),
            &[
                "format",
                "write s",
                "read s",
                "bytes",
                "index bytes",
                "build s",
            ],
        );
        for format in FORMATS {
            let (cell, _) = measure_cell(cfg, format, &dataset, &payload, &queries)?;
            table.push_row(vec![
                cell.format.clone(),
                format!("{:.4}", cell.write_secs),
                format!("{:.4}", cell.read_secs),
                cell.file_bytes.to_string(),
                cell.index_bytes.to_string(),
                format!("{:.4}", cell.breakdown.build),
            ]);
            cells.push(cell);
        }
        tables.push(table);
    }
    let dataset = Dataset::for_scale(Pattern::Gsp, 3, cfg.scale, cfg.params);

    // Advisor sanity: under each access profile, what does the model pick?
    let mut advisor_table = Table::new(
        "Advisor recommendations (Table I cost model)",
        &["profile", "recommended", "runner-up"],
    );
    let n = dataset.nnz() as u64;
    let mut advisor_json = Vec::new();
    for (name, profile) in [
        ("balanced", AccessProfile::balanced()),
        ("write-heavy", AccessProfile::write_heavy()),
        ("read-heavy", AccessProfile::read_heavy()),
    ] {
        let rec = recommend(n, &dataset.shape, &profile);
        advisor_table.push_row(vec![
            name.to_string(),
            rec.ranking[0].kind.name().to_string(),
            rec.ranking[1].kind.name().to_string(),
        ]);
        advisor_json.push(serde_json::json!({
            "profile": name,
            "ranking": rec.ranking.iter()
                .map(|c| serde_json::json!({"format": c.kind.name(), "score": c.score}))
                .collect::<Vec<_>>(),
        }));
    }

    let mut all_tables = tables;
    all_tables.push(advisor_table);
    Ok(ExperimentOutput {
        name: "ablate",
        notes: vec![
            "COO-SORTED trades an O(n log n) build for O(log n) reads; HICOO/ADAPTIVE win".into(),
            "space on clustered data (ADAPTIVE bitmap-encodes MSP's dense region); the".into(),
            "advisor applies Table I.".into(),
        ],
        tables: all_tables,
        json: serde_json::json!({ "cells": cells, "advisor": advisor_json }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use artsparse_metrics::OpCounter;

    /// Sorting buys COO its binary search: on each smoke dataset's read
    /// region, COO-SORTED's `read` makes fewer compares than COO's scan of
    /// every point per query. Counted, not timed.
    #[test]
    fn sorted_coo_reads_with_fewer_compares_than_coo() {
        let cfg = Config::smoke();
        for (pattern, ndim) in [(Pattern::Gsp, 3usize), (Pattern::Msp, 2)] {
            let dataset = Dataset::for_scale(pattern, ndim, cfg.scale, cfg.params);
            let queries = dataset.read_region().to_coords();
            let compares = |kind: FormatKind| {
                let org = kind.create();
                let index = org
                    .build(&dataset.coords, &dataset.shape, &OpCounter::new())
                    .unwrap()
                    .index;
                let counter = OpCounter::new();
                org.read(&index, &queries, &counter).unwrap();
                counter.snapshot().compares
            };
            let (sorted, plain) = (compares(FormatKind::SortedCoo), compares(FormatKind::Coo));
            assert!(
                sorted < plain,
                "{pattern:?}: COO-SORTED {sorted} vs COO {plain}"
            );
        }
    }

    #[test]
    fn adaptive_bitmap_wins_space_on_msp() {
        let out = run(&Config::smoke()).unwrap();
        let cells = out.json["cells"].as_array().unwrap();
        let bytes = |name: &str| -> u64 {
            cells
                .iter()
                .find(|c| c["format"] == name && c["pattern"] == "MSP")
                .unwrap()["index_bytes"]
                .as_u64()
                .unwrap()
        };
        // The dense m/3-region bitmap-encodes at 1 bit/cell vs LINEAR's
        // 64 bits/point.
        assert!(
            bytes("ADAPTIVE") * 3 < bytes("LINEAR"),
            "ADAPTIVE {} vs LINEAR {}",
            bytes("ADAPTIVE"),
            bytes("LINEAR")
        );
        assert!(bytes("HICOO") < bytes("LINEAR"));
    }

    #[test]
    fn advisor_profiles_disagree_sensibly() {
        let out = run(&Config::smoke()).unwrap();
        let adv = out.json["advisor"].as_array().unwrap();
        assert_eq!(adv.len(), 3);
        let pick = |profile: &str| -> String {
            adv.iter().find(|a| a["profile"] == profile).unwrap()["ranking"][0]["format"]
                .as_str()
                .unwrap()
                .to_string()
        };
        // Write-heavy must not pick a sorting format.
        assert!(["COO", "LINEAR"].contains(&pick("write-heavy").as_str()));
        // Read-heavy must pick a compressed format.
        assert!(["CSF", "GCSR++", "GCSC++"].contains(&pick("read-heavy").as_str()));
    }
}
