//! Table III — breakdown of the total write time for the 4D MSP pattern.
//!
//! Runs Algorithm 3's WRITE for every organization on the 4D MSP dataset
//! and reports the Build / Reorg. / Write / Others phases, read off the
//! engine's `engine.write` spans
//! ([`TelemetryReport::write_breakdown`](artsparse_metrics::TelemetryReport::write_breakdown)),
//! plus the bytes the Write row put on the device and the operations the
//! build counted. The paper's
//! headline effects to look for: COO's Build is ~0 but its Write dominates
//! (the fragment is ~d× larger); GCSC++'s Build exceeds GCSR++'s because
//! the row-major input stream is maximally shuffled for a column sort.

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::matrix::make_backend;
use crate::Result;
use artsparse_metrics::{Table, WRITE_ROW};
use artsparse_patterns::{Dataset, Pattern};
use artsparse_storage::StorageEngine;
use artsparse_tensor::value::pack;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Column {
    format: String,
    build: f64,
    reorg: f64,
    write: f64,
    others: f64,
    sum: f64,
    /// Bytes written by the Write row's spans: the fragment, which is
    /// what makes COO's Write the largest.
    write_bytes: u64,
    /// Operations the build counted (`OpCounter` total): none for COO,
    /// which sorts nothing — the paper's cause for its ~0 Build.
    build_ops: u64,
}

/// The paper's measured Table III (seconds), for side-by-side reference.
fn paper_breakdown() -> Vec<(&'static str, [f64; 5])> {
    vec![
        // phase, then COO, LINEAR, GCSR++, GCSC++, CSF
        ("Build", [0.0, 0.0109, 0.1888, 0.4484, 0.3014]),
        ("Reorg.", [0.0, 0.0, 0.0073, 0.0195, 0.0073]),
        ("Write", [0.1217, 0.0504, 0.0493, 0.0513, 0.0751]),
        ("Others", [0.0177, 0.0167, 0.0179, 0.0174, 0.0179]),
    ]
}

/// Run the 4D MSP write for every configured organization.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let dataset = Dataset::for_scale(Pattern::Msp, 4, cfg.scale, cfg.params);
    let payload = pack(&dataset.values());

    let mut cols = Vec::new();
    for &format in &cfg.formats {
        let store = format!(
            "table3-{}",
            crate::telemetry::cell_slug(format.name(), Pattern::Msp.name(), 4)
        );
        let handle = make_backend(cfg, &store)?;
        let engine = StorageEngine::open_with(
            handle.backend,
            format,
            dataset.shape.clone(),
            8,
            cfg.engine_config(),
        )?;
        engine.write(&dataset.coords, &payload)?;
        let report = engine
            .telemetry_report()
            .ok_or("Table III is read off the observability plane's spans")?;
        let b = report.write_breakdown();
        cols.push(Column {
            format: format.name().to_string(),
            build: b.build,
            reorg: b.reorg,
            write: b.write,
            others: b.others,
            sum: b.sum(),
            write_bytes: WRITE_ROW
                .iter()
                .filter_map(|&kind| report.span(kind))
                .map(|s| s.io.bytes_written)
                .sum(),
            build_ops: engine.counter().snapshot().total(),
        });
    }

    let mut header: Vec<String> = vec!["".to_string()];
    header.extend(cols.iter().map(|c| c.format.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        format!(
            "Table III — write-time breakdown, 4D MSP ({} scale, {} points)",
            cfg.scale,
            dataset.nnz()
        ),
        &header_refs,
    );
    for (i, label) in ["Build", "Reorg.", "Write", "Others", "Sum"]
        .into_iter()
        .enumerate()
    {
        let mut row = vec![label.to_string()];
        row.extend(cols.iter().map(|c| {
            let v = [c.build, c.reorg, c.write, c.others, c.sum][i];
            format!("{v:.4}")
        }));
        table.push_row(row);
    }

    Ok(ExperimentOutput {
        name: "table3",
        notes: vec![
            "Expected shape (paper Table III): COO Build ≈ 0 but the largest Write; GCSC++".into(),
            "Build > GCSR++ Build (column sort of a row-major stream); LINEAR lowest Sum.".into(),
        ],
        tables: vec![table],
        json: serde_json::json!({
            "scale": cfg.scale,
            "n_points": dataset.nnz(),
            "columns": cols,
            "paper_seconds": paper_breakdown()
                .into_iter()
                .map(|(phase, vals)| serde_json::json!({"phase": phase, "values": vals}))
                .collect::<Vec<_>>(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_reproduces_paper_shape() {
        let out = run(&Config::smoke()).unwrap();
        let cols = out.json["columns"].as_array().unwrap();
        assert_eq!(cols.len(), 5);
        let col = |name: &str| cols.iter().find(|c| c["format"] == name).unwrap();
        let count = |name: &str, field: &str| col(name)[field].as_u64().unwrap();
        // COO's Build is ~0 because it sorts nothing, below every sorting
        // organization's: compared in counted operations, not seconds.
        assert_eq!(count("COO", "build_ops"), 0);
        assert!(count("GCSR++", "build_ops") > 0);
        assert!(count("CSF", "build_ops") > 0);
        // COO's Write dominates LINEAR's because it writes the largest
        // fragment (the paper's cause): compared in bytes, not seconds.
        assert!(count("COO", "write_bytes") > count("LINEAR", "write_bytes"));
    }

    #[test]
    fn table_has_five_rows() {
        let out = run(&Config::smoke()).unwrap();
        assert_eq!(out.tables[0].len(), 5); // Build/Reorg/Write/Others/Sum
    }
}
