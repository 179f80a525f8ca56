//! Table IV — overall scores of the organizations.
//!
//! Applies the paper's score formula (§IV): normalize each measurement by
//! the per-group maximum across organizations, then average with equal
//! weights over dimensionalities, patterns, and the three metrics
//! (write time, read time, file size). Lower is better.

use crate::config::Config;
use crate::experiments::ExperimentOutput;
use crate::matrix::{run_matrix, Matrix};
use crate::Result;
use artsparse_metrics::{overall_scores, ranking, Table};

/// The scores the paper printed (Table IV), for reference.
fn paper_scores() -> Vec<(&'static str, f64)> {
    vec![
        ("COO", 0.76),
        ("LINEAR", 0.34),
        ("GCSR++", 0.36),
        ("GCSC++", 0.50),
        ("CSF", 0.48),
    ]
}

/// Build the Table IV report from a measured matrix.
pub fn from_matrix(cfg: &Config, matrix: &Matrix) -> Result<ExperimentOutput> {
    let mut all = Vec::new();
    for metric in ["write_time", "read_time", "file_size"] {
        all.extend(matrix.score_measurements(metric));
    }
    let scores = overall_scores(&all)?;
    let ranked = ranking(&scores);

    let mut table = Table::new(
        format!(
            "Table IV — overall scores, lower is better ({} scale)",
            cfg.scale
        ),
        &["organization", "score", "paper score"],
    );
    let paper = paper_scores();
    for (org, score) in &ranked {
        let p = paper
            .iter()
            .find(|(n, _)| n == org)
            .map(|(_, s)| format!("{s:.2}"))
            .unwrap_or_else(|| "-".into());
        table.push_row(vec![org.clone(), format!("{score:.2}"), p]);
    }

    Ok(ExperimentOutput {
        name: "table4",
        notes: vec![
            "Expected shape (paper Table IV): LINEAR best (0.34), GCSR++ close behind,".into(),
            "COO worst (0.76).".into(),
        ],
        tables: vec![table],
        json: serde_json::json!({
            "scale": cfg.scale,
            "scores": scores,
            "ranking": ranked,
            "paper": paper,
        }),
    })
}

/// Measure the grid, then score it.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let matrix = run_matrix(cfg)?;
    from_matrix(cfg, &matrix)
}
