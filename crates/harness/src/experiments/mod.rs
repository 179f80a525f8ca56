//! One module per regenerated table/figure of the paper.

pub mod ablate;
pub mod adaptive;
pub mod compress;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod ingest;
pub mod io;
pub mod observe;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod torture;

use crate::Result;
use artsparse_metrics::Table;
use std::path::Path;

/// The printable/saveable result of one experiment.
pub struct ExperimentOutput {
    /// Experiment id (`"fig3"`, `"table4"`, …).
    pub name: &'static str,
    /// Free-form preamble lines (context, caveats).
    pub notes: Vec<String>,
    /// The regenerated tables.
    pub tables: Vec<Table>,
    /// Machine-readable payload mirrored to `<name>.json`.
    pub json: serde_json::Value,
}

impl ExperimentOutput {
    /// Print notes and tables to stdout.
    pub fn print(&self) {
        println!("##### {} #####", self.name);
        for n in &self.notes {
            println!("# {n}");
        }
        for t in &self.tables {
            println!("{}", t.to_ascii());
        }
    }

    /// Persist `<name>.json` and `<name>-<i>.csv` under `dir`.
    pub fn save(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("{}.json", self.name)),
            serde_json::to_string_pretty(&self.json)?,
        )?;
        for (i, t) in self.tables.iter().enumerate() {
            let file = if self.tables.len() == 1 {
                format!("{}.csv", self.name)
            } else {
                format!("{}-{}.csv", self.name, i)
            };
            std::fs::write(dir.join(file), t.to_csv())?;
        }
        Ok(())
    }
}

/// Grid-table helper: rows `(pattern, ndim)`, one column per organization.
pub(crate) fn grid_table(
    title: &str,
    matrix: &crate::matrix::Matrix,
    formats: &[String],
    value: impl Fn(&crate::matrix::CellMeasurement) -> String,
) -> Table {
    let mut header: Vec<&str> = vec!["pattern", "dims"];
    header.extend(formats.iter().map(|s| s.as_str()));
    let mut table = Table::new(title, &header);
    let mut keys: Vec<(String, usize)> = matrix
        .cells
        .iter()
        .map(|c| (c.pattern.clone(), c.ndim))
        .collect();
    keys.dedup();
    for (pattern, ndim) in keys {
        let mut row = vec![pattern.clone(), format!("{ndim}D")];
        for f in formats {
            row.push(
                matrix
                    .get(f, &pattern, ndim)
                    .map(&value)
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_saves_json_and_csv() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["1".into()]);
        let out = ExperimentOutput {
            name: "demo",
            notes: vec!["hello".into()],
            tables: vec![t],
            json: serde_json::json!({"x": 1}),
        };
        let dir = tempfile::tempdir().unwrap();
        out.save(dir.path()).unwrap();
        assert!(dir.path().join("demo.json").exists());
        assert!(dir.path().join("demo.csv").exists());
        out.print();
    }
}
