//! Real-data pipeline: MatrixMarket in → fragments → out.
//!
//! The paper surveys real sparse matrices through SuiteSparse [25], which
//! ships MatrixMarket files. This example writes a small `.mtx`, loads it,
//! lets the advisor pick an organization, stores it as fragments, reads
//! every loaded entry back, consolidates, and exports back to `.mtx`.
//!
//! ```sh
//! cargo run --release --example mtx_pipeline
//! ```

use artsparse::core::advisor::{recommend, AccessProfile};
use artsparse::patterns::mtx::{read_mtx_file, write_mtx};
use artsparse::storage::{MemBackend, StorageEngine};
use artsparse::tensor::value::unpack;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Produce a small banded test matrix as a .mtx file.
    let dir = tempfile::tempdir()?;
    let path = dir.path().join("banded.mtx");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "%%MatrixMarket matrix coordinate real general")?;
        writeln!(f, "% 6x6 tridiagonal demo")?;
        writeln!(f, "6 6 16")?;
        for i in 1..=6 {
            if i > 1 {
                writeln!(f, "{i} {} -1.0", i - 1)?;
            }
            writeln!(f, "{i} {i} 2.0")?;
            if i < 6 {
                writeln!(f, "{i} {} -1.0", i + 1)?;
            }
        }
    }

    // 2. Load it.
    let m = read_mtx_file(&path)?;
    println!(
        "loaded {}: {} nnz, density {:.1}%",
        path.display(),
        m.nnz(),
        100.0 * m.nnz() as f64 / m.shape.volume() as f64
    );

    // 3. Ask the advisor, then store under its pick.
    let rec = recommend(m.nnz() as u64, &m.shape, &AccessProfile::read_heavy());
    println!("advisor picked {} for read-heavy use", rec.best().name());
    let engine = StorageEngine::open(MemBackend::new(), rec.best(), m.shape.clone(), 8)?;
    engine.write_points::<f64>(&m.coords, &m.values)?;

    // 4. Read every loaded entry back from the stored fragment.
    let stored = engine.read_values::<f64>(&m.coords)?;
    let loaded: Vec<Option<f64>> = m.values.iter().copied().map(Some).collect();
    assert_eq!(stored, loaded);
    println!("read back all {} entries", stored.len());

    // 5. Consolidate (trivially, one fragment) and export back to .mtx.
    engine.consolidate()?;
    let (coords, payload) = engine.export()?;
    let out_path = dir.path().join("roundtrip.mtx");
    let vals: Vec<f64> = unpack(&payload)?;
    write_mtx(std::fs::File::create(&out_path)?, &m.shape, &coords, &vals)?;
    let again = read_mtx_file(&out_path)?;
    assert_eq!(again.nnz(), m.nnz());
    println!(
        "round-tripped {} entries through {}",
        again.nnz(),
        out_path.display()
    );
    Ok(())
}
