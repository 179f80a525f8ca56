//! The organization advisor — the paper's future work, exercised.
//!
//! §VI: "we plan to explore automatic strategies for selecting different
//! organization for applications based on the characterization of sparsity
//! in their data." This example characterizes three workloads, asks the
//! Table I cost model for a recommendation, then *validates* the
//! recommendation by measuring actual encode/read costs.
//!
//! ```sh
//! cargo run --release --example format_advisor
//! ```

use artsparse::core::advisor::{recommend, AccessProfile};
use artsparse::patterns::{Dataset, Pattern, PatternParams};
use artsparse::{FormatKind, Shape, SparseTensor};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cases = [
        (
            "checkpoint archive (write-heavy)",
            AccessProfile::write_heavy(),
        ),
        (
            "interactive analysis (read-heavy)",
            AccessProfile::read_heavy(),
        ),
        ("balanced pipeline", AccessProfile::balanced()),
    ];

    let shape = Shape::new(vec![128, 128, 128])?;
    let ds = Dataset::generate(Pattern::Gsp, shape.clone(), PatternParams::default());
    let values = ds.values();
    println!("workload tensor: {} ({} points)\n", ds.label(), ds.nnz());

    for (name, profile) in cases {
        let rec = recommend(ds.nnz() as u64, &shape, &profile);
        println!("== {name} ==");
        for c in rec.ranking.iter().take(3) {
            println!(
                "  {:<8} score {:.3} (write {:.2}, read {:.2}, space {:.2})",
                c.kind.name(),
                c.score,
                c.components.0,
                c.components.1,
                c.components.2
            );
        }
        println!("  → recommended: {}\n", rec.best().name());
    }

    // Validate the read-heavy pick empirically: measure encode + query
    // time for the recommendation vs the baseline COO.
    let rec = recommend(ds.nnz() as u64, &shape, &AccessProfile::read_heavy());
    let tensor = SparseTensor::from_parts(shape.clone(), ds.coords.clone(), values)?;
    let queries = ds.read_region().to_coords();

    let measure = |kind: FormatKind| -> Result<(f64, f64), Box<dyn std::error::Error>> {
        let t0 = Instant::now();
        let enc = tensor.encode(kind)?;
        let encode_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let hits = enc.get_many::<f64>(&queries)?;
        let read_s = t1.elapsed().as_secs_f64();
        assert!(hits.iter().any(Option::is_some) || hits.len() < 50);
        Ok((encode_s, read_s))
    };

    let (enc_best, read_best) = measure(rec.best())?;
    let (enc_coo, read_coo) = measure(FormatKind::Coo)?;
    println!("validation ({} queries):", queries.len());
    println!(
        "  {:<8} encode {enc_best:.4}s  read {read_best:.4}s",
        rec.best().name()
    );
    println!("  COO      encode {enc_coo:.4}s  read {read_coo:.4}s");
    assert!(
        read_best < read_coo,
        "the read-heavy recommendation must out-read COO"
    );
    println!(
        "\n→ {} reads {:.0}× faster than COO, as the model predicted",
        rec.best().name(),
        read_coo / read_best.max(1e-9)
    );
    Ok(())
}
