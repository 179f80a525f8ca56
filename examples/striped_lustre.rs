//! Lustre-style striping: write bandwidth scales with stripe count.
//!
//! The paper ran on a Lustre file system, which stripes each file across
//! object storage targets. This example writes the same MSP fragment
//! through 1, 2, 4, and 8 simulated OSTs and shows the end-to-end write
//! time dropping as device transfers overlap.
//!
//! ```sh
//! cargo run --release --example striped_lustre
//! ```

use artsparse::patterns::{Dataset, Pattern, PatternParams};
use artsparse::storage::{
    EngineConfig, ObservabilityConfig, SimulatedDisk, StorageEngine, StripedBackend,
};
use artsparse::{FormatKind, Shape};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shape = Shape::new(vec![512, 512])?;
    let ds = Dataset::generate(Pattern::Msp, shape.clone(), PatternParams::default());
    let values = ds.values();
    println!(
        "dataset: {} ({} points, ~{} KiB fragment)\n",
        ds.label(),
        ds.nnz(),
        ds.nnz() * 16 / 1024
    );

    // Each simulated OST: 50 MiB/s, 0.2 ms per op.
    let make_ost = || SimulatedDisk::new(50.0 * (1 << 20) as f64, Duration::from_micros(200));

    println!("{:<8} {:>10} {:>12}", "stripes", "write s", "speedup");
    let mut baseline = None;
    for stripes in [1usize, 2, 4, 8] {
        let backend = StripedBackend::new((0..stripes).map(|_| make_ost()).collect(), 1 << 16);
        // The observability plane's spans time the write's device work.
        let config = EngineConfig::default().with_observability(ObservabilityConfig::default());
        let engine =
            StorageEngine::open_with(backend, FormatKind::Linear, shape.clone(), 8, config)?;
        engine.write_points::<f64>(&ds.coords, &values)?;
        let report = engine.telemetry_report().ok_or("the plane is on")?;
        let secs = report.write_breakdown().write;
        let speedup = baseline.get_or_insert(secs).max(1e-12) / secs.max(1e-12);
        println!("{stripes:<8} {secs:>10.4} {speedup:>11.1}x");

        // Reads reassemble correctly from the stripes.
        let q = ds.read_region().to_coords();
        let hits = engine
            .read_values::<f64>(&q)?
            .iter()
            .filter(|v| v.is_some())
            .count();
        assert!(hits > 0, "striped read must find the region's points");
    }
    println!("\nstriping overlaps per-OST transfer time, like Lustre");
    Ok(())
}
