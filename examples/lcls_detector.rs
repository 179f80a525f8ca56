//! MSP scenario: LCLS-II-style detector frames.
//!
//! The paper's MSP pattern comes from the Linac Coherent Light Source
//! experiment (§III [29]): each detector frame is mostly empty, with a
//! dense illuminated region plus scattered hot pixels. We write a sequence
//! of frames as fragments (one WRITE per frame — exactly Algorithm 3's
//! fragment-per-write model), then run region-of-interest reads across
//! all fragments through the simulated parallel file system.
//!
//! ```sh
//! cargo run --release --example lcls_detector
//! ```

use artsparse::patterns::{Dataset, Pattern, PatternParams};
use artsparse::storage::{EngineConfig, ObservabilityConfig, SimulatedDisk, StorageEngine};
use artsparse::{FormatKind, Region, Shape};

const SIDE: u64 = 256;
const FRAMES: u64 = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shape = Shape::new(vec![SIDE, SIDE])?;
    let disk = SimulatedDisk::lustre_like();
    // The observability plane's spans time the writes.
    let config = EngineConfig::default().with_observability(ObservabilityConfig::default());
    let engine = StorageEngine::open_with(disk, FormatKind::Linear, shape.clone(), 8, config)?;

    // Each frame: an MSP instance with a different seed (beam jitter).
    let mut total_points = 0usize;
    for frame in 0..FRAMES {
        let params = PatternParams {
            seed: 7000 + frame,
            msp_threshold: 0.999,
            ..PatternParams::default()
        };
        let ds = Dataset::generate(Pattern::Msp, shape.clone(), params);
        let report = engine.write_points::<f64>(&ds.coords, &ds.values())?;
        total_points += ds.nnz();
        println!(
            "frame {frame}: {} px -> {} ({} bytes)",
            ds.nnz(),
            report.fragment,
            report.total_bytes
        );
    }
    let phases = engine
        .telemetry_report()
        .ok_or("the plane is on")?
        .write_breakdown();
    println!(
        "\nstored {total_points} pixels in {} fragments, {} bytes total; \
         writes took {:.4}s (build {:.4}s, device {:.4}s)",
        engine.fragments()?.len(),
        engine.total_stored_bytes()?,
        phases.sum(),
        phases.build,
        phases.write
    );
    println!(
        "simulated disk: {} bytes written",
        engine.backend().bytes_written()
    );

    // Region-of-interest read: the center of the illuminated area, across
    // every frame (each fragment has points there, so all must merge).
    let roi = Region::from_start_size(&[SIDE / 2, SIDE / 2], &[8, 8])?;
    let result = engine.read_region(&roi)?;
    println!(
        "\nROI {roi}: {} hits from {}/{} fragments",
        result.hits.len(),
        result.fragments_matched,
        result.fragments_scanned
    );
    assert_eq!(result.fragments_matched, FRAMES as usize);
    // Every ROI cell is inside the dense region of every frame, so the hit
    // count is (8·8) cells × FRAMES fragments.
    assert_eq!(result.hits.len() as u64, 64 * FRAMES);

    // Hits are merged sorted by linear address (Algorithm 3 line 12).
    assert!(result.hits.windows(2).all(|w| w[0].addr <= w[1].addr));
    println!("hits are address-sorted across fragments — merge OK");

    // A dark-corner read touches no fragment data.
    let dark = Region::from_start_size(&[0, 0], &[4, 4])?;
    let dark_result = engine.read_region(&dark)?;
    println!(
        "dark corner: {} hits (hot pixels only)",
        dark_result.hits.len()
    );
    Ok(())
}
