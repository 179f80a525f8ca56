//! TSP scenario: the banded matrix of a 1D heat-equation stencil.
//!
//! A finite-difference discretization of `∂u/∂t = α ∂²u/∂x²` produces a
//! tridiagonal system matrix — exactly the paper's TSP pattern (§III cites
//! stencil computing as a TSP source). We assemble the matrix as a sparse
//! 2D tensor, persist it through the fragment engine, read the band back,
//! and run a few Jacobi iterations from the stored matrix.
//!
//! ```sh
//! cargo run --release --example stencil_heat
//! ```

use artsparse::storage::{EngineConfig, MemBackend, ObservabilityConfig, StorageEngine};
use artsparse::{CoordBuffer, FormatKind, Region, Shape};

const N: u64 = 1024; // grid points
const ALPHA: f64 = 0.1; // diffusion coefficient × dt/dx²

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Assemble the tridiagonal stencil matrix A = I + α·L row by row.
    let shape = Shape::new(vec![N, N])?;
    let mut coords = CoordBuffer::new(2);
    let mut values = Vec::new();
    for i in 0..N {
        if i > 0 {
            coords.push(&[i, i - 1])?;
            values.push(ALPHA);
        }
        coords.push(&[i, i])?;
        values.push(1.0 - 2.0 * ALPHA);
        if i + 1 < N {
            coords.push(&[i, i + 1])?;
            values.push(ALPHA);
        }
    }
    println!(
        "stencil matrix: {}x{}, {} nonzeros ({:.3}% dense)",
        N,
        N,
        values.len(),
        100.0 * values.len() as f64 / (N * N) as f64
    );

    // Persist under GCSR++ — rows are the natural access unit of SpMV.
    // The observability plane's spans time the build.
    let config = EngineConfig::default().with_observability(ObservabilityConfig::default());
    let engine = StorageEngine::open_with(MemBackend::new(), FormatKind::GcsrPP, shape, 8, config)?;
    let report = engine.write_points::<f64>(&coords, &values)?;
    let spans = engine.telemetry_report().ok_or("the plane is on")?;
    println!(
        "fragment {}: {} bytes (build {:.4}s)",
        report.fragment,
        report.total_bytes,
        spans.write_breakdown().build
    );

    // Jacobi iterations: u ← A·u, reading each row's band from storage.
    let mut u: Vec<f64> = (0..N)
        .map(|i| {
            if (N / 4..3 * N / 4).contains(&i) {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    for step in 0..5 {
        let mut next = vec![0.0f64; N as usize];
        for i in 0..N {
            // The row's band lives in [i-1, i+1] × matrix width.
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(N - 1);
            let row_band = Region::from_corners(&[i, lo], &[i, hi])?;
            let read = engine.read_region(&row_band)?;
            for hit in &read.hits {
                let j = hit.coord[1] as usize;
                let a = f64::from_le_bytes(hit.value.as_slice().try_into()?);
                next[i as usize] += a * u[j];
            }
        }
        u = next;
        let total: f64 = u.iter().sum();
        println!("step {step}: mass = {total:.6}");
    }

    // Diffusion conserves mass (interior) and flattens the profile.
    let mid = u[(N / 2) as usize];
    let edge = u[0];
    assert!(mid > edge, "profile should stay peaked in the middle");
    println!("u[mid]={mid:.4}, u[edge]={edge:.4} — diffusion behaves");
    Ok(())
}
