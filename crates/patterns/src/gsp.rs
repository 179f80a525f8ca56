//! GSP/CGP — General Graph Sparse Pattern generator (§III, Fig. 2b).
//!
//! Points exist at random coordinates: every cell is occupied when a
//! uniform draw exceeds the threshold (paper default 0.99 ⇒ ≈1 % density).
//! This is the adjacency-matrix / tabular-data pattern.

use crate::bernoulli::bernoulli_cells;
use artsparse_tensor::{CoordBuffer, Shape};

/// Stream salt separating GSP draws from other patterns' draws.
const SALT: u64 = 0x6753_5000;

/// Generate the GSP point set: each cell occupied iff
/// `uniform(0,1) > threshold`.
pub fn generate(shape: &Shape, threshold: f64, seed: u64) -> CoordBuffer {
    bernoulli_cells(shape, threshold, seed, SALT, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_matches_expectation() {
        let shape = Shape::new(vec![256, 256]).unwrap();
        let pts = generate(&shape, 0.99, 1);
        let measured = pts.len() as f64 / shape.volume() as f64;
        let expected = 1.0 - 0.99;
        assert!(
            (measured - expected).abs() < 0.003,
            "measured {measured} vs expected {expected}"
        );
    }

    #[test]
    fn higher_threshold_means_sparser() {
        let shape = Shape::new(vec![128, 128]).unwrap();
        let dense = generate(&shape, 0.9, 1);
        let sparse = generate(&shape, 0.99, 1);
        assert!(dense.len() > sparse.len() * 5);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let shape = Shape::new(vec![64, 64, 4]).unwrap();
        assert_eq!(generate(&shape, 0.98, 5), generate(&shape, 0.98, 5));
        assert_ne!(generate(&shape, 0.98, 5), generate(&shape, 0.98, 6));
    }
}
