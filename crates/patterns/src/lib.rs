//! # artsparse-patterns
//!
//! Synthetic sparsity-pattern generators reproducing the workloads of the
//! paper's evaluation (§III):
//!
//! * [`tsp`] — Tridiagonal Sparse Pattern (diagonal bands);
//! * [`gsp`] — General Graph Sparse Pattern (uniform random, the paper's
//!   CGP);
//! * [`msp`] — Mixed Sparse Pattern (random background + dense block);
//!
//! plus [`Dataset`] assembly, the [`Scale`] grid (paper / medium / smoke
//! tensor sizes), deterministic [`rng`] streams, and ASCII [`render`]ing
//! for the Fig. 2 regeneration.

#![warn(missing_docs)]

pub mod bernoulli;
pub mod dataset;
pub mod gsp;
pub mod msp;
pub mod mtx;
pub mod render;
pub mod rng;
pub mod spec;
pub mod tsp;

pub use dataset::Dataset;
pub use spec::{Pattern, PatternParams, Scale};
