//! # artsparse-tensor
//!
//! Coordinate, shape, linear-address, and region substrate for the
//! `artsparse` reproduction of *"The Art of Sparsity: Mastering
//! High-Dimensional Tensor Storage"* (Dong, Wu, Byna; 2024).
//!
//! This crate owns everything the five storage organizations share:
//!
//! * [`Shape`] — dimension sizes with checked row-major linearization
//!   (the paper's `Σ c_i · Π_{j>i} m_j` transform, §II.B);
//! * [`CoordBuffer`] — the paper's input: an unsorted interleaved 1D
//!   coordinate vector of `u64`s;
//! * [`Region`] — hyper-rectangles for fragment bounding boxes, read
//!   queries, and the MSP dense region;
//! * [`sort`] / [`permute`] — sorting with provenance (`map`) vectors, as
//!   every sorting build must return one for value reorganization;
//! * [`value`] — opaque fixed-size value payloads;
//! * [`BlockGrid`] — blocked addressing (a block id plus an in-block
//!   offset per point), the grid the HICOO and ADAPTIVE organizations
//!   store their points by.
//!
//! Nothing in this crate knows about specific organizations; those live in
//! `artsparse-core`.

#![warn(missing_docs)]

pub mod blocked;
pub mod coord;
pub mod error;
pub mod permute;
pub mod region;
pub mod shape;
pub mod sort;
pub mod value;

pub use blocked::{BlockAddr, BlockGrid};
pub use coord::CoordBuffer;
pub use error::{Result, TensorError};
pub use region::Region;
pub use shape::Shape;
pub use sort::SortedCoords;
pub use value::Element;
