//! Extensions beyond the paper's five organizations.
//!
//! * [`sorted_coo`] — the sorted COO variant the paper discusses but does
//!   not evaluate (§II.A: sorting cuts read complexity to
//!   `O(max{n, n_read})`-ish at an `O(n log n)` build cost);
//! * [`hicoo`] — HiCOO-style block-compressed COO with byte-wide in-block
//!   offsets;
//! * [`adaptive`] — per block, the smaller of a bitmap and an offset list
//!   (MSP-shaped data, whose dense region bitmap-encodes).

pub mod adaptive;
pub mod hicoo;
pub mod sorted_coo;
