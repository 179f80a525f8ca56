//! # artsparse-core
//!
//! The five sparse tensor storage organizations of *"The Art of Sparsity:
//! Mastering High-Dimensional Tensor Storage"* (Dong, Wu, Byna; 2024),
//! implemented from scratch:
//!
//! | Organization | Paper | Build | Read | Space (words) |
//! |--------------|-------|-------|------|-------|
//! | [`formats::coo::Coo`] | §II.A | `O(1)` | `O(n·n_read)` | `O(n·d)` |
//! | [`formats::linear::Linear`] | §II.B | `O(n·d)` | `O(n·n_read)` | `O(n)` |
//! | [`formats::gcsr::GcsrPP`] | §II.C | `O(n log n + 2n)` | `O(n_read·n/min mᵢ + n)` | `O(n + min mᵢ)` |
//! | [`formats::gcsc::GcscPP`] | §II.D | `O(n log n + 2n)` | `O(n_read·n/min mᵢ + n)` | `O(n + min mᵢ)` |
//! | [`formats::csf::Csf`] | §II.E | `O(n log n + n·d)` | `O(n_read·d)` | `O(n+d)…O(n·d)` |
//!
//! plus the extensions the paper names but does not evaluate
//! ([`formats::ext`]) and its stated future work, the automatic
//! organization [`advisor`].
//!
//! Every build and every per-query loop runs on the calling thread: the
//! bytes and the operation counts an organization produces depend on its
//! input alone (threading is the storage engine's decision, DESIGN.md
//! §12).
//!
//! Quick start:
//!
//! ```
//! use artsparse_core::{FormatKind, SparseTensor};
//! use artsparse_tensor::Shape;
//!
//! let mut t = SparseTensor::<f64>::new(Shape::new(vec![512, 512, 512]).unwrap());
//! t.insert(&[1, 2, 3], 4.5)?;
//! let encoded = t.encode(FormatKind::Csf)?;
//! assert_eq!(encoded.get::<f64>(&[1, 2, 3])?, Some(4.5));
//! # Ok::<(), artsparse_core::FormatError>(())
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod codec;
pub mod complexity;
pub mod convert;
pub mod error;
pub mod formats;
pub mod ops;
pub mod stats;
pub mod tensor;
pub mod traits;

pub use convert::build_from_address_sorted;
pub use error::{FormatError, Result};
pub use stats::{SparsityStats, SparsityStatsBuilder};
pub use tensor::{EncodedTensor, SparseTensor};
pub use traits::{BuildOutput, FormatKind, Organization};
