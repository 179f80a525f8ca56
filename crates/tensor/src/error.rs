//! Error type shared by the tensor substrate.

use std::fmt;

/// Errors produced by shape/coordinate/address manipulation.
///
/// All substrate-level failures are recoverable and reported through this
/// enum; the substrate never panics on user input (a requirement of the
/// fragment engine, which must reject corrupted fragments gracefully).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A shape with zero dimensions was supplied.
    EmptyShape,
    /// A shape contains a zero-sized dimension.
    ZeroDimension {
        /// Index of the offending dimension.
        dim: usize,
    },
    /// The volume (or a stride) of the shape does not fit in `u64`, so its
    /// cells cannot be numbered by a linear address — or, for a
    /// [`Region`](crate::Region), by a rank.
    ///
    /// The paper (§II.B) calls this the "overflow of linear address" risk of
    /// the LINEAR organization. Every organization here addresses cells by
    /// a `u64`, so such a shape is refused up front.
    AddressOverflow {
        /// The shape whose linearization overflowed.
        shape: Vec<u64>,
    },
    /// A coordinate or buffer has the wrong number of dimensions.
    DimensionMismatch {
        /// Number of dimensions expected.
        expected: usize,
        /// Number of dimensions received.
        got: usize,
    },
    /// A coordinate lies outside the tensor shape.
    CoordOutOfBounds {
        /// Dimension in which the bound was violated.
        dim: usize,
        /// The offending coordinate value.
        coord: u64,
        /// The size of that dimension.
        size: u64,
    },
    /// An interleaved coordinate buffer's length is not a multiple of `ndim`.
    RaggedBuffer {
        /// Length of the flat buffer.
        len: usize,
        /// Number of dimensions it was interpreted with.
        ndim: usize,
    },
    /// A linear address exceeds the volume of the shape it is decoded with.
    LinearOutOfBounds {
        /// The offending linear address.
        addr: u64,
        /// The volume of the shape.
        volume: u64,
    },
    /// A value buffer's byte length is inconsistent with the element size.
    ValueLengthMismatch {
        /// Byte length of the buffer.
        len: usize,
        /// Size of one element in bytes.
        elem_size: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::EmptyShape => write!(f, "tensor shape must have at least one dimension"),
            TensorError::ZeroDimension { dim } => {
                write!(f, "tensor dimension {dim} has size zero")
            }
            TensorError::AddressOverflow { shape } => {
                write!(f, "the cell count of shape {shape:?} overflows u64")
            }
            TensorError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} dimensions, got {got}")
            }
            TensorError::CoordOutOfBounds { dim, coord, size } => write!(
                f,
                "coordinate {coord} out of bounds for dimension {dim} of size {size}"
            ),
            TensorError::RaggedBuffer { len, ndim } => write!(
                f,
                "flat coordinate buffer of length {len} is not a multiple of ndim={ndim}"
            ),
            TensorError::LinearOutOfBounds { addr, volume } => {
                write!(f, "linear address {addr} out of bounds for volume {volume}")
            }
            TensorError::ValueLengthMismatch { len, elem_size } => write!(
                f,
                "value buffer of {len} bytes is not a multiple of element size {elem_size}"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used throughout the substrate.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_facts() {
        let e = TensorError::CoordOutOfBounds {
            dim: 2,
            coord: 9,
            size: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('2') && msg.contains('4'));

        let e = TensorError::AddressOverflow {
            shape: vec![u64::MAX, 2],
        };
        assert!(e.to_string().contains("overflow"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(TensorError::EmptyShape, TensorError::EmptyShape);
        assert_ne!(
            TensorError::EmptyShape,
            TensorError::ZeroDimension { dim: 0 }
        );
    }
}
