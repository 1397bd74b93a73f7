use std::error::Error;
use std::fmt;

use crate::{FixedType, Shape};

/// Errors for tensor construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The data length does not match the shape's element count.
    ShapeMismatch {
        /// Declared shape.
        shape: Shape,
        /// Actual data length.
        data_len: usize,
    },
    /// A value does not fit the declared container type.
    ValueOutOfRange {
        /// Flat index of the offending value.
        index: usize,
        /// The offending value.
        value: i32,
        /// The declared container.
        dtype: FixedType,
    },
    /// A container width outside `1..=16` was requested.
    InvalidWidth {
        /// The invalid width.
        bits: u8,
    },
    /// A group size of zero was requested.
    InvalidGroupSize,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { shape, data_len } => write!(
                f,
                "shape {shape} implies {} elements but data has {data_len}",
                shape.num_elements()
            ),
            TensorError::ValueOutOfRange {
                index,
                value,
                dtype,
            } => write!(
                f,
                "value {value} at flat index {index} does not fit container {dtype}"
            ),
            TensorError::InvalidWidth { bits } => {
                write!(
                    f,
                    "container width {bits} is outside the supported 1..=16 range"
                )
            }
            TensorError::InvalidGroupSize => write!(f, "group size must be non-zero"),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TensorError::InvalidWidth { bits: 33 };
        assert!(e.to_string().contains("33"));
        let e = TensorError::InvalidGroupSize;
        assert!(e.to_string().contains("non-zero"));
    }
}
