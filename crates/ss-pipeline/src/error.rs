//! Typed failures for the batch engine.
//!
//! Every per-tensor failure carries the tensor's submission index so a
//! caller can point at the offending input; an invalid configuration
//! carries no index because no single tensor is at fault. A panicking
//! worker is not an error value: the panic reaches the caller.

use std::fmt;

use ss_core::prelude::CodecError;

/// Errors produced by [`crate::Pipeline`] construction and batch runs.
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm so
/// new failure modes are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The pipeline's codec configuration was rejected by `ss-core`.
    InvalidConfig(CodecError),
    /// Encoding or decoding the tensor at `index` failed.
    Codec {
        /// Submission index of the offending tensor.
        index: usize,
        /// The underlying codec failure.
        source: CodecError,
    },
    /// The decoded tensor at `index` differed from the submitted one —
    /// the engine's built-in lossless check failed.
    RoundTripMismatch {
        /// Submission index of the offending tensor.
        index: usize,
    },
    /// `measure` disagreed with the container actually written for the
    /// tensor at `index` — the codec's accounting identity was violated.
    MeasureMismatch {
        /// Submission index of the offending tensor.
        index: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidConfig(source) => {
                write!(f, "invalid pipeline codec configuration: {source}")
            }
            PipelineError::Codec { index, source } => {
                write!(f, "codec failure on tensor {index}: {source}")
            }
            PipelineError::RoundTripMismatch { index } => {
                write!(
                    f,
                    "round-trip mismatch on tensor {index}: decode(encode(t)) != t"
                )
            }
            PipelineError::MeasureMismatch { index } => {
                write!(
                    f,
                    "measure/encode accounting mismatch on tensor {index}: measured bits \
                     disagree with the written container"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::InvalidConfig(source) | PipelineError::Codec { source, .. } => {
                Some(source)
            }
            _ => None,
        }
    }
}

impl From<CodecError> for PipelineError {
    fn from(source: CodecError) -> Self {
        PipelineError::InvalidConfig(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_names_the_tensor() {
        let e = PipelineError::RoundTripMismatch { index: 7 };
        assert!(e.to_string().contains("tensor 7"));
        let e = PipelineError::Codec {
            index: 3,
            source: CodecError::InvalidGroupSize,
        };
        assert!(e.to_string().contains("tensor 3"));
        assert!(e.source().is_some());
    }
}
