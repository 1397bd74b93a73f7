use std::error::Error;
use std::fmt;

/// Errors produced by quantizer construction and application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantError {
    /// The requested target width is outside the supported range.
    InvalidTargetWidth {
        /// The invalid width.
        bits: u8,
    },
    /// The outlier fraction must lie strictly between 0 and 1.
    InvalidOutlierFraction {
        /// The invalid fraction.
        fraction: f64,
    },
    /// The asymmetry ratio must be non-negative.
    InvalidAsymmetry {
        /// The invalid ratio.
        ratio: f64,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QuantError::InvalidTargetWidth { bits } => {
                write!(
                    f,
                    "target width {bits} is outside the supported 2..=16 range"
                )
            }
            QuantError::InvalidOutlierFraction { fraction } => {
                write!(f, "outlier fraction {fraction} must be in (0, 1)")
            }
            QuantError::InvalidAsymmetry { ratio } => {
                write!(f, "asymmetry ratio {ratio} must be non-negative")
            }
        }
    }
}

impl Error for QuantError {}

// `f64` keeps QuantError from deriving Eq cleanly with NaN, but the stored
// values are caller inputs echoed back; Eq on bit patterns is not needed.
impl Eq for QuantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_bad_input() {
        assert!(QuantError::InvalidTargetWidth { bits: 40 }
            .to_string()
            .contains("40"));
        assert!(QuantError::InvalidOutlierFraction { fraction: 2.0 }
            .to_string()
            .contains('2'));
    }
}
