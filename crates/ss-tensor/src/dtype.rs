use std::fmt;

use crate::TensorError;

/// Whether a fixed-point container carries a sign.
///
/// In the evaluated networks, post-ReLU activations are unsigned while
/// weights (and pre-attenuation activations, paper §3) are signed and stored
/// in sign-magnitude form with the sign at the least-significant position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Signedness {
    /// Non-negative values only; width = magnitude bits.
    Unsigned,
    /// Sign-magnitude values; width = magnitude bits + 1 sign bit.
    Signed,
}

impl Signedness {
    /// `true` for [`Signedness::Signed`].
    #[must_use]
    pub fn is_signed(self) -> bool {
        matches!(self, Signedness::Signed)
    }
}

impl fmt::Display for Signedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signedness::Unsigned => f.write_str("u"),
            Signedness::Signed => f.write_str("i"),
        }
    }
}

/// A fixed-point container type: a width of 1–16 bits plus signedness.
///
/// This is the *container*, not the value: ShapeShifter's whole point is that
/// most values need far fewer bits than their container provides. The paper
/// evaluates int16 and int8 models ([`FixedType::I16`], [`FixedType::I8`],
/// and unsigned activation variants).
///
/// # Examples
///
/// ```
/// use ss_tensor::FixedType;
///
/// let t = FixedType::I16;
/// assert_eq!(t.bits(), 16);
/// assert!(t.contains(-32767));
/// assert!(!t.contains(-32768)); // sign-magnitude: -2^15 unrepresentable
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedType {
    bits: u8,
    signedness: Signedness,
}

impl FixedType {
    /// The paper's 16-bit signed container (weights of int16 models).
    pub const I16: FixedType = FixedType {
        bits: 16,
        signedness: Signedness::Signed,
    };
    /// The paper's 8-bit signed container (weights of int8 models).
    pub const I8: FixedType = FixedType {
        bits: 8,
        signedness: Signedness::Signed,
    };
    /// 16-bit unsigned container (post-ReLU activations of int16 models).
    pub const U16: FixedType = FixedType {
        bits: 16,
        signedness: Signedness::Unsigned,
    };
    /// 8-bit unsigned container (post-ReLU activations of int8 models).
    pub const U8: FixedType = FixedType {
        bits: 8,
        signedness: Signedness::Unsigned,
    };

    /// Creates a signed container of `bits` total bits (1 sign + `bits - 1`
    /// magnitude).
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidWidth`] unless `1 <= bits <= 16`.
    pub fn signed(bits: u8) -> Result<Self, TensorError> {
        Self::checked(bits, Signedness::Signed)
    }

    /// Creates an unsigned container of `bits` bits.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidWidth`] unless `1 <= bits <= 16`.
    pub fn unsigned(bits: u8) -> Result<Self, TensorError> {
        Self::checked(bits, Signedness::Unsigned)
    }

    fn checked(bits: u8, signedness: Signedness) -> Result<Self, TensorError> {
        if bits == 0 || bits > 16 {
            return Err(TensorError::InvalidWidth { bits });
        }
        Ok(Self { bits, signedness })
    }

    /// Total container width in bits (including the sign bit if signed).
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Container signedness.
    #[must_use]
    pub fn signedness(&self) -> Signedness {
        self.signedness
    }

    /// Magnitude bits available (total width minus the sign bit if signed).
    #[must_use]
    pub fn magnitude_bits(&self) -> u8 {
        match self.signedness {
            Signedness::Unsigned => self.bits,
            Signedness::Signed => self.bits - 1,
        }
    }

    /// Largest representable magnitude.
    #[must_use]
    pub fn max_magnitude(&self) -> i32 {
        (1i32 << self.magnitude_bits()) - 1
    }

    /// `true` if `value` is representable in this container (sign-magnitude
    /// semantics: the range is symmetric, `-(2^(b-1)-1) ..= 2^(b-1)-1` when
    /// signed).
    #[must_use]
    pub fn contains(&self, value: i32) -> bool {
        self.range_bits(value) >> self.magnitude_bits() == 0
    }

    /// `true` if every value of `values` is representable: one
    /// branch-free OR-fold over the values, tested once, so a range check
    /// of a whole buffer costs no branch per value.
    #[must_use]
    pub fn contains_all(&self, values: &[i32]) -> bool {
        let or = values.iter().fold(0, |or, &v| or | self.range_bits(v));
        or >> self.magnitude_bits() == 0
    }

    /// The bits that must stay below the magnitude width for `value` to
    /// fit: its magnitude when signed, and its two's complement bits
    /// otherwise (a negative value sets the top bit).
    fn range_bits(&self, value: i32) -> u32 {
        match self.signedness {
            Signedness::Unsigned => value.cast_unsigned(),
            Signedness::Signed => value.unsigned_abs(),
        }
    }
}

impl fmt::Display for FixedType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.signedness, self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate_width() {
        assert!(FixedType::signed(0).is_err());
        assert!(FixedType::signed(17).is_err());
        assert!(FixedType::signed(1).is_ok());
        assert!(FixedType::unsigned(16).is_ok());
    }

    #[test]
    fn ranges() {
        assert_eq!(FixedType::I16.max_magnitude(), 32767);
        assert_eq!(FixedType::U16.max_magnitude(), 65535);
        assert_eq!(FixedType::I8.max_magnitude(), 127);
        assert_eq!(FixedType::U8.max_magnitude(), 255);
        assert_eq!(FixedType::I16.magnitude_bits(), 15);
        assert_eq!(FixedType::U16.magnitude_bits(), 16);
    }

    #[test]
    fn contains_is_symmetric_for_signed() {
        let t = FixedType::I8;
        assert!(t.contains(127));
        assert!(t.contains(-127));
        assert!(!t.contains(128));
        assert!(!t.contains(-128));
    }

    #[test]
    fn contains_rejects_negatives_for_unsigned() {
        let t = FixedType::U8;
        assert!(t.contains(0));
        assert!(t.contains(255));
        assert!(!t.contains(-1));
        assert!(!t.contains(256));
    }

    #[test]
    fn display() {
        assert_eq!(FixedType::I16.to_string(), "i16");
        assert_eq!(FixedType::U8.to_string(), "u8");
        assert_eq!(FixedType::signed(5).unwrap().to_string(), "i5");
    }
}
