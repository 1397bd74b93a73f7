//! Range-aware power-of-two quantization.

use ss_tensor::{FixedType, Signedness, Tensor, TensorError};

use crate::QuantError;

/// Range-aware 8-bit quantization: a per-layer power-of-two rescale,
/// `q = round(v / 2^shift)`, with the shift chosen just large enough that
/// the layer's profiled maximum fits the 8-bit container.
///
/// Unlike the affine TensorFlow scheme, zero maps to zero and a value that
/// needed `w` bits in the master needs about `w - shift` bits afterwards —
/// narrow value ranges are *not* expanded to fill the container, preserving
/// the per-group opportunity ShapeShifter exploits ("we deploy a
/// range-aware quantization method, preserving the benefits of per group
/// data length adaptation", paper §1).
///
/// # Examples
///
/// ```
/// use ss_quant::RangeAwareQuantizer;
/// use ss_tensor::{FixedType, Shape, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = RangeAwareQuantizer::new(8)?;
/// let acts = Tensor::from_vec(Shape::flat(3), FixedType::U16, vec![0, 12, 60_000])?;
/// // Profiled width 16 -> shift 8.
/// let t = q.quantize(&acts, 16)?;
/// assert_eq!(t.values(), &[0, 0, 234]); // zero stays zero, small stays small
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeAwareQuantizer {
    target_bits: u8,
}

impl RangeAwareQuantizer {
    /// Creates a quantizer targeting a container of `target_bits` total
    /// bits (8 for the paper's int8 studies).
    ///
    /// # Errors
    ///
    /// [`QuantError::InvalidTargetWidth`] unless `2 <= target_bits <= 16`.
    pub fn new(target_bits: u8) -> Result<Self, QuantError> {
        if !(2..=16).contains(&target_bits) {
            return Err(QuantError::InvalidTargetWidth { bits: target_bits });
        }
        Ok(Self { target_bits })
    }

    /// The target container width.
    #[must_use]
    pub fn target_bits(&self) -> u8 {
        self.target_bits
    }

    /// The right-shift applied to a tensor whose profile-derived width is
    /// `profiled_width` (in the same signed/unsigned metric as the tensor).
    #[must_use]
    pub fn shift_for(&self, profiled_width: u8) -> u8 {
        profiled_width.saturating_sub(self.target_bits)
    }

    /// Quantizes a master tensor given its per-layer profiled width.
    ///
    /// The target container keeps the master's signedness. Values are
    /// rounded (ties away from zero) and clamped — a value beyond the
    /// profiled range saturates exactly as in a deployed quantized model.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] only on internal container violations, which
    /// the clamping makes unreachable in practice.
    pub fn quantize(&self, master: &Tensor, profiled_width: u8) -> Result<Tensor, TensorError> {
        let shift = u32::from(self.shift_for(profiled_width));
        let dtype = match master.signedness() {
            Signedness::Unsigned => FixedType::unsigned(self.target_bits)?,
            Signedness::Signed => FixedType::signed(self.target_bits)?,
        };
        let max_mag = dtype.max_magnitude();
        let half = if shift == 0 { 0 } else { 1i32 << (shift - 1) };
        let data = master
            .values()
            .iter()
            .map(|&v| {
                let mag = ((v.abs() + half) >> shift).min(max_mag);
                if v < 0 {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        Tensor::from_vec(master.shape().clone(), dtype, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{width, Shape};

    fn u16_master(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::U16, vals).unwrap()
    }

    fn i16_master(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::I16, vals).unwrap()
    }

    #[test]
    fn shift_amounts() {
        let q = RangeAwareQuantizer::new(8).unwrap();
        assert_eq!(q.shift_for(16), 8);
        assert_eq!(q.shift_for(12), 4);
        assert_eq!(q.shift_for(8), 0);
        assert_eq!(q.shift_for(5), 0, "narrow layers are left untouched");
    }

    #[test]
    fn zero_maps_to_zero() {
        let q = RangeAwareQuantizer::new(8).unwrap();
        let t = q.quantize(&u16_master(vec![0, 0, 40_000]), 16).unwrap();
        assert_eq!(t.values()[0], 0);
        assert_eq!(t.values()[1], 0);
    }

    #[test]
    fn widths_shrink_by_the_shift() {
        let q = RangeAwareQuantizer::new(8).unwrap();
        // Master width 12 (value 2048) with profile 16 -> shift 8 -> width 4.
        let t = q.quantize(&u16_master(vec![2048]), 16).unwrap();
        assert_eq!(width::value_width(t.values()[0], Signedness::Unsigned), 4);
    }

    #[test]
    fn signed_masters_keep_sign() {
        let q = RangeAwareQuantizer::new(8).unwrap();
        let t = q.quantize(&i16_master(vec![-4096, 4096]), 16).unwrap();
        assert_eq!(t.values()[0], -t.values()[1]);
        assert!(t.values()[0] < 0);
        assert_eq!(t.dtype(), FixedType::I8);
    }

    #[test]
    fn saturates_at_container_max() {
        let q = RangeAwareQuantizer::new(8).unwrap();
        // Profile said 12 bits but a 16-bit value shows up: clamp, not wrap.
        let t = q.quantize(&u16_master(vec![65_535]), 12).unwrap();
        assert_eq!(t.values()[0], 255);
    }

    #[test]
    fn rounds_to_nearest() {
        let q = RangeAwareQuantizer::new(8).unwrap();
        // shift 4: 24 -> 1.5 -> 2; 23 -> 1.44 -> 1.
        let t = q.quantize(&u16_master(vec![24, 23]), 12).unwrap();
        assert_eq!(t.values(), &[2, 1]);
    }

    #[test]
    fn rejects_bad_targets() {
        assert!(RangeAwareQuantizer::new(1).is_err());
        assert!(RangeAwareQuantizer::new(17).is_err());
    }
}
