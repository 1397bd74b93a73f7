//! TensorFlow-style asymmetric affine quantization.

use ss_tensor::{FixedType, Tensor, TensorError};

use crate::QuantError;

/// TensorFlow-style 8-bit quantization: `q = round(v / scale) + zero_point`
/// stored in an unsigned 8-bit container.
///
/// The calibrated real-value range `[min, max]` maps linearly onto
/// `[0, 255]`. Because `min < 0` in practice (weights are roughly
/// symmetric; activation calibration ranges dip below zero), the zero-point
/// is *not* zero — and therefore every near-zero real value is stored as a
/// number near `zero_point`, which needs `bits(zero_point)` bits. This is
/// the "unnecessary expansion" of the paper's Figure 3: TF-quantized
/// GoogLeNetS needs 6–8 stored bits where range-aware quantization needs 3.
///
/// The quantizer is configured by the **asymmetry ratio** `r = -min / max`
/// of the calibration range: `r ≈ 1` for weights (symmetric range,
/// `zero_point ≈ 128`), smaller for post-ReLU activations whose calibrated
/// minima dip only slightly below zero.
///
/// # Examples
///
/// ```
/// use ss_quant::TfQuantizer;
/// use ss_tensor::{FixedType, Shape, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Weights: symmetric calibration range.
/// let q = TfQuantizer::new(1.0)?;
/// let w = Tensor::from_vec(Shape::flat(3), FixedType::I16, vec![-1000, 0, 1000])?;
/// let t = q.quantize(&w, 1000)?;
/// // A real zero lands on the mid-range zero-point: ~128, needing 8 bits.
/// assert_eq!(t.values()[1], 128);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfQuantizer {
    asymmetry: f64,
}

/// Asymmetry ratio modelling typical TF activation calibration: ranges dip
/// ~25% of the maximum below zero, giving zero-points near 51 and pinning
/// most stored activations at 6 bits (paper Figure 3a).
pub const TF_ACT_ASYMMETRY: f64 = 0.25;
/// Asymmetry ratio for weights: calibration ranges are symmetric, giving
/// zero-points near 128 and pinning stored weights at 8 bits (Figure 3b).
pub const TF_WGT_ASYMMETRY: f64 = 1.0;

impl TfQuantizer {
    /// Creates a quantizer whose calibration range is `[-r·max, max]`.
    ///
    /// # Errors
    ///
    /// [`QuantError::InvalidAsymmetry`] if `r` is negative or not finite.
    pub fn new(asymmetry: f64) -> Result<Self, QuantError> {
        if !asymmetry.is_finite() || asymmetry < 0.0 {
            return Err(QuantError::InvalidAsymmetry { ratio: asymmetry });
        }
        Ok(Self { asymmetry })
    }

    /// The configured asymmetry ratio.
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        self.asymmetry
    }

    /// The zero-point the calibration range `[-r·max, max]` induces.
    #[must_use]
    pub fn zero_point(&self) -> u8 {
        // zero_point = round(-min / scale) with scale = (max - min) / 255
        //            = round(255 r / (1 + r)).
        let zp = 255.0 * self.asymmetry / (1.0 + self.asymmetry);
        zp.round() as u8
    }

    /// Quantizes a master tensor into an unsigned 8-bit container using a
    /// calibration maximum of `cal_max` (typically the profile-derived
    /// maximum magnitude of the layer; values beyond it saturate, exactly
    /// as TF's fake-quant does).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] only on internal container violations, which
    /// the clamping makes unreachable in practice.
    ///
    /// # Panics
    ///
    /// Panics if `cal_max == 0` (an all-zero calibration range is
    /// meaningless).
    pub fn quantize(&self, master: &Tensor, cal_max: i32) -> Result<Tensor, TensorError> {
        assert!(cal_max > 0, "calibration maximum must be positive");
        let max = f64::from(cal_max);
        let min = -self.asymmetry * max;
        let scale = (max - min) / 255.0;
        let zp = f64::from(self.zero_point());
        let data = master
            .values()
            .iter()
            .map(|&v| {
                let q = (f64::from(v) / scale).round() + zp;
                q.clamp(0.0, 255.0) as i32
            })
            .collect();
        Tensor::from_vec(master.shape().clone(), FixedType::U8, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{width, Shape, Signedness};

    fn master(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::I16, vals).unwrap()
    }

    #[test]
    fn zero_point_positions() {
        assert_eq!(TfQuantizer::new(1.0).unwrap().zero_point(), 128);
        assert_eq!(TfQuantizer::new(0.25).unwrap().zero_point(), 51);
        assert_eq!(TfQuantizer::new(0.0).unwrap().zero_point(), 0);
    }

    #[test]
    fn symmetric_range_expands_small_values() {
        // The paper's criticism: a tiny weight needs the full 8 bits.
        let q = TfQuantizer::new(TF_WGT_ASYMMETRY).unwrap();
        let t = q.quantize(&master(vec![1, -1, 0, 10]), 20_000).unwrap();
        for &v in t.values() {
            assert!(
                width::value_width(v, Signedness::Unsigned) >= 7,
                "stored value {v} should sit near the zero-point"
            );
        }
    }

    #[test]
    fn zero_asymmetry_preserves_small_widths() {
        // With min = 0 the zero-point vanishes and small stays small.
        let q = TfQuantizer::new(0.0).unwrap();
        let t = q.quantize(&master(vec![0, 100, 255]), 255).unwrap();
        assert_eq!(t.values(), &[0, 100, 255]);
    }

    #[test]
    fn saturates_beyond_calibration_range() {
        let q = TfQuantizer::new(1.0).unwrap();
        let t = q.quantize(&master(vec![30_000, -30_000]), 10_000).unwrap();
        assert_eq!(t.values(), &[255, 0]);
    }

    #[test]
    fn order_preserving() {
        let q = TfQuantizer::new(TF_ACT_ASYMMETRY).unwrap();
        let vals = vec![0, 5, 50, 500, 5000, 20_000];
        let t = q.quantize(&master(vals), 20_000).unwrap();
        let v = t.values();
        for pair in v.windows(2) {
            assert!(pair[0] <= pair[1], "quantization must preserve order");
        }
    }

    #[test]
    fn rejects_negative_asymmetry() {
        assert!(TfQuantizer::new(-0.1).is_err());
        assert!(TfQuantizer::new(f64::NAN).is_err());
    }

    #[test]
    fn output_container_is_u8() {
        let q = TfQuantizer::new(0.25).unwrap();
        let t = q.quantize(&master(vec![0, 1]), 100).unwrap();
        assert_eq!(t.dtype(), FixedType::U8);
    }
}
