//! Outlier-aware quantization (Park et al., ISCA 2018), used in the
//! paper's Figure 16 study.

use ss_tensor::{Signedness, Tensor, TensorError};

use crate::QuantError;

/// Outlier-aware quantization: the vast majority of values ("common"
/// values, 97–99%) are quantized to a short width (4–5 bits), while the
/// rare high-magnitude outliers keep the full 16-bit width.
///
/// The paper applies ShapeShifter compression *on top of* outlier-aware
/// quantized models to show it "delivers virtually all the memory traffic
/// reduction possible … despite not being specialized for them" (§5.4).
/// The quantized tensor therefore stays in a 16-bit container: common
/// values are rescaled into the short range (so they need at most
/// `common_bits`), outliers keep their magnitude.
///
/// # Examples
///
/// ```
/// use ss_quant::OutlierAwareQuantizer;
/// use ss_tensor::{FixedType, Shape, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = OutlierAwareQuantizer::new(4, 0.25)?; // 4b common, 25% outliers
/// let t = Tensor::from_vec(
///     Shape::flat(4),
///     FixedType::I16,
///     vec![2, -3, 1, 30_000],
/// )?;
/// let oq = q.quantize(&t)?;
/// assert_eq!(oq.outlier_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierAwareQuantizer {
    common_bits: u8,
    outlier_fraction: f64,
}

/// An outlier-aware quantized tensor: the transformed values plus the
/// bookkeeping the storage schemes need.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierQuantized {
    tensor: Tensor,
    common_bits: u8,
    outlier_count: usize,
    threshold: i32,
}

impl OutlierAwareQuantizer {
    /// Creates a quantizer with `common_bits` for common values (the
    /// paper's Figure 16 uses 4 for ResNet50 and 5 for MobileNet-V2) and
    /// the given outlier fraction (1% in the paper).
    ///
    /// # Errors
    ///
    /// * [`QuantError::InvalidTargetWidth`] unless `2 <= common_bits <= 8`.
    /// * [`QuantError::InvalidOutlierFraction`] unless
    ///   `0 < outlier_fraction < 1`.
    pub fn new(common_bits: u8, outlier_fraction: f64) -> Result<Self, QuantError> {
        if !(2..=8).contains(&common_bits) {
            return Err(QuantError::InvalidTargetWidth { bits: common_bits });
        }
        if !(outlier_fraction > 0.0 && outlier_fraction < 1.0) {
            return Err(QuantError::InvalidOutlierFraction {
                fraction: outlier_fraction,
            });
        }
        Ok(Self {
            common_bits,
            outlier_fraction,
        })
    }

    /// Width of the common-value container.
    #[must_use]
    pub fn common_bits(&self) -> u8 {
        self.common_bits
    }

    /// Fraction of values kept at full width.
    #[must_use]
    pub fn outlier_fraction(&self) -> f64 {
        self.outlier_fraction
    }

    /// Quantizes a master tensor: the top `outlier_fraction` of non-zero
    /// magnitudes keep their value; the rest are rescaled into the
    /// common-value range.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] only on internal container violations, which
    /// the clamping makes unreachable in practice.
    pub fn quantize(&self, master: &Tensor) -> Result<OutlierQuantized, TensorError> {
        // Find the magnitude threshold: the (1 - f) quantile of non-zero
        // magnitudes.
        let mut mags: Vec<i32> = master
            .values()
            .iter()
            .filter(|&&v| v != 0)
            .map(|&v| v.abs())
            .collect();
        if mags.is_empty() {
            return Ok(OutlierQuantized {
                tensor: master.clone(),
                common_bits: self.common_bits,
                outlier_count: 0,
                threshold: 0,
            });
        }
        mags.sort_unstable();
        // Exactly the top `k` non-zero magnitudes become outliers. A plain
        // quantile threshold over-selects when many values tie at the
        // threshold (common with narrow integer distributions), so ties
        // are broken by arrival order with a hard cap of `k`.
        let k = ((mags.len() as f64) * self.outlier_fraction)
            .round()
            .max(1.0) as usize;
        let threshold = mags[mags.len() - k];

        let mag_bits = match master.signedness() {
            Signedness::Unsigned => self.common_bits,
            Signedness::Signed => self.common_bits - 1,
        };
        let common_max = (1i32 << mag_bits) - 1;
        // Uniform quantization step over the *common* region, bounded by
        // the largest common magnitude (everything at or above `threshold`
        // is an outlier candidate). Never below 1: a common range already
        // narrower than the container is stored as-is — expanding it to
        // fill the container would manufacture precision that does not
        // exist and destroy the value skew (exactly the pathology the
        // paper attributes to TF quantization).
        let common_bound = if mags.len() > k {
            mags[mags.len() - k - 1]
        } else {
            threshold
        };
        let scale = (f64::from(common_bound.max(1)) / f64::from(common_max)).max(1.0);

        let mut remaining = k;
        let mut outlier_count = 0usize;
        let data = master
            .values()
            .iter()
            .map(|&v| {
                if v != 0 && v.abs() >= threshold && remaining > 0 {
                    remaining -= 1;
                    outlier_count += 1;
                    return v;
                }
                if v == 0 {
                    0
                } else {
                    let mag = (f64::from(v.abs()) / scale)
                        .round()
                        .min(f64::from(common_max)) as i32;
                    if v < 0 {
                        -mag
                    } else {
                        mag
                    }
                }
            })
            .collect();
        let tensor = Tensor::from_vec(master.shape().clone(), master.dtype(), data)?;
        Ok(OutlierQuantized {
            tensor,
            common_bits: self.common_bits,
            outlier_count,
            threshold,
        })
    }
}

impl OutlierQuantized {
    /// The quantized values (16-bit container, mixed widths).
    #[must_use]
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// Width of the common-value container.
    #[must_use]
    pub fn common_bits(&self) -> u8 {
        self.common_bits
    }

    /// Number of full-width outliers.
    #[must_use]
    pub fn outlier_count(&self) -> usize {
        self.outlier_count
    }

    /// The magnitude threshold separating common values from outliers.
    #[must_use]
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// Fraction of values that are outliers.
    #[must_use]
    pub fn outlier_share(&self) -> f64 {
        if self.tensor.is_empty() {
            0.0
        } else {
            self.outlier_count as f64 / self.tensor.len() as f64
        }
    }

    /// Consumes the wrapper, returning the quantized tensor.
    #[must_use]
    pub fn into_tensor(self) -> Tensor {
        self.tensor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{width, FixedType, Shape};

    fn master(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::I16, vals).unwrap()
    }

    #[test]
    fn common_values_fit_common_bits() {
        let q = OutlierAwareQuantizer::new(4, 0.05).unwrap();
        let vals: Vec<i32> = (1..=100).collect();
        let oq = q.quantize(&master(vals)).unwrap();
        for &v in oq.tensor().values() {
            if v.abs() < oq.threshold() {
                assert!(
                    width::value_width(v, Signedness::Signed) <= 4,
                    "common value {v} exceeds 4 bits"
                );
            }
        }
    }

    #[test]
    fn outlier_fraction_is_respected() {
        let q = OutlierAwareQuantizer::new(5, 0.01).unwrap();
        let vals: Vec<i32> = (1..=10_000).collect();
        let oq = q.quantize(&master(vals)).unwrap();
        let share = oq.outlier_share();
        assert!((0.005..0.02).contains(&share), "outlier share {share}");
    }

    #[test]
    fn outliers_keep_their_value() {
        let q = OutlierAwareQuantizer::new(4, 0.25).unwrap();
        let oq = q.quantize(&master(vec![1, 2, 3, 30_000])).unwrap();
        assert!(oq.tensor().values().contains(&30_000));
    }

    #[test]
    fn zeros_are_neither_common_nor_outlier() {
        let q = OutlierAwareQuantizer::new(4, 0.1).unwrap();
        let oq = q
            .quantize(&master(vec![0, 0, 5_000, 10_000, 0, 0]))
            .unwrap();
        assert_eq!(oq.tensor().values().iter().filter(|&&v| v == 0).count(), 4);
        assert_eq!(oq.outlier_count(), 1);
        // A common value far below its quantization step rounds to zero —
        // the lossy part of outlier-aware quantization. 30 sits at 0.6% of
        // the 5000-wide common range whose 4b step is ~714.
        let oq = q
            .quantize(&master(vec![0, 0, 30, 5_000, 10_000, 0]))
            .unwrap();
        assert_eq!(oq.tensor().values().iter().filter(|&&v| v == 0).count(), 4);
    }

    #[test]
    fn all_zero_tensor_passes_through() {
        let q = OutlierAwareQuantizer::new(4, 0.01).unwrap();
        let oq = q.quantize(&master(vec![0; 8])).unwrap();
        assert_eq!(oq.outlier_count(), 0);
        assert_eq!(oq.tensor().num_zero(), 8);
    }

    #[test]
    fn narrow_common_ranges_are_not_expanded() {
        // Threshold 6 fits a 4b signed container: values must pass through
        // unchanged, keeping their narrow widths for ShapeShifter.
        let q = OutlierAwareQuantizer::new(4, 0.1).unwrap();
        let vals = vec![1, -2, 3, 0, 6, -1, 2, 1, 0, 30_000];
        let oq = q.quantize(&master(vals.clone())).unwrap();
        assert_eq!(oq.tensor().values(), &vals[..]);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(OutlierAwareQuantizer::new(1, 0.01).is_err());
        assert!(OutlierAwareQuantizer::new(9, 0.01).is_err());
        assert!(OutlierAwareQuantizer::new(4, 0.0).is_err());
        assert!(OutlierAwareQuantizer::new(4, 1.0).is_err());
    }
}
