//! Outlier-aware storage formats (Park et al.), the comparison points of
//! the paper's Figure 16.

use ss_quant::OutlierQuantized;

/// Bits per outlier in both schemes: "16b for the value and 16 for the
/// position index" (paper §5.4).
const OUTLIER_BITS: u64 = 32;

/// The plain outlier-aware storage format: every common value (zeros
/// included) at the short width, outliers at 32 bits each.
#[must_use]
pub fn outlier_aware_bits(oq: &OutlierQuantized) -> u64 {
    let common = (oq.tensor().len() - oq.outlier_count()) as u64;
    common * u64::from(oq.common_bits()) + oq.outlier_count() as u64 * OUTLIER_BITS
}

/// Outlier-aware with zero skipping: one flag bit per non-outlier value;
/// zero common values cost only the flag, non-zero common values the flag
/// plus the short width. Outliers cost 32 bits.
#[must_use]
pub fn outlier_aware_zs_bits(oq: &OutlierQuantized) -> u64 {
    let t = oq.tensor();
    let non_outlier = (t.len() - oq.outlier_count()) as u64;
    let zeros = t.num_zero() as u64;
    let nonzero_common = non_outlier - zeros;
    non_outlier
        + nonzero_common * u64::from(oq.common_bits())
        + oq.outlier_count() as u64 * OUTLIER_BITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_quant::OutlierAwareQuantizer;
    use ss_tensor::{FixedType, Shape, Tensor};

    fn quantized(vals: Vec<i32>) -> OutlierQuantized {
        let t = Tensor::from_vec(Shape::flat(vals.len()), FixedType::I16, vals).unwrap();
        OutlierAwareQuantizer::new(4, 0.25)
            .unwrap()
            .quantize(&t)
            .unwrap()
    }

    #[test]
    fn plain_format_accounting() {
        // 4 values, threshold lands on the max -> 1 outlier, 3 common.
        let oq = quantized(vec![1, 2, 0, 30_000]);
        assert_eq!(oq.outlier_count(), 1);
        assert_eq!(outlier_aware_bits(&oq), 3 * 4 + 32);
    }

    #[test]
    fn zs_format_charges_flags_and_skips_zeros() {
        let oq = quantized(vec![1, 2, 0, 30_000]);
        // After quantization 1 and 2 may round to 0 at this scale; count
        // what actually survived.
        let zeros = oq.tensor().num_zero() as u64;
        let nonzero_common = 3 - zeros;
        assert_eq!(outlier_aware_zs_bits(&oq), 3 + nonzero_common * 4 + 32);
    }

    #[test]
    fn zs_beats_plain_on_sparse_data() {
        let mut vals = vec![0i32; 94];
        vals.extend([5_000, 6_000, 7_000, 8_000, 9_000, 30_000]);
        let oq = quantized(vals);
        assert!(outlier_aware_zs_bits(&oq) < outlier_aware_bits(&oq));
    }

    #[test]
    fn plain_beats_zs_on_dense_data() {
        let vals: Vec<i32> = (1..=100).map(|i| i * 100).collect();
        let oq = quantized(vals);
        // Dense: the per-value flag is pure overhead.
        assert!(outlier_aware_bits(&oq) < outlier_aware_zs_bits(&oq));
    }
}
