//! Deterministic synthetic value generation.

// The zoo's calibrated generator is the one deliberate product-code use of
// the vendored `rand` stand-in: the synthetic tensors ARE the dataset, so
// the generator must ship with the product crates, and the stand-in's
// StdRng is deterministic by construction (fixed algorithm, no OS entropy),
// which the reproducibility contract depends on.
// ss-lint: allow(vendor-drift) -- calibrated zoo generator; deterministic stand-in StdRng is part of the dataset contract
use rand::rngs::StdRng;
// ss-lint: allow(vendor-drift) -- same exception as the line above
use rand::{Rng, SeedableRng};
use ss_tensor::{FixedType, Shape, Signedness, Tensor};

use crate::stats::calibrate_scale;

/// Draws fixed-point tensors from the zoo's zero-inflated
/// exponential-magnitude distribution.
///
/// Values are independent: zero with probability `sparsity`, otherwise a
/// magnitude `min(1 + floor(Exp(scale)), container max)` with a uniform
/// random sign when the container is signed. The scale is calibrated from a
/// target effective width by [`crate::stats::calibrate_scale`].
///
/// Generation is deterministic in the seed, and different tensors of the
/// same network derive distinct seeds from a common input seed (see
/// [`crate::Network`]), so "running 1,000 inputs" is reproducible.
///
/// # Examples
///
/// ```
/// use ss_models::ValueGen;
/// use ss_tensor::FixedType;
///
/// let gen = ValueGen::from_width_target(4.0, 0.5, FixedType::U16);
/// let t = gen.tensor_flat(1024, 42);
/// let again = gen.tensor_flat(1024, 42);
/// assert_eq!(t, again); // deterministic
/// assert!(t.sparsity() > 0.4 && t.sparsity() < 0.6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueGen {
    scale: f64,
    sparsity: f64,
    dtype: FixedType,
}

impl ValueGen {
    /// Creates a generator with an explicit exponential scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive or `sparsity` is outside `0..=1`.
    #[must_use]
    pub fn new(scale: f64, sparsity: f64, dtype: FixedType) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in 0..=1");
        Self {
            scale,
            sparsity,
            dtype,
        }
    }

    /// Creates a generator calibrated so groups of 16 values have the given
    /// expected effective width (the paper's Table 1 metric).
    #[must_use]
    pub fn from_width_target(target_width: f64, sparsity: f64, dtype: FixedType) -> Self {
        let scale = calibrate_scale(
            target_width,
            sparsity,
            dtype.signedness(),
            dtype.magnitude_bits(),
        );
        Self::new(scale, sparsity, dtype)
    }

    /// The exponential scale in use.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The zero probability in use.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        self.sparsity
    }

    /// The container values are generated for.
    #[must_use]
    pub fn dtype(&self) -> FixedType {
        self.dtype
    }

    /// Draws one value from the provided RNG.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i32 {
        if self.sparsity > 0.0 && rng.random::<f64>() < self.sparsity {
            return 0;
        }
        // Exponential via inverse CDF; `random::<f64>()` is in [0, 1).
        let u: f64 = rng.random();
        let y = -self.scale * (1.0 - u).ln();
        let mag = (1.0 + y.floor()).min(f64::from(self.dtype.max_magnitude())) as i32;
        match self.dtype.signedness() {
            Signedness::Unsigned => mag,
            Signedness::Signed => {
                if rng.random::<bool>() {
                    -mag
                } else {
                    mag
                }
            }
        }
    }

    /// Generates a tensor of the given shape, deterministically in `seed`.
    ///
    /// # Panics
    ///
    /// Never panics: every generated value fits the container by
    /// construction.
    #[must_use]
    pub fn tensor(&self, shape: Shape, seed: u64) -> Tensor {
        let n = shape.num_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<i32> = (0..n).map(|_| self.sample(&mut rng)).collect();
        Tensor::from_vec(shape, self.dtype, data)
            // ss-lint: allow(panic-freedom) -- sample() masks every value to self.dtype's width, so from_vec's range check cannot fail
            .expect("generated values always fit the container")
    }

    /// Generates a flat tensor of `len` values.
    #[must_use]
    pub fn tensor_flat(&self, len: usize, seed: u64) -> Tensor {
        self.tensor(Shape::flat(len), seed)
    }
}

/// Derives a tensor-specific seed from an input seed and a tensor tag.
///
/// Uses the SplitMix64 finalizer so nearby `(seed, tag)` pairs decorrelate.
#[must_use]
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{expected_group_width, CALIBRATION_GROUP};
    use ss_tensor::width;

    #[test]
    fn deterministic_per_seed() {
        let g = ValueGen::from_width_target(5.0, 0.5, FixedType::I16);
        assert_eq!(g.tensor_flat(100, 7), g.tensor_flat(100, 7));
        assert_ne!(g.tensor_flat(100, 7), g.tensor_flat(100, 8));
    }

    #[test]
    fn values_fit_container() {
        let g = ValueGen::from_width_target(15.0, 0.0, FixedType::I8);
        let t = g.tensor_flat(10_000, 3);
        for &v in t.values() {
            assert!(FixedType::I8.contains(v), "{v} out of range");
        }
    }

    #[test]
    fn unsigned_values_nonnegative() {
        let g = ValueGen::from_width_target(6.0, 0.3, FixedType::U16);
        let t = g.tensor_flat(10_000, 11);
        assert!(t.values().iter().all(|&v| v >= 0));
    }

    #[test]
    fn sparsity_matches_request() {
        let g = ValueGen::from_width_target(6.0, 0.7, FixedType::U16);
        let t = g.tensor_flat(50_000, 5);
        assert!(
            (t.sparsity() - 0.7).abs() < 0.02,
            "sparsity {}",
            t.sparsity()
        );
    }

    #[test]
    fn effective_width_matches_calibration_target() {
        // The central claim of the zoo: generated tensors land on the
        // requested Table-1 effective width.
        for &(target, sparsity) in &[(3.0, 0.5), (6.52, 0.3), (9.5, 0.5)] {
            let g = ValueGen::from_width_target(target, sparsity, FixedType::U16);
            let t = g.tensor_flat(200_000, 99);
            let got = t.effective_width(CALIBRATION_GROUP);
            assert!(
                (got - target).abs() < 0.1,
                "target {target}: measured {got}"
            );
        }
    }

    #[test]
    fn signed_effective_width_matches_target() {
        let g = ValueGen::from_width_target(4.16, 0.0, FixedType::I16);
        let t = g.tensor_flat(200_000, 1);
        let got = t.effective_width(CALIBRATION_GROUP);
        assert!((got - 4.16).abs() < 0.1, "measured {got}");
    }

    #[test]
    fn analytic_expectation_matches_empirical() {
        let scale = 37.0;
        let g = ValueGen::new(scale, 0.4, FixedType::U16);
        let t = g.tensor_flat(160_000, 21);
        let analytic =
            expected_group_width(scale, 0.4, Signedness::Unsigned, 16, CALIBRATION_GROUP);
        let mut sum = 0.0;
        let mut n = 0.0;
        for gvals in t.values().chunks(CALIBRATION_GROUP) {
            sum += f64::from(width::group_width(gvals, Signedness::Unsigned));
            n += 1.0;
        }
        let empirical = sum / n;
        assert!(
            (analytic - empirical).abs() < 0.1,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn derive_seed_decorrelates() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn rejects_bad_sparsity() {
        let _ = ValueGen::new(1.0, 1.5, FixedType::U8);
    }
}
