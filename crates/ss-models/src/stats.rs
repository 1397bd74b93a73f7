//! Per-layer value statistics and the width-target calibration that makes
//! the synthetic zoo reproduce the paper's measured effective widths.
//!
//! The generator draws non-zero magnitudes as `1 + floor(Exp(scale))` — a
//! discretized exponential, matching the paper's premise that "by design,
//! the expected per-layer distribution of values … is that most will be near
//! zero and few will be of higher magnitude" (§1). The only free parameter
//! per layer is the exponential `scale`; [`calibrate_scale`] solves for it
//! so that the *expected per-group effective width* at group size 16 equals
//! a target taken from the paper's Table 1.

use ss_tensor::Signedness;

/// Group size at which width targets are specified (the paper's Table 1
/// uses "a group size of 16 values along the channel dimension").
pub const CALIBRATION_GROUP: usize = 16;

/// Value statistics for one layer of a network.
///
/// `act_width` / `wgt_width` are *effective width* targets — the expected
/// per-group width at group size 16 — in the same metric as the paper's
/// Table 1 (signed widths for weights include the sign bit). Sparsities are
/// the fraction of exactly-zero values: ReLU-induced for activations,
/// pruning-induced for weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerStats {
    /// Target effective width of this layer's **input** activations.
    pub act_width: f64,
    /// Target effective width of this layer's weights.
    pub wgt_width: f64,
    /// Fraction of zero input activations.
    pub act_sparsity: f64,
    /// Fraction of zero weights.
    pub wgt_sparsity: f64,
}

impl LayerStats {
    /// Convenience constructor.
    #[must_use]
    pub fn new(act_width: f64, wgt_width: f64, act_sparsity: f64, wgt_sparsity: f64) -> Self {
        Self {
            act_width,
            wgt_width,
            act_sparsity,
            wgt_sparsity,
        }
    }

    /// Stats with the given widths and the zoo's default sparsities
    /// (50% activation zeros from ReLU, dense weights).
    #[must_use]
    pub fn dense(act_width: f64, wgt_width: f64) -> Self {
        Self::new(act_width, wgt_width, 0.5, 0.0)
    }
}

/// CDF of a single value's width under the generator's distribution.
///
/// A value is zero with probability `sparsity`; otherwise its magnitude is
/// `min(1 + floor(Exp(scale)), max_mag)`. For the unsigned metric the width
/// of a non-zero magnitude `m` is `bits(m)`; the signed metric adds one sign
/// bit. `width_cdf(w)` returns `P(width <= w)`.
fn width_cdf(w: u8, scale: f64, sparsity: f64, signedness: Signedness, mag_bits: u8) -> f64 {
    // Translate a width bound into a magnitude bound.
    let mag_w = match signedness {
        Signedness::Unsigned => w,
        // width = mag bits + 1 for non-zero values.
        Signedness::Signed => w.saturating_sub(1),
    };
    if mag_w == 0 {
        // Only zero values have width 0 (signed width 1 is also impossible:
        // a non-zero value needs at least one magnitude bit plus sign).
        return sparsity;
    }
    if mag_w >= mag_bits {
        return 1.0; // clamping guarantees every magnitude fits.
    }
    // magnitude <= 2^mag_w - 1  <=>  1 + floor(y) <= 2^mag_w - 1
    //                           <=>  y < 2^mag_w - 1.
    let bound = (1u64 << mag_w) as f64 - 1.0;
    let p_nonzero_fits = 1.0 - (-bound / scale).exp();
    sparsity + (1.0 - sparsity) * p_nonzero_fits
}

/// Expected per-group effective width for groups of `group` values.
///
/// `E[max width] = sum_w P(max > w) = sum_w (1 - cdf(w)^group)`.
#[must_use]
pub fn expected_group_width(
    scale: f64,
    sparsity: f64,
    signedness: Signedness,
    mag_bits: u8,
    group: usize,
) -> f64 {
    let max_w = match signedness {
        Signedness::Unsigned => mag_bits,
        Signedness::Signed => mag_bits + 1,
    };
    let mut e = 0.0;
    for w in 0..max_w {
        let cdf = width_cdf(w, scale, sparsity, signedness, mag_bits);
        e += 1.0 - cdf.powi(group as i32);
    }
    e
}

/// Solves for the exponential scale that makes [`expected_group_width`]
/// equal `target_width` at the calibration group size.
///
/// `mag_bits` is the number of magnitude bits in the container (16 for u16
/// activations, 15 for i16 weights). Targets below the distribution's floor
/// (a non-zero value always needs ≥1 unsigned / ≥2 signed bits) or above
/// its ceiling are clamped to the feasible range.
#[must_use]
pub fn calibrate_scale(
    target_width: f64,
    sparsity: f64,
    signedness: Signedness,
    mag_bits: u8,
) -> f64 {
    const LO: f64 = 1e-6;
    // Large enough that magnitudes saturate the container.
    let hi_limit = ((1u64 << mag_bits) as f64) * 64.0;
    let eval =
        |scale: f64| expected_group_width(scale, sparsity, signedness, mag_bits, CALIBRATION_GROUP);
    let target = target_width.clamp(eval(LO), eval(hi_limit));
    let (mut lo, mut hi) = (LO, hi_limit);
    for _ in 0..200 {
        let mid = (lo * hi).sqrt(); // geometric bisection: scale spans decades
        if eval(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi / lo < 1.0 + 1e-12 {
            break;
        }
    }
    (lo * hi).sqrt()
}

/// Estimates the profile-derived width of a tensor of `count` values drawn
/// at the given scale: the smallest width `w` such that the expected number
/// of values wider than `w` drops below one half.
///
/// This is the "static"/profiled width of the paper's Figures 1–2 — the
/// width a per-layer scheme must provision for the worst value it will ever
/// see — computed analytically so quantizers need no profiling passes.
#[must_use]
pub fn profiled_width_estimate(
    scale: f64,
    sparsity: f64,
    signedness: Signedness,
    mag_bits: u8,
    count: usize,
) -> u8 {
    let max_w = match signedness {
        Signedness::Unsigned => mag_bits,
        Signedness::Signed => mag_bits + 1,
    };
    for w in 0..max_w {
        let exceed = 1.0 - width_cdf(w, scale, sparsity, signedness, mag_bits);
        if exceed * (count as f64) < 0.5 {
            return w;
        }
    }
    max_w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut prev = 0.0;
        for w in 0..=17 {
            let c = width_cdf(w, 37.0, 0.3, Signedness::Signed, 15);
            assert!((0.0..=1.0).contains(&c), "cdf {c} at width {w}");
            assert!(c >= prev, "cdf must be monotone");
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_at_zero_width_is_sparsity() {
        assert_eq!(width_cdf(0, 10.0, 0.25, Signedness::Unsigned, 16), 0.25);
        assert_eq!(width_cdf(0, 10.0, 0.25, Signedness::Signed, 15), 0.25);
        // Signed width 1 is impossible for non-zero values.
        assert_eq!(width_cdf(1, 10.0, 0.25, Signedness::Signed, 15), 0.25);
    }

    #[test]
    fn expected_width_grows_with_scale() {
        let lo = expected_group_width(1.0, 0.5, Signedness::Unsigned, 16, 16);
        let hi = expected_group_width(1000.0, 0.5, Signedness::Unsigned, 16, 16);
        assert!(lo < hi);
        assert!(
            lo >= 0.9,
            "small scale still yields ~1-bit groups, got {lo}"
        );
        assert!(hi <= 16.0);
    }

    #[test]
    fn expected_width_grows_with_group_size() {
        // Larger groups are hostage to worse values — the premise of Fig. 1.
        let g16 = expected_group_width(40.0, 0.5, Signedness::Unsigned, 16, 16);
        let g256 = expected_group_width(40.0, 0.5, Signedness::Unsigned, 16, 256);
        assert!(g256 > g16);
    }

    #[test]
    fn calibration_hits_reachable_targets() {
        for &target in &[2.5, 4.0, 6.52, 9.5, 12.0] {
            let s = calibrate_scale(target, 0.5, Signedness::Unsigned, 16);
            let got = expected_group_width(s, 0.5, Signedness::Unsigned, 16, CALIBRATION_GROUP);
            assert!(
                (got - target).abs() < 0.01,
                "target {target}: calibrated to {got}"
            );
        }
    }

    #[test]
    fn calibration_hits_signed_targets() {
        for &target in &[3.0, 4.16, 5.58, 8.0] {
            let s = calibrate_scale(target, 0.0, Signedness::Signed, 15);
            let got = expected_group_width(s, 0.0, Signedness::Signed, 15, CALIBRATION_GROUP);
            assert!(
                (got - target).abs() < 0.01,
                "target {target}: calibrated to {got}"
            );
        }
    }

    #[test]
    fn infeasible_targets_clamp_instead_of_diverging() {
        // A signed non-zero value needs >= 2 bits; with no sparsity a
        // 16-value group nearly always has a non-zero member.
        let s = calibrate_scale(0.5, 0.0, Signedness::Signed, 15);
        let got = expected_group_width(s, 0.0, Signedness::Signed, 15, CALIBRATION_GROUP);
        assert!(got >= 1.9, "floor should be ~2, got {got}");
        // And a target beyond the container clamps to the ceiling.
        let s = calibrate_scale(40.0, 0.0, Signedness::Unsigned, 8);
        let got = expected_group_width(s, 0.0, Signedness::Unsigned, 8, CALIBRATION_GROUP);
        assert!(got <= 8.0 + 1e-9);
    }

    #[test]
    fn profiled_width_exceeds_effective_width() {
        // The whole point of the paper: the worst value over a big tensor
        // needs far more bits than the typical group.
        let scale = calibrate_scale(4.0, 0.5, Signedness::Unsigned, 16);
        let eff = expected_group_width(scale, 0.5, Signedness::Unsigned, 16, 16);
        let prof = profiled_width_estimate(scale, 0.5, Signedness::Unsigned, 16, 1_000_000);
        assert!(
            f64::from(prof) > eff + 2.0,
            "profiled {prof} vs effective {eff}"
        );
    }

    #[test]
    fn profiled_width_grows_with_count() {
        let scale = 40.0;
        let small = profiled_width_estimate(scale, 0.0, Signedness::Unsigned, 16, 1_000);
        let large = profiled_width_estimate(scale, 0.0, Signedness::Unsigned, 16, 100_000_000);
        assert!(large >= small);
        assert!(large <= 16);
    }

    #[test]
    fn layer_stats_constructors() {
        let s = LayerStats::dense(6.5, 4.2);
        assert_eq!(s.act_sparsity, 0.5);
        assert_eq!(s.wgt_sparsity, 0.0);
        let s = LayerStats::new(1.0, 2.0, 0.1, 0.9);
        assert_eq!(s.wgt_sparsity, 0.9);
    }
}
