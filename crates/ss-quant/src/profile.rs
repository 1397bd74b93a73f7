//! Per-layer profiled widths: the "static" widths of the paper's
//! Figures 1–2 and the input to the Profile compression baseline
//! (Judd et al., Proteus) and to the original Stripes.
//!
//! Profiling answers: *what is the widest value this layer will ever
//! produce over the calibration set?* For the synthetic zoo this is
//! computed analytically from the generator's distribution (see
//! [`ss_models::stats::profiled_width_estimate`]) over the equivalent of
//! [`PROFILE_INPUTS`] calibration inputs — mirroring the paper's profiling
//! over thousands of ImageNet images, with no sampling noise.

use ss_models::stats::profiled_width_estimate;
use ss_models::Network;

/// Number of calibration inputs the activation profile represents (the
/// paper profiles over 5,000 images for Figure 1 and 1,000 for Figure 4).
pub const PROFILE_INPUTS: usize = 1000;

/// Profile-derived per-layer widths for a whole network.
///
/// # Examples
///
/// ```
/// use ss_models::zoo;
/// use ss_quant::profile::NetworkProfile;
///
/// let net = zoo::alexnet();
/// let p = NetworkProfile::of(&net);
/// assert_eq!(p.act_widths().len(), net.layers().len());
/// // Profiled widths exceed the per-group effective widths of Table 1.
/// assert!(p.act_widths()[0] >= 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkProfile {
    act: Vec<u8>,
    wgt: Vec<u8>,
}

impl NetworkProfile {
    /// Profiles every layer of `net`.
    #[must_use]
    pub fn of(net: &Network) -> Self {
        let act = (0..net.layers().len())
            .map(|i| profiled_act_width(net, i))
            .collect();
        let wgt = (0..net.layers().len())
            .map(|i| profiled_wgt_width(net, i))
            .collect();
        Self { act, wgt }
    }

    /// Per-layer profiled input-activation widths.
    #[must_use]
    pub fn act_widths(&self) -> &[u8] {
        &self.act
    }

    /// Per-layer profiled weight widths.
    #[must_use]
    pub fn wgt_widths(&self) -> &[u8] {
        &self.wgt
    }

    /// Profiled width of the activations *written* by `layer` (the input
    /// profile of the next layer; the last layer reuses its own).
    #[must_use]
    pub fn output_act_width(&self, layer: usize) -> u8 {
        self.act[(layer + 1).min(self.act.len() - 1)]
    }
}

/// Profile-derived width of one layer's input activations.
#[must_use]
pub fn profiled_act_width(net: &Network, layer: usize) -> u8 {
    let gen = net.input_gen(layer);
    let count = net.layers()[layer]
        .input_count()
        .saturating_mul(PROFILE_INPUTS);
    profiled_width_estimate(
        gen.scale(),
        gen.sparsity(),
        gen.dtype().signedness(),
        gen.dtype().magnitude_bits(),
        count.max(1),
    )
}

/// Empirical activation profile: the maximum width actually observed over
/// a set of input seeds — what the paper's profiling pass over thousands
/// of images measures directly. Slower than the analytic estimate (it
/// generates every tensor) and used to validate it.
#[must_use]
pub fn empirical_act_width(net: &Network, layer: usize, seeds: &[u64]) -> u8 {
    seeds
        .iter()
        .map(|&s| net.input_tensor(layer, s).profiled_width())
        .max()
        .unwrap_or(0)
}

/// Profile-derived width of one layer's weights (weights are fixed, so the
/// profile covers exactly the weight tensor).
#[must_use]
pub fn profiled_wgt_width(net: &Network, layer: usize) -> u8 {
    let gen = net.weight_gen(layer);
    profiled_width_estimate(
        gen.scale(),
        gen.sparsity(),
        gen.dtype().signedness(),
        gen.dtype().magnitude_bits(),
        net.layers()[layer].weight_count().max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_models::zoo;

    #[test]
    fn profile_covers_actual_tensors() {
        // The analytic profile must be an upper bound (up to its half-value
        // tolerance) for the width of real generated tensors.
        let net = zoo::alexnet().scaled_down(4);
        let p = NetworkProfile::of(&net);
        for (i, _) in net.layers().iter().enumerate() {
            let t = net.input_tensor(i, 42);
            assert!(
                t.profiled_width() <= p.act_widths()[i] + 1,
                "layer {i}: tensor width {} vs profile {}",
                t.profiled_width(),
                p.act_widths()[i]
            );
            let w = net.weight_tensor(i, 0);
            assert!(
                w.profiled_width() <= p.wgt_widths()[i] + 1,
                "layer {i}: weights {} vs profile {}",
                w.profiled_width(),
                p.wgt_widths()[i]
            );
        }
    }

    #[test]
    fn profiled_exceeds_effective() {
        // Figure 1's gap: the profile provisions for the rare worst case.
        let net = zoo::googlenet();
        let p = NetworkProfile::of(&net);
        for (i, l) in net.layers().iter().enumerate() {
            assert!(
                f64::from(p.act_widths()[i]) > l.stats().act_width,
                "layer {} profile {} <= effective {}",
                l.name(),
                p.act_widths()[i],
                l.stats().act_width
            );
        }
    }

    #[test]
    fn output_width_is_next_layers_input() {
        let net = zoo::alexnet();
        let p = NetworkProfile::of(&net);
        assert_eq!(p.output_act_width(0), p.act_widths()[1]);
        let last = net.layers().len() - 1;
        assert_eq!(p.output_act_width(last), p.act_widths()[last]);
    }

    #[test]
    fn analytic_profile_tracks_the_empirical_one() {
        // The analytic estimate substitutes for a real profiling pass;
        // over a handful of inputs it must bracket the empirical maximum
        // within a bit (the empirical one grows slowly with more inputs).
        let net = zoo::vgg_s().scaled_down(2);
        let seeds: Vec<u64> = (0..5).collect();
        for i in 0..net.layers().len() {
            let analytic = profiled_act_width(&net, i);
            let empirical = empirical_act_width(&net, i, &seeds);
            assert!(
                (i16::from(analytic) - i16::from(empirical)).abs() <= 1,
                "layer {i}: analytic {analytic} vs empirical {empirical}"
            );
        }
    }

    #[test]
    fn googlenet_conv1_profile_matches_paper_magnitude() {
        // Paper Figure 1a: GoogLeNet conv1's profile-determined width is
        // 10 bits. Our synthetic master should land in that vicinity.
        let net = zoo::googlenet();
        let w = profiled_act_width(&net, 0);
        assert!((9..=12).contains(&w), "conv1 profiled width {w}");
    }
}
