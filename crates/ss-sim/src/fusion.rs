//! Layer fusion (Alwani et al., MICRO 2016) combined with ShapeShifter
//! compression — the Figure 11 study.
//!
//! Fusing a chain of layers keeps the intermediate activations on-chip:
//! only the chain's first input, its weights, and its last output touch
//! DRAM. ShapeShifter then compresses what still travels. The figure
//! reports compression ratios "with and without ShapeShifter as opposed to
//! using neither".

use ss_core::scheme::{CompressionScheme, SchemeCtx};

use crate::sim::MODEL_SEED;
use crate::workload::TensorSource;

/// Off-chip traffic for a network executed in fused chains of
/// `fuse_depth` consecutive layers.
///
/// Intermediate activations inside a chain stay on-chip (a fused pyramid
/// holds them in the buffers); every chain reads its first input and all
/// its weights, and writes its final output. With `fuse_depth == 1` this
/// degenerates to the unfused per-layer traffic (single-pass regime).
///
/// Returns traffic in bits under the given scheme.
///
/// # Panics
///
/// Panics if `fuse_depth == 0`.
#[must_use]
pub fn fused_traffic_bits(
    model: &dyn TensorSource,
    scheme: &dyn CompressionScheme,
    fuse_depth: usize,
    input_seed: u64,
) -> u64 {
    assert!(fuse_depth > 0, "fusion depth must be at least 1");
    let num_layers = model.layers().len();
    let mut traffic = 0u64;
    let mut start = 0usize;
    while start < num_layers {
        let end = (start + fuse_depth).min(num_layers); // exclusive
                                                        // Chain input.
        let act_in = model.input_tensor(start, input_seed);
        traffic += scheme.compressed_bits(
            &act_in,
            &SchemeCtx::profiled(model.profiled_act_width(start)),
        );
        // All weights of the chain.
        for i in start..end {
            let w = model.weight_tensor(i, MODEL_SEED);
            traffic +=
                scheme.compressed_bits(&w, &SchemeCtx::profiled(model.profiled_wgt_width(i)));
        }
        // Chain output.
        let last = end - 1;
        let act_out = model.output_tensor(last, input_seed);
        let out_profile = model.profiled_act_width((last + 1).min(num_layers - 1));
        traffic += scheme.compressed_bits(&act_out, &SchemeCtx::profiled(out_profile));
        start = end;
    }
    traffic
}

/// The Figure 11 quadrant for one model: traffic relative to
/// no-fusion/no-compression for (fusion, compression) on/off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionStudy {
    /// Fusion off, compression on.
    pub compression_only: f64,
    /// Fusion on, compression off.
    pub fusion_only: f64,
    /// Both on.
    pub both: f64,
}

/// Runs the Figure 11 comparison at the given fusion depth.
#[must_use]
pub fn fusion_study(
    model: &dyn TensorSource,
    scheme: &dyn CompressionScheme,
    fuse_depth: usize,
    input_seed: u64,
) -> FusionStudy {
    let base = ss_core::scheme::Base;
    let neither = fused_traffic_bits(model, &base, 1, input_seed) as f64;
    FusionStudy {
        compression_only: fused_traffic_bits(model, scheme, 1, input_seed) as f64 / neither,
        fusion_only: fused_traffic_bits(model, &base, fuse_depth, input_seed) as f64 / neither,
        both: fused_traffic_bits(model, scheme, fuse_depth, input_seed) as f64 / neither,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::scheme::{Base, ShapeShifterScheme};
    use ss_models::zoo;

    #[test]
    fn fusion_removes_intermediate_activations() {
        let net = zoo::vgg_m().scaled_down(8);
        let unfused = fused_traffic_bits(&net, &Base, 1, 3);
        let fused = fused_traffic_bits(&net, &Base, 2, 3);
        assert!(fused < unfused);
    }

    #[test]
    fn deeper_fusion_never_increases_traffic() {
        let net = zoo::alexnet().scaled_down(8);
        let mut last = u64::MAX;
        for depth in [1usize, 2, 4, 8] {
            let t = fused_traffic_bits(&net, &Base, depth, 1);
            assert!(t <= last, "depth {depth}");
            last = t;
        }
    }

    #[test]
    fn combination_beats_either_alone() {
        // The Figure 11 claim.
        let net = zoo::vgg_m().scaled_down(8);
        let s = fusion_study(&net, &ShapeShifterScheme::default(), 2, 5);
        assert!(s.both < s.compression_only, "{s:?}");
        assert!(s.both < s.fusion_only, "{s:?}");
        assert!(s.compression_only < 1.0);
        assert!(s.fusion_only < 1.0);
    }

    #[test]
    fn depth_one_matches_per_layer_accounting() {
        let net = zoo::alexnet().scaled_down(8);
        let scheme = ShapeShifterScheme::default();
        // Same accounting as the simulate() single-pass path: in + w + out
        // per layer.
        let direct: u64 = (0..net.layers().len())
            .map(|i| {
                use crate::workload::TensorSource as _;
                use ss_core::scheme::CompressionScheme as _;
                let ctx_a = SchemeCtx::profiled(net.profiled_act_width(i));
                let ctx_w = SchemeCtx::profiled(net.profiled_wgt_width(i));
                let ctx_o = SchemeCtx::profiled(
                    net.profiled_act_width((i + 1).min(net.layers().len() - 1)),
                );
                scheme.compressed_bits(&net.input_tensor(i, 9), &ctx_a)
                    + scheme.compressed_bits(&net.weight_tensor(i, MODEL_SEED), &ctx_w)
                    + scheme.compressed_bits(&net.output_tensor(i, 9), &ctx_o)
            })
            .sum();
        assert_eq!(fused_traffic_bits(&net, &scheme, 1, 9), direct);
    }
}
