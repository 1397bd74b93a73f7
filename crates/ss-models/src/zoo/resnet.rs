//! ResNet-50 (He et al., 2015) and the pruned ResNet50-S (Park et al.).
//!
//! Flattened into its 53 convolutions (stem + 16 bottleneck blocks + 4
//! projection shortcuts) plus the classifier FC — 54 layers, matching the
//! 54-entry width lists of the paper's Table 1.

use crate::layer::{conv, fc};
use crate::{Layer, LayerStats, Network};

/// Table 1 per-layer effective activation widths (54 entries).
#[allow(clippy::approx_constant)] // 3.14 is the paper's measured value
const ACT_W: [f64; 54] = [
    6.44, 6.21, 5.21, 3.81, 4.27, 3.78, 3.34, 3.01, 4.03, //
    3.08, 3.78, 4.09, 3.14, 3.35, 3.45, 4.02, 2.86, 3.15, //
    4.06, 2.95, 2.65, 3.06, 2.18, 2.79, 3.32, 3.32, 2.36, //
    3.27, 3.16, 1.97, 1.98, 3.06, 2.43, 1.96, 3.01, 2.24, //
    1.79, 2.94, 1.54, 2.33, 3.83, 1.65, 2.45, 4.01, 3.05, //
    1.73, 2.27, 2.55, 1.93, 1.83, 2.36, 1.74, 1.65, 3.26,
];

/// Table 1 per-layer effective weight widths (54 entries).
const WGT_W: [f64; 54] = [
    5.6, 4.9, 6.53, 3.97, 4.43, 3.62, 3.37, 5.24, 4.55, //
    4.35, 3.27, 4.04, 3.42, 3.85, 4.11, 3.11, 3.83, 2.96, //
    2.07, 3.5, 3.39, 4.39, 3.93, 3.92, 3.68, 2.99, 3.41, //
    3.82, 3.38, 3.26, 3.62, 3.57, 3.33, 4.53, 3.57, 3.33, //
    3.49, 3.75, 3.3, 3.6, 3.83, 3.31, 3.63, 4.11, 3.66, //
    4.03, 3.44, 4.22, 3.93, 3.24, 4.49, 4.8, 4.17, 4.27,
];

/// One residual stage: `(mid channels, out channels, block count, spatial)`.
const STAGES: [(usize, usize, usize, usize); 4] = [
    (64, 256, 3, 56),
    (128, 512, 4, 28),
    (256, 1024, 6, 14),
    (512, 2048, 3, 7),
];

fn layers(wgt_sparsity: f64) -> Vec<Layer> {
    let mut out: Vec<Layer> = Vec::with_capacity(54);
    let mut idx = 0usize;
    let mut s = |wsp: f64| {
        let i = idx.min(53);
        idx += 1;
        let act_sp = if i == 0 { 0.0 } else { 0.5 };
        LayerStats::new(ACT_W[i], WGT_W[i], act_sp, wsp)
    };

    out.push(conv("conv1", 64, 3, 7, 224, 112, s(wgt_sparsity)));
    let mut in_ch = 64; // after the 3x3 max-pool, 56x56 spatial
    for (stage_no, &(mid, out_ch, blocks, hw)) in STAGES.iter().enumerate() {
        for b in 0..blocks {
            let base = format!("res{}{}", stage_no + 2, (b'a' + b as u8) as char);
            // The first block of each stage reads the previous stage's
            // spatial size (stride-2 on branch inputs past stage 2).
            let in_hw = if b == 0 && stage_no > 0 { hw * 2 } else { hw };
            out.push(conv(
                &format!("{base}_1x1a"),
                mid,
                in_ch,
                1,
                in_hw,
                hw,
                s(wgt_sparsity),
            ));
            out.push(conv(
                &format!("{base}_3x3b"),
                mid,
                mid,
                3,
                hw,
                hw,
                s(wgt_sparsity),
            ));
            out.push(conv(
                &format!("{base}_1x1c"),
                out_ch,
                mid,
                1,
                hw,
                hw,
                s(wgt_sparsity),
            ));
            if b == 0 {
                // Projection shortcut for the dimension change.
                out.push(conv(
                    &format!("{base}_proj"),
                    out_ch,
                    in_ch,
                    1,
                    in_hw,
                    hw,
                    s(wgt_sparsity),
                ));
            }
            in_ch = out_ch;
        }
    }
    out.push(fc("fc1000", 2048, 1000, s(wgt_sparsity)));
    out
}

/// Dense ResNet-50 (int16 master): 53 convolutions + classifier FC.
#[must_use]
pub fn resnet50() -> Network {
    Network::new("ResNet50", layers(0.0))
}

/// Pruned ResNet50-S (Park et al. guided pruning, ~60% weight zeros).
#[must_use]
pub fn resnet50_s() -> Network {
    Network::new("ResNet50-S", layers(0.6))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_count_matches_table1() {
        // 53 convolutions + 1 FC = Table 1's 54 width entries.
        assert_eq!(resnet50().layers().len(), 54);
    }

    #[test]
    fn published_parameter_count() {
        // ResNet-50: ~25.5M parameters.
        let total = resnet50().total_weights();
        assert!((24_000_000..26_500_000).contains(&total), "weights {total}");
    }

    #[test]
    fn published_mac_count() {
        // ~3.8-4.1 GMACs for a 224x224 forward pass.
        let m = resnet50().total_macs();
        assert!((3_500_000_000..4_300_000_000).contains(&m), "macs {m}");
    }

    #[test]
    fn bottleneck_channel_chaining() {
        let n = resnet50();
        // res2a: 1x1a reads 64 channels at 56x56, outputs 64; 1x1c emits 256.
        let l = &n.layers()[1];
        assert_eq!(l.name(), "res2a_1x1a");
        assert_eq!(l.input_count(), 64 * 56 * 56);
        assert_eq!(n.layers()[3].output_count(), 256 * 56 * 56);
    }
}
