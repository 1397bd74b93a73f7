//! MobileNet v1 (Howard et al., 2017) and MobileNet-V2 (Sandler et al.,
//! 2018, used in the outlier-aware study of Figure 16).

use crate::layer::{conv, dwconv, fc};
use crate::{Layer, LayerStats, Network};

/// Table 1 per-layer effective activation widths for MobileNet v1
/// (27 convolutions + FC = 28 entries).
const ACT_W: [f64; 28] = [
    6.68, 7.01, 8.36, 5.41, 7.25, 7.24, 8.02, 6.05, 7.09, //
    5.94, 7.71, 4.77, 7.84, 6.44, 7.3, 7.12, 9.5, 6.15, 8.54, //
    5.23, 8.55, 6.14, 9.5, 5.06, 8.74, 4.41, 9.05, 7.97,
];

/// Table 1 per-layer effective weight widths for MobileNet v1.
const WGT_W: [f64; 28] = [
    3.88, 3.3, 4.91, 2.11, 3.96, 2.76, 3.68, 1.95, 3.39, 2.53, //
    3.17, 1.87, 2.92, 2.39, 3.54, 1.64, 2.77, 2.06, 2.78, //
    2.06, 2.84, 1.66, 2.84, 2.77, 3.43, 2.11, 3.05, 1.68,
];

/// The 13 depthwise-separable blocks: `(channels_in, channels_out,
/// in_hw, out_hw)` — the depthwise conv runs at `in_hw -> out_hw`, the
/// pointwise conv at `out_hw`.
const BLOCKS: [(usize, usize, usize, usize); 13] = [
    (32, 64, 112, 112),
    (64, 128, 112, 56),
    (128, 128, 56, 56),
    (128, 256, 56, 28),
    (256, 256, 28, 28),
    (256, 512, 28, 14),
    (512, 512, 14, 14),
    (512, 512, 14, 14),
    (512, 512, 14, 14),
    (512, 512, 14, 14),
    (512, 512, 14, 14),
    (512, 1024, 14, 7),
    (1024, 1024, 7, 7),
];

/// MobileNet v1 (int16 master): stem conv, 13 depthwise-separable blocks,
/// classifier FC — 28 layers matching Table 1.
#[must_use]
pub fn mobilenet() -> Network {
    let mut layers: Vec<Layer> = Vec::with_capacity(28);
    let mut idx = 0usize;
    let mut s = || {
        let i = idx;
        idx += 1;
        let act_sp = if i == 0 { 0.0 } else { 0.4 };
        LayerStats::new(ACT_W[i], WGT_W[i], act_sp, 0.0)
    };
    layers.push(conv("conv1", 32, 3, 3, 224, 112, s()));
    for (b, &(cin, cout, ihw, ohw)) in BLOCKS.iter().enumerate() {
        layers.push(dwconv(&format!("conv{}_dw", b + 2), cin, 3, ihw, ohw, s()));
        layers.push(conv(
            &format!("conv{}_pw", b + 2),
            cout,
            cin,
            1,
            ohw,
            ohw,
            s(),
        ));
    }
    layers.push(fc("fc1000", 1024, 1000, s()));
    Network::new("MobileNet", layers)
}

/// One MobileNet-V2 inverted-residual stage: `(expansion t, out channels,
/// repeats, in_hw, out_hw)` — the first block of a stage strides.
const V2_STAGES: [(usize, usize, usize, usize, usize); 7] = [
    (1, 16, 1, 112, 112),
    (6, 24, 2, 112, 56),
    (6, 32, 3, 56, 28),
    (6, 64, 4, 28, 14),
    (6, 96, 3, 14, 14),
    (6, 160, 3, 14, 7),
    (6, 320, 1, 7, 7),
];

/// MobileNet-V2 (int16 master; quantized with the outlier-aware method in
/// Figure 16). Width targets are representative (not in Table 1): V2's
/// linear bottlenecks and ReLU6 produce activation widths similar to v1's.
#[must_use]
pub fn mobilenet_v2() -> Network {
    let mut layers: Vec<Layer> = Vec::new();
    let stats = |i: usize| {
        // Alternate through v1's measured widths as representative targets.
        let a = ACT_W[i % ACT_W.len()];
        let w = WGT_W[i % WGT_W.len()];
        LayerStats::new(a, w, if i == 0 { 0.0 } else { 0.4 }, 0.0)
    };
    let mut i = 0usize;
    let mut s = || {
        let st = stats(i);
        i += 1;
        st
    };
    layers.push(conv("conv1", 32, 3, 3, 224, 112, s()));
    let mut cin = 32usize;
    for (stage, &(t, cout, reps, in_hw, out_hw)) in V2_STAGES.iter().enumerate() {
        for r in 0..reps {
            let name = format!("block{}_{}", stage + 1, r + 1);
            let (bi, bo) = if r == 0 {
                (in_hw, out_hw)
            } else {
                (out_hw, out_hw)
            };
            let expanded = cin * t;
            if t > 1 {
                layers.push(conv(
                    &format!("{name}_expand"),
                    expanded,
                    cin,
                    1,
                    bi,
                    bi,
                    s(),
                ));
            }
            layers.push(dwconv(&format!("{name}_dw"), expanded, 3, bi, bo, s()));
            layers.push(conv(
                &format!("{name}_project"),
                cout,
                expanded,
                1,
                bo,
                bo,
                s(),
            ));
            cin = cout;
        }
    }
    layers.push(conv("conv_last", 1280, 320, 1, 7, 7, s()));
    layers.push(fc("fc1000", 1280, 1000, s()));
    Network::new("MobileNet-V2", layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_layer_count_matches_table1() {
        assert_eq!(mobilenet().layers().len(), 28);
    }

    #[test]
    fn v1_published_parameter_count() {
        // MobileNet v1: ~4.2M parameters.
        let total = mobilenet().total_weights();
        assert!((3_900_000..4_500_000).contains(&total), "weights {total}");
    }

    #[test]
    fn v1_published_mac_count() {
        // ~570 MMACs at 224x224.
        let m = mobilenet().total_macs();
        assert!((520_000_000..620_000_000).contains(&m), "macs {m}");
    }

    #[test]
    fn v2_published_parameter_count() {
        // MobileNet-V2: ~3.4M parameters.
        let total = mobilenet_v2().total_weights();
        assert!((3_100_000..3_800_000).contains(&total), "weights {total}");
    }

    #[test]
    fn v2_published_mac_count() {
        // ~300 MMACs at 224x224.
        let m = mobilenet_v2().total_macs();
        assert!((270_000_000..340_000_000).contains(&m), "macs {m}");
    }

    #[test]
    fn v1_alternates_dw_and_pw() {
        let n = mobilenet();
        assert!(n.layers()[1].name().ends_with("_dw"));
        assert!(n.layers()[2].name().ends_with("_pw"));
        // Depthwise layers carry tiny weight counts.
        assert!(n.layers()[1].weight_count() < n.layers()[2].weight_count());
    }
}
