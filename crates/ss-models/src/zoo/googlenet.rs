//! GoogLeNet (Szegedy et al., 2015) and its pruned variants GoogLeNet-S
//! (Yang et al.) and GoogLeNet-S2 (Park et al.).
//!
//! The network is flattened into its 57 convolution layers (stem conv1,
//! conv2-reduce, conv2, then nine inception modules of six convolutions
//! each) plus the final classifier FC, matching the 57-entry per-layer
//! width lists of the paper's Table 1.

use crate::layer::{conv, fc};
use crate::{Layer, LayerStats, Network};

/// Table 1 per-layer effective activation widths (57 conv entries; the FC
/// reuses the final entry).
#[allow(clippy::approx_constant)] // 3.14 is the paper's measured value
const ACT_W: [f64; 57] = [
    7.42, 5.14, 5.05, 4.01, 4.01, 3.03, 4.01, 3.34, 4.47, //
    4.26, 4.26, 3.86, 3.34, 5.14, 3.99, 3.96, 3.96, 4.2, //
    3.96, 2.51, 4.78, 2.27, 2.99, 3.4, 2.99, 2.7, 3.39, 5.24, //
    3.36, 3.41, 3.36, 2.66, 4.18, 4.08, 4.08, 3.01, 3.18, //
    1.67, 3.14, 2.96, 2.96, 3.04, 2.96, 1.87, 3.34, 3.99, //
    2.3, 2.11, 3.1, 2.5, 4.0, 3.85, 2.31, 1.79, 1.65, 1.33, 2.29,
];

/// Table 1 per-layer effective weight widths (57 conv entries).
const WGT_W: [f64; 57] = [
    5.58, 6.86, 6.1, 4.91, 5.68, 4.75, 3.89, 4.18, 5.12, 5.28, //
    4.39, 4.44, 4.61, 4.48, 4.32, 4.01, 5.04, 4.58, 3.03, //
    3.88, 5.01, 4.57, 3.68, 4.95, 2.87, 4.31, 4.82, 4.8, //
    4.95, 2.97, 4.34, 4.66, 4.78, 4.01, 4.96, 3.83, 4.2, //
    4.76, 3.36, 4.27, 4.15, 3.68, 4.67, 4.56, 3.31, 3.33, 3.59, //
    2.69, 3.99, 3.65, 4.05, 4.52, 2.63, 3.61, 1.91, 3.29, 4.11,
];

/// An inception module: `(1x1, 3x3 reduce, 3x3, 5x5 reduce, 5x5, pool
/// proj)` output channel counts.
struct Inception {
    name: &'static str,
    in_ch: usize,
    hw: usize,
    ch: [usize; 6],
}

/// The nine inception modules of GoogLeNet v1.
const MODULES: [Inception; 9] = [
    Inception {
        name: "3a",
        in_ch: 192,
        hw: 28,
        ch: [64, 96, 128, 16, 32, 32],
    },
    Inception {
        name: "3b",
        in_ch: 256,
        hw: 28,
        ch: [128, 128, 192, 32, 96, 64],
    },
    Inception {
        name: "4a",
        in_ch: 480,
        hw: 14,
        ch: [192, 96, 208, 16, 48, 64],
    },
    Inception {
        name: "4b",
        in_ch: 512,
        hw: 14,
        ch: [160, 112, 224, 24, 64, 64],
    },
    Inception {
        name: "4c",
        in_ch: 512,
        hw: 14,
        ch: [128, 128, 256, 24, 64, 64],
    },
    Inception {
        name: "4d",
        in_ch: 512,
        hw: 14,
        ch: [112, 144, 288, 32, 64, 64],
    },
    Inception {
        name: "4e",
        in_ch: 528,
        hw: 14,
        ch: [256, 160, 320, 32, 128, 128],
    },
    Inception {
        name: "5a",
        in_ch: 832,
        hw: 7,
        ch: [256, 160, 320, 32, 128, 128],
    },
    Inception {
        name: "5b",
        in_ch: 832,
        hw: 7,
        ch: [384, 192, 384, 48, 128, 128],
    },
];

fn layers(conv_wgt_sparsity: f64, fc_wgt_sparsity: f64) -> Vec<Layer> {
    let mut out: Vec<Layer> = Vec::with_capacity(58);
    let mut idx = 0usize;
    let mut s = |wsp: f64| {
        let i = idx.min(56);
        idx += 1;
        let act_sp = if i == 0 { 0.0 } else { 0.5 };
        LayerStats::new(ACT_W[i], WGT_W[i], act_sp, wsp)
    };

    out.push(conv(
        "conv1/7x7_s2",
        64,
        3,
        7,
        224,
        112,
        s(conv_wgt_sparsity),
    ));
    out.push(conv(
        "conv2/3x3_reduce",
        64,
        64,
        1,
        56,
        56,
        s(conv_wgt_sparsity),
    ));
    out.push(conv("conv2/3x3", 192, 64, 3, 56, 56, s(conv_wgt_sparsity)));
    for m in &MODULES {
        let n = |suffix: &str| format!("inception_{}/{}", m.name, suffix);
        out.push(conv(
            &n("1x1"),
            m.ch[0],
            m.in_ch,
            1,
            m.hw,
            m.hw,
            s(conv_wgt_sparsity),
        ));
        out.push(conv(
            &n("3x3_reduce"),
            m.ch[1],
            m.in_ch,
            1,
            m.hw,
            m.hw,
            s(conv_wgt_sparsity),
        ));
        out.push(conv(
            &n("3x3"),
            m.ch[2],
            m.ch[1],
            3,
            m.hw,
            m.hw,
            s(conv_wgt_sparsity),
        ));
        out.push(conv(
            &n("5x5_reduce"),
            m.ch[3],
            m.in_ch,
            1,
            m.hw,
            m.hw,
            s(conv_wgt_sparsity),
        ));
        out.push(conv(
            &n("5x5"),
            m.ch[4],
            m.ch[3],
            5,
            m.hw,
            m.hw,
            s(conv_wgt_sparsity),
        ));
        out.push(conv(
            &n("pool_proj"),
            m.ch[5],
            m.in_ch,
            1,
            m.hw,
            m.hw,
            s(conv_wgt_sparsity),
        ));
    }
    out.push(fc("loss3/classifier", 1024, 1000, s(fc_wgt_sparsity)));
    out
}

/// Dense GoogLeNet (int16 master): 57 convolutions + classifier FC.
#[must_use]
pub fn googlenet() -> Network {
    Network::new("GoogLeNet", layers(0.0, 0.0))
}

/// Pruned GoogLeNet-S (Yang et al. energy-aware pruning).
#[must_use]
pub fn googlenet_s() -> Network {
    Network::new("GoogLeNet-S", layers(0.4, 0.6))
}

/// Pruned GoogLeNet-S2 (Park et al. guided pruning).
#[must_use]
pub fn googlenet_s2() -> Network {
    Network::new("GoogLeNet-S2", layers(0.5, 0.65))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_count_matches_table1() {
        // 57 convolutions + 1 FC.
        assert_eq!(googlenet().layers().len(), 58);
    }

    #[test]
    fn published_parameter_count() {
        // GoogLeNet v1: ~7M parameters (6.99M including classifier).
        let total = googlenet().total_weights();
        assert!((6_500_000..7_300_000).contains(&total), "weights {total}");
    }

    #[test]
    fn published_mac_count() {
        // ~1.58 GMACs for a 224x224 forward pass (convs + fc).
        let m = googlenet().total_macs();
        assert!((1_400_000_000..1_700_000_000).contains(&m), "macs {m}");
    }

    #[test]
    fn inception_output_channels_chain() {
        // Each module's four branch outputs concatenate to the next
        // module's input channel count.
        for pair in MODULES.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let concat = a.ch[0] + a.ch[2] + a.ch[4] + a.ch[5];
            assert_eq!(
                concat, b.in_ch,
                "module {} concat {} != {} input {}",
                a.name, concat, b.name, b.in_ch
            );
        }
        // 5b concatenates to the classifier's 1024 inputs.
        let last = &MODULES[8];
        assert_eq!(last.ch[0] + last.ch[2] + last.ch[4] + last.ch[5], 1024);
    }

    #[test]
    fn pruned_variants_add_weight_sparsity_only() {
        let d = googlenet();
        let s = googlenet_s();
        assert_eq!(d.total_macs(), s.total_macs());
        assert!(s.layers()[10].stats().wgt_sparsity > 0.0);
        assert_eq!(d.layers()[10].stats().wgt_sparsity, 0.0);
    }
}
