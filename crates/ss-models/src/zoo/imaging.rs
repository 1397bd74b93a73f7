//! Computational-imaging and dense-prediction networks of the paper's
//! Figure 4: FCN8 (segmentation), VDSR (super-resolution) and IRCNN
//! (denoising).
//!
//! These are the canonical "non-profiled" workloads (§6: per-pixel
//! prediction "process raw sensor data of 12b or more"), so their width
//! targets are wider than the classification networks'.

use crate::layer::{conv, conv_rect};
use crate::{Layer, LayerStats, Network};

/// FCN-8s (Shelhamer et al.): VGG16 backbone + score/upsample head over
/// PASCAL VOC 500x500-class inputs (modeled at 384x384 for even pooling).
#[must_use]
pub fn fcn8() -> Network {
    let s = |i: usize| {
        let acts = [6.8, 5.6, 4.9, 4.4, 4.1, 3.9, 4.2];
        let wgts = [4.7, 4.4, 4.2, 4.1, 4.0, 3.9, 4.0];
        LayerStats::new(
            acts[(i / 3).min(6)],
            wgts[(i / 3).min(6)],
            if i == 0 { 0.0 } else { 0.5 },
            0.0,
        )
    };
    let mut idx = 0usize;
    let mut st = || {
        let v = s(idx);
        idx += 1;
        v
    };
    // VGG16 stages at 384 -> 192 -> 96 -> 48 -> 24 -> 12.
    let stages: [(usize, usize, usize); 5] = [
        (64, 2, 384),
        (128, 2, 192),
        (256, 3, 96),
        (512, 3, 48),
        (512, 3, 24),
    ];
    let mut layers: Vec<Layer> = Vec::new();
    let mut in_ch = 3usize;
    for (stage, &(ch, count, hw)) in stages.iter().enumerate() {
        for c in 0..count {
            layers.push(conv(
                &format!("conv{}_{}", stage + 1, c + 1),
                ch,
                in_ch,
                3,
                hw,
                hw,
                st(),
            ));
            in_ch = ch;
        }
    }
    // fc6/fc7 convolutionalized at 12x12, then the class score head.
    layers.push(conv("fc6_conv", 4096, 512, 7, 12, 12, st()));
    layers.push(conv("fc7_conv", 4096, 4096, 1, 12, 12, st()));
    layers.push(conv("score", 21, 4096, 1, 12, 12, st()));
    Network::new("FCN8", layers)
}

/// VDSR (Kim et al. style, used by Li & Wang for video SR): 20 identical
/// 3x3x64 convolutions at full 256x256 resolution.
#[must_use]
pub fn vdsr() -> Network {
    let mut layers: Vec<Layer> = Vec::new();
    for i in 0..20 {
        let (oc, ic) = match i {
            0 => (64, 1),
            19 => (1, 64),
            _ => (64, 64),
        };
        // Residual-learning networks keep wide activations: raw sensor
        // data needs 12b+ (paper §6), so widths stay high.
        let stats = LayerStats::new(
            if i == 0 { 8.2 } else { 7.0 },
            4.5,
            if i == 0 { 0.0 } else { 0.45 },
            0.0,
        );
        layers.push(conv(&format!("conv{}", i + 1), oc, ic, 3, 256, 256, stats));
    }
    Network::new("VDSR", layers)
}

/// IRCNN (Zhang et al.): 7-layer dilated-convolution denoiser at
/// 256x256 (dilation changes receptive field, not MAC/weight counts of
/// the 3x3 kernels).
#[must_use]
pub fn ircnn() -> Network {
    let chans = [
        (64, 1),
        (64, 64),
        (64, 64),
        (64, 64),
        (64, 64),
        (64, 64),
        (1, 64),
    ];
    let layers = chans
        .iter()
        .enumerate()
        .map(|(i, &(oc, ic))| {
            let stats = LayerStats::new(
                if i == 0 { 8.5 } else { 6.8 },
                4.4,
                if i == 0 { 0.0 } else { 0.45 },
                0.0,
            );
            conv_rect(
                &format!("dconv{}", i + 1),
                oc,
                ic,
                3,
                (256, 256),
                (256, 256),
                stats,
            )
        })
        .collect();
    Network::new("IRCNN", layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    #[test]
    fn fcn8_geometry() {
        let n = fcn8();
        assert_eq!(n.layers().len(), 16);
        // fc6_conv dominates: 4096 x 512 x 7 x 7 = 102.8M weights.
        let fc6 = &n.layers()[13];
        assert_eq!(fc6.weight_count(), 4096 * 512 * 49);
        assert!(n.total_weights() > 130_000_000);
    }

    #[test]
    fn vdsr_is_uniform_and_compute_heavy() {
        let n = vdsr();
        assert_eq!(n.layers().len(), 20);
        // ~0.66M weights but ~2.4 GMACs: extreme MACs/weight.
        assert!(n.total_weights() < 1_000_000);
        assert!(n.total_macs() > 2_000_000_000);
        assert!(n
            .layers()
            .iter()
            .all(|l| matches!(l.kind(), LayerKind::Conv { .. })));
    }

    #[test]
    fn ircnn_in_out_channels_chain() {
        let n = ircnn();
        assert_eq!(n.layers().len(), 7);
        for pair in n.layers().windows(2) {
            let out_ch = match *pair[0].kind() {
                LayerKind::Conv { out_ch, .. } => out_ch,
                _ => unreachable!(),
            };
            let in_ch = match *pair[1].kind() {
                LayerKind::Conv { in_ch, .. } => in_ch,
                _ => unreachable!(),
            };
            assert_eq!(out_ch, in_ch);
        }
    }

    #[test]
    fn imaging_widths_are_wide() {
        // The §6 claim: per-pixel prediction needs wide activations, so
        // these nets resist per-layer quantization but still leave
        // per-group opportunity.
        for n in [vdsr(), ircnn()] {
            assert!(n.layers()[0].stats().act_width > 8.0, "{}", n.name());
        }
    }
}
