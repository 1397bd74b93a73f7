//! VGG_M and VGG_S (Chatfield et al., "Return of the Devil in the
//! Details", 2014): the medium and slow CNN-M/CNN-S configurations.

use crate::layer::{conv, fc};
use crate::{LayerStats, Network};

const VGG_M_ACT_W: [f64; 8] = [6.37, 3.67, 2.51, 2.25, 2.63, 1.94, 2.39, 2.32];
const VGG_M_WGT_W: [f64; 8] = [4.57, 3.91, 4.31, 3.99, 3.98, 3.79, 2.0, 3.17];
const VGG_S_ACT_W: [f64; 8] = [5.39, 3.71, 3.67, 2.25, 2.44, 1.52, 2.43, 3.06];
const VGG_S_WGT_W: [f64; 8] = [4.63, 3.64, 5.28, 3.94, 3.93, 3.12, 2.94, 3.61];

const ACT_SP: [f64; 8] = [0.0, 0.5, 0.6, 0.6, 0.6, 0.6, 0.7, 0.7];

/// VGG_M (CNN-M): 5 convolutional + 3 fully-connected layers,
/// ~102M parameters.
#[must_use]
pub fn vgg_m() -> Network {
    let s = |i: usize| LayerStats::new(VGG_M_ACT_W[i], VGG_M_WGT_W[i], ACT_SP[i], 0.0);
    Network::new(
        "VGG_M",
        vec![
            conv("conv1", 96, 3, 7, 224, 109, s(0)),
            conv("conv2", 256, 96, 5, 54, 26, s(1)),
            conv("conv3", 512, 256, 3, 13, 13, s(2)),
            conv("conv4", 512, 512, 3, 13, 13, s(3)),
            conv("conv5", 512, 512, 3, 13, 13, s(4)),
            fc("fc6", 512 * 6 * 6, 4096, s(5)),
            fc("fc7", 4096, 4096, s(6)),
            fc("fc8", 4096, 1000, s(7)),
        ],
    )
}

/// VGG_S (CNN-S): stride-1 conv2 at a larger spatial size.
#[must_use]
pub fn vgg_s() -> Network {
    let s = |i: usize| LayerStats::new(VGG_S_ACT_W[i], VGG_S_WGT_W[i], ACT_SP[i], 0.0);
    Network::new(
        "VGG_S",
        vec![
            conv("conv1", 96, 3, 7, 224, 109, s(0)),
            conv("conv2", 256, 96, 5, 36, 32, s(1)),
            conv("conv3", 512, 256, 3, 16, 16, s(2)),
            conv("conv4", 512, 512, 3, 16, 16, s(3)),
            conv("conv5", 512, 512, 3, 16, 16, s(4)),
            fc("fc6", 512 * 6 * 6, 4096, s(5)),
            fc("fc7", 4096, 4096, s(6)),
            fc("fc8", 4096, 1000, s(7)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg_m_parameter_count() {
        // CNN-M: ~102M parameters, fc6 = 75.5M of them.
        let n = vgg_m();
        assert_eq!(n.layers()[5].weight_count(), 18432 * 4096);
        let total = n.total_weights();
        assert!(
            (98_000_000..106_000_000).contains(&total),
            "weights {total}"
        );
    }

    #[test]
    fn vgg_s_has_more_conv_macs_than_vgg_m() {
        // CNN-S trades stride for compute: conv2 runs at 32x32 not 26x26.
        let conv_macs = |n: &Network| -> u64 { n.layers()[..5].iter().map(|l| l.macs()).sum() };
        assert!(conv_macs(&vgg_s()) > conv_macs(&vgg_m()));
    }

    #[test]
    fn both_are_fc_heavy() {
        for n in [vgg_m(), vgg_s()] {
            let fc_weights: u64 = n.layers()[5..]
                .iter()
                .map(|l| l.weight_count() as u64)
                .sum();
            assert!(
                fc_weights * 10 > n.total_weights() * 9,
                "{}: FCs should hold >90% of weights",
                n.name()
            );
        }
    }
}
