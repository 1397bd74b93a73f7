//! YOLOv2 (Redmon & Farhadi, 2016): Darknet-19 backbone plus the
//! detection head, 22 convolutions at 416x416 input, matching the
//! 22-entry width lists of the paper's Table 1.

use crate::layer::conv;
use crate::{Layer, LayerStats, Network};

const ACT_W: [f64; 22] = [
    4.99, 6.03, 5.29, 5.19, 4.19, 6.36, 4.3, 5.18, 2.66, //
    4.32, 4.17, 5.29, 4.16, 3.35, 4.3, 4.87, 4.29, 4.87, //
    3.98, 4.85, 3.09, 4.29,
];

const WGT_W: [f64; 22] = [
    8.0, 6.97, 7.0, 7.8, 6.71, 5.97, 5.98, 4.98, 6.7, 5.83, //
    5.74, 6.81, 6.7, 3.99, 5.98, 4.98, 4.98, 4.98, 4.79, //
    6.7, 4.79, 4.89,
];

/// `(out_ch, in_ch, kernel, in_hw, out_hw)` for each convolution.
const GEOM: [(usize, usize, usize, usize, usize); 22] = [
    (32, 3, 3, 416, 416),    // conv1
    (64, 32, 3, 208, 208),   // conv2 (after pool)
    (128, 64, 3, 104, 104),  // conv3
    (64, 128, 1, 104, 104),  // conv4
    (128, 64, 3, 104, 104),  // conv5
    (256, 128, 3, 52, 52),   // conv6
    (128, 256, 1, 52, 52),   // conv7
    (256, 128, 3, 52, 52),   // conv8
    (512, 256, 3, 26, 26),   // conv9
    (256, 512, 1, 26, 26),   // conv10
    (512, 256, 3, 26, 26),   // conv11
    (256, 512, 1, 26, 26),   // conv12
    (512, 256, 3, 26, 26),   // conv13
    (1024, 512, 3, 13, 13),  // conv14
    (512, 1024, 1, 13, 13),  // conv15
    (1024, 512, 3, 13, 13),  // conv16
    (512, 1024, 1, 13, 13),  // conv17
    (1024, 512, 3, 13, 13),  // conv18
    (1024, 1024, 3, 13, 13), // conv19 (detection stack)
    (1024, 1024, 3, 13, 13), // conv20
    (1024, 1280, 3, 13, 13), // conv21 (after passthrough concat)
    (425, 1024, 1, 13, 13),  // conv22: 5 anchors x (5 + 80 classes)
];

/// YOLOv2 over a 416x416 input (int16 master).
#[must_use]
pub fn yolo() -> Network {
    let layers: Vec<Layer> = GEOM
        .iter()
        .enumerate()
        .map(|(i, &(oc, ic, k, ihw, ohw))| {
            let act_sp = if i == 0 { 0.0 } else { 0.45 };
            conv(
                &format!("conv{}", i + 1),
                oc,
                ic,
                k,
                ihw,
                ohw,
                LayerStats::new(ACT_W[i], WGT_W[i], act_sp, 0.0),
            )
        })
        .collect();
    Network::new("YOLOv2", layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_count_matches_table1() {
        assert_eq!(yolo().layers().len(), 22);
    }

    #[test]
    fn published_parameter_count() {
        // YOLOv2: ~50M parameters.
        let total = yolo().total_weights();
        assert!((45_000_000..55_000_000).contains(&total), "weights {total}");
    }

    #[test]
    fn published_mac_count() {
        // ~14-15 GMACs at 416x416 (the published ~29.5 GFLOPs / 2).
        let m = yolo().total_macs();
        assert!((13_000_000_000..16_500_000_000).contains(&m), "macs {m}");
    }

    #[test]
    fn weight_widths_include_the_full_8b_layer() {
        // Table 1 shows conv1 weights need 8 bits even per group — the
        // first layer of YOLO resists width reduction (3.8% reduction).
        assert_eq!(WGT_W[0], 8.0);
    }
}
