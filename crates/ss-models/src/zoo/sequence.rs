//! Sequence models of the paper's Figure 4: Seq2Seq (WMT14 translation)
//! and LRCN (COCO captioning), plus SqueezeNet from the classification
//! set.

use crate::layer::{conv, fc, lstm};
use crate::{Layer, LayerStats, Network};

/// Seq2Seq (Sutskever et al.): 4-layer encoder + 4-layer decoder LSTM,
/// 1000 hidden units, unrolled over ~30-token WMT14 sentences, with the
/// embedding and softmax projections.
#[must_use]
pub fn seq2seq() -> Network {
    const HIDDEN: usize = 1000;
    const STEPS: usize = 30;
    const VOCAB: usize = 40_000; // truncated softmax vocabulary
    let s = LayerStats::new(4.4, 3.7, 0.3, 0.0);
    let mut layers: Vec<Layer> = vec![fc("embed", VOCAB / 10, HIDDEN, s)];
    for side in ["enc", "dec"] {
        for l in 0..4 {
            layers.push(lstm(
                &format!("{side}_lstm{}", l + 1),
                HIDDEN,
                HIDDEN,
                STEPS,
                s,
            ));
        }
    }
    layers.push(fc("softmax_proj", HIDDEN, VOCAB / 10, s));
    Network::new("Seq2Seq", layers)
}

/// LRCN (Donahue et al.): a CaffeNet-style visual front end feeding a
/// single LSTM captioner over COCO.
#[must_use]
pub fn lrcn() -> Network {
    let cs = |a: f64, w: f64, i: usize| LayerStats::new(a, w, if i == 0 { 0.0 } else { 0.5 }, 0.0);
    let ls = LayerStats::new(4.3, 3.6, 0.3, 0.0);
    Network::new(
        "LRCN",
        vec![
            conv("conv1", 96, 3, 11, 227, 55, cs(6.5, 4.2, 0)),
            conv("conv2", 256, 96, 5, 27, 27, cs(4.7, 4.5, 1)),
            conv("conv3", 384, 256, 3, 13, 13, cs(3.6, 3.6, 2)),
            conv("conv4", 384, 384, 3, 13, 13, cs(3.3, 4.4, 3)),
            conv("conv5", 256, 384, 3, 13, 13, cs(2.8, 4.5, 4)),
            fc("fc6", 256 * 6 * 6, 4096, cs(2.3, 3.5, 5)),
            fc("fc7", 4096, 4096, cs(2.6, 3.2, 6)),
            lstm("lstm", 4096, 1000, 20, ls),
            fc("predict", 1000, 8800, ls),
        ],
    )
}

/// SqueezeNet v1.0 (Iandola et al.): conv1 + 8 fire modules + conv10,
/// "AlexNet-level accuracy with 50x fewer parameters".
#[must_use]
pub fn squeezenet() -> Network {
    /// Fire module: `(squeeze 1x1, expand 1x1, expand 3x3)` channels.
    const FIRES: [(usize, usize, usize, usize, usize); 8] = [
        // (in_ch, squeeze, expand1, expand3, hw)
        (96, 16, 64, 64, 55),
        (128, 16, 64, 64, 55),
        (128, 32, 128, 128, 55),
        (256, 32, 128, 128, 27),
        (256, 48, 192, 192, 27),
        (384, 48, 192, 192, 27),
        (384, 64, 256, 256, 27),
        (512, 64, 256, 256, 13),
    ];
    let s = |i: usize| {
        let acts = [7.1, 5.2, 4.6, 4.2, 3.9, 3.7, 3.6, 3.5, 3.4, 3.6];
        let wgts = [4.5, 4.3, 4.2, 4.1, 4.0, 4.0, 3.9, 3.9, 3.8, 4.0];
        LayerStats::new(
            acts[(i / 3).min(9)],
            wgts[(i / 3).min(9)],
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
    let mut layers: Vec<Layer> = vec![conv("conv1", 96, 3, 7, 224, 109, st())];
    for (f, &(in_ch, sq, e1, e3, hw)) in FIRES.iter().enumerate() {
        let name = format!("fire{}", f + 2);
        layers.push(conv(&format!("{name}_squeeze"), sq, in_ch, 1, hw, hw, st()));
        layers.push(conv(&format!("{name}_expand1"), e1, sq, 1, hw, hw, st()));
        layers.push(conv(&format!("{name}_expand3"), e3, sq, 3, hw, hw, st()));
    }
    layers.push(conv("conv10", 1000, 512, 1, 13, 13, st()));
    Network::new("SqueezeNet", layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq2seq_is_lstm_dominated() {
        let n = seq2seq();
        assert_eq!(n.layers().len(), 10);
        // 8 LSTM layers x 4 x 1000 x 2000 = 64M LSTM weights.
        assert!(n.total_weights() > 64_000_000);
        let macs_per_weight = n.total_macs() as f64 / n.total_weights() as f64;
        assert!(macs_per_weight < 31.0, "{macs_per_weight}");
    }

    #[test]
    fn lrcn_mixes_conv_and_lstm() {
        let n = lrcn();
        use crate::LayerKind;
        assert!(n
            .layers()
            .iter()
            .any(|l| matches!(l.kind(), LayerKind::Conv { .. })));
        assert!(n
            .layers()
            .iter()
            .any(|l| matches!(l.kind(), LayerKind::Lstm { .. })));
        // The 4096-input LSTM holds 4*1000*(4096+1000) ~ 20.4M weights.
        assert_eq!(n.layers()[7].weight_count(), 4 * 1000 * 5096);
    }

    #[test]
    fn squeezenet_published_parameter_count() {
        // ~1.25M parameters — the model's claim to fame.
        let total = squeezenet().total_weights();
        assert!((1_100_000..1_400_000).contains(&total), "weights {total}");
        assert_eq!(squeezenet().layers().len(), 1 + 8 * 3 + 1);
    }

    #[test]
    fn squeezenet_published_mac_count() {
        // ~0.85 GMACs at 224x224.
        let m = squeezenet().total_macs();
        assert!((700_000_000..1_000_000_000).contains(&m), "macs {m}");
    }
}
