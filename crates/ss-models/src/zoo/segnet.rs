//! SegNet (Badrinarayanan et al.): VGG16 encoder plus a mirrored decoder,
//! semantic segmentation over 360x480 CamVid frames.
//!
//! SegNet is a Range-Aware-quantized 8-bit model in the paper and is the
//! canonical *compute-bound* network of the evaluation ("SegNet is mainly
//! compute-bound; therefore, memory compression offers little benefit",
//! §5.1.1). Width targets are representative — SegNet is not in Table 1.

use crate::layer::conv_rect;
use crate::{Layer, LayerStats, Network};

/// Encoder stages: `(channels, conv count, in_hw)`; each stage ends in a
/// 2x2 max-pool.
const ENC: [(usize, usize, (usize, usize)); 5] = [
    (64, 2, (360, 480)),
    (128, 2, (180, 240)),
    (256, 3, (90, 120)),
    (512, 3, (45, 60)),
    (512, 3, (22, 30)),
];

/// SegNet over 360x480 inputs: 13 encoder + 13 decoder convolutions.
#[must_use]
pub fn segnet() -> Network {
    let mut layers: Vec<Layer> = Vec::with_capacity(26);
    let mut idx = 0;
    let mut stats = || {
        // Representative targets: segmentation activations are mid-width;
        // VGG-style weights sit near 4-5 effective bits.
        let acts = [6.5, 5.8, 5.2, 4.8, 4.4, 4.2, 4.6, 5.0, 5.4, 5.8];
        let wgts = [4.8, 4.5, 4.3, 4.2, 4.1, 4.1, 4.2, 4.3, 4.5, 4.7];
        let i: usize = idx;
        idx += 1;
        LayerStats::new(
            acts[(i / 3).min(9)],
            wgts[(i / 3).min(9)],
            if i == 0 { 0.0 } else { 0.5 },
            0.0,
        )
    };

    let mut in_ch = 3usize;
    for (stage, &(ch, count, hw)) in ENC.iter().enumerate() {
        for c in 0..count {
            layers.push(conv_rect(
                &format!("conv{}_{}", stage + 1, c + 1),
                ch,
                in_ch,
                3,
                hw,
                hw,
                stats(),
            ));
            in_ch = ch;
        }
    }
    // Decoder mirrors the encoder, upsampling stage by stage.
    for (stage, &(ch, count, hw)) in ENC.iter().enumerate().rev() {
        // The decoder's final conv of each stage transitions to the next
        // (shallower) stage's channel count; the last emits class scores.
        let next_ch = if stage == 0 { 12 } else { ENC[stage - 1].0 };
        for c in 0..count {
            let out_ch = if c + 1 == count { next_ch } else { ch };
            layers.push(conv_rect(
                &format!("deconv{}_{}", stage + 1, c + 1),
                out_ch,
                in_ch,
                3,
                hw,
                hw,
                stats(),
            ));
            in_ch = out_ch;
        }
    }
    Network::new("SegNet", layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    #[test]
    fn layer_count() {
        assert_eq!(segnet().layers().len(), 26);
    }

    #[test]
    fn published_parameter_count() {
        // SegNet: ~29.5M parameters (VGG16 convs doubled, no FCs).
        let total = segnet().total_weights();
        assert!((28_000_000..31_000_000).contains(&total), "weights {total}");
    }

    #[test]
    fn is_compute_bound_shaped() {
        // No FC layers at all; MACs per weight is huge compared with
        // classification networks (the compute-bound signature).
        let n = segnet();
        assert!(n
            .layers()
            .iter()
            .all(|l| matches!(l.kind(), LayerKind::Conv { .. })));
        let macs_per_weight = n.total_macs() / n.total_weights();
        assert!(macs_per_weight > 1000, "macs/weight {macs_per_weight}");
    }

    #[test]
    fn decoder_ends_in_class_scores() {
        let n = segnet();
        let last = n.layers().last().unwrap();
        // 12 CamVid classes, at full 360x480 resolution.
        assert_eq!(last.output_count(), 12 * 360 * 480);
    }
}
