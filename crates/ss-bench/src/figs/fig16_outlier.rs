//! Figure 16: ShapeShifter compression on outlier-aware quantized models
//! (Park et al.) vs the outlier-aware storage formats, relative to
//! storing everything at 16 bits.
//!
//! ResNet50 is quantized with 4b common values, MobileNet-V2 with 5b,
//! both with 1% 16b outliers — the paper's accuracy-preserving settings.

use std::io::{self, Write};

use ss_core::scheme::{
    outlier_aware_bits, outlier_aware_zs_bits, CompressionScheme, SchemeCtx, ShapeShifterScheme,
};
use ss_models::Network;
use ss_quant::OutlierAwareQuantizer;
use ss_sim::sim::MODEL_SEED;

use crate::{header, row, scaled};

/// The paper's outlier fraction.
pub const OUTLIER_FRACTION: f64 = 0.01;

/// Traffic ratios (vs 16b uncompressed) for one model's weights and
/// activations under the three schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierRatios {
    /// Outlier-aware storage, weights / activations.
    pub oa: (f64, f64),
    /// Outlier-aware with zero skipping.
    pub oa_zs: (f64, f64),
    /// ShapeShifter on the outlier-quantized tensors.
    pub ss: (f64, f64),
}

/// Measures one network quantized at `common_bits`.
#[must_use]
pub fn measure(net: &Network, common_bits: u8, seed: u64) -> OutlierRatios {
    let q = OutlierAwareQuantizer::new(common_bits, OUTLIER_FRACTION)
        .expect("paper parameters are valid");
    let ss = ShapeShifterScheme::default();
    let ctx = SchemeCtx::unprofiled();
    let mut oa = (0u64, 0u64);
    let mut oa_zs = (0u64, 0u64);
    let mut ss_bits = (0u64, 0u64);
    let mut base = (0u64, 0u64);
    for i in 0..net.layers().len() {
        let w = q.quantize(&net.weight_tensor(i, MODEL_SEED)).unwrap();
        oa.0 += outlier_aware_bits(&w);
        oa_zs.0 += outlier_aware_zs_bits(&w);
        ss_bits.0 += ss.compressed_bits(w.tensor(), &ctx);
        base.0 += w.tensor().container_bits();

        let a = q.quantize(&net.input_tensor(i, seed)).unwrap();
        oa.1 += outlier_aware_bits(&a);
        oa_zs.1 += outlier_aware_zs_bits(&a);
        ss_bits.1 += ss.compressed_bits(a.tensor(), &ctx);
        base.1 += a.tensor().container_bits();
    }
    let r = |x: u64, b: u64| x as f64 / b.max(1) as f64;
    OutlierRatios {
        oa: (r(oa.0, base.0), r(oa.1, base.1)),
        oa_zs: (r(oa_zs.0, base.0), r(oa_zs.1, base.1)),
        ss: (r(ss_bits.0, base.0), r(ss_bits.1, base.1)),
    }
}

/// Runs the figure.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 16: outlier-aware quantized models, traffic vs 16b (lower is better)\n"
    )?;
    writeln!(
        out,
        "{}",
        header("model/tensor", &["OutlierAw", "OA-ZS", "SShifter"])
    )?;
    for (net, bits) in [
        (scaled(ss_models::zoo::resnet50_s()), 4u8),
        (scaled(ss_models::zoo::mobilenet_v2()), 5u8),
    ] {
        let m = measure(&net, bits, 1);
        writeln!(
            out,
            "{}",
            row(
                &format!("{} wgts ({bits}b)", net.name()),
                &[m.oa.0, m.oa_zs.0, m.ss.0]
            )
        )?;
        writeln!(
            out,
            "{}",
            row(
                &format!("{} acts ({bits}b)", net.name()),
                &[m.oa.1, m.oa_zs.1, m.ss.1]
            )
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapeshifter_beats_plain_outlier_aware() {
        // §5.4: "ShapeShifter compression outperforms the Outlier-Aware
        // scheme" and boosts compression further on the common values.
        let net = ss_models::zoo::mobilenet_v2().scaled_down(4);
        let m = measure(&net, 5, 1);
        assert!(m.ss.0 < m.oa.0, "weights: SS {} vs OA {}", m.ss.0, m.oa.0);
        assert!(m.ss.1 < m.oa.1, "acts: SS {} vs OA {}", m.ss.1, m.oa.1);
        // Everything is far below the 16b baseline.
        assert!(m.ss.0 < 0.5);
        assert!(m.oa.0 < 0.5);
    }
}
