//! Scenario: how the quantizer choice changes what ShapeShifter can do —
//! the paper's Figure 3 / Figure 16 story on one model.
//!
//! Quantizes GoogLeNet-S to 8 bits with TensorFlow-style affine and with
//! range-aware scaling, shows the stored-width expansion the former
//! causes, then applies outlier-aware quantization and compares its
//! native storage formats against ShapeShifter.
//!
//! Run with `cargo run --release --example quantization_study`.

use shapeshifter::core::scheme::{outlier_aware_bits, outlier_aware_zs_bits};
use shapeshifter::prelude::*;
use shapeshifter::quant::OutlierAwareQuantizer;
use shapeshifter::sim::sim::MODEL_SEED;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = zoo::googlenet_s();
    let layer = base.layers().len() / 2;
    println!(
        "GoogLeNet-S, layer {} ({}):\n",
        layer,
        base.layers()[layer].name()
    );

    // --- TF vs RA: the Figure 3 expansion. ---
    let tf = QuantizedNetwork::new(base.clone(), QuantMethod::Tensorflow);
    let ra = QuantizedNetwork::new(base.clone(), QuantMethod::RangeAware);
    let ss = ShapeShifterScheme::default();
    let ctx = SchemeCtx::unprofiled();
    for (q, name) in [(&tf, "TensorFlow"), (&ra, "Range-Aware")] {
        let acts = q.input_tensor(layer, 1);
        println!(
            "{name:>12} 8b acts: effective width {:.2}b, zeros {:>5.1}%, \
             ShapeShifter ratio {:.1}%",
            acts.effective_width(16),
            acts.sparsity() * 100.0,
            ss.ratio(&acts, &ctx) * 100.0
        );
    }
    println!(
        "\nThe affine quantizer's non-zero zero-point stores every near-zero value\n\
         as ~51, so groups need 6+ bits; range-aware scaling keeps zero at zero.\n"
    );

    // --- Outlier-aware quantization: the Figure 16 comparison. ---
    let q = OutlierAwareQuantizer::new(4, 0.01)?; // 4b common, 1% outliers
    let w16 = base.weight_tensor(layer, MODEL_SEED);
    let oq = q.quantize(&w16)?;
    let base_bits = oq.tensor().container_bits();
    println!(
        "Outlier-aware 4b weights ({} outliers of {} values):",
        oq.outlier_count(),
        oq.tensor().len()
    );
    let pct = |b: u64| 100.0 * b as f64 / base_bits as f64;
    println!(
        "  Outlier-Aware store: {:>5.1}% of 16b",
        pct(outlier_aware_bits(&oq))
    );
    println!(
        "  Outlier-Aware + ZS:  {:>5.1}%",
        pct(outlier_aware_zs_bits(&oq))
    );
    println!(
        "  ShapeShifter:        {:>5.1}% (no specialization for this quantizer)",
        pct(ss.compressed_bits(oq.tensor(), &ctx))
    );
    Ok(())
}
