//! Figure 8a: relative off-chip traffic under Base / Profile /
//! ShapeShifter / Zero compression for the profiled networks
//! (16b, TF-8b and RA-8b suites).

use std::io::{self, Write};

use ss_core::scheme::{Base, CompressionScheme, ProfileScheme, ShapeShifterScheme, ZeroRle};
use ss_sim::TensorSource;

use crate::suites::{index_overhead_probe, suite_16b, suite_ra8, suite_tf8, traffic_totals};
use crate::{geomean, header, row};

/// Relative traffic (vs Base) for one model under Profile / ShapeShifter /
/// ZeroRle.
#[must_use]
pub fn relative_traffic(model: &(dyn TensorSource + Sync), seed: u64, profiled: bool) -> [f64; 3] {
    let run_bits = if model.act_dtype().bits() <= 8 { 4 } else { 5 };
    let zero_rle = ZeroRle::new(run_bits);
    let ss = ShapeShifterScheme::default();
    let schemes: Vec<&dyn CompressionScheme> = vec![&Base, &ProfileScheme, &ss, &zero_rle];
    let t = traffic_totals(model, &schemes, seed, profiled);
    let base = t[0].max(1) as f64;
    [t[1] as f64 / base, t[2] as f64 / base, t[3] as f64 / base]
}

fn section(
    out: &mut impl Write,
    title: &str,
    models: &[&(dyn TensorSource + Sync)],
    seed: u64,
) -> io::Result<()> {
    writeln!(out, "## {title}")?;
    writeln!(
        out,
        "{}",
        header("model", &["Profile", "SShifter", "ZeroCmp"])
    )?;
    let mut cols: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    for m in models {
        let r = relative_traffic(*m, seed, true);
        writeln!(out, "{}", row(m.name(), &r))?;
        for (c, v) in cols.iter_mut().zip(r) {
            c.push(v);
        }
    }
    writeln!(
        out,
        "{}",
        row(
            "geomean",
            &[geomean(&cols[0]), geomean(&cols[1]), geomean(&cols[2])]
        )
    )?;
    writeln!(out)
}

/// Runs the figure.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 8a: relative off-chip traffic, profiled networks (Base = 1.0)\n"
    )?;
    let n16 = suite_16b();
    let refs16: Vec<&(dyn TensorSource + Sync)> = n16
        .iter()
        .map(|n| n as &(dyn TensorSource + Sync))
        .collect();
    section(out, "16b models", &refs16, 1)?;
    let tf8 = suite_tf8();
    let refs_tf: Vec<&(dyn TensorSource + Sync)> = tf8
        .iter()
        .map(|n| n as &(dyn TensorSource + Sync))
        .collect();
    section(out, "8b TensorFlow quantized", &refs_tf, 1)?;
    let ra8 = suite_ra8();
    let refs_ra: Vec<&(dyn TensorSource + Sync)> = ra8
        .iter()
        .map(|n| n as &(dyn TensorSource + Sync))
        .collect();
    section(out, "8b Range-Aware quantized", &refs_ra, 1)?;

    // Container-v2 footnote: the chunk index that enables parallel decode
    // is metadata *outside* the stream bits counted above. Probe it on
    // each 16b model's largest weight tensor (round-tripped through the
    // `SS_THREADS`-aware decode path) so the overhead is on record next
    // to the traffic it rides along with.
    writeln!(
        out,
        "## Container-v2 chunk-index overhead (largest weight tensor; not in the columns above)"
    )?;
    for m in &refs16 {
        let (layer, chunks, bits, per_value) = index_overhead_probe(*m);
        writeln!(
            out,
            "{:<24} {layer:<10} {chunks:>3} chunks {bits:>6} bits  {per_value:.6} bits/value",
            m.name()
        )?;
    }
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapeshifter_wins_on_16b_and_ra_but_not_much_on_tf() {
        let base16 = ss_models::zoo::alexnet().scaled_down(8);
        let [_, ss16, zc16] = relative_traffic(&base16, 1, true);
        assert!(ss16 < 0.55, "16b ShapeShifter traffic {ss16}");
        assert!(
            ss16 < zc16,
            "ShapeShifter {ss16} must beat zero compression {zc16}"
        );

        let tf = ss_quant::QuantizedNetwork::new(
            ss_models::zoo::alexnet_s().scaled_down(8),
            ss_quant::QuantMethod::Tensorflow,
        );
        let [_, ss_tf, _] = relative_traffic(&tf, 1, true);
        let ra = ss_quant::QuantizedNetwork::new(
            ss_models::zoo::alexnet_s().scaled_down(8),
            ss_quant::QuantMethod::RangeAware,
        );
        let [_, ss_ra, _] = relative_traffic(&ra, 1, true);
        // The quantizer comparison: RA leaves far more for ShapeShifter.
        assert!(
            ss_ra + 0.15 < ss_tf,
            "RA {ss_ra} should compress much better than TF {ss_tf}"
        );
    }
}
