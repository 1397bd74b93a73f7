//! Extension: off-chip traffic across **registry schemes × quantizers**
//! — the pricing companion to the scheme plug-in registry.
//!
//! Figure 8a fixes the scheme (ShapeShifter) and varies the quantizer;
//! this study opens the other axis. Every container scheme the registry
//! ships — ShapeShifter (wire id 0), DPRed (id 2) and AdaBits (id 3) —
//! is priced over the same three suites (16b masters, TF-8b, RA-8b), so
//! the interaction is on record:
//!
//! * **DPRed** keeps the per-group prefix but stores *every* value at
//!   the group width (no zero elision, no zero bitmap). On dense
//!   weights it is strictly cheaper than ShapeShifter by the bitmap
//!   bit per value; on sparse activations elision pays the bitmap back
//!   many times over — so the winner flips with the weight/activation
//!   mix of each suite.
//! * **AdaBits** adds a sign plane and MSB-first bit-planes. Its
//!   full-width streams price close to DPRed; its payoff is the
//!   *prefix property*, priced in the serving-width section below: one
//!   stored stream serves every narrower width by truncation.
//!
//! The serving-width section couples the scheme to the
//! [`ss_quant::AdaBitsFamily`] quantizer: one profiling run, one widest
//! stream, and each narrower variant priced both as its own re-encoded
//! stream and as a truncated prefix of the widest — the two must agree
//! on the trend (monotone in width) for the coupling to be honest.

use std::io::{self, Write};

use ss_core::scheme::{AdaBitsScheme, Base, CompressionScheme, DpRed, ShapeShifterScheme};
use ss_quant::AdaBitsFamily;
use ss_sim::TensorSource;

use crate::suites::{suite_16b, suite_ra8, suite_tf8, traffic_totals};
use crate::{geomean, header, row};

/// Serving widths the AdaBits family section prices (ascending).
pub const SERVING_WIDTHS: [u8; 3] = [4, 6, 8];

/// Relative traffic (vs Base) for one model under ShapeShifter / DPRed /
/// AdaBits — the three registry schemes that price from raw tensors.
#[must_use]
pub fn scheme_traffic(model: &(dyn TensorSource + Sync), seed: u64) -> [f64; 3] {
    let ss = ShapeShifterScheme::default();
    let dpred = DpRed::new(16);
    let adabits = AdaBitsScheme::new(16);
    let schemes: Vec<&dyn CompressionScheme> = vec![&Base, &ss, &dpred, &adabits];
    let t = traffic_totals(model, &schemes, seed, true);
    let base = t[0].max(1) as f64;
    [t[1] as f64 / base, t[2] as f64 / base, t[3] as f64 / base]
}

/// Per-width AdaBits serving traffic for one family, relative to the
/// Base traffic of the **widest** variant: `(width, re-encoded,
/// truncated-prefix)` rows, ascending in width.
///
/// "Re-encoded" prices each variant's own tensors through the AdaBits
/// scheme; "truncated" prices the widest variant's stored stream cut to
/// the serving width via [`AdaBitsScheme::truncated_bits`] — what a
/// deployment that stores one stream actually ships.
#[must_use]
pub fn serving_width_traffic(family: &AdaBitsFamily, seed: u64) -> Vec<(u8, f64, f64)> {
    let scheme = AdaBitsScheme::new(16);
    let widest = family
        .variant(family.max_width())
        .expect("family always contains its max width");
    let base_schemes: Vec<&dyn CompressionScheme> = vec![&Base];
    let base = traffic_totals(&widest, &base_schemes, seed, true)[0].max(1) as f64;

    family
        .variants()
        .iter()
        .map(|v| {
            let schemes: Vec<&dyn CompressionScheme> = vec![&scheme];
            let own = traffic_totals(v, &schemes, seed, true)[0] as f64;
            // Truncated-prefix pricing: every operand of the widest
            // variant, cut to this serving width.
            let mut truncated = 0u64;
            let layers = family.base().layers().len();
            for i in 0..layers {
                truncated += scheme.truncated_bits(&widest.weight_tensor(i, seed), v.width());
                truncated += scheme.truncated_bits(&widest.input_tensor(i, seed), v.width());
                truncated += scheme.truncated_bits(&widest.output_tensor(i, seed), v.width());
            }
            (v.width(), own / base, truncated as f64 / base)
        })
        .collect()
}

/// The AdaBits family the serving-width section prices: one small zoo
/// network, profiled once, served at [`SERVING_WIDTHS`].
#[must_use]
pub fn serving_family() -> AdaBitsFamily {
    AdaBitsFamily::new(crate::scaled(ss_models::zoo::alexnet_s()), &SERVING_WIDTHS)
        .expect("serving widths are within ADABITS_WIDTH_RANGE")
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
        header("model", &["SShifter", "DPRed", "AdaBits"])
    )?;
    let mut cols: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    for m in models {
        let r = scheme_traffic(*m, seed);
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

/// Runs the extension study.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Extension: relative off-chip traffic, registry schemes x quantizers (Base = 1.0)\n"
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

    writeln!(
        out,
        "## AdaBits serving widths ({}; traffic vs widest variant's Base)",
        serving_family().base().name()
    )?;
    writeln!(out, "{}", header("width", &["re-encoded", "truncated"]))?;
    let family = serving_family();
    for (w, own, trunc) in serving_width_traffic(&family, 1) {
        writeln!(out, "{}", row(&format!("AdaBits-{w}b"), &[own, trunc]))?;
    }
    writeln!(
        out,
        "\n(One stored stream serves every narrower width: \"truncated\" is the\n\
         widest stream cut at the serving width — no re-encode, no second\n\
         profiling run.)"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_scheme_beats_base_on_a_16b_master() {
        let m = crate::scaled(ss_models::zoo::alexnet());
        let [ss, dpred, adabits] = scheme_traffic(&m, 1);
        assert!(ss < 1.0, "ShapeShifter {ss} must beat Base");
        assert!(dpred < 1.0, "DPRed {dpred} must beat Base");
        assert!(adabits < 1.0, "AdaBits {adabits} must beat Base");
    }

    #[test]
    fn dpred_and_shapeshifter_cross_over_on_sparsity() {
        // Dense data: ShapeShifter's zero bitmap is pure overhead and
        // DPRed wins by exactly that bit per value. Sparse data: zero
        // elision pays the bitmap back many times over.
        use ss_core::scheme::{DpRed, SchemeCtx, ShapeShifterScheme};
        use ss_tensor::{FixedType, Shape, Tensor};
        let ctx = SchemeCtx::unprofiled();
        let dpred = DpRed::new(16);
        let ss = ShapeShifterScheme::default();
        let n = 4096usize;
        let dense: Vec<i32> = (0..n).map(|i| (i % 200 + 1) as i32).collect();
        let dense = Tensor::from_vec(Shape::flat(n), FixedType::I16, dense).expect("dense");
        assert!(
            dpred.compressed_bits(&dense, &ctx) < ss.compressed_bits(&dense, &ctx),
            "dense: DPRed must undercut the bitmap"
        );
        let sparse: Vec<i32> = (0..n)
            .map(|i| if i % 3 == 0 { (i % 120 + 1) as i32 } else { 0 })
            .collect();
        let sparse = Tensor::from_vec(Shape::flat(n), FixedType::I16, sparse).expect("sparse");
        assert!(
            ss.compressed_bits(&sparse, &ctx) < dpred.compressed_bits(&sparse, &ctx),
            "sparse: elision must beat the flat group width"
        );
    }

    #[test]
    fn serving_traffic_is_monotone_in_width_and_truncation_never_widens() {
        let family = serving_family();
        let rows = serving_width_traffic(&family, 1);
        assert_eq!(rows.len(), SERVING_WIDTHS.len());
        for pair in rows.windows(2) {
            assert!(pair[0].0 < pair[1].0, "widths ascend");
            assert!(
                pair[0].2 < pair[1].2,
                "truncated traffic must grow with width: {pair:?}"
            );
        }
        let widest = rows.last().expect("non-empty");
        for (w, _, trunc) in &rows {
            assert!(
                trunc <= &widest.2,
                "truncating to {w}b must never exceed the widest stream"
            );
        }
    }
}
