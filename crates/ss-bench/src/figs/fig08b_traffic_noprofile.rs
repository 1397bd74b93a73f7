//! Figure 8b: relative off-chip traffic for **non-profiled** networks.
//!
//! When no calibration set exists, the Profile scheme cannot run (it
//! degrades to the raw container) — but ShapeShifter needs no profile:
//! weights are packed statically from their own values and activations
//! are sized by the hardware detector.

use std::io::{self, Write};

use ss_core::scheme::{Base, CompressionScheme, ProfileScheme, ShapeShifterScheme, ZeroRle};
use ss_quant::{QuantMethod, QuantizedNetwork};
use ss_sim::TensorSource;

use crate::suites::{suite_unprofiled_16b, traffic_totals};
use crate::{geomean, header, row, scaled};

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
    let mut geo: Vec<f64> = vec![];
    for m in models {
        let run_bits = if m.act_dtype().bits() <= 8 { 4 } else { 5 };
        let zero_rle = ZeroRle::new(run_bits);
        let ss = ShapeShifterScheme::default();
        let schemes: Vec<&dyn CompressionScheme> = vec![&Base, &ProfileScheme, &ss, &zero_rle];
        // profiled = false: the Profile scheme has nothing to work with.
        let t = traffic_totals(*m, &schemes, seed, false);
        let base = t[0].max(1) as f64;
        let vals = [t[1] as f64 / base, t[2] as f64 / base, t[3] as f64 / base];
        geo.push(vals[1]);
        writeln!(out, "{}", row(m.name(), &vals))?;
    }
    writeln!(out, "ShapeShifter geomean: {:.3}", geomean(&geo))?;
    writeln!(out)
}

/// Runs the figure.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 8b: relative off-chip traffic, non-profiled networks (Base = 1.0)\n"
    )?;
    let n16 = suite_unprofiled_16b();
    let refs: Vec<&(dyn TensorSource + Sync)> = n16
        .iter()
        .map(|n| n as &(dyn TensorSource + Sync))
        .collect();
    section(out, "16b models (no profile available)", &refs, 1)?;
    let ra: Vec<QuantizedNetwork> = [ss_models::zoo::alexnet_s(), ss_models::zoo::segnet()]
        .into_iter()
        .map(|n| QuantizedNetwork::new(scaled(n), QuantMethod::RangeAware))
        .collect();
    let refs: Vec<&(dyn TensorSource + Sync)> =
        ra.iter().map(|n| n as &(dyn TensorSource + Sync)).collect();
    section(out, "8b Range-Aware quantized (no profile)", &refs, 1)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::figs::fig08a_traffic::relative_traffic;

    #[test]
    fn shapeshifter_needs_no_profile() {
        // ShapeShifter's traffic is identical with and without a profile;
        // the Profile scheme collapses to ~1.0 without one.
        let net = ss_models::zoo::yolo().scaled_down(8);
        let with = relative_traffic(&net, 1, true);
        let without = relative_traffic(&net, 1, false);
        assert!(
            (with[1] - without[1]).abs() < 1e-12,
            "ShapeShifter unchanged"
        );
        assert!(without[0] > 0.99, "Profile without profile ~ Base");
        assert!(with[0] < 0.95, "Profile with profile helps");
    }
}
