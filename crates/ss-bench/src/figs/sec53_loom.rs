//! Section 5.3: ShapeShifter-Loom — dynamic per-group widths for *both*
//! operands over the Loom baseline, 8b RA models
//! ("2.1x faster on average, and up to 2.3x for GoogLeNetS").

use std::io::{self, Write};

use ss_core::scheme::{ProfileScheme, ShapeShifterScheme};
use ss_sim::accel::Loom;
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::TensorSource;

use crate::suites::suite_ra8;
use crate::{geomean, header, row};

/// Speedup of SS-Loom over baseline Loom for one model.
#[must_use]
pub fn speedup(model: &(dyn TensorSource + Sync), seed: u64) -> f64 {
    let cfg = SimConfig::default();
    let base = simulate(model, &Loom::new(), &ProfileScheme, &cfg, seed);
    let ss = simulate(
        model,
        &Loom::with_shapeshifter(),
        &ShapeShifterScheme::default(),
        &cfg,
        seed,
    );
    ss.speedup_over(&base)
}

/// Runs the summary.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Section 5.3: ShapeShifter-Loom over Loom (8b RA models)\n"
    )?;
    writeln!(out, "{}", header("model", &["speedup"]))?;
    let mut speeds = vec![];
    for net in suite_ra8() {
        let s = speedup(&net, 1);
        writeln!(out, "{}", row(net.name(), &[s]))?;
        speeds.push(s);
    }
    writeln!(out, "geomean: {:.3}", geomean(&speeds))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_quant::{QuantMethod, QuantizedNetwork};

    #[test]
    fn dynamic_widths_speed_loom_up() {
        let q = QuantizedNetwork::new(
            ss_models::zoo::googlenet_s().scaled_down(8),
            QuantMethod::RangeAware,
        );
        let s = speedup(&q, 1);
        assert!(s > 1.2, "SS-Loom speedup {s}");
    }
}
