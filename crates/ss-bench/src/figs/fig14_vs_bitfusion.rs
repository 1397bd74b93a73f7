//! Figure 14: SStripes vs Bit Fusion — speedup and relative energy
//! efficiency, iso-area, 8-bit models only ("Bit Fusion suffers from
//! significant time overheads when processing layers using more than
//! 8b").

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::{ProfileScheme, ShapeShifterScheme};
use ss_sim::accel::{BitFusion, SStripes};
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::TensorSource;

use crate::suites::{suite_ra8, suite_tf8};
use crate::{geomean, header, row};

/// `(speedup, relative efficiency)` of SStripes+ShapeShifter over
/// BitFusion+Profile for one model.
#[must_use]
pub fn compare(model: &(dyn TensorSource + Sync), seed: u64) -> (f64, f64) {
    let cfg = SimConfig::default();
    let tensors = ss_sim::workload::Cached::new(model);
    let cached = crate::SharedStats::new(&tensors);
    let bf = simulate(&cached, &BitFusion::new(), &ProfileScheme, &cfg, seed);
    let ss = simulate(
        &cached,
        &SStripes::new(),
        &ShapeShifterScheme::default(),
        &cfg,
        seed,
    );
    (ss.speedup_over(&bf), ss.efficiency_over(&bf))
}

fn section(
    out: &mut impl Write,
    title: &str,
    models: &[&(dyn TensorSource + Sync)],
) -> io::Result<()> {
    writeln!(out, "## {title}")?;
    writeln!(out, "{}", header("model", &["speedup", "rel.eff"]))?;
    let mut speeds = vec![];
    let per_model = par_map(models, thread_count(), |m| {
        let (s, e) = compare(*m, 1);
        (m.name().to_string(), s, e)
    });
    for (name, s, e) in per_model {
        writeln!(out, "{}", row(&name, &[s, e]))?;
        speeds.push(s);
    }
    writeln!(out, "geomean speedup: {:.3}", geomean(&speeds))?;
    writeln!(out)
}

/// Runs the figure.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 14: SStripes vs Bit Fusion (8b models, iso-area)\n"
    )?;
    let tf = suite_tf8();
    let refs: Vec<&(dyn TensorSource + Sync)> =
        tf.iter().map(|n| n as &(dyn TensorSource + Sync)).collect();
    section(out, "8b TF models", &refs)?;
    let ra = suite_ra8();
    let refs: Vec<&(dyn TensorSource + Sync)> =
        ra.iter().map(|n| n as &(dyn TensorSource + Sync)).collect();
    section(out, "8b RA models", &refs)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_quant::{QuantMethod, QuantizedNetwork};

    #[test]
    fn sstripes_beats_bitfusion_more_on_ra() {
        let base = ss_models::zoo::googlenet_s().scaled_down(8);
        let ra = QuantizedNetwork::new(base.clone(), QuantMethod::RangeAware);
        let tf = QuantizedNetwork::new(base, QuantMethod::Tensorflow);
        let (s_ra, _) = compare(&ra, 1);
        let (s_tf, _) = compare(&tf, 1);
        // Paper: 3.75x (RA) vs 2.3x (TF) on average.
        assert!(s_ra > 1.5, "RA speedup {s_ra}");
        assert!(s_ra > s_tf, "RA {s_ra} vs TF {s_tf}");
    }
}
