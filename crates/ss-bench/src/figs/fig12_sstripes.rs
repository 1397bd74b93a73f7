//! Figure 12: SStripes vs Stripes — speedup and relative energy
//! efficiency under the iso-area configuration with dual-channel
//! DDR4-3200.
//!
//! Stripes uses per-layer profile-derived precisions with Profile
//! off-chip compression (as originally proposed); SStripes adds per-group
//! dynamic widths, the Composer, and ShapeShifter compression.

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::{ProfileScheme, ShapeShifterScheme};
use ss_sim::accel::{SStripes, Stripes};
use ss_sim::sim::{simulate, RunResult, SimConfig};
use ss_sim::TensorSource;

use crate::suites::{suite_16b, suite_ra8, suite_tf8};
use crate::{geomean, header, row};

/// Simulates the `(Stripes+Profile, SStripes+ShapeShifter)` pair for one
/// model.
#[must_use]
pub fn pair(model: &(dyn TensorSource + Sync), seed: u64) -> (RunResult, RunResult) {
    let cfg = SimConfig::default(); // DDR4-3200
    let tensors = ss_sim::workload::Cached::new(model);
    let cached = crate::SharedStats::new(&tensors);
    let stripes = simulate(&cached, &Stripes::new(), &ProfileScheme, &cfg, seed);
    let sstripes = simulate(
        &cached,
        &SStripes::new(),
        &ShapeShifterScheme::default(),
        &cfg,
        seed,
    );
    (stripes, sstripes)
}

fn section(
    out: &mut impl Write,
    title: &str,
    models: &[&(dyn TensorSource + Sync)],
) -> io::Result<()> {
    writeln!(out, "## {title}")?;
    writeln!(out, "{}", header("model", &["speedup", "rel.eff"]))?;
    let mut speeds = vec![];
    let mut effs = vec![];
    let per_model = par_map(models, thread_count(), |m| {
        let (stripes, sstripes) = pair(*m, 1);
        (
            m.name().to_string(),
            sstripes.speedup_over(&stripes),
            sstripes.efficiency_over(&stripes),
        )
    });
    for (name, s, e) in per_model {
        writeln!(out, "{}", row(&name, &[s, e]))?;
        speeds.push(s);
        effs.push(e);
    }
    writeln!(
        out,
        "{}",
        row("geomean", &[geomean(&speeds), geomean(&effs)])
    )?;
    writeln!(out)
}

/// Runs the figure.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 12: SStripes over Stripes, iso-area, DDR4-3200\n"
    )?;
    let n16 = suite_16b();
    let refs: Vec<&(dyn TensorSource + Sync)> = n16
        .iter()
        .map(|n| n as &(dyn TensorSource + Sync))
        .collect();
    section(out, "16b models", &refs)?;
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
    fn sstripes_always_wins() {
        let net = ss_models::zoo::googlenet().scaled_down(8);
        let (stripes, sstripes) = pair(&net, 1);
        let s = sstripes.speedup_over(&stripes);
        assert!(s > 1.0, "speedup {s}");
        assert!(sstripes.efficiency_over(&stripes) > 1.0);
    }

    #[test]
    fn ra_models_gain_more_than_tf_models() {
        // The Figure 12 ordering: RA-8b 2.17x vs TF-8b 1.49x on average.
        let base = ss_models::zoo::googlenet_s().scaled_down(8);
        let ra = QuantizedNetwork::new(base.clone(), QuantMethod::RangeAware);
        let tf = QuantizedNetwork::new(base, QuantMethod::Tensorflow);
        let (s_ra, ss_ra) = pair(&ra, 1);
        let (s_tf, ss_tf) = pair(&tf, 1);
        let ra_speed = ss_ra.speedup_over(&s_ra);
        let tf_speed = ss_tf.speedup_over(&s_tf);
        assert!(
            ra_speed > tf_speed,
            "RA {ra_speed} should beat TF {tf_speed}"
        );
    }
}
