//! Ablation: the SStripes Composer (paper §4 calls it "the second,
//! optional extension").
//!
//! Separates SStripes' two levers: per-group dynamic widths (EOG early
//! termination) versus the 8b-weight SIPs + Composer column that buy the
//! 1.75× iso-area lane gain (halved again on layers with >8b weights).

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::{ProfileScheme, ShapeShifterScheme};
use ss_sim::accel::{SStripes, Stripes};
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::workload::Cached;
use ss_sim::TensorSource;

use crate::suites::{suite_16b, suite_ra8};
use crate::{geomean, header, row};

/// `(dynamic only, dynamic + composer)` speedups over Stripes.
#[must_use]
pub fn compare(model: &(dyn TensorSource + Sync), seed: u64) -> (f64, f64) {
    let cfg = SimConfig::default();
    let tensors = Cached::new(model);
    let cached = crate::SharedStats::new(&tensors);
    let scheme = ShapeShifterScheme::default();
    let stripes = simulate(&cached, &Stripes::new(), &ProfileScheme, &cfg, seed);
    let no_composer = simulate(&cached, &SStripes::without_composer(), &scheme, &cfg, seed);
    let full = simulate(&cached, &SStripes::new(), &scheme, &cfg, seed);
    (
        no_composer.speedup_over(&stripes),
        full.speedup_over(&stripes),
    )
}

/// Runs the ablation.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Ablation: SStripes Composer on/off (speedup over Stripes)\n"
    )?;
    writeln!(out, "{}", header("model", &["dyn only", "dyn+comp"]))?;
    let n16 = suite_16b();
    let ra = suite_ra8();
    let mut models: Vec<&(dyn TensorSource + Sync)> = vec![];
    models.extend(n16.iter().map(|n| n as &(dyn TensorSource + Sync)));
    models.extend(ra.iter().map(|n| n as &(dyn TensorSource + Sync)));
    let mut dyn_only = vec![];
    let mut full = vec![];
    let per_model = par_map(&models, thread_count(), |m| {
        let (d, f) = compare(*m, 1);
        (m.name().to_string(), d, f)
    });
    for (name, d, f) in per_model {
        writeln!(out, "{}", row(&name, &[d, f]))?;
        dyn_only.push(d);
        full.push(f);
    }
    writeln!(
        out,
        "{}",
        row("geomean", &[geomean(&dyn_only), geomean(&full)])
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_quant::{QuantMethod, QuantizedNetwork};

    #[test]
    fn composer_adds_on_top_of_dynamic_widths_for_8b_models() {
        // On 8b models every layer's weights fit the 8b SIPs, so the
        // composer configuration gets the full 1.75x lanes with no
        // pairing penalty: it must dominate the dynamic-only variant on
        // compute-bound models.
        let q = QuantizedNetwork::new(
            ss_models::zoo::segnet().scaled_down(2),
            QuantMethod::RangeAware,
        );
        let (dyn_only, full) = compare(&q, 1);
        assert!(dyn_only > 1.0);
        assert!(full > dyn_only, "full {full} vs dyn-only {dyn_only}");
    }
}
