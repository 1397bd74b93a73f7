//! Figure 15: SStripes performance with limited on-chip buffers
//! (DDR4-3200). As buffers shrink, layers tile and re-stream operands;
//! ShapeShifter compresses the re-streams too, so it "provides benefit in
//! both regimes".

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::{Base, ShapeShifterScheme};
use ss_sim::accel::SStripes;
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::{BufferConfig, TensorSource};

use crate::suites::suite_16b;
use crate::{geomean, header, row};

/// Buffer points swept (each buffer, in MB).
pub const BUFFER_MB: [u64; 6] = [32, 16, 8, 4, 2, 1];

/// Performance at each buffer point relative to the largest, for one
/// model, with and without compression.
#[must_use]
pub fn sweep(model: &dyn TensorSource, seed: u64) -> Vec<(u64, f64, f64)> {
    let accel = SStripes::new();
    let tensors = ss_sim::workload::Cached::new(model);
    let cached = crate::SharedStats::new(&tensors);
    let runs: Vec<(u64, u64, u64)> = BUFFER_MB
        .iter()
        .map(|&mb| {
            let cfg = SimConfig {
                buffers: Some(BufferConfig::symmetric(mb << 20)),
                ..SimConfig::default()
            };
            let ss = simulate(&cached, &accel, &ShapeShifterScheme::default(), &cfg, seed);
            let base = simulate(&cached, &accel, &Base, &cfg, seed);
            (mb, ss.total_cycles(), base.total_cycles())
        })
        .collect();
    let best_ss = runs[0].1 as f64;
    runs.iter()
        .map(|&(mb, ss, base)| (mb, best_ss / ss as f64, best_ss / base as f64))
        .collect()
}

/// Runs the figure.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 15: SStripes with limited on-chip buffers (rel. perf vs 32 MB + SS)\n"
    )?;
    let cols: Vec<String> = BUFFER_MB
        .iter()
        .flat_map(|mb| [format!("SS-{mb}M"), format!("NC-{mb}M")])
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    writeln!(out, "{}", header("model", &col_refs))?;
    let mut at_1mb = vec![];
    let rows = par_map(&suite_16b(), thread_count(), |net| {
        (net.name().to_string(), sweep(net, 1))
    });
    for (name, pts) in rows {
        let vals: Vec<f64> = pts.iter().flat_map(|&(_, ss, nc)| [ss, nc]).collect();
        writeln!(out, "{}", row(&name, &vals))?;
        at_1mb.push(pts.last().unwrap().1 / pts.last().unwrap().2.max(1e-12));
    }
    writeln!(
        out,
        "geomean SS advantage at 1 MB: {:.3}x",
        geomean(&at_1mb)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_degrades_as_buffers_shrink_and_ss_helps_more() {
        let net = ss_models::zoo::alexnet().scaled_down(2);
        let pts = sweep(&net, 1);
        // Relative performance is non-increasing as buffers shrink.
        for pair in pts.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "SS perf must not improve with smaller buffers"
            );
        }
        // At the smallest buffer the compressed run beats no compression.
        let (_, ss, nc) = *pts.last().unwrap();
        assert!(ss >= nc, "SS {ss} vs no-compression {nc}");
    }
}
