//! Extension: compressed **on-chip** buffering — the other half of the
//! paper's §3 title ("reducing off- and on-chip storage and
//! communication"; the paper itself "limits attention to the off-chip
//! compression scheme").
//!
//! Re-runs the Figure-15 small-buffer sweep with the buffers holding
//! ShapeShifter-compressed data: compression effectively enlarges the
//! buffers, deferring the tiling cliff and cutting the re-stream traffic
//! exactly where Figure 15 hurts most.

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::ShapeShifterScheme;
use ss_sim::accel::SStripes;
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::workload::Cached;
use ss_sim::{BufferConfig, TensorSource};

use crate::suites::suite_16b;
use crate::{geomean, header, row};

/// Buffer points in KB — a layer only double-tiles when *neither* operand
/// fits, which for real layer shapes happens in the sub-megabyte regime.
pub const BUFFER_KB: [u64; 5] = [4096, 1024, 512, 256, 128];

/// Relative performance (vs the largest buffer) with raw vs compressed
/// on-chip buffering, per buffer point.
#[must_use]
pub fn sweep(model: &dyn TensorSource, seed: u64) -> Vec<(u64, f64, f64)> {
    let accel = SStripes::new();
    let scheme = ShapeShifterScheme::default();
    let tensors = Cached::new(model);
    let cached = crate::SharedStats::new(&tensors);
    let run = |kb: u64, onchip: bool| {
        let cfg = SimConfig {
            buffers: Some(BufferConfig::symmetric(kb << 10)),
            onchip_compression: onchip,
            ..SimConfig::default()
        };
        simulate(&cached, &accel, &scheme, &cfg, seed).total_cycles()
    };
    let best = run(BUFFER_KB[0], false) as f64;
    BUFFER_KB
        .iter()
        .map(|&kb| {
            (
                kb,
                best / run(kb, false) as f64,
                best / run(kb, true) as f64,
            )
        })
        .collect()
}

/// Runs the extension study.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Extension: compressed on-chip buffers (rel. perf vs 4 MB raw)\n"
    )?;
    let cols: Vec<String> = BUFFER_KB
        .iter()
        .flat_map(|kb| [format!("raw-{kb}K"), format!("cmp-{kb}K")])
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    writeln!(out, "{}", header("model", &col_refs))?;
    let mut gain_at_smallest = vec![];
    let rows = par_map(&suite_16b(), thread_count(), |net| {
        (net.name().to_string(), sweep(net, 1))
    });
    for (name, pts) in rows {
        let vals: Vec<f64> = pts.iter().flat_map(|&(_, raw, cmp)| [raw, cmp]).collect();
        writeln!(out, "{}", row(&name, &vals))?;
        let last = pts.last().unwrap();
        gain_at_smallest.push(last.2 / last.1.max(1e-12));
    }
    writeln!(
        out,
        "geomean on-chip-compression gain at {} KB: {:.3}x",
        BUFFER_KB.last().unwrap(),
        geomean(&gain_at_smallest)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_buffers_never_hurt_and_help_when_small() {
        // SegNet's big conv layers have activations AND weights beyond a
        // sub-megabyte buffer: the double-tiling regime where compressed
        // buffering pays.
        let net = ss_models::zoo::segnet().scaled_down(2);
        let pts = sweep(&net, 1);
        for &(kb, raw, cmp) in &pts {
            assert!(cmp + 1e-9 >= raw, "{kb} KB: cmp {cmp} vs raw {raw}");
        }
        let last = pts.last().unwrap();
        assert!(
            last.2 > last.1,
            "smallest buffer: cmp {} vs raw {}",
            last.2,
            last.1
        );
    }
}
