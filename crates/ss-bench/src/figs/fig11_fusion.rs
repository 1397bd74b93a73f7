//! Figure 11: layer fusion combined with ShapeShifter compression —
//! external-traffic ratios for compression-only, fusion-only, and both,
//! relative to neither.

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::ShapeShifterScheme;
use ss_sim::fusion::fusion_study;

use crate::suites::suite_16b;
use crate::{geomean, header, row};

/// Fusion depth: pairs of producer/consumer layers, as in the original
/// fused-layer CNN accelerator's pyramid of two stages.
pub const FUSE_DEPTH: usize = 2;

/// Runs the figure.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 11: layer fusion x ShapeShifter, traffic vs neither (depth {FUSE_DEPTH})\n"
    )?;
    writeln!(out, "{}", header("model", &["SS only", "fuse", "both"]))?;
    let scheme = ShapeShifterScheme::default();
    let mut both = vec![];
    let rows = par_map(&suite_16b(), thread_count(), |net| {
        (
            net.name().to_string(),
            fusion_study(net, &scheme, FUSE_DEPTH, 1),
        )
    });
    for (name, s) in rows {
        writeln!(
            out,
            "{}",
            row(&name, &[s.compression_only, s.fusion_only, s.both])
        )?;
        both.push(s.both);
    }
    writeln!(out, "geomean (both): {:.3}", geomean(&both))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combining_beats_either_alone_network_wide() {
        let net = ss_models::zoo::googlenet().scaled_down(8);
        let s = fusion_study(&net, &ShapeShifterScheme::default(), FUSE_DEPTH, 1);
        assert!(s.both < s.compression_only);
        assert!(s.both < s.fusion_only);
        assert!(s.both < 0.5, "combined ratio {}", s.both);
    }
}
