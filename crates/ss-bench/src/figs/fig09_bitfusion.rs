//! Figure 9c/9d: Bit Fusion with off-chip compression — same axes as
//! Figure 9a/9b, 8-bit and 16-bit suites ("performance for BitFusion
//! improves by 87% with DDR4-3200 memory for 16b models").

use std::io::{self, Write};

use ss_sim::accel::BitFusion;
use ss_sim::TensorSource;

use crate::figs::fig09_dadiannao::section;
use crate::suites::{suite_16b, suite_ra8, suite_tf8};

/// Runs Figure 9c/9d.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 9c/9d: Bit Fusion with off-chip compression (vs Base @ DDR4-2133)\n"
    )?;
    let accel = BitFusion::new();
    let n16 = suite_16b();
    let refs: Vec<&(dyn TensorSource + Sync)> = n16
        .iter()
        .map(|n| n as &(dyn TensorSource + Sync))
        .collect();
    section(out, "16b models", &refs, &accel, 1)?;
    let tf = suite_tf8();
    let refs: Vec<&(dyn TensorSource + Sync)> =
        tf.iter().map(|n| n as &(dyn TensorSource + Sync)).collect();
    section(out, "8b TF models", &refs, &accel, 1)?;
    let ra = suite_ra8();
    let refs: Vec<&(dyn TensorSource + Sync)> =
        ra.iter().map(|n| n as &(dyn TensorSource + Sync)).collect();
    section(out, "8b RA models", &refs, &accel, 1)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::figs::fig09_dadiannao::sweep;
    use ss_sim::accel::BitFusion;

    #[test]
    fn bitfusion_16b_models_gain_from_compression() {
        // 16b layers run 4x slower on Bit Fusion (temporal decomposition),
        // yet the big FC models stay memory bound: compression pays.
        let net = ss_models::zoo::alexnet().scaled_down(4);
        let rows = sweep(&net, &BitFusion::new(), 1);
        let ss = rows
            .iter()
            .find(|r| r.0 == "ShapeShifter" && r.1 == "DDR4-3200")
            .unwrap();
        assert!(ss.2 > 1.2, "speedup {}", ss.2);
    }
}
