//! Figure 9a/9b: DaDianNao* performance and energy efficiency with
//! Base / Profile / ShapeShifter off-chip compression at DDR4-2133, -2400
//! and -3200, relative to no compression with DDR4-2133.

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::{Base, CompressionScheme, ProfileScheme, ShapeShifterScheme};
use ss_sim::accel::Accelerator;
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::{DramConfig, TensorSource};

use crate::suites::{suite_16b, suite_ra8, suite_tf8};
use crate::{geomean, header, row};

/// The three memory nodes of the figure.
pub const DRAMS: [DramConfig; 3] = [
    DramConfig::DDR4_2133,
    DramConfig::DDR4_2400,
    DramConfig::DDR4_3200,
];

/// Speedup and relative energy of `(scheme, dram)` combinations over
/// `(Base, DDR4-2133)` for one model on one accelerator.
///
/// Rows are `(scheme name, dram label, speedup, relative energy)`.
#[must_use]
pub fn sweep(
    model: &(dyn TensorSource + Sync),
    accel: &(dyn Accelerator + Sync),
    seed: u64,
) -> Vec<(String, String, f64, f64)> {
    let ss = ShapeShifterScheme::default();
    let schemes: Vec<&dyn CompressionScheme> = vec![&Base, &ProfileScheme, &ss];
    let base_cfg = SimConfig::with_dram(DramConfig::DDR4_2133);
    // Simulate once per scheme at the base node (sharing one tensor
    // generation pass via the cache); reprice the other nodes.
    let tensors = ss_sim::workload::Cached::new(model);
    let cached = crate::SharedStats::new(&tensors);
    let runs: Vec<_> = schemes
        .iter()
        .map(|s| simulate(&cached, accel, *s, &base_cfg, seed))
        .collect();
    let baseline = &runs[0];
    let base_cycles = baseline.total_cycles() as f64;
    let base_energy = baseline.total_energy().total_pj();
    let mut out = Vec::new();
    for (scheme, run) in schemes.iter().zip(&runs) {
        for dram in DRAMS {
            let cfg = SimConfig::with_dram(dram);
            let repriced = run.with_dram(dram, &cfg);
            out.push((
                scheme.name().to_string(),
                dram.label(),
                base_cycles / repriced.total_cycles().max(1) as f64,
                repriced.total_energy().total_pj() / base_energy,
            ));
        }
    }
    out
}

/// Prints one suite section for an accelerator.
pub fn section(
    out: &mut impl Write,
    title: &str,
    models: &[&(dyn TensorSource + Sync)],
    accel: &(dyn Accelerator + Sync),
    seed: u64,
) -> io::Result<()> {
    writeln!(out, "## {title} on {}", accel.name())?;
    let cols = [
        "B-2133", "B-2400", "B-3200", "P-2133", "P-2400", "P-3200", "S-2133", "S-2400", "S-3200",
    ];
    writeln!(out, "{}", header("model (speedup)", &cols))?;
    let mut speed_cols: Vec<Vec<f64>> = vec![vec![]; 9];
    let mut energy_rows: Vec<(String, Vec<f64>)> = vec![];
    let per_model = par_map(models, thread_count(), |m| {
        (m.name().to_string(), sweep(*m, accel, seed))
    });
    for (name, rows) in per_model {
        let speeds: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let energies: Vec<f64> = rows.iter().map(|r| r.3).collect();
        writeln!(out, "{}", row(&name, &speeds))?;
        for (c, v) in speed_cols.iter_mut().zip(&speeds) {
            c.push(*v);
        }
        energy_rows.push((name, energies));
    }
    let geo: Vec<f64> = speed_cols.iter().map(|c| geomean(c)).collect();
    writeln!(out, "{}", row("geomean", &geo))?;
    writeln!(out, "{}", header("model (rel. energy)", &cols))?;
    for (name, energies) in &energy_rows {
        writeln!(out, "{}", row(name, energies))?;
    }
    writeln!(out)
}

/// Runs Figure 9a/9b (DaDianNao*).
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 9a/9b: DaDianNao* with off-chip compression (vs Base @ DDR4-2133)\n"
    )?;
    let accel = ss_sim::accel::DaDianNao::new();
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
    use super::*;
    use ss_sim::accel::DaDianNao;

    #[test]
    fn compression_speeds_up_memory_bound_models() {
        // VGG_M is dominated by FC weights: heavily memory bound on a
        // bit-parallel engine, so ShapeShifter compression must deliver a
        // material speedup and energy saving.
        let net = ss_models::zoo::vgg_m().scaled_down(4);
        let rows = sweep(&net, &DaDianNao::new(), 1);
        let base_2133 = rows
            .iter()
            .find(|r| r.0 == "Base" && r.1 == "DDR4-2133")
            .unwrap();
        assert!((base_2133.2 - 1.0).abs() < 1e-9);
        let ss_2133 = rows
            .iter()
            .find(|r| r.0 == "ShapeShifter" && r.1 == "DDR4-2133")
            .unwrap();
        assert!(ss_2133.2 > 1.5, "ShapeShifter speedup {}", ss_2133.2);
        assert!(ss_2133.3 < 0.8, "ShapeShifter energy {}", ss_2133.3);
        // Faster memory also helps the uncompressed baseline.
        let base_3200 = rows
            .iter()
            .find(|r| r.0 == "Base" && r.1 == "DDR4-3200")
            .unwrap();
        assert!(base_3200.2 > 1.0);
        // And ShapeShifter on fast memory is the best of all.
        let ss_3200 = rows
            .iter()
            .find(|r| r.0 == "ShapeShifter" && r.1 == "DDR4-3200")
            .unwrap();
        assert!(ss_3200.2 >= ss_2133.2);
    }
}
