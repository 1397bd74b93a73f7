//! Ablation: the paper's group-size trade-off (§3: "We find that N = 16
//! offers a good balance between compression rate and metadata
//! overhead").
//!
//! Sweeps the ShapeShifter group size over 8–256 and reports, per model,
//! the traffic ratio and its metadata/payload split: small groups trim
//! widths harder but pay more `Z + P` overhead; large groups amortize
//! metadata but are hostage to their worst value.

use std::io::{self, Write};

use ss_core::ShapeShifterCodec;
use ss_sim::sim::MODEL_SEED;
use ss_sim::TensorSource;

use crate::suites::suite_16b;
use crate::{header, row};

/// Swept group sizes.
pub const GROUPS: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// `(ratio, metadata share)` per group size for one model's whole
/// traffic.
#[must_use]
pub fn sweep(model: &dyn TensorSource, seed: u64) -> Vec<(usize, f64, f64)> {
    let mut per_group: Vec<(u64, u64)> = vec![(0, 0); GROUPS.len()];
    let mut base = 0u64;
    for i in 0..model.layers().len() {
        for t in [
            model.weight_tensor(i, MODEL_SEED),
            model.input_tensor(i, seed),
            model.output_tensor(i, seed),
        ] {
            base += t.container_bits();
            for (slot, &g) in per_group.iter_mut().zip(&GROUPS) {
                let report = ShapeShifterCodec::new(g).measure(&t);
                slot.0 += report.metadata_bits;
                slot.1 += report.payload_bits;
            }
        }
    }
    per_group
        .iter()
        .zip(&GROUPS)
        .map(|(&(meta, payload), &g)| {
            let total = meta + payload;
            (
                g,
                total as f64 / base.max(1) as f64,
                meta as f64 / total.max(1) as f64,
            )
        })
        .collect()
}

/// Runs the ablation.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Ablation: ShapeShifter group size (traffic ratio | metadata share)\n"
    )?;
    let cols: Vec<String> = GROUPS.iter().map(|g| format!("g={g}")).collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    writeln!(out, "{}", header("model (ratio)", &col_refs))?;
    let mut meta_rows = Vec::new();
    for net in suite_16b() {
        let pts = sweep(&net, 1);
        let ratios: Vec<f64> = pts.iter().map(|p| p.1).collect();
        writeln!(out, "{}", row(net.name(), &ratios))?;
        meta_rows.push((net.name().to_string(), pts));
    }
    writeln!(out, "{}", header("model (meta share)", &col_refs))?;
    for (name, pts) in &meta_rows {
        let metas: Vec<f64> = pts.iter().map(|p| p.2).collect();
        writeln!(out, "{}", row(name, &metas))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_share_falls_with_group_size() {
        let net = ss_models::zoo::alexnet().scaled_down(8);
        let pts = sweep(&net, 1);
        for pair in pts.windows(2) {
            assert!(pair[0].2 >= pair[1].2, "metadata share must fall: {pts:?}");
        }
    }

    #[test]
    fn sixteen_is_near_the_sweet_spot() {
        // The ratio at g=16 should be within a few percent of the best
        // across the sweep — the paper's justification for N = 16.
        let net = ss_models::zoo::googlenet().scaled_down(8);
        let pts = sweep(&net, 1);
        let best = pts.iter().map(|p| p.1).fold(f64::MAX, f64::min);
        let at16 = pts.iter().find(|p| p.0 == 16).unwrap().1;
        assert!(at16 < best + 0.05, "g=16 ratio {at16} vs best {best}");
    }
}
