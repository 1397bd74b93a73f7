//! Table 1: average per-layer effective widths with ShapeShifter
//! (group size 16 along the channel dimension) and the overall reduction
//! relative to the profile-derived widths.
//!
//! Because the zoo's per-layer value generators are *calibrated to* the
//! paper's Table 1 (for the networks it lists), this harness doubles as a
//! validation: the measured effective widths should land on the published
//! targets.

use std::io::{self, Write};

use ss_core::analysis::effective_width_row;
use ss_models::Network;
use ss_sim::sim::MODEL_SEED;
use ss_sim::TensorSource;

use crate::{inputs, scaled};

/// Networks Table 1 reports.
fn table_networks() -> Vec<Network> {
    vec![
        scaled(ss_models::zoo::alexnet()),
        scaled(ss_models::zoo::googlenet()),
        scaled(ss_models::zoo::vgg_m()),
        scaled(ss_models::zoo::vgg_s()),
        scaled(ss_models::zoo::resnet50()),
        scaled(ss_models::zoo::yolo()),
        scaled(ss_models::zoo::mobilenet()),
    ]
}

/// One network's Table-1 rows: per-layer activation and weight effective
/// widths plus reductions.
pub fn network_rows(out: &mut impl Write, net: &Network, seeds: &[u64]) -> io::Result<(f64, f64)> {
    // Activations: average effective widths over the input seeds.
    let act_layers: Vec<(ss_tensor::Tensor, u8)> = (0..net.layers().len())
        .map(|i| {
            (
                net.input_tensor(i, seeds[0]),
                TensorSource::profiled_act_width(net, i),
            )
        })
        .collect();
    let act_row = effective_width_row(&act_layers, 16);
    let wgt_layers: Vec<(ss_tensor::Tensor, u8)> = (0..net.layers().len())
        .map(|i| {
            (
                net.weight_tensor(i, MODEL_SEED),
                TensorSource::profiled_wgt_width(net, i),
            )
        })
        .collect();
    let wgt_row = effective_width_row(&wgt_layers, 16);

    writeln!(out, "== {} ==", net.name())?;
    write!(out, "act widths: ")?;
    for w in &act_row.widths {
        write!(out, "{w:.2}-")?;
    }
    writeln!(out, "  reduction {:.2}%", act_row.reduction * 100.0)?;
    write!(out, "wgt widths: ")?;
    for w in &wgt_row.widths {
        write!(out, "{w:.2}-")?;
    }
    writeln!(out, "  reduction {:.2}%", wgt_row.reduction * 100.0)?;
    writeln!(out)?;
    Ok((act_row.reduction, wgt_row.reduction))
}

/// Runs the table.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Table 1: per-layer effective widths (group 16) and reduction vs profile\n"
    )?;
    let seeds: Vec<u64> = (1..=inputs()).collect();
    for net in table_networks() {
        network_rows(out, &net, &seeds)?;
    }
    Ok(())
}

/// Validation helper: maximum absolute error between measured per-layer
/// effective activation widths and the zoo's embedded Table-1 targets.
#[must_use]
pub fn calibration_error(net: &Network, seed: u64) -> f64 {
    let mut worst: f64 = 0.0;
    for (i, layer) in net.layers().iter().enumerate() {
        let measured = net.input_tensor(i, seed).effective_width(16);
        let err = (measured - layer.stats().act_width).abs();
        worst = worst.max(err);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_widths_match_published_targets() {
        // Full-size AlexNet activations must land on Table 1's values
        // (the zoo's calibration contract). Keep one full-size layer set:
        // AlexNet is the smallest activation volume of the table.
        let net = ss_models::zoo::alexnet();
        let err = calibration_error(&net, 1);
        assert!(err < 0.35, "worst per-layer deviation {err}");
    }

    #[test]
    fn reductions_are_substantial() {
        let net = ss_models::zoo::alexnet();
        let mut sink = Vec::new();
        let (act_red, wgt_red) = network_rows(&mut sink, &net, &[1]).unwrap();
        // Paper: 41.09% activation reduction, 45.58% weight reduction.
        assert!(act_red > 0.25, "act reduction {act_red}");
        assert!(wgt_red > 0.25, "wgt reduction {wgt_red}");
    }
}
