//! Ablation: analytic throughput law vs the exact tile schedule.
//!
//! The paper's evaluation uses a cycle-accurate simulator; this
//! reproduction uses analytic laws (DESIGN.md §4). This study quantifies
//! that substitution on real zoo layers: the loop-level walk of the
//! synchronized broadcast schedule (`ss-sim::tile`) against the
//! `accel::SStripes` law, reporting the per-layer cycle ratio. Full-
//! occupancy layers land within a few percent; ragged geometries show the
//! occupancy padding the utilization-free law ignores.

use std::io::{self, Write};

use ss_models::{LayerKind, Network};
use ss_sim::tile::{sstripes_step, stripes_step, tile_cycles, ConvGeometry};
use ss_sim::TensorSource;

use crate::{header, row, scaled};

/// Per-layer comparison: `(exact SStripes cycles / analytic, exact
/// Stripes / analytic)`.
#[must_use]
pub fn layer_ratios(net: &Network, layer: usize, seed: u64) -> Option<(f64, f64)> {
    let &LayerKind::Conv {
        out_ch,
        in_ch,
        kh,
        kw,
        in_h,
        in_w,
        out_h,
        out_w,
        groups,
    } = net.layers()[layer].kind()
    else {
        return None;
    };
    // The schedule model assumes unit stride/no padding; restrict to
    // layers where the declared output matches that (1x1 convs and
    // VGG-style 3x3 stride-1 at equal spatial size are approximated by
    // cropping the input to the valid region).
    if groups != 1 || in_h < kh || in_w < kw || in_ch < 16 {
        return None;
    }
    let geom = ConvGeometry {
        in_ch,
        in_h,
        in_w,
        kh,
        kw,
        out_ch,
        concurrent_filters: 16,
    };
    let acts = net.input_tensor(layer, seed);
    if acts.len() != in_ch * in_h * in_w {
        return None;
    }
    let eff = acts.effective_width(256).max(1.0);
    let geom_out_h = in_h - kh + 1;
    let geom_out_w = in_w - kw + 1;
    // MACs of the cropped (valid-region) computation the schedule walks.
    let macs = (out_ch * in_ch * kh * kw * geom_out_h * geom_out_w) as f64;
    let lanes = (16 * 16 * 16) as f64;
    // The analytic law is utilization-free; fold in the schedule's known
    // padding so the comparison isolates the width model: ragged row
    // blocks, ragged channel groups, ragged filter blocks.
    let occ = (geom_out_w as f64 / (geom_out_w.div_ceil(16) * 16) as f64)
        * (in_ch as f64 / (in_ch.div_ceil(16) * 16) as f64)
        * (out_ch as f64 / (out_ch.div_ceil(16) * 16) as f64);
    let analytic_ss = macs * eff / lanes / occ;
    let exact_ss = tile_cycles(&geom, &acts, sstripes_step()).ok()? as f64;

    let profiled = TensorSource::profiled_act_width(net, layer);
    let analytic_str = macs * f64::from(profiled.max(1)) / lanes / occ;
    let exact_str = tile_cycles(&geom, &acts, stripes_step(profiled)).ok()? as f64;
    let _ = (out_h, out_w); // declared sizes unused: the walk uses valid-region sizes
    Some((exact_ss / analytic_ss, exact_str / analytic_str))
}

/// Runs the validation over a spread of real layers.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Ablation: exact tile schedule vs analytic law (cycle ratio, 1.0 = exact match)\n"
    )?;
    writeln!(out, "{}", header("layer", &["SStripes", "Stripes"]))?;
    let nets = [
        scaled(ss_models::zoo::googlenet()),
        scaled(ss_models::zoo::resnet50()),
        scaled(ss_models::zoo::vgg_m()),
    ];
    for net in &nets {
        let picks: Vec<usize> = (0..net.layers().len())
            .filter(|&i| layer_ratios(net, i, 1).is_some())
            .step_by(7)
            .take(4)
            .collect();
        for i in picks {
            if let Some((ss, st)) = layer_ratios(net, i, 1) {
                writeln!(
                    out,
                    "{}",
                    row(
                        &format!("{}/{}", net.name(), net.layers()[i].name()),
                        &[ss, st]
                    )
                )?;
            }
        }
    }
    writeln!(
        out,
        "\n(Occupancy padding is folded into the analytic side; remaining\n\
         deviation is the width-synchronization approximation alone.)"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_layers_validate_within_occupancy_bounds() {
        let net = ss_models::zoo::googlenet().scaled_down(4);
        let mut checked = 0;
        for i in 0..net.layers().len() {
            if let Some((ss, st)) = layer_ratios(&net, i, 1) {
                checked += 1;
                // Occupancy is folded into the analytic side, so Stripes
                // must match almost exactly and SStripes within the
                // width-synchronization approximation.
                assert!((0.75..=1.4).contains(&ss), "layer {i}: ss ratio {ss}");
                assert!((0.95..=1.05).contains(&st), "layer {i}: stripes ratio {st}");
                if checked >= 6 {
                    break;
                }
            }
        }
        assert!(checked >= 3, "too few conv layers validated");
    }
}
