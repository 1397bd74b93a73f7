//! Figure 4: average data width needed per-layer (profiled) vs per-value,
//! and the work reduction per-value detection buys, for every model.

use std::io::{self, Write};

use ss_core::analysis::{per_value_width, work_reduction};
use ss_core::par::{par_map, thread_count};
use ss_sim::sim::MODEL_SEED;
use ss_sim::TensorSource;

use crate::{header, inputs, row, scaled};

/// Per-model summary: value-count-weighted average widths and work
/// reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelWidths {
    /// Profiled per-layer activation width, averaged over layers
    /// (weighted by activation count).
    pub act_per_layer: f64,
    /// Per-value activation width.
    pub act_per_value: f64,
    /// Profiled per-layer weight width (weighted by weight count).
    pub wgt_per_layer: f64,
    /// Per-value weight width.
    pub wgt_per_value: f64,
    /// Work reduction for activations (bit-serial cycles saved).
    pub act_work_reduction: f64,
    /// Work reduction for weights.
    pub wgt_work_reduction: f64,
}

/// Measures one model.
#[must_use]
pub fn measure(model: &dyn TensorSource, seeds: &[u64]) -> ModelWidths {
    let mut act_layer_bits = 0.0;
    let mut act_value_bits = 0.0;
    let mut act_count = 0.0;
    let mut act_red = 0.0;
    let mut wgt_layer_bits = 0.0;
    let mut wgt_value_bits = 0.0;
    let mut wgt_count = 0.0;
    let mut wgt_red = 0.0;
    for i in 0..model.layers().len() {
        for &s in seeds {
            let a = model.input_tensor(i, s);
            let prof = model.profiled_act_width(i);
            let n = a.len() as f64;
            act_layer_bits += f64::from(prof) * n;
            act_value_bits += per_value_width(&a) * n;
            act_red += work_reduction(&a, prof) * n;
            act_count += n;
        }
        let w = model.weight_tensor(i, MODEL_SEED);
        let prof = model.profiled_wgt_width(i);
        let n = w.len() as f64;
        wgt_layer_bits += f64::from(prof) * n;
        wgt_value_bits += per_value_width(&w) * n;
        wgt_red += work_reduction(&w, prof) * n;
        wgt_count += n;
    }
    ModelWidths {
        act_per_layer: act_layer_bits / act_count.max(1.0),
        act_per_value: act_value_bits / act_count.max(1.0),
        wgt_per_layer: wgt_layer_bits / wgt_count.max(1.0),
        wgt_per_value: wgt_value_bits / wgt_count.max(1.0),
        act_work_reduction: act_red / act_count.max(1.0),
        wgt_work_reduction: wgt_red / wgt_count.max(1.0),
    }
}

/// Runs the figure over the full zoo.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 4: per-layer vs per-value width and work reduction\n"
    )?;
    writeln!(
        out,
        "{}",
        header(
            "model",
            &["actPL", "actPV", "wgtPL", "wgtPV", "actWR", "wgtWR"]
        )
    )?;
    let seeds: Vec<u64> = (1..=inputs()).collect();
    let nets: Vec<_> = ss_models::zoo::all().into_iter().map(scaled).collect();
    let rows = par_map(&nets, thread_count(), |net| {
        (net.name().to_string(), measure(net, &seeds))
    });
    for (name, m) in rows {
        writeln!(
            out,
            "{}",
            row(
                &name,
                &[
                    m.act_per_layer,
                    m.act_per_value,
                    m.wgt_per_layer,
                    m.wgt_per_value,
                    m.act_work_reduction,
                    m.wgt_work_reduction,
                ]
            )
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_value_is_always_narrower_than_per_layer() {
        let net = ss_models::zoo::vgg_m().scaled_down(8);
        let m = measure(&net, &[1]);
        assert!(m.act_per_value < m.act_per_layer);
        assert!(m.wgt_per_value < m.wgt_per_layer);
        assert!(m.act_work_reduction > 0.3, "{}", m.act_work_reduction);
        assert!((0.0..1.0).contains(&m.wgt_work_reduction));
    }
}
