//! Figure 13: SStripes compute/memory time breakdown — the fraction of
//! wall-clock time the datapath is busy vs stalled on off-chip memory.

use std::io::{self, Write};

use ss_core::par::{par_map, thread_count};
use ss_core::scheme::ShapeShifterScheme;
use ss_sim::accel::SStripes;
use ss_sim::sim::{simulate, SimConfig};
use ss_sim::TensorSource;

use crate::suites::{suite_16b, suite_ra8, suite_tf8};
use crate::{header, row};

/// Compute-time fraction for one model on SStripes + ShapeShifter.
#[must_use]
pub fn breakdown(model: &(dyn TensorSource + Sync), seed: u64) -> f64 {
    let cfg = SimConfig::default();
    simulate(
        model,
        &SStripes::new(),
        &ShapeShifterScheme::default(),
        &cfg,
        seed,
    )
    .compute_time_fraction()
}

/// Runs the figure.
pub fn run(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "# Figure 13: SStripes compute vs memory time breakdown\n"
    )?;
    writeln!(out, "{}", header("model", &["compute", "memory"]))?;
    let n16 = suite_16b();
    let tf = suite_tf8();
    let ra = suite_ra8();
    let mut all: Vec<&(dyn TensorSource + Sync)> = vec![];
    all.extend(n16.iter().map(|n| n as &(dyn TensorSource + Sync)));
    all.extend(tf.iter().map(|n| n as &(dyn TensorSource + Sync)));
    all.extend(ra.iter().map(|n| n as &(dyn TensorSource + Sync)));
    let rows = par_map(&all, thread_count(), |m| {
        (m.name().to_string(), breakdown(*m, 1))
    });
    for (name, c) in rows {
        writeln!(out, "{}", row(&name, &[c, 1.0 - c]))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_quant::{QuantMethod, QuantizedNetwork};

    #[test]
    fn segnet_is_compute_bound_and_bilstm_memory_bound() {
        // The paper's §5.2 dichotomy. SegNet stays near 100% compute;
        // BiLSTM (weight-streaming LSTMs) waits on memory much more.
        // Down-scaling shrinks MACs (~n^4 for convs) faster than traffic
        // (~n^3), so the scaled SegNet is less compute-bound than the full
        // model; scale 2 keeps the dichotomy visible at test cost.
        let segnet = QuantizedNetwork::new(
            ss_models::zoo::segnet().scaled_down(2),
            QuantMethod::RangeAware,
        );
        let bilstm = QuantizedNetwork::new(ss_models::zoo::bilstm(), QuantMethod::RangeAware);
        let c_seg = breakdown(&segnet, 1);
        let c_lstm = breakdown(&bilstm, 1);
        assert!(c_seg > 0.55, "SegNet compute fraction {c_seg}");
        assert!(c_lstm < 0.5, "BiLSTM compute fraction {c_lstm}");
        assert!(
            c_lstm < c_seg,
            "BiLSTM ({c_lstm}) must stall more than SegNet ({c_seg})"
        );
    }
}
