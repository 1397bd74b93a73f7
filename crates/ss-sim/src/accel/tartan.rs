//! Tartan (Delmas et al., 2017) — the Stripes derivative that also
//! exploits *weight* precision on fully-connected layers.
//!
//! The paper's related-work section notes "ShapeShifter is directly
//! compatible with Tartan and would increase benefits by adjusting
//! precisions per weight group instead. Due to limited space an evaluation
//! of this design is left for future work" (§6) — this module is that
//! evaluation.

use crate::accel::{Accelerator, LayerSignals};
use crate::energy::EnergyModel;

/// Tartan: convolutional layers run activation-bit-serially (weights are
/// reused across windows, so activation precision is the lever, exactly
/// as in Stripes); fully-connected and LSTM layers run weight-bit-serially
/// (weights are single-use there, so weight precision is the lever and
/// Stripes' activation-serial scheme gains nothing).
///
/// The baseline uses per-layer profiled precisions;
/// [`Tartan::with_shapeshifter`] adapts per group — the future-work design
/// the paper sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tartan {
    dynamic: bool,
}

/// Same serial-lane budget as Stripes (iso-peak methodology).
const LANES: u64 = 16 * 256 * 16;

impl Tartan {
    /// Baseline Tartan with per-layer profiled precisions.
    #[must_use]
    pub fn new() -> Self {
        Self { dynamic: false }
    }

    /// ShapeShifter-Tartan: per-group dynamic precisions.
    #[must_use]
    pub fn with_shapeshifter() -> Self {
        Self { dynamic: true }
    }

    /// Whether per-group dynamic widths are in use.
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// The serial width this layer pays per lane-step: activation width on
    /// weight-reusing (convolutional) layers, weight width on
    /// weight-streaming (FC/LSTM) layers, where per-weight reuse is too
    /// low for the activation-serial scheme to amortize anything.
    #[must_use]
    pub fn serial_width(&self, sig: &LayerSignals) -> f64 {
        let weight_streaming = sig.weight_reuse < 32;
        match (weight_streaming, self.dynamic) {
            (false, false) => f64::from(sig.act_profiled.max(1)),
            (false, true) => sig.act_eff_clamped(),
            (true, false) => f64::from(sig.wgt_profiled.max(1)),
            (true, true) => sig.wgt_eff_clamped(),
        }
    }
}

impl Default for Tartan {
    fn default() -> Self {
        Self::new()
    }
}

impl Accelerator for Tartan {
    fn name(&self) -> &str {
        if self.dynamic {
            "SS-Tartan"
        } else {
            "Tartan"
        }
    }

    fn compute_cycles(&self, sig: &LayerSignals) -> u64 {
        (sig.macs as f64 * self.serial_width(sig) / LANES as f64).ceil() as u64
    }

    fn compute_energy_pj(&self, sig: &LayerSignals, em: &EnergyModel) -> f64 {
        sig.macs as f64 * self.serial_width(sig) * em.serial_bit_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::tests::conv16;
    use crate::accel::Stripes;

    fn fc16() -> LayerSignals {
        let mut s = conv16();
        s.weight_reuse = 1; // one MAC per weight
        s
    }

    #[test]
    fn conv_layers_match_stripes() {
        let sig = conv16(); // high weight reuse
        assert_eq!(
            Tartan::new().compute_cycles(&sig),
            Stripes::new().compute_cycles(&sig)
        );
    }

    #[test]
    fn fc_layers_use_weight_precision() {
        let mut sig = fc16();
        sig.wgt_profiled = 6;
        sig.act_profiled = 12;
        let t = Tartan::new();
        // 6-bit weights, not 12-bit activations, set the cycle count.
        assert_eq!(
            t.compute_cycles(&sig),
            (sig.macs * 6).div_ceil(16 * 256 * 16)
        );
        // Stripes pays the activation width instead.
        assert!(Stripes::new().compute_cycles(&sig) == 2 * t.compute_cycles(&sig));
    }

    #[test]
    fn dynamic_variant_uses_group_widths() {
        let mut sig = fc16();
        sig.wgt_profiled = 8;
        sig.wgt_eff_sync = 4.0;
        let base = Tartan::new();
        let ss = Tartan::with_shapeshifter();
        assert!(
            (base.compute_cycles(&sig) as f64 / ss.compute_cycles(&sig) as f64 - 2.0).abs() < 0.01
        );
        assert_eq!(ss.name(), "SS-Tartan");
    }
}
