//! SStripes — the paper's surgical extension of Stripes (§4, Figure 7).

use crate::accel::{Accelerator, LayerSignals};
use crate::energy::EnergyModel;

/// ShapeShifter-Stripes: Stripes plus (1) a width-detection unit per
/// dispatcher that terminates each activation group early via the
/// end-of-group (EOG) signal, and (2) the optional **Composer** column.
///
/// With the Composer, SIPs shrink to 8-bit weights (1.8× smaller), so an
/// iso-area tile holds 16×28 SIPs instead of 16×16 — a 1.75× lane gain.
/// Layers whose profiled weight width exceeds 8 bits pair two
/// column-adjacent SIPs (upper/lower weight halves, summed by the
/// Composer's 2×36b adder as results drain to the partial-sum memory),
/// halving the effective lanes for those layers only.
///
/// Per-group cycles follow the *dynamic* per-group width — the worst group
/// among the 256 concurrently-broadcast activations (`act_eff_sync`) — not
/// the layer profile. "SStripes does not affect accuracy, and produces the
/// same numerical result as Stripes."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SStripes {
    composer: bool,
}

/// Lanes with 8b-weight SIPs: 16 tiles × 16 rows × 28 columns × 16 lanes.
const COMPOSER_LANES: u64 = 16 * 16 * 28 * 16;
/// Lanes with the original 16b-weight SIPs (no Composer).
const PLAIN_LANES: u64 = 16 * 256 * 16;

impl SStripes {
    /// The paper's configuration: 8b-weight SIPs plus a Composer column.
    #[must_use]
    pub fn new() -> Self {
        Self { composer: true }
    }

    /// The ablation without the Composer: 16b-weight SIPs, per-group
    /// dynamic widths only.
    #[must_use]
    pub fn without_composer() -> Self {
        Self { composer: false }
    }

    /// Whether the Composer column (and 8b-weight SIPs) is present.
    #[must_use]
    pub fn has_composer(&self) -> bool {
        self.composer
    }

    /// Effective concurrent MAC lanes for a layer.
    #[must_use]
    pub fn effective_lanes(&self, sig: &LayerSignals) -> u64 {
        if self.composer {
            if sig.wgt_profiled > 8 {
                COMPOSER_LANES / 2 // two SIPs per >8b weight
            } else {
                COMPOSER_LANES
            }
        } else {
            PLAIN_LANES
        }
    }
}

impl Default for SStripes {
    fn default() -> Self {
        Self::new()
    }
}

impl Accelerator for SStripes {
    fn name(&self) -> &str {
        if self.composer {
            "SStripes"
        } else {
            "SStripes (no composer)"
        }
    }

    fn compute_cycles(&self, sig: &LayerSignals) -> u64 {
        let lanes = self.effective_lanes(sig);
        (sig.macs as f64 * sig.act_eff_clamped() / lanes as f64).ceil() as u64
    }

    fn compute_energy_pj(&self, sig: &LayerSignals, em: &EnergyModel) -> f64 {
        sig.macs as f64 * sig.act_eff_clamped() * em.serial_bit_pj
    }

    fn composer_paired(&self, sig: &LayerSignals) -> bool {
        self.composer && sig.wgt_profiled > 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::tests::conv16;
    use crate::accel::Stripes;

    #[test]
    fn never_slower_than_stripes_per_layer() {
        // Per-group width <= profiled width by definition, and lanes are
        // >= half of 1.75x Stripes' — dynamic adaptation plus iso-area
        // lanes keep SStripes at or ahead of Stripes on every layer shape.
        let ss = SStripes::new();
        let st = Stripes::new();
        for (eff, prof, wprof) in [(5.0, 10u8, 9u8), (1.0, 16, 12), (7.9, 8, 8), (15.9, 16, 8)] {
            let mut sig = conv16();
            sig.act_eff_sync = eff;
            sig.act_profiled = prof;
            sig.wgt_profiled = wprof;
            assert!(
                ss.compute_cycles(&sig) <= st.compute_cycles(&sig),
                "eff {eff} prof {prof} wprof {wprof}"
            );
        }
    }

    #[test]
    fn composer_pairing_follows_weight_profile() {
        let mut sig = conv16();
        sig.wgt_profiled = 8;
        assert!(!SStripes::new().composer_paired(&sig));
        sig.wgt_profiled = 9;
        assert!(SStripes::new().composer_paired(&sig));
        // No Composer, no pairing regardless of width.
        assert!(!SStripes::without_composer().composer_paired(&sig));
        // The default trait impl reports no pairing for other designs.
        assert!(!Stripes::new().composer_paired(&sig));
    }

    #[test]
    fn wide_weights_halve_lanes() {
        let ss = SStripes::new();
        let mut sig = conv16();
        sig.wgt_profiled = 8;
        let narrow = ss.effective_lanes(&sig);
        sig.wgt_profiled = 9;
        let wide = ss.effective_lanes(&sig);
        assert_eq!(narrow, 2 * wide);
    }

    #[test]
    fn composer_ablation_uses_plain_lanes() {
        let ss = SStripes::without_composer();
        let mut sig = conv16();
        sig.wgt_profiled = 16;
        // Without composer, 16b weights are native: no halving.
        assert_eq!(ss.effective_lanes(&sig), 16 * 256 * 16);
        assert!(!ss.has_composer());
    }

    #[test]
    fn iso_area_lane_ratio_is_1_75x() {
        let sig = conv16(); // wgt_profiled 9 > 8 -> halved
        let mut narrow = sig;
        narrow.wgt_profiled = 7;
        assert_eq!(SStripes::new().effective_lanes(&narrow), 16 * 16 * 28 * 16);
        let ratio = SStripes::new().effective_lanes(&narrow) as f64 / Stripes::new().lanes() as f64;
        assert!((ratio - 1.75).abs() < 1e-12);
    }

    #[test]
    fn cycles_follow_dynamic_width() {
        let ss = SStripes::new();
        let mut sig = conv16();
        sig.wgt_profiled = 8;
        sig.act_eff_sync = 4.0;
        let c4 = ss.compute_cycles(&sig);
        sig.act_eff_sync = 8.0;
        let c8 = ss.compute_cycles(&sig);
        assert!((c8 as f64 / c4 as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn paper_example_goal() {
        // Figure 7a's goal: an 8b-profiled group whose values need only
        // 5 bits finishes in 5 cycles, not 8.
        let ss = SStripes::new();
        let st = Stripes::new();
        let mut sig = conv16();
        sig.macs = 65536 * 100;
        sig.act_profiled = 8;
        sig.act_eff_sync = 5.0;
        sig.wgt_profiled = 8;
        let stripes_cycles = st.compute_cycles(&sig); // 8 cycles/group
        let sstripes_cycles = ss.compute_cycles(&sig); // 5 cycles/group, more lanes
        let speedup = stripes_cycles as f64 / sstripes_cycles as f64;
        assert!(
            (speedup - (8.0 / 5.0) * 1.75).abs() < 0.05,
            "speedup {speedup}"
        );
    }
}
