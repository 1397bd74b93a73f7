//! Functional model of the Stripes serial inner-product unit (SIP) and
//! the SStripes Composer (paper §4, Figure 7b).
//!
//! Where [`crate::accel`] models *throughput* analytically, this module
//! models the *datapath* bit by bit: a SIP multiply-accumulates 16
//! (activation, weight) pairs with the activation processed one bit per
//! cycle, LSB first, via shift-and-add of the weights. Terminating after
//! the group's detected width — the EOG signal — provably loses nothing,
//! because the detector's width covers every set bit; the tests verify
//! the paper's claim that SStripes "produces the same numerical result as
//! Stripes" against a direct integer dot product.

use ss_tensor::{width, Signedness};

use crate::accel::LayerSignals;

/// Lanes per SIP (16 activation/weight pairs, a paper design parameter).
pub const SIP_LANES: usize = 16;

/// A serial inner-product unit holding one set of weights.
///
/// # Examples
///
/// ```
/// use ss_sim::sip::SerialIp;
///
/// let mut sip = SerialIp::new(&[2, -3, 10, 0]);
/// let acts = [5, 1, 0, 9];
/// let cycles = sip.process_group(&acts, 3); // width-3 activations
/// assert_eq!(sip.accumulator(), 2 * 5 - 3 + 0 + 0);
/// assert_eq!(cycles, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialIp {
    weights: Vec<i64>,
    acc: i64,
}

impl SerialIp {
    /// Creates a SIP loaded with the given weights (up to
    /// [`SIP_LANES`]; fewer model a partially filled unit).
    ///
    /// # Panics
    ///
    /// Panics if more than [`SIP_LANES`] weights are supplied.
    #[must_use]
    pub fn new(weights: &[i32]) -> Self {
        assert!(
            weights.len() <= SIP_LANES,
            "a SIP holds at most {SIP_LANES} weights"
        );
        Self {
            weights: weights.iter().map(|&w| i64::from(w)).collect(),
            acc: 0,
        }
    }

    /// The running partial sum.
    #[must_use]
    pub fn accumulator(&self) -> i64 {
        self.acc
    }

    /// Clears the partial sum (a new output window).
    pub fn reset(&mut self) {
        self.acc = 0;
    }

    /// Processes one group of non-negative activations bit-serially for
    /// exactly `bits` cycles (the EOG cut-off), returning the cycles
    /// spent. Each cycle `c` adds `Σ w_l · bit_c(a_l)` shifted by `c` —
    /// the Figure 7b datapath.
    ///
    /// # Panics
    ///
    /// Panics if activation count differs from the loaded weight count or
    /// an activation is negative (Stripes streams magnitudes; signs ride
    /// with the weights).
    pub fn process_group(&mut self, acts: &[i32], bits: u8) -> u8 {
        assert_eq!(
            acts.len(),
            self.weights.len(),
            "activation lanes must match weight lanes"
        );
        assert!(
            acts.iter().all(|&a| a >= 0),
            "bit-serial activations are magnitudes"
        );
        for c in 0..u32::from(bits) {
            let mut row_sum = 0i64;
            for (&a, &w) in acts.iter().zip(&self.weights) {
                if (a >> c) & 1 == 1 {
                    row_sum += w;
                }
            }
            self.acc += row_sum << c;
        }
        bits
    }

    /// Processes a group at its *detected* width — the SStripes path:
    /// the dispatcher's width detector emits EOG after the widest live
    /// bit, so the unit spends only as many cycles as the group needs.
    pub fn process_group_dynamic(&mut self, acts: &[i32]) -> u8 {
        let w = width::group_width(acts, Signedness::Unsigned);
        self.process_group(acts, w)
    }
}

/// The Composer path: two 8-bit-weight SIPs carry the low and high halves
/// of a 16-bit weight; their partial sums combine as `low + (high << 8)`
/// when results drain to the partial-sum memory.
///
/// # Examples
///
/// ```
/// use ss_sim::sip::{compose, SerialIp};
///
/// let weights = [300, -4000];
/// let acts = [7, 12];
/// let direct: i64 = weights
///     .iter()
///     .zip(&acts)
///     .map(|(&w, &a)| i64::from(w) * i64::from(a))
///     .sum();
/// assert_eq!(compose(&weights, &acts, 4), direct);
/// ```
#[must_use]
pub fn compose(weights16: &[i32], acts: &[i32], bits: u8) -> i64 {
    // Two's-complement split: low byte unsigned, high part signed.
    let lo: Vec<i32> = weights16.iter().map(|&w| w & 0xFF).collect();
    let hi: Vec<i32> = weights16.iter().map(|&w| w >> 8).collect();
    let mut sip_lo = SerialIp::new(&lo);
    let mut sip_hi = SerialIp::new(&hi);
    sip_lo.process_group(acts, bits);
    sip_hi.process_group(acts, bits);
    sip_lo.accumulator() + (sip_hi.accumulator() << 8)
}

/// Cycle count the analytic SStripes law predicts for one group — kept
/// adjacent to the functional model so the two stay consistent (see the
/// cross-check test).
#[must_use]
pub fn analytic_group_cycles(sig: &LayerSignals) -> f64 {
    sig.act_eff_clamped()
}

/// The dispatcher's transposer: turns a group of up to 64 activation
/// magnitudes into bit-planes, one `u64` per bit position with lane `l`'s
/// bit in position `l` — the wire format the dispatcher streams to the
/// tiles ("a dispatcher per activation memory bank takes care of
/// transposing the values and communicating them bit-serially", §4).
///
/// Only `bits` planes are produced: the width detector has already bounded
/// the live positions.
///
/// # Panics
///
/// Panics if more than 64 lanes are supplied or any activation is
/// negative.
#[must_use]
pub fn transpose_to_bitplanes(acts: &[i32], bits: u8) -> Vec<u64> {
    assert!(acts.len() <= 64, "a plane word carries at most 64 lanes");
    assert!(
        acts.iter().all(|&a| a >= 0),
        "bit-serial activations are magnitudes"
    );
    (0..u32::from(bits))
        .map(|c| {
            acts.iter()
                .enumerate()
                .fold(0u64, |plane, (l, &a)| plane | (((a as u64 >> c) & 1) << l))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_models::ValueGen;
    use ss_tensor::FixedType;

    fn direct_dot(weights: &[i32], acts: &[i32]) -> i64 {
        weights
            .iter()
            .zip(acts)
            .map(|(&w, &a)| i64::from(w) * i64::from(a))
            .sum()
    }

    #[test]
    fn full_width_matches_direct_product() {
        let weights = [5, -3, 100, -32767, 0, 1, 77, -77];
        let acts = [9, 0, 65_535, 1, 4, 12_345, 2, 3];
        let mut sip = SerialIp::new(&weights);
        let cycles = sip.process_group(&acts, 16);
        assert_eq!(cycles, 16);
        assert_eq!(sip.accumulator(), direct_dot(&weights, &acts));
    }

    #[test]
    fn eog_early_termination_is_lossless() {
        // The central §4 claim: cutting at the detected width changes
        // nothing, on real zoo-like value distributions.
        let wgen = ValueGen::from_width_target(4.5, 0.0, FixedType::I16);
        let agen = ValueGen::from_width_target(4.0, 0.5, FixedType::U16);
        for seed in 0..50 {
            let w = wgen.tensor_flat(SIP_LANES, seed);
            let a = agen.tensor_flat(SIP_LANES, seed + 1000);
            let mut full = SerialIp::new(w.values());
            full.process_group(a.values(), 16);
            let mut early = SerialIp::new(w.values());
            let spent = early.process_group_dynamic(a.values());
            assert_eq!(full.accumulator(), early.accumulator(), "seed {seed}");
            assert!(spent <= 16);
            assert_eq!(spent, width::group_width(a.values(), Signedness::Unsigned));
        }
    }

    #[test]
    fn cycles_equal_group_width_never_layer_profile() {
        let acts = [3, 1, 2, 0]; // width 2
        let mut sip = SerialIp::new(&[1, 1, 1, 1]);
        assert_eq!(sip.process_group_dynamic(&acts), 2);
        assert_eq!(sip.accumulator(), 6);
    }

    #[test]
    fn accumulation_spans_groups() {
        // Partial sums accumulate across successive groups of the same
        // window, as in the real dataflow.
        let mut sip = SerialIp::new(&[2, 2]);
        sip.process_group_dynamic(&[1, 1]);
        sip.process_group_dynamic(&[3, 0]);
        assert_eq!(sip.accumulator(), 2 + 2 + 6);
        sip.reset();
        assert_eq!(sip.accumulator(), 0);
    }

    #[test]
    fn composer_matches_16b_sip_on_random_values() {
        let wgen = ValueGen::from_width_target(5.5, 0.0, FixedType::I16);
        let agen = ValueGen::from_width_target(5.0, 0.4, FixedType::U16);
        for seed in 0..50 {
            let w = wgen.tensor_flat(SIP_LANES, seed);
            let a = agen.tensor_flat(SIP_LANES, seed + 99);
            let composed = compose(w.values(), a.values(), 16);
            assert_eq!(composed, direct_dot(w.values(), a.values()), "seed {seed}");
        }
    }

    #[test]
    fn composer_with_early_termination() {
        // Both halves honour the same EOG: composition stays exact.
        let weights = [-30_000, 255, 256, -1];
        let acts = [7, 5, 3, 1]; // width 3
        let bits = width::group_width(&acts, Signedness::Unsigned);
        assert_eq!(compose(&weights, &acts, bits), direct_dot(&weights, &acts));
    }

    #[test]
    fn zero_width_group_takes_zero_cycles() {
        let mut sip = SerialIp::new(&[9, 9]);
        let spent = sip.process_group_dynamic(&[0, 0]);
        assert_eq!(spent, 0);
        assert_eq!(sip.accumulator(), 0);
    }

    #[test]
    #[should_panic(expected = "magnitudes")]
    fn negative_activations_rejected() {
        let mut sip = SerialIp::new(&[1]);
        let _ = sip.process_group(&[-1], 4);
    }

    #[test]
    fn transpose_roundtrips() {
        let acts = [0b101, 0b010, 0b111, 0b000];
        let planes = transpose_to_bitplanes(&acts, 3);
        assert_eq!(planes, vec![0b0101, 0b0110, 0b0101]);
        // Reassemble: value l = sum over planes of bit l << c.
        for (l, &a) in acts.iter().enumerate() {
            let mut v = 0i32;
            for (c, &plane) in planes.iter().enumerate() {
                v |= (((plane >> l) & 1) as i32) << c;
            }
            assert_eq!(v, a, "lane {l}");
        }
    }

    #[test]
    fn transpose_width_bounds_planes() {
        let planes = transpose_to_bitplanes(&[0xFFFF; 16], 16);
        assert_eq!(planes.len(), 16);
        assert!(planes.iter().all(|&p| p == 0xFFFF));
        assert!(transpose_to_bitplanes(&[1, 2], 0).is_empty());
    }

    #[test]
    fn planes_feed_the_sip_identically() {
        // Driving the SIP from bit-planes (the real wire format) matches
        // driving it from values.
        let weights = [3, -5, 7, 11];
        let acts = [6, 2, 9, 1];
        let bits = width::group_width(&acts, Signedness::Unsigned);
        let planes = transpose_to_bitplanes(&acts, bits);
        let mut acc = 0i64;
        for (c, &plane) in planes.iter().enumerate() {
            let mut row = 0i64;
            for (l, &w) in weights.iter().enumerate() {
                if (plane >> l) & 1 == 1 {
                    row += i64::from(w);
                }
            }
            acc += row << c;
        }
        assert_eq!(acc, direct_dot(&weights, &acts));
    }
}
