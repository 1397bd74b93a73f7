//! End-to-end functional check: a convolution computed through the
//! bit-serial SIP datapath with per-group dynamic widths (the SStripes
//! path) produces bit-identical outputs to a direct integer reference —
//! the paper's "SStripes does not affect accuracy, and produces the same
//! numerical result as Stripes" (§4), demonstrated on an actual layer
//! computation rather than a single dot product.

use ss_models::ValueGen;
use ss_sim::sip::{compose, SerialIp, SIP_LANES};
use ss_tensor::{FixedType, Tensor};

/// A small convolution problem: `out_ch` filters of `in_ch x k x k` over
/// an `in_ch x h x w` input, unit stride, no padding.
struct ConvProblem {
    out_ch: usize,
    in_ch: usize,
    k: usize,
    h: usize,
    w: usize,
    weights: Tensor,
    acts: Tensor,
}

impl ConvProblem {
    fn new(seed: u64) -> Self {
        let (out_ch, in_ch, k, h, w) = (4, 8, 3, 6, 6);
        let weights = ValueGen::from_width_target(4.5, 0.1, FixedType::I16)
            .tensor_flat(out_ch * in_ch * k * k, seed);
        let acts = ValueGen::from_width_target(5.0, 0.5, FixedType::U16)
            .tensor_flat(in_ch * h * w, seed + 1);
        Self {
            out_ch,
            in_ch,
            k,
            h,
            w,
            weights,
            acts,
        }
    }

    fn act(&self, c: usize, y: usize, x: usize) -> i32 {
        self.acts.values()[(c * self.h + y) * self.w + x]
    }

    fn weight(&self, f: usize, c: usize, dy: usize, dx: usize) -> i32 {
        self.weights.values()[((f * self.in_ch + c) * self.k + dy) * self.k + dx]
    }

    fn out_hw(&self) -> usize {
        self.h - self.k + 1
    }

    /// Direct integer reference.
    fn reference(&self) -> Vec<i64> {
        let o = self.out_hw();
        let mut out = vec![0i64; self.out_ch * o * o];
        for f in 0..self.out_ch {
            for y in 0..o {
                for x in 0..o {
                    let mut acc = 0i64;
                    for c in 0..self.in_ch {
                        for dy in 0..self.k {
                            for dx in 0..self.k {
                                acc += i64::from(self.weight(f, c, dy, dx))
                                    * i64::from(self.act(c, y + dy, x + dx));
                            }
                        }
                    }
                    out[(f * o + y) * o + x] = acc;
                }
            }
        }
        out
    }

    /// The receptive-field values for one output position, flattened in
    /// the same order as the filter weights.
    fn window(&self, y: usize, x: usize) -> Vec<i32> {
        let mut v = Vec::with_capacity(self.in_ch * self.k * self.k);
        for c in 0..self.in_ch {
            for dy in 0..self.k {
                for dx in 0..self.k {
                    v.push(self.act(c, y + dy, x + dx));
                }
            }
        }
        v
    }

    /// The same convolution evaluated through bit-serial SIPs: each
    /// output accumulates over groups of up to [`SIP_LANES`] lanes, each
    /// group processed at its detected width. Also counts the serial
    /// cycles spent.
    fn bit_serial(&self, use_composer: bool) -> (Vec<i64>, u64) {
        let o = self.out_hw();
        let mut out = vec![0i64; self.out_ch * o * o];
        let mut cycles = 0u64;
        for f in 0..self.out_ch {
            let filter: Vec<i32> = (0..self.in_ch)
                .flat_map(|c| {
                    (0..self.k).flat_map(move |dy| (0..self.k).map(move |dx| (c, dy, dx)))
                })
                .map(|(c, dy, dx)| self.weight(f, c, dy, dx))
                .collect();
            for y in 0..o {
                for x in 0..o {
                    let window = self.window(y, x);
                    let mut acc = 0i64;
                    for (wchunk, achunk) in filter.chunks(SIP_LANES).zip(window.chunks(SIP_LANES)) {
                        let bits =
                            ss_tensor::width::group_width(achunk, ss_tensor::Signedness::Unsigned);
                        cycles += u64::from(bits);
                        if use_composer {
                            acc += compose(wchunk, achunk, bits);
                        } else {
                            let mut sip = SerialIp::new(wchunk);
                            sip.process_group(achunk, bits);
                            acc += sip.accumulator();
                        }
                    }
                    out[(f * o + y) * o + x] = acc;
                }
            }
        }
        (out, cycles)
    }
}

#[test]
fn bit_serial_conv_matches_reference_exactly() {
    for seed in [1u64, 2, 3] {
        let p = ConvProblem::new(seed);
        let reference = p.reference();
        let (serial, _) = p.bit_serial(false);
        assert_eq!(serial, reference, "seed {seed}");
    }
}

#[test]
fn composer_conv_matches_reference_exactly() {
    // 16b weights split across paired 8b SIPs and re-composed: still
    // bit-identical.
    for seed in [4u64, 5] {
        let p = ConvProblem::new(seed);
        assert_eq!(p.bit_serial(true).0, p.reference(), "seed {seed}");
    }
}

#[test]
fn dynamic_widths_save_cycles_over_worst_case() {
    let p = ConvProblem::new(9);
    let (_, dynamic_cycles) = p.bit_serial(false);
    // Worst case: every group at the full 16 bits.
    let o = p.out_hw();
    let groups_per_window = (p.in_ch * p.k * p.k).div_ceil(SIP_LANES) as u64;
    let worst = (p.out_ch * o * o) as u64 * groups_per_window * 16;
    assert!(
        (dynamic_cycles as f64) < 0.6 * worst as f64,
        "dynamic {dynamic_cycles} vs worst {worst}"
    );
}
