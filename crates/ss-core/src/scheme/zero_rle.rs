//! Zero run-length compression as used by Eyeriss and SCNN — the
//! paper's "Zero compression" bars.

use ss_tensor::{Tensor, TensorStats};

use crate::kernels;
use crate::scheme::{CompressionScheme, SchemeCtx};

/// Zero run-length encoding: the stream is a sequence of
/// `(run, value)` tokens where `run` counts the zeros preceding `value`,
/// in `run_bits` bits (Eyeriss uses 5-bit runs for 16-bit data). Runs
/// longer than the field encodes are split with explicit zero values, and
/// trailing zeros cost a final token.
///
/// Unlike ShapeShifter this scheme can *expand* dense data — every
/// non-zero value pays the run field on top of its full-width container —
/// which is exactly what Figure 8a shows on the TF-quantized models whose
/// zero population the quantizer destroyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZeroRle {
    run_bits: u8,
}

impl ZeroRle {
    /// Creates the scheme with the given run-length field width.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= run_bits <= 16`.
    #[must_use]
    pub fn new(run_bits: u8) -> Self {
        assert!(
            (1..=16).contains(&run_bits),
            "run field width {run_bits} outside 1..=16"
        );
        Self { run_bits }
    }

    /// Maximum zero-run a single token can express.
    #[must_use]
    pub fn max_run(&self) -> u64 {
        (1 << self.run_bits) - 1
    }

    /// Number of `(run, value)` tokens needed for a value slice.
    ///
    /// Counted a bitmap word at a time: [`kernels::zero_bitmap64`] turns
    /// 64 values into one zero mask, and each non-zero position is
    /// visited by clearing trailing set bits — a run of `L` zeros before
    /// a value contributes `L / (max_run + 1)` saturated `(max_run, 0)`
    /// tokens plus the value's own token, with runs carried across word
    /// boundaries. Equivalent to the per-value state machine retained in
    /// [`ZeroRle::token_count_scalar`], the differential-test reference.
    #[must_use]
    pub fn token_count(&self, values: &[i32]) -> u64 {
        // One saturated token consumes max_run zeros plus the explicit
        // zero travelling in its value slot.
        let span = self.max_run() + 1;
        let mut tokens = 0u64;
        let mut run = 0u64;
        for chunk in values.chunks(64) {
            let used = chunk.len() as u64;
            let mask = if used == 64 {
                u64::MAX
            } else {
                (1u64 << used) - 1
            };
            let mut nz = !kernels::zero_bitmap64(chunk) & mask;
            let mut pos = 0u64;
            while nz != 0 {
                let i = u64::from(nz.trailing_zeros());
                // Positions pos..i are all zeros: the carried run ends at
                // this value.
                let zeros = run + (i - pos);
                tokens += zeros / span + 1;
                run = 0;
                pos = i + 1;
                nz &= nz - 1;
            }
            run += used - pos;
        }
        if run > 0 {
            // Trailing zeros: full saturated tokens plus a terminator for
            // the remainder.
            tokens += run / span + u64::from(!run.is_multiple_of(span));
        }
        tokens
    }

    /// The per-value reference implementation of
    /// [`ZeroRle::token_count`]: a literal transcription of the token
    /// state machine, kept as the oracle the word-parallel counter is
    /// differential-tested against.
    #[must_use]
    pub fn token_count_scalar(&self, values: &[i32]) -> u64 {
        let max_run = self.max_run();
        let mut tokens = 0u64;
        let mut run = 0u64;
        for &v in values {
            if v == 0 {
                if run == max_run {
                    // The run field is saturated: this zero travels in the
                    // token's value slot, closing a (max_run, 0) token.
                    tokens += 1;
                    run = 0;
                } else {
                    run += 1;
                }
            } else {
                tokens += 1;
                run = 0;
            }
        }
        if run > 0 {
            tokens += 1; // trailing zeros need a terminator token
        }
        tokens
    }
}

impl Default for ZeroRle {
    /// Eyeriss's 5-bit run-length field.
    fn default() -> Self {
        Self::new(5)
    }
}

impl CompressionScheme for ZeroRle {
    fn name(&self) -> &str {
        "Zero compression"
    }

    fn compressed_bits(&self, tensor: &Tensor, _ctx: &SchemeCtx) -> u64 {
        self.token_count(tensor.values())
            * (u64::from(self.run_bits) + u64::from(tensor.dtype().bits()))
    }

    fn compressed_bits_from_stats(&self, stats: &TensorStats, _ctx: &SchemeCtx) -> Option<u64> {
        Some(
            stats.zero_rle_tokens(self.max_run())
                * (u64::from(self.run_bits) + u64::from(stats.dtype().bits())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{FixedType, Shape};

    fn t(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::U16, vals).unwrap()
    }

    #[test]
    fn dense_data_expands() {
        let tensor = t(vec![1; 32]);
        let scheme = ZeroRle::default();
        let ratio = scheme.ratio(&tensor, &SchemeCtx::unprofiled());
        assert!(ratio > 1.0, "dense data must expand, ratio {ratio}");
        assert_eq!(
            scheme.compressed_bits(&tensor, &SchemeCtx::unprofiled()),
            32 * (5 + 16)
        );
    }

    #[test]
    fn sparse_data_compresses() {
        let mut vals = vec![0i32; 31];
        vals.push(9);
        let tensor = t(vals);
        let scheme = ZeroRle::default();
        // One token: run 31 + value 9.
        assert_eq!(scheme.token_count(tensor.values()), 1);
        assert!(scheme.ratio(&tensor, &SchemeCtx::unprofiled()) < 0.05);
    }

    #[test]
    fn run_saturation_splits_tokens() {
        let scheme = ZeroRle::default();
        // 31 zeros fill the 5-bit run field; the 32nd travels as an
        // explicit zero value, then 5 needs its own token.
        let mut vals = vec![0i32; 31];
        vals.push(0); // saturating zero becomes the token's value
        vals.push(5);
        assert_eq!(scheme.token_count(&vals), 2);
        // Exactly 31 zeros + a value still fits one token.
        let mut vals = vec![0i32; 31];
        vals.push(5);
        assert_eq!(scheme.token_count(&vals), 1);
    }

    #[test]
    fn trailing_zeros_cost_a_token() {
        let scheme = ZeroRle::default();
        assert_eq!(scheme.token_count(&[1, 0, 0]), 2);
        assert_eq!(scheme.token_count(&[0, 0]), 1);
        assert_eq!(scheme.token_count(&[]), 0);
    }

    #[test]
    fn long_zero_tensor() {
        let scheme = ZeroRle::new(2); // max run 3
                                      // 8 zeros: (3,0) consumes 4, (3,0) consumes 4 -> 2 tokens.
        assert_eq!(scheme.token_count(&[0; 8]), 2);
        // 9 zeros: 2 full tokens + 1 trailing zero -> 3 tokens.
        assert_eq!(scheme.token_count(&[0; 9]), 3);
    }

    #[test]
    fn bitmap_counter_matches_scalar_reference() {
        // Runs that straddle 64-value bitmap words, saturate multiple
        // times, start at position 0, and trail off the end.
        let mut vals = vec![0i32; 70];
        vals.push(5);
        vals.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        vals.extend(vec![0i32; 130]);
        vals.push(-3);
        vals.extend(vec![0i32; 65]);
        for run_bits in [1u8, 2, 5, 16] {
            let scheme = ZeroRle::new(run_bits);
            assert_eq!(
                scheme.token_count(&vals),
                scheme.token_count_scalar(&vals),
                "run_bits {run_bits}"
            );
            assert_eq!(scheme.token_count(&[]), scheme.token_count_scalar(&[]));
        }
    }
}
