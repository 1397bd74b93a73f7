//! Precomputed per-tensor statistics: everything the traffic schemes, the
//! bit-serial cycle models, and the width figures need, from **one scan**
//! of the values.
//!
//! The experiment harness prices the same multi-million-value layer under
//! several compression schemes and several accelerator models, per figure.
//! Each of those consumers traditionally re-walked the raw values; this
//! module folds their scans into a single pass producing [`TensorStats`] —
//! a value-width histogram, zero counts and run lengths, and per-group-size
//! width aggregates — from which every downstream quantity is exact
//! arithmetic over a few hundred counters:
//!
//! * ShapeShifter container size (`Z`/`P`/payload accounting, §3) for any
//!   precomputed group size;
//! * per-layer Profile width and size;
//! * zero run-length token counts for **any** run-field width;
//! * effective width (Table 1) and group/value width CDFs (Figures 1–4).

use crate::width::{group_width, value_width};
use crate::{FixedType, Tensor};

/// Width histogram bucket count: widths 0..=32 (i32 magnitude + sign).
const WIDTH_BUCKETS: usize = 33;

/// Aggregates for one grouping granularity of a tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupStats {
    /// The grouping granularity these aggregates describe.
    pub group_size: usize,
    /// Number of groups (`ceil(len / group_size)`).
    pub group_count: u64,
    /// Histogram over group widths: `group_width_hist[w]` groups need
    /// exactly `w` bits (Figures 1–3 are CDFs of this).
    pub group_width_hist: [u64; WIDTH_BUCKETS],
    /// `sum(group_width * group_len)` — the numerator of effective width.
    pub weighted_width_bits: u64,
    /// `sum(group_width * nonzeros_in_group)` — exactly the codec's payload
    /// bits at this group size.
    pub payload_bits: u64,
}

/// One-pass measured statistics of a tensor's values.
///
/// Computed by [`TensorStats::compute`] for a chosen set of group sizes;
/// every accessor is then pure arithmetic (no value re-scans). Equality of
/// two `TensorStats` implies every derived quantity agrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorStats {
    len: usize,
    dtype: FixedType,
    zero_count: u64,
    /// `value_width_hist[w]` values need exactly `w` bits (zeros land in
    /// bucket 0).
    value_width_hist: [u64; WIDTH_BUCKETS],
    /// Interior maximal zero runs (each followed by a non-zero value),
    /// as `(run_length, occurrence_count)`, ascending by length.
    interior_zero_runs: Vec<(u64, u64)>,
    /// Length of the trailing zero run (not followed by a non-zero).
    trailing_zero_run: u64,
    /// Aggregates per requested group size, ascending by `group_size`.
    groups: Vec<GroupStats>,
}

impl TensorStats {
    /// Scans `tensor` once per statistic family: a scalar pass for the
    /// per-value width histogram and zero runs (irreducibly per-value
    /// work), then one streaming pass per grouping granularity in which
    /// each group's width comes from the word-parallel OR-fold
    /// ([`group_width`], the software Figure 5c detector) instead of a
    /// per-value compare-and-max state machine. Duplicate and zero group
    /// sizes are ignored.
    #[must_use]
    pub fn compute(tensor: &Tensor, group_sizes: &[usize]) -> Self {
        let values = tensor.values();
        let signedness = tensor.signedness();

        let mut sizes: Vec<usize> = group_sizes.iter().copied().filter(|&g| g > 0).collect();
        sizes.sort_unstable();
        sizes.dedup();

        let mut value_width_hist = [0u64; WIDTH_BUCKETS];
        let mut zero_count = 0u64;
        let mut runs = std::collections::BTreeMap::<u64, u64>::new();
        let mut run = 0u64;
        for &v in values {
            let w = value_width(v, signedness);
            value_width_hist[w as usize] += 1;
            if v == 0 {
                zero_count += 1;
                run += 1;
            } else if run > 0 {
                *runs.entry(run).or_insert(0) += 1;
                run = 0;
            }
        }

        let groups: Vec<GroupStats> = sizes
            .iter()
            .map(|&group_size| {
                let mut g = GroupStats {
                    group_size,
                    group_count: 0,
                    group_width_hist: [0; WIDTH_BUCKETS],
                    weighted_width_bits: 0,
                    payload_bits: 0,
                };
                for chunk in values.chunks(group_size) {
                    let w = group_width(chunk, signedness);
                    let nonzeros: u64 = chunk.iter().map(|&v| u64::from(v != 0)).sum();
                    g.observe_group(w, chunk.len(), nonzeros);
                }
                g
            })
            .collect();

        Self {
            len: values.len(),
            dtype: tensor.dtype(),
            zero_count,
            value_width_hist,
            interior_zero_runs: runs.into_iter().collect(),
            trailing_zero_run: run,
            groups,
        }
    }

    /// Element count of the measured tensor.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the measured tensor was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Container type of the measured tensor.
    #[must_use]
    pub fn dtype(&self) -> FixedType {
        self.dtype
    }

    /// Number of zero values.
    #[must_use]
    pub fn zero_count(&self) -> u64 {
        self.zero_count
    }

    /// Number of non-zero values.
    #[must_use]
    pub fn nonzero_count(&self) -> u64 {
        self.len as u64 - self.zero_count
    }

    /// Fraction of non-zero values (1.0 for an empty tensor, matching the
    /// simulator's convention).
    #[must_use]
    pub fn nonzero_fraction(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.nonzero_count() as f64 / self.len as f64
        }
    }

    /// Uncompressed footprint in bits: `len × container`.
    #[must_use]
    pub fn container_bits(&self) -> u64 {
        self.len as u64 * u64::from(self.dtype.bits())
    }

    /// Histogram of per-value widths (bucket `w` = values needing exactly
    /// `w` bits; zeros in bucket 0).
    #[must_use]
    pub fn value_width_hist(&self) -> &[u64; WIDTH_BUCKETS] {
        &self.value_width_hist
    }

    /// Cumulative distribution of per-value widths: entry `w` is the
    /// fraction of values representable in `w` bits or fewer (the Figure 4
    /// per-value series). All-ones for an empty tensor.
    #[must_use]
    pub fn value_width_cdf(&self) -> [f64; WIDTH_BUCKETS] {
        let mut cdf = [1.0; WIDTH_BUCKETS];
        if self.len == 0 {
            return cdf;
        }
        let mut acc = 0u64;
        for (w, &count) in self.value_width_hist.iter().enumerate() {
            acc += count;
            cdf[w] = acc as f64 / self.len as u64 as f64;
        }
        cdf
    }

    /// Measured per-layer profiled width: the widest value seen (what the
    /// Profile scheme must provision when it trusts this tensor as its own
    /// calibration set).
    #[must_use]
    pub fn profiled_width(&self) -> u8 {
        self.value_width_hist
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0) as u8
    }

    /// Aggregates for a grouping granularity, if it was requested at
    /// [`TensorStats::compute`] time.
    #[must_use]
    pub fn group(&self, group_size: usize) -> Option<&GroupStats> {
        self.groups.iter().find(|g| g.group_size == group_size)
    }

    /// Effective width at a precomputed group size (Table 1): average bits
    /// per value when each group costs its own width. `None` if the group
    /// size was not precomputed; 0.0 for an empty tensor.
    #[must_use]
    pub fn effective_width(&self, group_size: usize) -> Option<f64> {
        let g = self.group(group_size)?;
        Some(if self.len == 0 {
            0.0
        } else {
            g.weighted_width_bits as f64 / self.len as f64
        })
    }

    /// Exact ShapeShifter stream size at a precomputed group size:
    /// `(metadata_bits, payload_bits, groups)`, bit-identical to
    /// `ShapeShifterCodec::measure`/`encode`. `None` if the group size was
    /// not precomputed.
    ///
    /// Metadata is `len` Z bits plus one `prefix_bits` field per group;
    /// payload charges every non-zero its group's width — the same
    /// accounting, now over counters instead of values.
    #[must_use]
    pub fn shapeshifter_bits(&self, group_size: usize, prefix_bits: u8) -> Option<(u64, u64, u64)> {
        let g = self.group(group_size)?;
        let metadata = self.len as u64 + g.group_count * u64::from(prefix_bits);
        Some((metadata, g.payload_bits, g.group_count))
    }

    /// Exact zero-RLE `(run, value)` token count for **any** run-field
    /// width, from the zero-run histogram: a saturated token swallows
    /// `max_run + 1` zeros, every non-zero closes a token, and a trailing
    /// run needs a terminator.
    #[must_use]
    pub fn zero_rle_tokens(&self, max_run: u64) -> u64 {
        let span = max_run + 1;
        let mut tokens = self.nonzero_count();
        for &(len, count) in &self.interior_zero_runs {
            tokens += (len / span) * count;
        }
        tokens += self.trailing_zero_run / span;
        tokens += u64::from(!self.trailing_zero_run.is_multiple_of(span));
        tokens
    }
}

impl GroupStats {
    /// Folds one finished group into the aggregates.
    fn observe_group(&mut self, w: u8, filled: usize, nonzeros: u64) {
        self.group_count += 1;
        self.group_width_hist[w as usize] += 1;
        self.weighted_width_bits += u64::from(w) * filled as u64;
        self.payload_bits += u64::from(w) * nonzeros;
    }

    /// Cumulative distribution over group widths (the Figure 1–3 curves):
    /// entry `w` is the fraction of groups with width `<= w`. All-ones when
    /// there are no groups.
    #[must_use]
    pub fn width_cdf(&self) -> [f64; WIDTH_BUCKETS] {
        let mut cdf = [1.0; WIDTH_BUCKETS];
        if self.group_count == 0 {
            return cdf;
        }
        let mut acc = 0u64;
        for (w, &count) in self.group_width_hist.iter().enumerate() {
            acc += count;
            cdf[w] = acc as f64 / self.group_count as f64;
        }
        cdf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn t(dtype: FixedType, vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), dtype, vals).unwrap()
    }

    fn skewed(len: usize) -> Tensor {
        let vals: Vec<i32> = (0..len)
            .map(|i| match i % 7 {
                0..=2 => 0,
                3 | 4 => (i % 13) as i32 - 6,
                5 => 300 - (i % 100) as i32,
                _ => -(i.min(20_000) as i32),
            })
            .collect();
        t(FixedType::I16, vals)
    }

    #[test]
    fn counts_and_widths_match_direct_scans() {
        let tensor = skewed(1000);
        let stats = TensorStats::compute(&tensor, &[16, 256]);
        assert_eq!(stats.len(), tensor.len());
        assert_eq!(stats.zero_count(), tensor.num_zero() as u64);
        assert_eq!(stats.nonzero_count(), tensor.num_nonzero() as u64);
        assert_eq!(stats.profiled_width(), tensor.profiled_width());
        assert_eq!(stats.container_bits(), tensor.container_bits());
        let total: u64 = stats.value_width_hist().iter().sum();
        assert_eq!(total, tensor.len() as u64);
    }

    #[test]
    fn effective_width_matches_tensor_method() {
        let tensor = skewed(777); // deliberately not a multiple of 16 or 256
        let stats = TensorStats::compute(&tensor, &[16, 256]);
        for g in [16usize, 256] {
            let direct = tensor.effective_width(g);
            let from_stats = stats.effective_width(g).unwrap();
            assert!((direct - from_stats).abs() < 1e-12, "group {g}");
        }
        assert_eq!(stats.effective_width(64), None);
    }

    #[test]
    fn cdfs_are_monotone_and_end_at_one() {
        let tensor = skewed(500);
        let stats = TensorStats::compute(&tensor, &[16]);
        for cdf in [
            stats.value_width_cdf(),
            stats.group(16).unwrap().width_cdf(),
        ] {
            for pair in cdf.windows(2) {
                assert!(pair[0] <= pair[1] + 1e-15);
            }
            assert!((cdf[WIDTH_BUCKETS - 1] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_tensor_is_well_defined() {
        let tensor = t(FixedType::U8, vec![]);
        let stats = TensorStats::compute(&tensor, &[16]);
        assert!(stats.is_empty());
        assert_eq!(stats.nonzero_fraction(), 1.0);
        assert_eq!(stats.effective_width(16), Some(0.0));
        assert_eq!(stats.shapeshifter_bits(16, 4), Some((0, 0, 0)));
        assert_eq!(stats.zero_rle_tokens(31), 0);
    }

    #[test]
    fn zero_rle_tokens_match_known_cases() {
        // Mirrors the ZeroRle unit tests in ss-core.
        let cases: &[(&[i32], u64, u64)] = &[
            (&[1, 0, 0], 31, 2),
            (&[0, 0], 31, 1),
            (&[], 31, 0),
            (&[0; 8], 3, 2),
            (&[0; 9], 3, 3),
        ];
        for &(vals, max_run, want) in cases {
            let tensor = t(FixedType::U16, vals.to_vec());
            let stats = TensorStats::compute(&tensor, &[]);
            assert_eq!(stats.zero_rle_tokens(max_run), want, "{vals:?}");
        }
        // 31 zeros + value: one token at max_run 31; add a 32nd zero -> two.
        let mut vals = vec![0i32; 31];
        vals.push(5);
        let stats = TensorStats::compute(&t(FixedType::U16, vals.clone()), &[]);
        assert_eq!(stats.zero_rle_tokens(31), 1);
        vals.insert(0, 0);
        let stats = TensorStats::compute(&t(FixedType::U16, vals), &[]);
        assert_eq!(stats.zero_rle_tokens(31), 2);
    }

    #[test]
    fn group_sizes_are_deduped_and_sorted() {
        let tensor = skewed(100);
        let stats = TensorStats::compute(&tensor, &[256, 16, 16, 0]);
        assert!(stats.group(16).is_some());
        assert!(stats.group(256).is_some());
        assert!(stats.group(0).is_none());
        assert_eq!(stats.group(16).unwrap().group_count, 7);
        assert_eq!(stats.group(256).unwrap().group_count, 1);
    }

    #[test]
    fn signedness_feeds_width_histogram() {
        let tensor = t(FixedType::I8, vec![-1, 1, 0, -3]);
        let stats = TensorStats::compute(&tensor, &[2]);
        // Widths: -1 -> 2, 1 -> 2, 0 -> 0, -3 -> 3 (sign-magnitude).
        assert_eq!(stats.value_width_hist()[2], 2);
        assert_eq!(stats.value_width_hist()[3], 1);
        assert_eq!(stats.value_width_hist()[0], 1);
        assert_eq!(stats.profiled_width(), 3);
        // Groups of 2: widths 2 and 3; payload = 2*2 + 3*1.
        let g = stats.group(2).unwrap();
        assert_eq!(g.payload_bits, 2 * 2 + 3);
    }
}
