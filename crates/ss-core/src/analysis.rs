//! The width-measurement machinery behind the paper's Section 2:
//! per-group width distributions (Figures 1–3), per-layer effective widths
//! (Table 1), and per-layer vs per-value comparisons (Figure 4).

use ss_tensor::{width, Signedness, Tensor};

/// Distribution of per-group widths for one tensor at one group size —
/// the data behind each curve of Figures 1–3.
///
/// # Examples
///
/// ```
/// use ss_core::analysis::WidthDistribution;
/// use ss_tensor::{FixedType, Shape, Tensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = Tensor::from_vec(Shape::flat(8), FixedType::U8, vec![1, 1, 1, 1, 200, 1, 1, 1])?;
/// let d = WidthDistribution::of(&t, 4);
/// // First group needs 1 bit, second 8: half the groups fit in 1 bit.
/// assert!((d.cdf_at(1) - 0.5).abs() < 1e-12);
/// assert!((d.cdf_at(8) - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthDistribution {
    /// `counts[w]` = number of groups whose width is exactly `w`.
    counts: Vec<u64>,
    group_size: usize,
    total_groups: u64,
}

impl WidthDistribution {
    /// Measures the per-group width distribution of a tensor.
    ///
    /// Each group's width comes from the u64-lane OR-fold
    /// (`width::group_width`) — the same word-parallel detector the
    /// codec's hot path uses — so sweeping the §2 figures over whole
    /// networks costs one streaming pass per granularity.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    #[must_use]
    pub fn of(tensor: &Tensor, group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be non-zero");
        let signedness = tensor.signedness();
        let max_w = match signedness {
            Signedness::Unsigned => tensor.dtype().bits(),
            Signedness::Signed => tensor.dtype().bits(),
        } as usize;
        let mut counts = vec![0u64; max_w + 1];
        let mut total = 0u64;
        for g in tensor.values().chunks(group_size) {
            let w = width::group_width(g, signedness) as usize;
            counts[w.min(max_w)] += 1;
            total += 1;
        }
        Self {
            counts,
            group_size,
            total_groups: total,
        }
    }

    /// The group size measured.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of groups measured.
    #[must_use]
    pub fn total_groups(&self) -> u64 {
        self.total_groups
    }

    /// Fraction of groups whose width is at most `w` (a point of the
    /// figure's cumulative curve).
    #[must_use]
    pub fn cdf_at(&self, w: u8) -> f64 {
        if self.total_groups == 0 {
            return 1.0;
        }
        let upto: u64 = self.counts.iter().take(usize::from(w) + 1).sum();
        upto as f64 / self.total_groups as f64
    }

    /// The whole cumulative curve, index = width.
    #[must_use]
    pub fn cdf(&self) -> Vec<f64> {
        (0..self.counts.len())
            .map(|w| self.cdf_at(w as u8))
            .collect()
    }

    /// Mean group width — the effective width of Table 1 when groups are
    /// full-sized.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total_groups == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(w, &c)| w as u64 * c)
            .sum();
        sum as f64 / self.total_groups as f64
    }
}

/// Average per-value width: the "per value" bars of Figure 4, where each
/// value is charged only the bits it individually needs.
#[must_use]
pub fn per_value_width(tensor: &Tensor) -> f64 {
    if tensor.is_empty() {
        return 0.0;
    }
    let s = tensor.signedness();
    let sum: u64 = tensor
        .values()
        .iter()
        .map(|&v| u64::from(width::value_width(v, s)))
        .sum();
    sum as f64 / tensor.len() as f64
}

/// Work reduction from per-value width detection relative to the
/// profile-derived per-layer width (Figure 4's left axis): the fraction of
/// bit-serial compute cycles saved when each value is processed at its own
/// width instead of the layer's.
///
/// Returns 0.0 when the profiled width is zero (an all-zero layer).
#[must_use]
pub fn work_reduction(tensor: &Tensor, profiled_width: u8) -> f64 {
    if tensor.is_empty() || profiled_width == 0 {
        return 0.0;
    }
    1.0 - per_value_width(tensor) / f64::from(profiled_width)
}

/// One row of Table 1: per-layer effective widths at group size 16 plus
/// the overall reduction relative to the profile-derived widths (bit
/// volume weighted by each layer's value count).
#[derive(Debug, Clone, PartialEq)]
pub struct EffectiveWidthRow {
    /// Per-layer effective widths.
    pub widths: Vec<f64>,
    /// `1 - effective_bits / profiled_bits` over the whole network.
    pub reduction: f64,
}

/// Builds a Table-1 row from per-layer `(tensor, profiled_width)` pairs.
#[must_use]
pub fn effective_width_row(layers: &[(Tensor, u8)], group_size: usize) -> EffectiveWidthRow {
    let mut widths = Vec::with_capacity(layers.len());
    let mut eff_bits = 0.0;
    let mut prof_bits = 0.0;
    for (tensor, profiled) in layers {
        let eff = tensor.effective_width(group_size);
        widths.push(eff);
        eff_bits += eff * tensor.len() as f64;
        prof_bits += f64::from(*profiled) * tensor.len() as f64;
    }
    let reduction = if prof_bits > 0.0 {
        1.0 - eff_bits / prof_bits
    } else {
        0.0
    };
    EffectiveWidthRow { widths, reduction }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::{FixedType, Shape};

    fn t(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::U16, vals).unwrap()
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let tensor = t((0..160).map(|i| (i * 97) % 1024).collect());
        let d = WidthDistribution::of(&tensor, 16);
        let cdf = d.cdf();
        for pair in cdf.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(d.total_groups(), 10);
    }

    #[test]
    fn smaller_groups_shift_the_cdf_left() {
        // Figure 1's observation: smaller groups need narrower widths.
        let vals: Vec<i32> = (0..4096)
            .map(|i| if i % 64 == 0 { 30_000 } else { i % 7 })
            .collect();
        let tensor = t(vals);
        let d16 = WidthDistribution::of(&tensor, 16);
        let d256 = WidthDistribution::of(&tensor, 256);
        assert!(d16.mean() < d256.mean());
        for w in 0..=16u8 {
            assert!(d16.cdf_at(w) + 1e-12 >= d256.cdf_at(w), "width {w}");
        }
    }

    #[test]
    fn mean_matches_tensor_effective_width() {
        let tensor = t((0..320).map(|i| (i * 31) % 900).collect());
        let d = WidthDistribution::of(&tensor, 16);
        assert!((d.mean() - tensor.effective_width(16)).abs() < 1e-12);
    }

    #[test]
    fn per_value_width_is_a_lower_bound() {
        let tensor = t((0..160).map(|i| (i * 11) % 500).collect());
        assert!(per_value_width(&tensor) <= tensor.effective_width(16));
        assert!(per_value_width(&tensor) <= f64::from(tensor.profiled_width()));
    }

    #[test]
    fn work_reduction_bounds() {
        let tensor = t(vec![1, 2, 3, 1000]);
        let r = work_reduction(&tensor, tensor.profiled_width());
        assert!((0.0..1.0).contains(&r), "reduction {r}");
        assert_eq!(work_reduction(&t(vec![]), 10), 0.0);
        assert_eq!(work_reduction(&tensor, 0), 0.0);
    }

    #[test]
    fn table1_row_reduction() {
        let layers = vec![(t(vec![1, 1, 1, 1]), 8u8), (t(vec![255; 4]), 8u8)];
        let row = effective_width_row(&layers, 4);
        assert_eq!(row.widths.len(), 2);
        // Layer 1 groups need 1 bit, layer 2 needs 8: eff = (1*4 + 8*4),
        // profiled = 8*8 -> reduction = 1 - 36/64.
        assert!((row.reduction - (1.0 - 36.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution() {
        let tensor = t(vec![]);
        let d = WidthDistribution::of(&tensor, 16);
        assert_eq!(d.total_groups(), 0);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.cdf_at(3), 1.0);
    }
}
