//! Order statistics over the benchmark's own sample vectors.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`,
/// which must be in ascending order: the smallest sample with at least
/// `p` percent of the samples at or below it. `None` for no samples.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // The relative nudge keeps float error (99.9 * 1000 / 100 is a hair
    // above 999) from bumping an exact rank to the next one.
    let x = p * n as f64 / 100.0;
    let rank = (x - x * 1e-12).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The nearest-rank `p`-th percentile of unsorted samples; 0 for none.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p).unwrap_or(0.0)
}

/// The nearest-rank median of unsorted samples; 0 for none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_examples() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&s, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&s, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&s, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&s, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(50.0));
    }

    #[test]
    fn nearest_rank_on_one_to_a_thousand() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(500.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(990.0));
        assert_eq!(nearest_rank(&s, 99.9), Some(999.0));
        assert_eq!(nearest_rank(&s, 0.01), Some(1.0));
    }

    #[test]
    fn edge_cases() {
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 80.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
