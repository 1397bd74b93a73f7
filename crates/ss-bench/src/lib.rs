#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the
//! ShapeShifter paper.
//!
//! Each experiment lives in [`figs`] as a `run(&mut impl Write)` function,
//! listed by slug in [`figs::EXPERIMENTS`]. The `all_experiments` binary
//! runs them: `cargo run --release -p ss-bench --bin all_experiments --
//! fig08a_traffic` prints the same rows/series the paper reports, and with
//! no slug it regenerates everything for `EXPERIMENTS.md`.
//!
//! Two environment knobs trade fidelity for speed (full scale is the
//! default and what `EXPERIMENTS.md` records):
//!
//! * `SS_SCALE=n` — divide every network's channels/spatial extents by
//!   `n` (geometry shrinks ~n³; value statistics are unchanged).
//! * `SS_INPUTS=k` — number of distinct inputs averaged per measurement.
//!
//! The per-model measurements of a figure are independent, so figures map
//! them with [`ss_core::par::par_map`] over
//! [`ss_core::par::thread_count`] workers (`SS_THREADS`); results come
//! back in input order, so the output does not depend on the count.

pub mod figs;
pub mod stats_cache;
pub mod suites;
pub mod trace;

use std::env;

pub use stats_cache::SharedStats;

/// Geometry divisor from `SS_SCALE` (default 1 = full published size).
#[must_use]
pub fn scale() -> usize {
    env::var("SS_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}

/// Input count from `SS_INPUTS` (default 3).
#[must_use]
pub fn inputs() -> u64 {
    env::var("SS_INPUTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(3)
}

/// Applies the `SS_SCALE` divisor to a zoo network.
#[must_use]
pub fn scaled(net: ss_models::Network) -> ss_models::Network {
    let s = scale();
    if s == 1 {
        net
    } else {
        net.scaled_down(s)
    }
}

/// Geometric mean of strictly positive values (the paper's preferred
/// cross-network average). Returns 1.0 for an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a row of `(label, values...)` with fixed column widths.
#[must_use]
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<24}");
    for v in values {
        s.push_str(&format!(" {v:>9.3}"));
    }
    s
}

/// Formats a header row to match [`row`]'s columns.
#[must_use]
pub fn header(label: &str, cols: &[&str]) -> String {
    let mut s = format!("{label:<24}");
    for c in cols {
        s.push_str(&format!(" {c:>9}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_alignment() {
        let h = header("model", &["a", "b"]);
        let r = row("x", &[1.0, 2.0]);
        assert_eq!(h.len(), r.len());
    }

    #[test]
    fn env_defaults() {
        // Defaults apply when the vars are unset in the test environment.
        assert!(scale() >= 1);
        assert!(inputs() >= 1);
    }
}
