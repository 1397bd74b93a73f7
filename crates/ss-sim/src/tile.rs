//! Loop-level cycle simulation of the Stripes/SStripes tile dataflow
//! (paper Figure 7c), used to validate the analytic throughput laws of
//! [`crate::accel`] against an exact walk of the synchronized broadcast
//! schedule.
//!
//! A tile holds a grid of SIPs: rows process different windows of the same
//! output channels, columns different output channels, and each SIP
//! multiply-accumulates 16 (activation, weight) lanes. One **broadcast
//! step** feeds every row its window's next 16 channel values for one
//! kernel position; all rows advance together, so the step lasts as long
//! as the *worst* row group needs — the layer profile under Stripes, the
//! detected per-group width under SStripes (EOG). This module walks every
//! step of a convolution and sums exact step durations.

use ss_tensor::{width, Signedness, Tensor};
use ss_trace::{Counter, WidthCounts, WidthHist};

use crate::SimError;

/// Rows of SIPs per tile (windows processed concurrently).
pub const TILE_ROWS: usize = 16;
/// Activation/weight lanes per SIP (channels per step).
pub const SIP_CHANNELS: usize = 16;

/// Geometry of the convolution being scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_ch: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Output channels (filters).
    pub out_ch: usize,
    /// SIP columns per tile × tiles: how many filters run concurrently.
    pub concurrent_filters: usize,
}

impl ConvGeometry {
    fn out_h(&self) -> usize {
        self.in_h - self.kh + 1
    }

    fn out_w(&self) -> usize {
        self.in_w - self.kw + 1
    }

    /// Activation value at `(c, y, x)` of a channel-innermost flat tensor
    /// (the layout the zoo generates and the paper groups along).
    fn act(&self, acts: &Tensor, c: usize, y: usize, x: usize) -> i32 {
        // ss-lint: allow(panic-freedom) -- tile_cycles rejects mismatched tensors with
        // GeometryMismatch before the walk, and every caller stays within
        // in_ch/in_h/in_w by loop construction
        acts.values()[(y * self.in_w + x) * self.in_ch + c]
    }
}

/// Exact tile cycles for one convolution under the synchronized broadcast
/// schedule.
///
/// `step_width` decides each step's duration from the 16 concurrent row
/// groups' detected widths: Stripes ignores them (fixed layer profile),
/// SStripes takes their maximum (the EOG of the slowest row), clamped to
/// one cycle.
///
/// With a collecting [`ss_trace`] recorder installed, the walk records
/// step/cycle counters and the worst-row EOG width of every synchronized
/// broadcast step ([`WidthHist::TileStepWidth`]).
///
/// # Errors
///
/// Returns [`SimError::GeometryMismatch`] when the tensor's element count
/// is not `in_ch * in_h * in_w`.
pub fn tile_cycles(
    geom: &ConvGeometry,
    acts: &Tensor,
    mut step_width: impl FnMut(&[u8]) -> u64,
) -> Result<u64, SimError> {
    let expected = geom.in_ch * geom.in_h * geom.in_w;
    if acts.len() != expected {
        return Err(SimError::GeometryMismatch {
            expected,
            actual: acts.len(),
        });
    }
    let rec = ss_trace::installed();
    let mut steps = 0u64;
    let mut step_widths = WidthCounts::new();
    let filter_blocks = geom.out_ch.div_ceil(geom.concurrent_filters) as u64;
    let mut cycles = 0u64;
    let mut widths = Vec::with_capacity(TILE_ROWS);
    let channel_groups = geom.in_ch.div_ceil(SIP_CHANNELS);
    for y in 0..geom.out_h() {
        // Rows take 16 adjacent output columns.
        for x0 in (0..geom.out_w()).step_by(TILE_ROWS) {
            let rows = (geom.out_w() - x0).min(TILE_ROWS);
            for dy in 0..geom.kh {
                for dx in 0..geom.kw {
                    for g in 0..channel_groups {
                        let c0 = g * SIP_CHANNELS;
                        let c1 = (c0 + SIP_CHANNELS).min(geom.in_ch);
                        widths.clear();
                        for r in 0..rows {
                            let (ay, ax) = (y + dy, x0 + r + dx);
                            let mut group = [0i32; SIP_CHANNELS];
                            for (slot, c) in group.iter_mut().zip(c0..c1) {
                                *slot = geom.act(acts, c, ay, ax);
                            }
                            // ss-lint: allow(panic-freedom) -- c1 - c0 <= SIP_CHANNELS, the array length
                            let live = &group[..c1 - c0];
                            widths.push(width::group_width(live, Signedness::Unsigned));
                        }
                        if rec.is_some() {
                            steps += 1;
                            let worst = widths.iter().copied().max().unwrap_or(0);
                            step_widths.observe(worst, 1);
                        }
                        cycles += step_width(&widths);
                    }
                }
            }
        }
    }
    let total = cycles * filter_blocks;
    if let Some(rec) = rec {
        rec.add(Counter::TileSteps, steps);
        rec.add(Counter::TileCycles, total);
        rec.record_widths(WidthHist::TileStepWidth, &step_widths);
    }
    Ok(total)
}

/// Step duration under original Stripes: the layer's profiled width,
/// regardless of content.
pub fn stripes_step(profiled: u8) -> impl FnMut(&[u8]) -> u64 {
    move |_| u64::from(profiled.max(1))
}

/// Step duration under SStripes: the worst concurrent row group's
/// detected width (the EOG synchronization), at least one cycle.
pub fn sstripes_step() -> impl FnMut(&[u8]) -> u64 {
    |widths: &[u8]| u64::from(widths.iter().copied().max().unwrap_or(0).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_models::ValueGen;
    use ss_tensor::FixedType;

    fn geom() -> ConvGeometry {
        ConvGeometry {
            in_ch: 32,
            in_h: 20,
            in_w: 20,
            kh: 3,
            kw: 3,
            out_ch: 32,
            concurrent_filters: 16,
        }
    }

    fn acts(g: &ConvGeometry, target_width: f64, seed: u64) -> Tensor {
        ValueGen::from_width_target(target_width, 0.5, FixedType::U16)
            .tensor_flat(g.in_ch * g.in_h * g.in_w, seed)
    }

    #[test]
    fn stripes_cycles_match_closed_form() {
        let g = geom();
        let a = acts(&g, 4.0, 1);
        let profiled = 11u8;
        let cycles = tile_cycles(&g, &a, stripes_step(profiled)).unwrap();
        // Steps: out_h x ceil(out_w/16) x kh x kw x ceil(C/16), times
        // filter blocks, each lasting the profile.
        let steps = (g.out_h() * g.out_w().div_ceil(TILE_ROWS) * g.kh * g.kw * 2) as u64;
        let blocks = (g.out_ch / g.concurrent_filters) as u64;
        assert_eq!(cycles, steps * blocks * u64::from(profiled));
    }

    #[test]
    fn sstripes_never_exceeds_stripes_and_tracks_content() {
        let g = geom();
        for seed in 0..5 {
            let a = acts(&g, 4.5, seed);
            let profiled = a.profiled_width();
            let stripes = tile_cycles(&g, &a, stripes_step(profiled)).unwrap();
            let sstripes = tile_cycles(&g, &a, sstripes_step()).unwrap();
            assert!(sstripes <= stripes, "seed {seed}");
            // Content matters: narrower values, fewer cycles.
            let narrow = acts(&g, 2.5, seed + 100);
            let narrow_cycles = tile_cycles(&g, &narrow, sstripes_step()).unwrap();
            assert!(narrow_cycles < sstripes, "seed {seed}");
        }
    }

    #[test]
    fn analytic_law_tracks_the_exact_schedule() {
        // The accel::SStripes law models the synchronized step as the
        // effective width over 256 concurrently broadcast values. The
        // exact schedule synchronizes 16 groups of 16 drawn from
        // *overlapping* windows, so with full row/channel/filter
        // occupancy the law must land within ~15% (partial blocks add
        // occupancy padding on top, which the utilization-free law
        // ignores by design).
        let g = ConvGeometry {
            in_ch: 32,
            in_h: 10,
            in_w: 34, // out_w = 32: two fully occupied row blocks
            kh: 3,
            kw: 3,
            out_ch: 32,
            concurrent_filters: 16,
        };
        let a = acts(&g, 4.5, 42);
        let exact = tile_cycles(&g, &a, sstripes_step()).unwrap() as f64;
        let macs = (g.out_ch * g.in_ch * g.kh * g.kw * g.out_h() * g.out_w()) as u64;
        // Lanes live in this one tile: concurrent_filters x 16 rows x 16.
        let lanes = (g.concurrent_filters * TILE_ROWS * SIP_CHANNELS) as f64;
        let eff = a.effective_width(256).max(1.0);
        // The schedule rounds partial row/channel blocks up; compare on
        // the fully-occupied portion by normalizing per step.
        let analytic = macs as f64 * eff / lanes;
        let ratio = exact / analytic;
        assert!(
            (0.85..=1.35).contains(&ratio),
            "exact {exact} vs analytic {analytic} (ratio {ratio})"
        );
    }

    #[test]
    fn empty_and_tiny_geometries() {
        let g = ConvGeometry {
            in_ch: 4,
            in_h: 3,
            in_w: 3,
            kh: 3,
            kw: 3,
            out_ch: 1,
            concurrent_filters: 16,
        };
        let a = acts(&g, 3.0, 7);
        // Single output position, one channel group, 9 kernel offsets.
        let c = tile_cycles(&g, &a, stripes_step(8)).unwrap();
        assert_eq!(c, 9 * 8);
    }

    #[test]
    fn mismatched_tensor_is_a_typed_error_not_a_panic() {
        let g = geom();
        // A tensor one element short of the geometry's requirement.
        let short = ValueGen::from_width_target(4.0, 0.5, FixedType::U16)
            .tensor_flat(g.in_ch * g.in_h * g.in_w - 1, 3);
        let err = tile_cycles(&g, &short, sstripes_step()).unwrap_err();
        assert_eq!(
            err,
            SimError::GeometryMismatch {
                expected: g.in_ch * g.in_h * g.in_w,
                actual: g.in_ch * g.in_h * g.in_w - 1,
            }
        );
        // And an empty tensor.
        let empty = ValueGen::from_width_target(4.0, 0.5, FixedType::U16).tensor_flat(0, 3);
        assert!(tile_cycles(&g, &empty, sstripes_step()).is_err());
    }
}
