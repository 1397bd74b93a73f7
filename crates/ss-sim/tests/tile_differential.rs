//! Differential test for the tiled broadcast schedule: a brute-force
//! per-group width walk — written independently, with flat indexing, an
//! explicit filter-block loop and leading-zeros width math — must agree
//! cycle-for-cycle with `tile::tile_cycles` under both SStripes (dynamic
//! EOG widths) and Stripes (fixed profile), across randomized geometries
//! that stress every raggedness: odd `in_ch` not divisible by 16, `out_w`
//! not divisible by TILE_ROWS, 1×1 and 7×7 kernels, partial filter blocks.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_models::ValueGen;
use ss_sim::tile::{
    sstripes_step, stripes_step, tile_cycles, ConvGeometry, SIP_CHANNELS, TILE_ROWS,
};
use ss_tensor::{FixedType, Tensor};

/// Per-step width paid by the brute-force walk: `None` = SStripes (worst
/// detected width among the concurrent row groups), `Some(p)` = Stripes.
fn brute_force_cycles(geom: &ConvGeometry, acts: &Tensor, profiled: Option<u8>) -> u64 {
    let vals = acts.values();
    let out_h = geom.in_h - geom.kh + 1;
    let out_w = geom.in_w - geom.kw + 1;
    let mut total = 0u64;
    // Filter blocks as an explicit outer loop (the implementation under
    // test multiplies instead).
    let mut filters_done = 0;
    while filters_done < geom.out_ch {
        filters_done += geom.concurrent_filters;
        for y in 0..out_h {
            for x0 in (0..out_w).step_by(TILE_ROWS) {
                let rows = (out_w - x0).min(TILE_ROWS);
                for dy in 0..geom.kh {
                    for dx in 0..geom.kw {
                        for c0 in (0..geom.in_ch).step_by(SIP_CHANNELS) {
                            let c1 = (c0 + SIP_CHANNELS).min(geom.in_ch);
                            // Worst width over the union of the rows'
                            // channel groups == max over per-row maxima.
                            let mut worst = 0u32;
                            for r in 0..rows {
                                let (ay, ax) = (y + dy, x0 + r + dx);
                                for c in c0..c1 {
                                    let v = vals[(ay * geom.in_w + ax) * geom.in_ch + c];
                                    worst = worst.max(32 - (v as u32).leading_zeros());
                                }
                            }
                            total += match profiled {
                                Some(p) => u64::from(p.max(1)),
                                None => u64::from(worst.max(1)),
                            };
                        }
                    }
                }
            }
        }
    }
    total
}

fn check(geom: &ConvGeometry, seed: u64) {
    let acts = ValueGen::from_width_target(4.5, 0.5, FixedType::U16)
        .tensor_flat(geom.in_ch * geom.in_h * geom.in_w, seed);
    let ss = tile_cycles(geom, &acts, sstripes_step()).unwrap();
    assert_eq!(
        ss,
        brute_force_cycles(geom, &acts, None),
        "SStripes diverges for {geom:?}"
    );
    let profiled = acts.profiled_width();
    let st = tile_cycles(geom, &acts, stripes_step(profiled)).unwrap();
    assert_eq!(
        st,
        brute_force_cycles(geom, &acts, Some(profiled)),
        "Stripes diverges for {geom:?}"
    );
    // Sanity: dynamic widths never exceed the profile-driven schedule.
    assert!(ss <= st, "{geom:?}");
}

#[test]
fn fixed_ragged_corner_cases() {
    for geom in [
        // Odd in_ch, 1x1 kernel, out_w not divisible by TILE_ROWS.
        ConvGeometry {
            in_ch: 17,
            in_h: 5,
            in_w: 21,
            kh: 1,
            kw: 1,
            out_ch: 20,
            concurrent_filters: 16,
        },
        // 7x7 kernel, single channel.
        ConvGeometry {
            in_ch: 1,
            in_h: 9,
            in_w: 23,
            kh: 7,
            kw: 7,
            out_ch: 3,
            concurrent_filters: 16,
        },
        // Single output column, partial filter block.
        ConvGeometry {
            in_ch: 33,
            in_h: 3,
            in_w: 3,
            kh: 3,
            kw: 3,
            out_ch: 17,
            concurrent_filters: 16,
        },
        // Exactly-full blocks as the control.
        ConvGeometry {
            in_ch: 32,
            in_h: 6,
            in_w: 18,
            kh: 3,
            kw: 3,
            out_ch: 32,
            concurrent_filters: 16,
        },
    ] {
        check(&geom, 11);
    }
}

#[test]
fn randomized_geometries() {
    let mut rng = StdRng::seed_from_u64(0x715e5);
    for trial in 0..12 {
        // Odd channel counts can never divide 16.
        let in_ch = 1 + 2 * rng.random_below(24) as usize;
        let (kh, kw) = match rng.random_below(4) {
            0 => (1, 1),
            1 => (3, 3),
            2 => (5, 5),
            _ => (7, 7),
        };
        let in_h = kh + rng.random_below(6) as usize;
        let mut in_w = kw + rng.random_below(28) as usize;
        // Force a ragged final row block: out_w ≡ 0 (mod 16) is the one
        // non-ragged case, so nudge away from it.
        if (in_w - kw + 1).is_multiple_of(TILE_ROWS) {
            in_w += 1;
        }
        let out_ch = 1 + rng.random_below(40) as usize;
        let geom = ConvGeometry {
            in_ch,
            in_h,
            in_w,
            kh,
            kw,
            out_ch,
            concurrent_filters: 16,
        };
        check(&geom, 1000 + trial);
    }
}
