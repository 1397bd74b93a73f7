//! Width-needed arithmetic: the software model of the paper's Figure 5c
//! width-detection hardware.
//!
//! The hardware ORs each bit position across every value in a group and runs
//! a leading-1 detector over the result; negative values are first converted
//! to sign-magnitude "placing the sign at the rightmost (least significant)
//! place" (paper §3). These functions reproduce that arithmetic exactly:
//!
//! * [`value_width`] — bits a single value needs.
//! * [`group_width`] — bits the worst value of a group needs (the group's
//!   encoded width `P`).
//! * [`profiled_width`] — bits the worst value of a whole slice needs (the
//!   per-layer "Profile" baseline of Judd et al.'s Proteus).
//! * [`to_sign_magnitude`] / [`from_sign_magnitude`] — the stored encoding.

use crate::Signedness;

/// Minimum bits needed to hold `value` in a container of the given
/// signedness.
///
/// * Unsigned: position of the leading 1, so `0 → 0`, `1 → 1`, `5 → 3`.
/// * Signed (sign-magnitude, sign at LSB): magnitude bits + 1, so
///   `0 → 0` (zeros are elided by the codec, they never occupy payload),
///   `1 → 2`, `-1 → 2`, `-5 → 4`.
///
/// # Panics
///
/// Panics in debug builds if an unsigned container receives a negative
/// value; release builds treat it as its magnitude.
///
/// # Examples
///
/// ```
/// use ss_tensor::{width::value_width, Signedness};
///
/// assert_eq!(value_width(0, Signedness::Unsigned), 0);
/// assert_eq!(value_width(9, Signedness::Unsigned), 4);
/// assert_eq!(value_width(-9, Signedness::Signed), 5);
/// ```
#[must_use]
pub fn value_width(value: i32, signedness: Signedness) -> u8 {
    let mag = magnitude_bits(value, signedness);
    match signedness {
        Signedness::Unsigned => mag,
        Signedness::Signed => {
            if value == 0 {
                0
            } else {
                mag + 1
            }
        }
    }
}

fn magnitude_bits(value: i32, signedness: Signedness) -> u8 {
    debug_assert!(
        signedness.is_signed() || value >= 0,
        "negative value {value} in unsigned width computation"
    );
    let mag = value.unsigned_abs();
    (32 - mag.leading_zeros()) as u8
}

/// Width the whole group needs: the maximum [`value_width`] over its
/// members. Zeros contribute nothing (the codec stores them in the `Z`
/// bit-vector, not the payload), so an all-zero group needs width 0.
///
/// This is the group's `P` field in the memory container (Figure 6b) and the
/// cycle count a ShapeShifter-Stripes SIP spends on the group (§4).
///
/// Implemented the way the hardware computes it (Figure 5c): OR every
/// value's stored encoding, then run one leading-1 detector over the
/// result — see [`group_or`]. The per-value arithmetic definition is kept
/// as [`group_width_scalar`], the differential-test oracle.
///
/// # Examples
///
/// ```
/// use ss_tensor::{width::group_width, Signedness};
///
/// assert_eq!(group_width(&[0, 0, 0], Signedness::Unsigned), 0);
/// assert_eq!(group_width(&[1, 2, 3], Signedness::Unsigned), 2);
/// assert_eq!(group_width(&[0, 6, -1], Signedness::Signed), 4);
/// ```
#[must_use]
pub fn group_width(values: &[i32], signedness: Signedness) -> u8 {
    (32 - group_or(values, signedness).leading_zeros()) as u8
}

/// The per-value arithmetic definition of [`group_width`]: the maximum
/// [`value_width`] over the group. Retained as the scalar reference the
/// word-parallel path is differential-tested against (`kernel_differential`
/// in ss-core); production code wants [`group_width`].
#[must_use]
pub fn group_width_scalar(values: &[i32], signedness: Signedness) -> u8 {
    values
        .iter()
        .map(|&v| value_width(v, signedness))
        .max()
        .unwrap_or(0)
}

/// OR of every value's stored encoding — the software model of the
/// paper's Figure 5c OR-tree. Bit `i` of the result is 1 iff any group
/// member has bit `i` set in its encoding (magnitude for unsigned
/// containers, sign-magnitude with the sign at the LSB for signed; zeros
/// encode to 0 and assert nothing, including the sign wire).
///
/// Word-parallel: consecutive encodings pack into the two 32-bit lanes of
/// a `u64`, the group ORs u64-at-a-time, and a single lane fold plus one
/// `leading_zeros` (in [`group_width`]) replaces the per-value
/// compare-and-max loop.
#[must_use]
pub fn group_or(values: &[i32], signedness: Signedness) -> u32 {
    match signedness {
        Signedness::Unsigned => or_lanes(values, |v| {
            debug_assert!(v >= 0, "negative value {v} in unsigned width computation");
            v.unsigned_abs()
        }),
        Signedness::Signed => or_lanes(values, to_sign_magnitude),
    }
}

/// The u64-lane OR fold behind [`group_or`].
#[inline]
fn or_lanes(values: &[i32], enc: impl Fn(i32) -> u32 + Copy) -> u32 {
    let mut lanes = 0u64;
    let mut pairs = values.chunks_exact(2);
    for pair in pairs.by_ref() {
        if let [a, b] = *pair {
            lanes |= u64::from(enc(a)) | (u64::from(enc(b)) << 32);
        }
    }
    let mut or = (lanes | (lanes >> 32)) as u32;
    for &v in pairs.remainder() {
        or |= enc(v);
    }
    or
}

/// Width a whole tensor/layer needs: the per-layer profiled width. This is
/// what the "Profile" compression baseline and the original Stripes use
/// (one width for every group in the layer).
#[must_use]
pub fn profiled_width(values: &[i32], signedness: Signedness) -> u8 {
    group_width(values, signedness)
}

/// Converts a value to its stored sign-magnitude form with the sign at the
/// least-significant bit: `(|v| << 1) | sign`.
///
/// The LSB-sign layout matches the paper and keeps bit-serial hardware
/// simple: the sign arrives first, magnitudes stream afterwards.
///
/// # Examples
///
/// ```
/// use ss_tensor::width::to_sign_magnitude;
///
/// assert_eq!(to_sign_magnitude(0), 0);
/// assert_eq!(to_sign_magnitude(5), 0b1010);
/// assert_eq!(to_sign_magnitude(-5), 0b1011);
/// ```
#[must_use]
pub fn to_sign_magnitude(value: i32) -> u32 {
    let sign = u32::from(value < 0);
    (value.unsigned_abs() << 1) | sign
}

/// Inverse of [`to_sign_magnitude`].
///
/// `0b...1` decodes negative; note that "negative zero" (`0b1`) decodes to
/// `0`, so encoding is not injective at zero — the codec never emits it
/// because zeros are elided.
///
/// Branch-free: the sign bit becomes a mask `s` of all ones or all zeros,
/// and `(mag ^ s) - s` negates under the mask, so a loop over fields can
/// run in vector lanes.
///
/// # Examples
///
/// ```
/// use ss_tensor::width::from_sign_magnitude;
///
/// assert_eq!(from_sign_magnitude(0b1010), 5);
/// assert_eq!(from_sign_magnitude(0b1011), -5);
/// ```
#[inline]
#[must_use]
pub fn from_sign_magnitude(encoded: u32) -> i32 {
    // The magnitude has 31 bits, so neither it nor its negation overflows.
    let mag = (encoded >> 1) as i32;
    let s = -((encoded & 1) as i32);
    (mag ^ s) - s
}

/// Average effective width over `values` when grouped in `group_size`
/// chunks: each group costs `group_width` bits per value. This is the
/// "effective width" metric of the paper's Table 1.
///
/// Returns 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if `group_size == 0`.
#[must_use]
pub fn effective_width(values: &[i32], signedness: Signedness, group_size: usize) -> f64 {
    assert!(group_size > 0, "group size must be non-zero");
    if values.is_empty() {
        return 0.0;
    }
    let mut weighted: u64 = 0;
    for chunk in values.chunks(group_size) {
        weighted += u64::from(group_width(chunk, signedness)) * chunk.len() as u64;
    }
    weighted as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_value_widths() {
        let cases = [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9)];
        for (v, w) in cases {
            assert_eq!(value_width(v, Signedness::Unsigned), w, "value {v}");
        }
    }

    #[test]
    fn signed_value_widths_include_sign_bit() {
        let cases = [
            (0, 0),
            (1, 2),
            (-1, 2),
            (3, 3),
            (-3, 3),
            (4, 4),
            (127, 8),
            (-127, 8),
            (-128, 9),
        ];
        for (v, w) in cases {
            assert_eq!(value_width(v, Signedness::Signed), w, "value {v}");
        }
    }

    #[test]
    fn group_width_is_worst_member() {
        assert_eq!(group_width(&[], Signedness::Unsigned), 0);
        assert_eq!(group_width(&[0; 16], Signedness::Signed), 0);
        assert_eq!(group_width(&[1, 0, 0x3], Signedness::Unsigned), 2);
        assert_eq!(group_width(&[1, 0, 0xF], Signedness::Unsigned), 4);
        // The paper's intro example: max magnitude 0x3 -> 2 bits,
        // max magnitude 0xf -> 4 bits.
        assert_eq!(group_width(&[3, 1, 2], Signedness::Unsigned), 2);
        assert_eq!(group_width(&[15, 1, 2], Signedness::Unsigned), 4);
    }

    #[test]
    fn group_width_matches_scalar_reference() {
        // Odd and even lengths exercise the lane remainder; extremes cover
        // the full 16-bit container domain in both signedness modes.
        let unsigned: [&[i32]; 6] = [
            &[],
            &[0],
            &[1, 2, 3],
            &[65_535, 0, 9],
            &[5; 17],
            &[0xFFFF, 1, 0, 0x8000],
        ];
        for g in unsigned {
            assert_eq!(
                group_width(g, Signedness::Unsigned),
                group_width_scalar(g, Signedness::Unsigned),
                "unsigned {g:?}"
            );
        }
        let signed: [&[i32]; 5] = [
            &[0],
            &[0, 6, -1, 7],
            &[-32767, 32767, 0, 1, -1],
            &[-1; 9],
            &[-32768, 5],
        ];
        for g in signed {
            assert_eq!(
                group_width(g, Signedness::Signed),
                group_width_scalar(g, Signedness::Signed),
                "signed {g:?}"
            );
        }
    }

    #[test]
    fn group_or_accumulates_encodings() {
        assert_eq!(group_or(&[0b0001, 0b0100], Signedness::Unsigned), 0b0101);
        assert_eq!(group_or(&[], Signedness::Unsigned), 0);
        // -2 encodes as (2 << 1) | 1 = 0b101; zeros assert nothing.
        assert_eq!(group_or(&[-2, 0, 0], Signedness::Signed), 0b101);
    }

    #[test]
    fn paper_figure5c_example() {
        // Figure 5c: four 16b activations whose highest set bit is
        // position 11 -> all representable in 12 bits.
        let acts = [0x0801, 0x0102, 0x0403, 0x0204];
        assert_eq!(group_width(&acts, Signedness::Unsigned), 12);
    }

    #[test]
    fn sign_magnitude_roundtrip() {
        for v in [-32767, -128, -1, 0, 1, 7, 127, 32767] {
            assert_eq!(from_sign_magnitude(to_sign_magnitude(v)), v, "value {v}");
        }
    }

    #[test]
    fn from_sign_magnitude_matches_the_branching_form() {
        fn branching(encoded: u32) -> i32 {
            let mag = (encoded >> 1) as i32;
            if encoded & 1 == 1 {
                -mag
            } else {
                mag
            }
        }
        for encoded in (0..1u32 << 18).chain(u32::MAX - (1 << 10)..=u32::MAX) {
            assert_eq!(
                from_sign_magnitude(encoded),
                branching(encoded),
                "{encoded:#x}"
            );
        }
    }

    #[test]
    fn sign_is_the_lsb() {
        assert_eq!(to_sign_magnitude(-1) & 1, 1);
        assert_eq!(to_sign_magnitude(1) & 1, 0);
    }

    #[test]
    fn effective_width_weights_by_group_population() {
        // Two groups of 2: widths 2 and 4 -> average 3.
        let vals = [3, 1, 8, 2];
        assert!((effective_width(&vals, Signedness::Unsigned, 2) - 3.0).abs() < 1e-12);
        // One group: width 4 everywhere.
        assert!((effective_width(&vals, Signedness::Unsigned, 4) - 4.0).abs() < 1e-12);
        // Empty.
        assert_eq!(effective_width(&[], Signedness::Unsigned, 16), 0.0);
    }

    #[test]
    fn effective_width_partial_last_group() {
        // 3 values, group size 2: group widths 4 (2 values) and 1 (1 value).
        let vals = [8, 1, 1];
        let expect = (4.0 * 2.0 + 1.0) / 3.0;
        assert!((effective_width(&vals, Signedness::Unsigned, 2) - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn effective_width_zero_group_panics() {
        let _ = effective_width(&[1], Signedness::Unsigned, 0);
    }
}
