//! The width-detection hardware unit of the paper's Figure 5c, modelled at
//! the signal level.
//!
//! The unit computes, for a group of values arriving in parallel:
//!
//! 1. one OR tree per bit position — signal `or[i]` is the OR of bit `i`
//!    across every value in the group;
//! 2. a leading-1 detector over the OR signals — the position of the most
//!    significant asserted signal, reported in `log2(P)` bits.
//!
//! Negative values are first converted to sign-magnitude "placing the sign
//! at the rightmost (least significant) place" (paper §3), so the detector
//! body only ever sees magnitudes (with the sign occupying bit 0).

use ss_tensor::{width, Signedness};

/// Signal-level model of the per-group width detector.
///
/// # Examples
///
/// ```
/// use ss_core::WidthDetector;
/// use ss_tensor::Signedness;
///
/// let det = WidthDetector::new(16, Signedness::Unsigned);
/// // Figure 5c's example: four activations whose highest set bit is
/// // position 11, so 12 bits suffice.
/// let w = det.detect(&[0x0801, 0x0102, 0x0403, 0x0204]);
/// assert_eq!(w, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WidthDetector {
    container_bits: u8,
    signedness: Signedness,
}

impl WidthDetector {
    /// Creates a detector for values stored in `container_bits`-bit
    /// containers of the given signedness.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= container_bits <= 16` (the paper's range).
    #[must_use]
    pub fn new(container_bits: u8, signedness: Signedness) -> Self {
        assert!(
            (1..=16).contains(&container_bits),
            "container width {container_bits} outside 1..=16"
        );
        Self {
            container_bits,
            signedness,
        }
    }

    /// Container width this detector was built for.
    #[must_use]
    pub fn container_bits(&self) -> u8 {
        self.container_bits
    }

    /// The per-bit-position OR signals for a group — the outputs of the OR
    /// trees in Figure 5c, after sign-magnitude conversion.
    ///
    /// Bit `i` of the result is 1 iff any group member has bit `i` set in
    /// its (sign-magnitude) encoding. Zeros contribute no sign bit: the
    /// codec elides them entirely, so they must not force a 1 into
    /// position 0 (the word-parallel kernel encodes zero as 0 in both
    /// signedness modes).
    ///
    /// Computed u64-at-a-time by [`width::group_or`] — two 32-bit lane
    /// encodings ORed per machine word, folded once at the end — rather
    /// than a per-value scalar loop; the scalar arithmetic definition is
    /// pinned against it in this module's tests and the
    /// `kernel_differential` suite.
    #[must_use]
    pub fn or_signals(&self, group: &[i32]) -> u32 {
        width::group_or(group, self.signedness)
    }

    /// The detected width: position of the leading 1 across the OR
    /// signals, plus one. Zero for an all-zero group.
    ///
    /// The hardware reports this in `log2(P)` bits via the "leading 1"
    /// detector; this model returns it as a plain integer and
    /// [`WidthDetector::detect_encoded`] gives the wire encoding.
    #[must_use]
    pub fn detect(&self, group: &[i32]) -> u8 {
        // ss-lint: allow(truncating-cast) -- 32 - leading_zeros of a u32 is in 0..=32
        (32 - self.or_signals(group).leading_zeros()) as u8
    }

    /// The width as it would appear on the detector's output wires:
    /// `width - 1` in `prefix_bits()` bits, with all-zero groups reported
    /// as width 1 (they carry no payload, so the field is don't-care; the
    /// codec pins it to the smallest encoding).
    #[must_use]
    pub fn detect_encoded(&self, group: &[i32]) -> u8 {
        self.detect(group).max(1) - 1
    }

    /// Number of bits of the width field (`log2(P)` in the paper: 4 for
    /// 16-bit containers, 3 for 8-bit).
    #[must_use]
    pub fn prefix_bits(&self) -> u8 {
        // Widths 1..=container are encoded as width-1 -> ceil(log2(P)).
        // ss-lint: allow(truncating-cast) -- leading_zeros of a u8 operand is in 0..=8
        (8 - (self.container_bits - 1).leading_zeros() as u8).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_arithmetic_definition() {
        let det = WidthDetector::new(16, Signedness::Signed);
        let groups: [&[i32]; 5] = [
            &[0, 0, 0],
            &[1, -1],
            &[100, -3, 0, 7],
            &[-32767],
            &[5, 5, 5, 5],
        ];
        for g in groups {
            assert_eq!(
                det.detect(g),
                width::group_width(g, Signedness::Signed),
                "group {g:?}"
            );
        }
    }

    #[test]
    fn or_signals_accumulate_bits() {
        let det = WidthDetector::new(8, Signedness::Unsigned);
        assert_eq!(det.or_signals(&[0b0001, 0b0100]), 0b0101);
        assert_eq!(det.or_signals(&[]), 0);
    }

    #[test]
    fn sign_occupies_bit_zero() {
        let det = WidthDetector::new(8, Signedness::Signed);
        // -2 encodes as (2 << 1) | 1 = 0b101.
        assert_eq!(det.or_signals(&[-2]), 0b101);
        // +2 encodes as 0b100: bit 0 clear.
        assert_eq!(det.or_signals(&[2]), 0b100);
    }

    #[test]
    fn zeros_do_not_assert_the_sign_wire() {
        let det = WidthDetector::new(8, Signedness::Signed);
        assert_eq!(det.or_signals(&[0, 0, 0]), 0);
        assert_eq!(det.detect(&[0, 0, 0]), 0);
    }

    #[test]
    fn prefix_bits_match_paper() {
        // 16b containers: 4-bit P field; 8b containers: 3-bit P field
        // (Figure 6's example uses 3 bits for 8b data).
        assert_eq!(
            WidthDetector::new(16, Signedness::Unsigned).prefix_bits(),
            4
        );
        assert_eq!(WidthDetector::new(8, Signedness::Unsigned).prefix_bits(), 3);
        assert_eq!(WidthDetector::new(2, Signedness::Unsigned).prefix_bits(), 1);
    }

    #[test]
    fn encoded_width_is_width_minus_one() {
        let det = WidthDetector::new(16, Signedness::Unsigned);
        assert_eq!(det.detect_encoded(&[0x0FFF]), 11);
        assert_eq!(det.detect_encoded(&[0]), 0); // all-zero pins to width 1
        assert_eq!(det.detect_encoded(&[0xFFFF]), 15);
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn rejects_wide_containers() {
        let _ = WidthDetector::new(17, Signedness::Unsigned);
    }
}
