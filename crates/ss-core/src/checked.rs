//! Debug-build decode invariants for the ShapeShifter container.
//!
//! The stream format is redundant in ways the decoder can cross-check: the
//! `Z` vector's population count must equal the number of zero slots the
//! payload loop skipped, the `P` prefix can never decode to a width beyond
//! the container, and every payload must be the *canonical* encoding of
//! its value (sign-magnitude with the sign at the LSB; re-encoding the
//! decoded value must reproduce the raw field bit-for-bit, which also
//! rules out a negative zero ever leaving the decoder).
//!
//! These checks are assertions about the *decoder's own bookkeeping* —
//! hostile input cannot make them fire, because every input-dependent
//! inconsistency is already rejected with a typed [`crate::CodecError`]
//! before the assertion is reached. They are therefore `debug_assertions`-
//! gated: every `cargo test` run exercises them for free (the test profile
//! keeps debug assertions on), and release builds compile the calls away
//! entirely — each function's body is behind an early `cfg!` return, so
//! not even the popcount is paid.

use ss_tensor::width;

use crate::index::ChunkIndex;

/// Cross-checks one decoded group: the `Z` population count (masked to
/// `group_len`) must account for exactly the slots the payload loop did
/// not fill, and the declared width must be in `1..=container_bits`.
#[inline]
pub(crate) fn group_invariants(
    zwords: &[u64; 4],
    group_len: usize,
    payloads: usize,
    p: u8,
    container_bits: u8,
    group_index: usize,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    debug_assert!(
        (1..=container_bits).contains(&p),
        "group {group_index}: width {p} outside 1..={container_bits} survived decoding"
    );
    let mut zeros = 0usize;
    let mut remaining = group_len;
    for word in zwords {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(64);
        let mask = if take == 64 {
            u64::MAX
        } else {
            (1u64 << take) - 1
        };
        zeros += (word & mask).count_ones() as usize;
        remaining -= take;
    }
    debug_assert!(
        zeros + payloads == group_len,
        "group {group_index}: Z popcount {zeros} + {payloads} payload(s) != group length {group_len}"
    );
}

/// Cross-checks one decoded payload: the value is non-zero (zeros travel
/// in `Z`), fits its declared width, and re-encodes to the exact raw field
/// — i.e. the stream carried the canonical sign-magnitude form, never a
/// negative zero or an over-wide field.
#[inline]
pub(crate) fn canonical_payload(raw: u64, value: i32, p: u8, signed: bool, index: usize) {
    if !cfg!(debug_assertions) {
        return;
    }
    debug_assert!(
        value != 0,
        "payload at index {index} decoded to zero past the corrupt-value check"
    );
    debug_assert!(
        p >= 64 || raw >> p == 0,
        "payload at index {index}: raw field {raw:#x} overflows its {p}-bit width"
    );
    let reencoded = if signed {
        u64::from(width::to_sign_magnitude(value))
    } else {
        value as u64
    };
    debug_assert!(
        reencoded == raw,
        "payload at index {index}: value {value} re-encodes to {reencoded:#x}, stream held {raw:#x}"
    );
}

/// Cross-checks the chunk index the encoder just built against the stream
/// it describes: the index must validate against its own framing rules for
/// exactly this (group size, stream length, element count) triple. Encode
/// builds both from the same pass, so a failure here is an encoder bug,
/// never an input property.
#[inline]
pub(crate) fn index_bookkeeping(index: &ChunkIndex, group_size: usize, bit_len: u64, len: usize) {
    if !cfg!(debug_assertions) {
        return;
    }
    debug_assert!(
        index.validate(group_size, bit_len, len).is_ok(),
        "encoder-built index fails its own validation: {:?}",
        index.validate(group_size, bit_len, len)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_group_and_payload_pass() {
        // Group of 5 with zeros at slots 1 and 3 -> 3 payloads.
        let zwords = [0b01010u64, 0, 0, 0];
        group_invariants(&zwords, 5, 3, 7, 16, 0);
        // Stale high words are masked out for short groups.
        group_invariants(&[0b1u64, u64::MAX, u64::MAX, u64::MAX], 1, 0, 1, 8, 1);
        canonical_payload(5, 5, 3, false, 0);
        // -3 in sign-magnitude, sign at the LSB: (3 << 1) | 1 = 7.
        canonical_payload(7, -3, 3, true, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "popcount")]
    fn mismatched_popcount_fires() {
        group_invariants(&[0b11u64, 0, 0, 0], 4, 3, 2, 8, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-encodes")]
    fn non_canonical_payload_fires() {
        // Raw 6 = (3 << 1) | 0 decodes to +3; claiming it encoded -3 is
        // non-canonical.
        canonical_payload(6, -3, 3, true, 0);
    }
}
