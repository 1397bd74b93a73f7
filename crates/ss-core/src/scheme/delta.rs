//! Diffy-style delta encoding on top of the ShapeShifter container.
//!
//! The paper's related work notes "Diffy improves upon ShapeShifter by
//! using it to encode activations as deltas … exploit[ing] the spatial
//! value correlation found in the activation values of neural networks
//! implementing computational imaging tasks" (§6). This module implements
//! that extension: within each group the first value is stored absolutely
//! and the rest as differences from their predecessor, then the group is
//! packed with the usual `(Z, P, payload)` container. Correlated
//! neighbours produce small deltas — narrower groups — while the
//! group-local encoding preserves ShapeShifter's sequential-decode and
//! per-group random-access properties.

use ss_bitio::BitReader;
use ss_tensor::{width, FixedType, Tensor};

use crate::framing::{bit, decode_field, read_bitvec, GroupAt, GroupCost, GroupLayout, Scratch};
use crate::registry::SchemeId;
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{kernels, CodecError};

/// Delta-ShapeShifter compression.
///
/// Deltas of `b`-bit values need up to `b + 1` bits of sign-magnitude
/// (magnitude up to the container maximum plus a sign), so the width
/// prefix is one bit wider than plain ShapeShifter's and the scheme only
/// pays off when values actually correlate — on uncorrelated data it is
/// slightly *worse* than [`crate::scheme::ShapeShifterScheme`], exactly
/// the trade Diffy makes by specializing for imaging workloads.
///
/// Registered as wire id 1 ([`SchemeId::DELTA`]); the wire stream takes
/// the group size from the call or frame, and the struct's own group size
/// prices tensors. The predictor restarts at every group, so groups are
/// self-delimiting like ShapeShifter's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeltaShapeShifter {
    group_size: usize,
}

impl DeltaShapeShifter {
    /// Creates the scheme at the given group size.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0 or exceeds 256.
    #[must_use]
    pub const fn new(group_size: usize) -> Self {
        assert!(
            group_size >= 1 && group_size <= 256,
            "group size outside 1..=256"
        );
        Self { group_size }
    }

    /// The configured group size.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Fused scan of one group's deltas `v[i] - v[i-1]`: the OR-fold of
    /// their sign-magnitude encodings (whose leading 1 gives the shared
    /// delta width, exactly as the Figure 5c detector would) and the
    /// non-zero delta count, in one pass with no materialized delta
    /// buffer. The absolute first value is stored separately at container
    /// width so its magnitude does not inflate the shared width `P`. Zero
    /// deltas encode to 0 and so never assert the sign wire, matching the
    /// encoder's Z elision.
    fn delta_scan(group: &[i32]) -> (u8, u64) {
        let mut or = 0u32;
        let mut nonzero = 0u64;
        for w in group.windows(2) {
            if let [a, b] = *w {
                let d = b - a;
                or |= width::to_sign_magnitude(d);
                nonzero += u64::from(d != 0);
            }
        }
        // ss-lint: allow(truncating-cast) -- 32 - leading_zeros of a u32 is in 0..=32
        ((32 - or.leading_zeros()) as u8, nonzero)
    }
}

impl Default for DeltaShapeShifter {
    /// The paper's group size of 16.
    fn default() -> Self {
        Self::new(16)
    }
}

/// Per group: the `Z` vector (bit 0 marks a zero first value, bit `i` a
/// zero delta, i.e. a repeated value), the first value at container width
/// plus a sign bit when non-zero, the delta width `P`, then the non-zero
/// deltas in sign-magnitude at `P` bits each.
impl GroupLayout for DeltaShapeShifter {
    const WIRE_ID: SchemeId = SchemeId::DELTA;

    /// Delta widths range over `0..=container + 1`, one bit wider than
    /// plain ShapeShifter's.
    fn prefix_bits(dtype: FixedType) -> u32 {
        32 - u32::from(dtype.bits()).leading_zeros()
    }

    /// A delta of two `b`-bit values needs up to `b + 1` bits of
    /// sign-magnitude. Bounding `P` there also keeps every decoded sum of
    /// an in-range value and a delta within ±2^17.
    fn max_width(dtype: FixedType) -> u8 {
        dtype.bits() + 1
    }

    /// One fused pass finds the deltas, `Z`, the width and the compacted
    /// non-zero deltas, and the per-width packer cuts the deltas behind
    /// `Z`, the first value and `P` into the run of groups being
    /// assembled.
    #[inline]
    fn write_group(s: &mut Scratch, group: &[i32]) -> Result<GroupCost, CodecError> {
        let first = group.first().copied().unwrap_or(0);
        let mut z = [u64::from(first == 0), 0, 0, 0];
        let mut or = 0u32;
        let mut n = 0usize;
        for (i, pair) in group.windows(2).enumerate() {
            if let [a, b] = *pair {
                let d = b - a;
                let slot = i + 1;
                if let Some(word) = z.get_mut(slot / 64) {
                    *word |= u64::from(d == 0) << (slot % 64);
                }
                // Deltas are always signed regardless of the source
                // container; a zero delta encodes to 0 and is elided.
                let e = width::to_sign_magnitude(d);
                or |= e;
                if let Some(field) = s.fields.get_mut(n) {
                    *field = u64::from(e);
                }
                n += usize::from(d != 0);
            }
        }
        // ss-lint: allow(truncating-cast) -- 32 - leading_zeros of a u32 is in 0..=32
        let p = (32 - or.leading_zeros()) as u8;
        let first_bits = u32::from(s.dtype.bits()) + 1;
        s.group.put_run(&z, group.len());
        let mut payload_bits = 0;
        if first != 0 {
            s.group
                .put(u64::from(width::to_sign_magnitude(first)), first_bits);
            payload_bits = u64::from(first_bits);
        }
        s.put_width(p);
        s.put_fields(p, n)?;
        Ok(GroupCost {
            width: p,
            elided: z.iter().map(|word| word.count_ones()).sum(),
            payload_bits: payload_bits + u64::from(p) * n as u64,
        })
    }

    /// A group of up to 16 values is read from one [`BitReader::window`]:
    /// `Z`, the first value and `P` from its first bits, then
    /// [`kernels::expand_block`] over `Z | 1` (slot 0 holds no delta)
    /// fills the deltas, a prefix sum from the first value turns them into
    /// values, one branch-free fold checks them against the container,
    /// and one advance checks the whole group. A group the window does not
    /// cover replays [`read_fields_group`] from the group's start, so
    /// every value and every error is the per-field reader's: more than
    /// 16 values, a `P` past 16 (the lanes' width) or past the layout's
    /// bound, a stream too short for the group, a delta field that reads
    /// zero (the encoder elides zero deltas in `Z`) or a value outside the
    /// container.
    #[inline]
    fn read_group(
        s: &mut Scratch,
        r: &mut BitReader<'_>,
        at: GroupAt,
        out: &mut [i32],
    ) -> Result<(), CodecError> {
        if at.len > kernels::BLOCK {
            return read_fields_group(s, r, at, out);
        }
        let window = r.window();
        // ss-lint: allow(truncating-cast) -- a group of at most 16 values has 16 Z bits
        let repeats = kernels::window_field(&window, 0, at.len as u32) as u32;
        let first_bits = if repeats & 1 == 1 {
            0
        } else {
            u32::from(s.dtype.bits()) + 1
        };
        let first = decode_field(true, kernels::window_field(&window, at.len, first_bits));
        let p_at = at.len + first_bits as usize;
        let prefix_bits = s.prefix_bits();
        let field = kernels::window_field(&window, p_at, prefix_bits);
        let Some(p) = s.width_within(field, s.max_width().min(16)) else {
            return read_fields_group(s, r, at, out);
        };
        let header = p_at + prefix_bits as usize;
        let deltas = at.len - (repeats | 1).count_ones() as usize;
        let bits = header as u64 + u64::from(p) * deltas as u64;
        if bits > r.remaining_bits() {
            return read_fields_group(s, r, at, out);
        }
        let run = kernels::window_run(&window, header);
        match kernels::expand_block(p, true, repeats | 1, &run, at.first_value, out) {
            Some(expanded) if !expanded.zero_payload => {}
            _ => return read_fields_group(s, r, at, out),
        }
        let mut prev = first;
        for slot in out.iter_mut() {
            // read_width bounds P, so an in-range value plus a delta
            // cannot overflow; slot 0 holds no delta.
            prev += *slot;
            *slot = prev;
        }
        if !s.dtype.contains_all(out) {
            return read_fields_group(s, r, at, out);
        }
        r.advance(bits)?;
        Ok(())
    }
}

/// The per-field group reader: `Z`, the first value and `P` through
/// `read_bits`, the deltas through `read_fields`, then a branch and a
/// range test per value. It reads the groups the window does not cover,
/// and names every error.
#[cold]
#[inline(never)]
fn read_fields_group(
    s: &mut Scratch,
    r: &mut BitReader<'_>,
    at: GroupAt,
    out: &mut [i32],
) -> Result<(), CodecError> {
    let repeats = read_bitvec(r, at.len, &mut s.bits)?;
    let first_zero = bit(&s.bits, 0);
    // The first value and the deltas are sign-magnitude whatever the
    // container.
    let first = if first_zero {
        0
    } else {
        decode_field(true, r.read_bits(u32::from(s.dtype.bits()) + 1)?)
    };
    let p = s.read_width(r, at.index)?;
    // Every value after the first whose Z bit is clear carries a delta.
    let deltas = at.len - repeats - usize::from(!first_zero);
    r.read_fields(u32::from(p), s.fields.get_mut(..deltas).unwrap_or(&mut []))?;
    let mut next = s.fields.iter().take(deltas);
    let mut prev = first;
    for (i, slot) in out.iter_mut().enumerate() {
        let v = if i == 0 {
            first
        } else if bit(&s.bits, i) {
            prev
        } else {
            // read_width bounds P, so an in-range value plus a delta
            // cannot overflow.
            prev + decode_field(true, next.next().copied().unwrap_or(0))
        };
        if !s.dtype.contains(v) {
            return Err(CodecError::CorruptValue {
                index: at.first_value + i,
                value: v,
            });
        }
        *slot = v;
        prev = v;
    }
    Ok(())
}

impl CompressionScheme for DeltaShapeShifter {
    fn name(&self) -> &str {
        "Delta-ShapeShifter"
    }

    fn compressed_bits(&self, tensor: &Tensor, _ctx: &SchemeCtx) -> u64 {
        let prefix_bits = u64::from(Self::prefix_bits(tensor.dtype()));
        let container = u64::from(tensor.dtype().bits()) + 1;
        let mut bits = 0u64;
        for group in tensor.values().chunks(self.group_size) {
            let (p, nonzero) = Self::delta_scan(group);
            // The first value travels at container width unless it is zero.
            let first = u64::from(group.first().is_some_and(|&v| v != 0)) * container;
            bits += group.len() as u64 + first + prefix_bits + u64::from(p.max(1)) * nonzero;
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{wire, ShapeShifterScheme};
    use ss_bitio::BitWriter;
    use ss_tensor::{FixedType, Shape};

    fn t(dtype: FixedType, vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), dtype, vals).unwrap()
    }

    /// A spatially smooth signal: a bounded random walk, the correlation
    /// structure Diffy exploits in imaging activations.
    fn correlated(n: usize) -> Vec<i32> {
        let mut v = Vec::with_capacity(n);
        let mut x: i64 = 1000;
        let mut state = 0x12345u64;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let step = ((state >> 33) % 15) as i64 - 7;
            x = (x + step).clamp(0, 65_535);
            v.push(x as i32);
        }
        v
    }

    #[test]
    fn roundtrip_on_correlated_data() {
        let tensor = t(FixedType::U16, correlated(500));
        let d = DeltaShapeShifter::default();
        let (bytes, bits) = wire::encode(&d, &tensor, d.group_size());
        let back = wire::decode(&d, &bytes, bits, &tensor, d.group_size()).unwrap();
        assert_eq!(back, tensor.values());
    }

    #[test]
    fn roundtrip_on_signed_data() {
        let vals = vec![-100, -98, -97, 0, 5, 4, 4, 4, 300, 301, -32767, -32760];
        let tensor = t(FixedType::I16, vals);
        let d = DeltaShapeShifter::new(4);
        let (bytes, bits) = wire::encode(&d, &tensor, d.group_size());
        let back = wire::decode(&d, &bytes, bits, &tensor, d.group_size()).unwrap();
        assert_eq!(back, tensor.values());
    }

    #[test]
    fn accounting_matches_encoding() {
        let tensor = t(FixedType::U16, correlated(333));
        let d = DeltaShapeShifter::default();
        let (_, bits) = wire::encode(&d, &tensor, d.group_size());
        assert_eq!(bits, d.compressed_bits(&tensor, &SchemeCtx::unprofiled()));
    }

    #[test]
    fn beats_plain_shapeshifter_on_correlated_data() {
        // The Diffy claim: correlation turns wide values into narrow
        // deltas.
        let tensor = t(FixedType::U16, correlated(4096));
        let ctx = SchemeCtx::unprofiled();
        let delta_bits = DeltaShapeShifter::default().compressed_bits(&tensor, &ctx);
        let plain_bits = ShapeShifterScheme::default().compressed_bits(&tensor, &ctx);
        assert!(
            (delta_bits as f64) < plain_bits as f64 / 1.5,
            "delta {delta_bits} vs plain {plain_bits}"
        );
    }

    #[test]
    fn loses_to_plain_shapeshifter_on_uncorrelated_data() {
        // No correlation, no gain — and the first-value overhead costs.
        let vals: Vec<i32> = (0..4096).map(|i| (i * 48_271) % 4096).collect();
        let tensor = t(FixedType::U16, vals);
        let ctx = SchemeCtx::unprofiled();
        let delta_bits = DeltaShapeShifter::default().compressed_bits(&tensor, &ctx);
        let plain_bits = ShapeShifterScheme::default().compressed_bits(&tensor, &ctx);
        assert!(
            delta_bits > plain_bits,
            "delta {delta_bits} vs plain {plain_bits}"
        );
    }

    #[test]
    fn truncated_stream_errors() {
        let tensor = t(FixedType::U16, correlated(64));
        let d = DeltaShapeShifter::default();
        let (bytes, bits) = wire::encode(&d, &tensor, d.group_size());
        let err = wire::decode(&d, &bytes, bits / 2, &tensor, d.group_size());
        assert!(err.is_err());
    }

    #[test]
    fn hostile_width_prefix_is_typed_not_an_overflow() {
        // A 16-bit stream's 5-bit P field can claim width 32; with the
        // first value at -32767, a 32-bit delta would overflow the sum.
        let mut w = BitWriter::new();
        w.write_bits(0b00, 2).unwrap(); // Z: neither value repeats
        w.write_bits(65_535, 17).unwrap(); // first value: -32767
        w.write_bits(31, 5).unwrap(); // P - 1: width 32
        w.write_bits(0xFFFF_FFFF, 32).unwrap(); // delta
        assert_eq!(w.bit_len(), 56);
        let tensor = t(FixedType::I16, vec![0, 0]);
        let err = wire::decode(&DeltaShapeShifter::default(), w.as_bytes(), 56, &tensor, 16);
        assert_eq!(
            err,
            Err(CodecError::WidthExceedsContainer {
                group: 0,
                width: 32,
                container: 17
            })
        );
    }

    #[test]
    fn constant_runs_cost_almost_nothing() {
        // A flat region: one absolute value per group, all deltas zero.
        let tensor = t(FixedType::U16, vec![12_345; 160]);
        let d = DeltaShapeShifter::default();
        let bits = d.compressed_bits(&tensor, &SchemeCtx::unprofiled());
        // 10 groups x (16 Z + 5 prefix + 15-bit first value).
        assert!(bits < 10 * 40, "bits {bits}");
    }
}
