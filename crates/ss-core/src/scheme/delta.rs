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

use ss_bitio::{BitReader, BitWriter};
use ss_tensor::{width, Tensor};

use crate::registry::{checked_group_size, ContainerScheme, SchemeId, StreamFrame};
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{ChunkEntry, ChunkIndex, CodecError, IndexPolicy};

/// Delta-ShapeShifter compression.
///
/// Deltas of `b`-bit values need up to `b + 1` bits of sign-magnitude
/// (magnitude up to the container maximum plus a sign), so the width
/// prefix is one bit wider than plain ShapeShifter's and the scheme only
/// pays off when values actually correlate — on uncorrelated data it is
/// slightly *worse* than [`crate::scheme::ShapeShifterScheme`], exactly
/// the trade Diffy makes by specializing for imaging workloads.
///
/// Registered as wire id 1 ([`SchemeId::DELTA`]); the wire methods take
/// the group size from the call or frame, and the struct's own group size
/// prices tensors.
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
    pub fn new(group_size: usize) -> Self {
        assert!(
            (1..=256).contains(&group_size),
            "group size {group_size} outside 1..=256"
        );
        Self { group_size }
    }

    /// The configured group size.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Width-prefix bits: group widths range over `0..=container+1`.
    fn prefix_bits(container_bits: u8) -> u32 {
        u32::from(8 - (container_bits).leading_zeros() as u8)
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

impl ContainerScheme for DeltaShapeShifter {
    fn wire_id(&self) -> SchemeId {
        SchemeId::DELTA
    }

    /// Per group: the Z vector (bit 0 marks a zero first value, bit `i`
    /// a zero delta, i.e. a repeated value), the first value at container
    /// width plus a sign bit when non-zero, the delta width prefix, then
    /// the non-zero deltas in sign-magnitude. No chunk index.
    fn encode_into(
        &self,
        tensor: &Tensor,
        group_size: usize,
        _policy: IndexPolicy,
        w: &mut BitWriter,
        _entries: &mut Vec<ChunkEntry>,
    ) -> Result<Option<ChunkIndex>, CodecError> {
        checked_group_size(group_size)?;
        w.clear();
        let prefix_bits = Self::prefix_bits(tensor.dtype().bits());
        let container = u32::from(tensor.dtype().bits()) + 1; // sign-magnitude slot
        for group in tensor.groups(group_size)? {
            let mut prev = None;
            for chunk in group.chunks(64) {
                let mut z = 0u64;
                for (i, &v) in chunk.iter().enumerate() {
                    if prev.map_or(v == 0, |p| v == p) {
                        z |= 1 << i;
                    }
                    prev = Some(v);
                }
                w.write_bits(z, chunk.len() as u32)?;
            }
            if let Some(&first) = group.first().filter(|&&v| v != 0) {
                w.write_bits(u64::from(width::to_sign_magnitude(first)), container)?;
            }
            // Deltas are always signed regardless of the source container.
            let (p, _) = Self::delta_scan(group);
            w.write_bits(u64::from(p.max(1) - 1), prefix_bits)?;
            for pair in group.windows(2) {
                if let [a, b] = *pair {
                    if b != a {
                        w.write_bits(u64::from(width::to_sign_magnitude(b - a)), u32::from(p))?;
                    }
                }
            }
        }
        Ok(None)
    }

    fn decode_into(
        &self,
        bytes: &[u8],
        frame: &StreamFrame,
        _index: Option<&ChunkIndex>,
        _threads: usize,
        out: &mut Vec<i32>,
    ) -> Result<(), CodecError> {
        checked_group_size(frame.group_size)?;
        let StreamFrame {
            bit_len,
            dtype,
            len,
            group_size,
        } = *frame;
        out.clear();
        let prefix_bits = Self::prefix_bits(dtype.bits());
        let container = u32::from(dtype.bits()) + 1;
        if bit_len > bytes.len() as u64 * 8 || len as u64 > bit_len {
            // Inconsistent framing metadata: the stream cannot hold `len`
            // values (every value costs at least its Z bit).
            return Err(CodecError::Stream(ss_bitio::BitIoError::UnexpectedEnd {
                requested: u32::MAX,
                available: bit_len.min(bytes.len() as u64 * 8),
            }));
        }
        let mut r = BitReader::with_bit_len(bytes, bit_len);
        out.reserve(len);
        // Z vector as packed 64-bit words (group_size <= 256 -> 4 words).
        let mut zwords = [0u64; 4];
        while out.len() < len {
            let group_len = (len - out.len()).min(group_size);
            for (word, start) in zwords.iter_mut().zip((0..group_len).step_by(64)) {
                let take = (group_len - start).min(64);
                *word = r.read_bits(take as u32)?;
            }
            let [z0, ..] = zwords;
            let first = if z0 & 1 == 1 {
                0
            } else {
                let raw = r.read_bits(container)?;
                width::from_sign_magnitude(raw as u32)
            };
            let p = r.read_bits(prefix_bits)? as u8 + 1;
            let mut prev = first;
            for (word_idx, word) in zwords.iter().enumerate() {
                let start = word_idx * 64;
                if start >= group_len {
                    break;
                }
                for bit in 0..(group_len - start).min(64) {
                    let v = if start + bit == 0 {
                        first
                    } else if word >> bit & 1 == 1 {
                        prev
                    } else {
                        let raw = r.read_bits(u32::from(p))?;
                        prev + width::from_sign_magnitude(raw as u32)
                    };
                    if !dtype.contains(v) {
                        return Err(CodecError::CorruptValue {
                            index: out.len(),
                            value: v,
                        });
                    }
                    out.push(v);
                    prev = v;
                }
            }
        }
        Ok(())
    }
}

impl CompressionScheme for DeltaShapeShifter {
    fn name(&self) -> &str {
        "Delta-ShapeShifter"
    }

    fn compressed_bits(&self, tensor: &Tensor, _ctx: &SchemeCtx) -> u64 {
        let prefix_bits = u64::from(Self::prefix_bits(tensor.dtype().bits()));
        let container = u64::from(tensor.dtype().bits()) + 1;
        let mut bits = 0u64;
        for group in tensor.values().chunks(self.group_size) {
            let (p, nonzero) = Self::delta_scan(group);
            // The first value travels at container width unless it is zero.
            let first = u64::from(group.first().is_some_and(|&v| v != 0)) * container;
            bits += group.len() as u64
                + first
                + prefix_bits
                + u64::from(p.max(1)) * nonzero;
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{wire, ShapeShifterScheme};
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
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
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
    fn constant_runs_cost_almost_nothing() {
        // A flat region: one absolute value per group, all deltas zero.
        let tensor = t(FixedType::U16, vec![12_345; 160]);
        let d = DeltaShapeShifter::default();
        let bits = d.compressed_bits(&tensor, &SchemeCtx::unprofiled());
        // 10 groups x (16 Z + 5 prefix + 15-bit first value).
        assert!(bits < 10 * 40, "bits {bits}");
    }
}
