//! ShapeShifter as an off-chip compression scheme (the paper's first
//! hardware technique, §3).

use ss_bitio::{BitIoError, BitReader, BitWriter, WINDOW_WORDS};
use ss_tensor::{FixedType, Tensor, TensorStats};

use crate::framing::{write_bitvec, GroupAt, GroupCost, GroupLayout, Scratch};
use crate::registry::SchemeId;
use crate::scheme::{CompressionScheme, SchemeCtx};
use crate::{checked, kernels, CodecError, ShapeShifterCodec, WidthDetector};

/// The ShapeShifter memory container as a traffic scheme: per-group
/// dynamic width with zero elision, reported with exact bit accounting
/// (metadata included).
///
/// Requires no profile — widths are detected statically for weights at
/// pack time and dynamically for activations by the Figure 5c hardware —
/// which is why the paper can apply it to the non-profiled networks of
/// Figure 8b unchanged. The accounting runs on
/// [`ShapeShifterCodec::measure`], whose group scan is the word-parallel
/// [`crate::kernels`] pass, so pricing a multi-million-value layer costs
/// one streaming read.
///
/// A one-byte **per-array bypass flag** keeps the paper's robustness
/// guarantee ("ShapeShifter compression is robust and never increases
/// traffic"): when a whole array's groups resist compression — e.g. the
/// TF-quantized models whose zero-point pins every stored value near the
/// container middle — the array ships raw and pays only the flag.
///
/// The same struct is the registry's wire id 0 ([`SchemeId::SHAPESHIFTER`]):
/// its group layout is the bare `(Z, P, payload)` group, written and read
/// at the group size of the call or frame, and it is the one scheme that
/// writes and honours a chunk index. The flag and the raw-bypass cap are
/// pricing only — the wire stream carries neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeShifterScheme {
    codec: ShapeShifterCodec,
}

/// Per-array metadata: the compressed/raw bypass flag.
pub(crate) const ARRAY_FLAG_BITS: u64 = 8;

impl ShapeShifterScheme {
    /// Creates the scheme at the given group size.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is 0 or exceeds 256 (as the codec does).
    #[must_use]
    pub const fn new(group_size: usize) -> Self {
        Self {
            codec: ShapeShifterCodec::new(group_size),
        }
    }

    /// The underlying codec.
    #[must_use]
    pub fn codec(&self) -> &ShapeShifterCodec {
        &self.codec
    }
}

impl Default for ShapeShifterScheme {
    /// The paper's default group size of 16.
    fn default() -> Self {
        Self::new(16)
    }
}

/// Per group: the `Z` vector (1 marks a zero value, which carries no
/// payload), the `P` width field, then the non-zero values at `P` bits
/// each — sign-magnitude with the sign at the least-significant bit in
/// signed containers.
impl GroupLayout for ShapeShifterScheme {
    const WIRE_ID: SchemeId = SchemeId::SHAPESHIFTER;
    const INDEXED: bool = true;
    const TRACED: bool = true;

    fn max_width(dtype: FixedType) -> u8 {
        dtype.bits()
    }

    /// One fused [`kernels::scan_gather`] pass yields the `Z` words, the
    /// OR-folded group width and the compacted non-zero payloads, which
    /// are packed as one equal-width field run: each value is loaded once
    /// and no bit is pushed individually. The retired per-value loop
    /// survives as the differential oracle in the `kernel_differential`
    /// suite.
    #[inline]
    fn write_group(
        s: &mut Scratch,
        group: &[i32],
        w: &mut BitWriter,
    ) -> Result<GroupCost, CodecError> {
        let (scan, n) = kernels::scan_gather(group, s.dtype.signedness(), &mut s.fields);
        write_bitvec(w, &scan.z, group.len())?;
        let width = scan.width();
        s.write_width(w, width)?;
        // `n <= group.len() <= MAX_GROUP` by construction, so the slice
        // always exists; the fallback is unreachable.
        let run = s.fields.get(..n).unwrap_or(&[]);
        w.pack_fields(run, u32::from(width))?;
        Ok(GroupCost {
            width,
            elided: scan.zero_count(),
            payload_bits: u64::from(width) * n as u64,
        })
    }

    /// The paper's L1 dispatcher and L2 expander in software: one
    /// [`BitReader::window`] holds the group's `Z` and `P` fields and, for
    /// a group of up to 16 values, its whole payload, so such a group costs
    /// one window load and two checked advances (`Z` with `P`, then the
    /// payload run). The `Z` popcount sizes the payload run, which is
    /// checked in full before any field is read; [`kernels::expand_block`]
    /// then fills the slots 16 at a time. The first block's payload comes
    /// from the first window when the header leaves room for it; any other
    /// block takes a window of its own at its payload's start.
    ///
    /// The checks and errors are the per-field reader's, in its order:
    /// `UnexpectedEnd` for `Z` (in pieces of at most 64 bits), `P` and the
    /// payload run, `WidthExceedsContainer`, then `CorruptValue` for the
    /// first payload in stream order that decodes to zero. No range test
    /// is needed: a field of at most the container's width always decodes
    /// inside the container's range.
    #[inline]
    fn read_group(
        s: &mut Scratch,
        r: &mut BitReader<'_>,
        at: GroupAt,
        out: &mut [i32],
    ) -> Result<(), CodecError> {
        let window = r.window();
        let prefix_bits = s.prefix_bits();
        advance_header(r, at.len, prefix_bits)?;
        let p = s.check_width(
            kernels::window_field(&window, at.len, prefix_bits),
            at.index,
        )?;
        let payloads = at.len - kernels::window_ones(&window, at.len);
        let header = at.len + prefix_bits as usize;
        // The first window holds the first block's payload whenever the
        // header leaves a 256-bit run after it; a block that starts past
        // it takes a window of its own from where the payload starts.
        let from_window = header < 64;
        let payload_start = (!from_window || at.len > kernels::BLOCK).then(|| r.clone());
        r.advance(payloads as u64 * u64::from(p))?;
        let (first, later) = out.split_at_mut(at.len.min(kernels::BLOCK));
        let fields = match &payload_start {
            Some(start) if !from_window => next_run(start),
            _ => kernels::window_run(&window, header),
        };
        let consumed = read_block(s, p, &window, &fields, at, 0, first)?;
        if let Some(mut run) = payload_start {
            run.advance(consumed)?;
            read_later_blocks(s, p, &window, run, at, later)?;
        }
        let z = kernels::window_bitvec(&window, at.len);
        checked::group_invariants(&z, at.len, payloads, p, s.dtype.bits(), at.index);
        Ok(())
    }
}

/// Expands block `b` of a group (16 slots from slot `16 b`) from its
/// payload run, returning the payload bits it consumed.
#[inline(always)]
fn read_block(
    s: &Scratch,
    p: u8,
    window: &[u64; WINDOW_WORDS],
    fields: &kernels::PayloadRun,
    at: GroupAt,
    b: usize,
    block: &mut [i32],
) -> Result<u64, CodecError> {
    let first = b * kernels::BLOCK;
    // ss-lint: allow(truncating-cast) -- a block's Z bits are 16 wide
    let zeros = kernels::window_field(window, first, 16) as u32;
    let expanded = kernels::expand_block(p, s.signed, zeros, fields, at.first_value + first, block)
        .ok_or_else(|| s.width_error(at.index, p))?;
    if expanded.zero_payload {
        return Err(zero_payload(block, zeros, at.first_value + first));
    }
    Ok(expanded.payloads as u64 * u64::from(p))
}

/// Blocks 1 and up of a group of more than 16 values, each from a window
/// at its own payload start: `run` is positioned at block 1's.
#[inline(never)]
fn read_later_blocks(
    s: &Scratch,
    p: u8,
    window: &[u64; WINDOW_WORDS],
    mut run: BitReader<'_>,
    at: GroupAt,
    blocks: &mut [i32],
) -> Result<(), CodecError> {
    for (b, block) in blocks.chunks_mut(kernels::BLOCK).enumerate() {
        let consumed = read_block(s, p, window, &next_run(&run), at, b + 1, block)?;
        run.advance(consumed)?;
    }
    Ok(())
}

/// The payload run at `run`'s position, from a window of its own.
#[inline(never)]
fn next_run(run: &BitReader<'_>) -> kernels::PayloadRun {
    kernels::window_run(&run.window(), 0)
}

/// Moves `r` past a group's `Z` and `P` fields, `len` and `prefix_bits`
/// bits.
#[inline]
fn advance_header(r: &mut BitReader<'_>, len: usize, prefix_bits: u32) -> Result<(), BitIoError> {
    r.advance(len as u64 + u64::from(prefix_bits))
        .or_else(|_| header_end(r, len, prefix_bits))
}

/// The error for a stream too short for a group's `Z` and `P` fields,
/// refused as the per-field reader refused it: `Z` in pieces of at most
/// 64 bits, then `P`.
#[cold]
#[inline(never)]
fn header_end(r: &mut BitReader<'_>, len: usize, prefix_bits: u32) -> Result<(), BitIoError> {
    for start in (0..len).step_by(64) {
        r.advance((len - start).min(64) as u64)?;
    }
    r.advance(u64::from(prefix_bits))
}

/// The error for a block whose payload holds a zero: `CorruptValue` at
/// the first payload slot, in stream order, that decoded to zero. `first`
/// is the stream index of the block's first slot.
#[cold]
#[inline(never)]
fn zero_payload(block: &[i32], zeros: u32, first: usize) -> CodecError {
    let slot = (0..block.len())
        .position(|j| zeros >> j & 1 == 0 && block.get(j) == Some(&0))
        .unwrap_or(0);
    CodecError::CorruptValue {
        index: first + slot,
        value: 0,
    }
}

impl CompressionScheme for ShapeShifterScheme {
    fn name(&self) -> &str {
        "ShapeShifter"
    }

    fn compressed_bits(&self, tensor: &Tensor, _ctx: &SchemeCtx) -> u64 {
        let report = self.codec.measure(tensor);
        ARRAY_FLAG_BITS + report.total_bits().min(tensor.container_bits())
    }

    fn compressed_bits_from_stats(&self, stats: &TensorStats, _ctx: &SchemeCtx) -> Option<u64> {
        // Only answerable when the stats were computed at this scheme's
        // grouping granularity; otherwise fall back to the tensor path.
        let det = WidthDetector::new(stats.dtype().bits(), stats.dtype().signedness());
        let (metadata, payload, _groups) =
            stats.shapeshifter_bits(self.codec.group_size(), det.prefix_bits())?;
        Some(ARRAY_FLAG_BITS + (metadata + payload).min(stats.container_bits()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::decode_field;
    use ss_tensor::{FixedType, Shape};

    fn t(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::U16, vals).unwrap()
    }

    #[test]
    fn matches_codec_output_plus_flag() {
        let tensor = t((0..64).map(|i| i * 3).collect());
        let scheme = ShapeShifterScheme::default();
        let direct = scheme.codec().encode(&tensor).unwrap().bit_len;
        assert_eq!(
            scheme.compressed_bits(&tensor, &SchemeCtx::unprofiled()),
            direct + ARRAY_FLAG_BITS
        );
    }

    #[test]
    fn bypass_caps_incompressible_arrays() {
        // Every value at the container maximum: groups are full width and
        // the metadata would expand the array — the flag ships it raw.
        let tensor = t(vec![0xFFFF; 64]);
        let scheme = ShapeShifterScheme::default();
        let bits = scheme.compressed_bits(&tensor, &SchemeCtx::unprofiled());
        assert_eq!(bits, tensor.container_bits() + ARRAY_FLAG_BITS);
    }

    #[test]
    fn ignores_profile_context() {
        let tensor = t(vec![7; 32]);
        let scheme = ShapeShifterScheme::default();
        assert_eq!(
            scheme.compressed_bits(&tensor, &SchemeCtx::profiled(12)),
            scheme.compressed_bits(&tensor, &SchemeCtx::unprofiled())
        );
    }

    #[test]
    fn every_field_within_the_container_width_decodes_inside_the_container() {
        // `read_group` leans on this instead of a per-value range test:
        // `read_width` caps `P` at the container width, and every
        // non-zero `P`-bit field then decodes to a value the container
        // holds (sign-magnitude fields to the symmetric signed range).
        for bits in 1..=16u8 {
            for dtype in [FixedType::unsigned(bits), FixedType::signed(bits)] {
                let dtype = dtype.unwrap();
                let signed = dtype.signedness().is_signed();
                for p in 1..=bits {
                    for raw in 1..1u64 << p {
                        let v = decode_field(signed, raw);
                        assert!(dtype.contains(v), "{dtype}: P = {p}, field {raw:#x} -> {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn beats_base_on_skewed_data() {
        // Mostly small values with one large: the paper's premise.
        let mut vals = vec![1i32; 63];
        vals.push(60_000);
        let tensor = t(vals);
        let scheme = ShapeShifterScheme::default();
        let ratio = scheme.ratio(&tensor, &SchemeCtx::unprofiled());
        assert!(ratio < 0.4, "ratio {ratio}");
    }
}
