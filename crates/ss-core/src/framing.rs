//! The one framing path every wire scheme runs through.
//!
//! Paper §3 describes the container as a run of self-delimiting groups.
//! ShapeShifter, Delta, DPRed and AdaBits differ only in what one group
//! looks like on the wire, so that part is all a scheme supplies: a
//! [`GroupLayout`] writes one group, reads one group, and bounds the
//! width a group may declare. Everything around the groups lives here,
//! once:
//!
//! * the group-size check and the frame-versus-stream bounds;
//! * the group loops, which hand each group its length (the tail group is
//!   short) and its stream-global group and value indices for errors;
//! * the chunk-index cut on encode and the fan-out over index spans on
//!   decode (only layouts with [`GroupLayout::INDEXED`] write or honour an
//!   index);
//! * the group assembly behind the one store per run of groups on encode
//!   ([`Scratch::put_width`], [`Scratch::put_fields`], [`Scratch::store`]),
//!   the per-field readers' bit-vector and `P` reads, and the one bound on
//!   a declared width;
//! * the rule that a frame, or each index span, is consumed exactly
//!   ([`CodecError::TrailingBits`] / [`CodecError::IndexChunkMismatch`]).
//!
//! The path is generic over the layout, so a group costs no dynamic call,
//! and a call's constants and scratch ([`Scratch`]) are built once per
//! call (once per worker on a fan-out), never per group. The per-group
//! functions and helpers are `#[inline]`: a group is typically 16
//! values, so a call per group is measurable.

use std::fmt;

use ss_bitio::{BitIoError, BitReader, BitWriter};
use ss_tensor::{width, FixedType, Tensor};
use ss_trace::{Counter, WidthCounts, WidthHist};

use crate::index::{ChunkEntry, ChunkIndex};
use crate::kernels::{GroupBits, Lanes, BLOCK, MAX_GROUP};
use crate::registry::{SchemeId, StreamFrame};
use crate::scheme::CompressionScheme;
use crate::{checked, par, CodecError, IndexPolicy, MeasureReport, WidthDetector};

/// A group-length bit vector, LSB-first: bit `i % 64` of word `i / 64`
/// belongs to the group's value `i`. Four words cover the largest group.
pub(crate) type BitVec = [u64; MAX_GROUP / 64];

/// One wire scheme's per-group layout — the only part of a stream that
/// differs between schemes.
///
/// A layout must spend at least one bit per value: the frame check bounds
/// a declared element count by the stream's bit length with that rule.
pub(crate) trait GroupLayout: CompressionScheme + fmt::Debug + Send + Sync {
    /// The scheme's stable wire id.
    const WIRE_ID: SchemeId;
    /// Whether the scheme writes and honours a chunk index.
    const INDEXED: bool = false;
    /// Whether its encodes and decodes pump the codec trace counters.
    const TRACED: bool = false;

    /// Bits of the `P` field, which stores a group's width minus one.
    fn prefix_bits(dtype: FixedType) -> u32 {
        u32::from(WidthDetector::new(dtype.bits(), dtype.signedness()).prefix_bits())
    }

    /// The widest group a `dtype` stream may declare; a wider `P` is a
    /// [`CodecError::WidthExceedsContainer`].
    fn max_width(dtype: FixedType) -> u8;

    /// Appends one group of up to [`MAX_GROUP`] values to the run being
    /// assembled in [`Scratch::group`].
    fn write_group(s: &mut Scratch, group: &[i32]) -> Result<GroupCost, CodecError>;

    /// Reads one group into `out`, which holds exactly `at.len` slots.
    fn read_group(
        s: &mut Scratch,
        r: &mut BitReader<'_>,
        at: GroupAt,
        out: &mut [i32],
    ) -> Result<(), CodecError>;
}

/// What writing one group cost: the width it declared, how many of its
/// values it elided, and the bits of its value fields. Every other bit it
/// wrote is metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupCost {
    pub(crate) width: u8,
    pub(crate) elided: u32,
    pub(crate) payload_bits: u64,
}

/// Where one group sits in its stream: its length, and the stream-global
/// indices of the group and of its first value (for errors).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupAt {
    pub(crate) len: usize,
    pub(crate) index: usize,
    pub(crate) first_value: usize,
}

/// One call's constants and scratch, shared by every group of the call.
pub(crate) struct Scratch {
    pub(crate) dtype: FixedType,
    pub(crate) signed: bool,
    prefix_bits: u32,
    max_width: u8,
    /// A group's bit vector in the per-field readers: Delta's `Z`,
    /// AdaBits's sign plane.
    pub(crate) bits: BitVec,
    /// AdaBits's current magnitude plane in the per-field reader.
    pub(crate) plane: BitVec,
    /// A group's value fields.
    pub(crate) fields: [u64; MAX_GROUP],
    /// AdaBits's magnitudes, assembled plane by plane in the per-field
    /// reader.
    pub(crate) mags: [u32; MAX_GROUP],
    /// AdaBits's planes on encode, one block of 16 values per entry.
    pub(crate) planes: [Lanes; MAX_GROUP / BLOCK],
    /// The groups being written, appended to the stream by
    /// [`Scratch::store`].
    pub(crate) group: GroupBits,
}

impl Scratch {
    fn new<L: GroupLayout>(dtype: FixedType) -> Self {
        Self {
            dtype,
            signed: dtype.signedness().is_signed(),
            prefix_bits: L::prefix_bits(dtype),
            max_width: L::max_width(dtype),
            bits: [0; MAX_GROUP / 64],
            plane: [0; MAX_GROUP / 64],
            fields: [0; MAX_GROUP],
            mags: [0; MAX_GROUP],
            planes: [[0; 4]; MAX_GROUP / BLOCK],
            group: GroupBits::new(),
        }
    }

    /// Appends a group's `P` field to the group being written: `width -
    /// 1`, with an all-zero group's width 0 pinned to the smallest
    /// encoding.
    #[inline]
    pub(crate) fn put_width(&mut self, width: u8) {
        self.group
            .put(u64::from(width.max(1) - 1), self.prefix_bits);
    }

    /// Appends the first `n` entries of [`Scratch::fields`] at `width`
    /// bits each to the group being written.
    #[inline]
    pub(crate) fn put_fields(&mut self, width: u8, n: usize) -> Result<(), CodecError> {
        self.group
            .put_fields(width, &self.fields, n)
            .ok_or(BitIoError::FieldTooWide {
                bits: u32::from(width),
            })?;
        Ok(())
    }

    /// Appends the groups assembled so far to `w`, in one store, and
    /// starts the next run.
    #[inline]
    pub(crate) fn store(&mut self, w: &mut BitWriter) -> Result<(), CodecError> {
        let (words, bits) = self.group.finish();
        w.write_words(words, bits)?;
        self.group.clear();
        Ok(())
    }

    /// Bits of the `P` field.
    #[inline]
    pub(crate) fn prefix_bits(&self) -> u32 {
        self.prefix_bits
    }

    /// The widest group the layout allows.
    #[inline]
    pub(crate) fn max_width(&self) -> u8 {
        self.max_width
    }

    /// Reads group `group`'s `P` field and bounds the width it declares.
    #[inline]
    pub(crate) fn read_width(&self, r: &mut BitReader<'_>, group: usize) -> Result<u8, CodecError> {
        let field = r.read_bits(self.prefix_bits)?;
        self.check_width(field, group)
    }

    /// The width group `group`'s `P` field declares, if the layout allows
    /// it: the one place that bounds a declared width.
    #[inline]
    pub(crate) fn check_width(&self, field: u64, group: usize) -> Result<u8, CodecError> {
        self.width_within(field, self.max_width).ok_or_else(|| {
            // ss-lint: allow(truncating-cast) -- prefix field is <= 5 bits wide, value <= 31
            self.width_error(group, field as u8 + 1)
        })
    }

    /// The width a `P` field declares, if it is at most `limit`: the
    /// window readers' test, which leaves the error to the per-field
    /// reader.
    #[inline]
    pub(crate) fn width_within(&self, field: u64, limit: u8) -> Option<u8> {
        // ss-lint: allow(truncating-cast) -- prefix field is <= 5 bits wide, value <= 31
        let width = field as u8 + 1;
        (width <= limit).then_some(width)
    }

    /// [`CodecError::WidthExceedsContainer`] for group `group` declaring
    /// `width`.
    #[inline]
    pub(crate) fn width_error(&self, group: usize, width: u8) -> CodecError {
        CodecError::WidthExceedsContainer {
            group,
            width,
            container: self.max_width,
        }
    }
}

/// A value's field encoding: sign-magnitude (sign at the LSB) in a
/// `signed` container, the value itself in an unsigned one.
#[inline]
pub(crate) fn encode_field(signed: bool, v: i32) -> u32 {
    if signed {
        width::to_sign_magnitude(v)
    } else {
        v.unsigned_abs()
    }
}

/// Inverse of [`encode_field`].
#[inline]
pub(crate) fn decode_field(signed: bool, raw: u64) -> i32 {
    // ss-lint: allow(truncating-cast) -- fields are bounded by read_width, at most 17 bits
    let raw = raw as u32;
    if signed {
        width::from_sign_magnitude(raw)
    } else {
        // ss-lint: allow(truncating-cast) -- at most 17 bits, positive as i32
        raw as i32
    }
}

/// Packs a flag per group value into a bit vector: bit `i` is
/// `flag(values[i])`, with `flag` called in value order.
#[inline]
pub(crate) fn bitvec<T: Copy>(values: &[T], mut flag: impl FnMut(T) -> bool) -> BitVec {
    let mut bits = [0u64; MAX_GROUP / 64];
    for (word, chunk) in bits.iter_mut().zip(values.chunks(64)) {
        // Each flag enters at the top and moves down one place per later
        // value: a fixed shift per value, and one variable shift per word.
        let acc = chunk
            .iter()
            .fold(0u64, |acc, &v| acc >> 1 | u64::from(flag(v)) << 63);
        // ss-lint: allow(shift-bound) -- chunks(64) yields 1..=64 values, so the shift is 0..=63
        *word = acc >> (64 - chunk.len());
    }
    bits
}

/// Bit `i` of a group bit vector.
#[inline]
pub(crate) fn bit(bits: &BitVec, i: usize) -> bool {
    bits.get(i / 64)
        .is_some_and(|word| word >> (i % 64) & 1 == 1)
}

/// Reads a `len`-bit group bit vector into `bits`, returning how many of
/// its bits are set. Words past `len` keep whatever they held.
// Always inlined: a caller that ignores the count (AdaBits's planes) then
// pays no popcount.
#[inline(always)]
pub(crate) fn read_bitvec(
    r: &mut BitReader<'_>,
    len: usize,
    bits: &mut BitVec,
) -> Result<usize, CodecError> {
    let mut set = 0;
    for (word, start) in bits.iter_mut().zip((0..len).step_by(64)) {
        // ss-lint: allow(truncating-cast) -- min(64) bounds the read width
        *word = r.read_bits((len - start).min(64) as u32)?;
        // read_bits returns clean high bits, so whole-word popcounts only
        // see this group's bits.
        set += word.count_ones() as usize;
    }
    Ok(set)
}

/// Bounds-checks a group size as a typed error instead of a panic (wire
/// input reaches this path).
fn checked_group_size(group_size: usize) -> Result<(), CodecError> {
    if (1..=MAX_GROUP).contains(&group_size) {
        Ok(())
    } else {
        Err(CodecError::InvalidGroupSize)
    }
}

/// Checks framing metadata against its stream before anything is decoded
/// or allocated: the stream must hold `bit_len` bits, and as every layout
/// spends at least a bit per value, `bit_len` bits cannot hold more than
/// `bit_len` values. A hostile header therefore cannot size an
/// allocation beyond its input.
fn check_frame(bytes: &[u8], frame: &StreamFrame) -> Result<(), CodecError> {
    let available = bytes.len() as u64 * 8;
    if frame.bit_len > available {
        return Err(BitIoError::UnexpectedEnd {
            requested: u32::MAX,
            available,
        }
        .into());
    }
    if frame.len as u64 > frame.bit_len {
        return Err(BitIoError::UnexpectedEnd {
            requested: u32::MAX,
            available: frame.bit_len,
        }
        .into());
    }
    Ok(())
}

/// Encodes `tensor` under layout `L` into `w` (cleared first), returning
/// the bit accounting and, when `L` is indexed and `policy` asks for one,
/// the chunk index.
///
/// The index cut depends only on the policy, never on `threads`, so the
/// stream and index are the same at every worker count. With
/// `threads > 1` the tensor's group-aligned chunks (the index chunks, or
/// one per worker) are encoded on [`par::par_map_with`] workers and
/// spliced back in order; groups are self-contained, so the splice is
/// bit-identical to the sequential encode. `entries` is the index-entry
/// scratch: an index takes its storage, and an unindexed encode hands it
/// back.
pub(crate) fn write_stream<L: GroupLayout>(
    tensor: &Tensor,
    group_size: usize,
    policy: IndexPolicy,
    threads: usize,
    w: &mut BitWriter,
    entries: &mut Vec<ChunkEntry>,
) -> Result<(MeasureReport, Option<ChunkIndex>), CodecError> {
    checked_group_size(group_size)?;
    let values = tensor.values();
    let dtype = tensor.dtype();
    let chunk_groups = if L::INDEXED {
        policy.chunk_groups(group_size, values.len())
    } else {
        None
    };
    // `chunk_groups` only returns sizes strictly below the tensor length,
    // so the product cannot overflow.
    let chunk_values = match chunk_groups {
        Some(groups) => groups * group_size,
        None => par::chunk_values(values.len(), group_size, threads),
    };
    w.clear();
    let mut chunk_entries = std::mem::take(entries);
    chunk_entries.clear();
    let mut report = MeasureReport::default();
    if threads > 1 {
        let chunks: Vec<&[i32]> = values.chunks(chunk_values).collect();
        let hint = tensor.container_bits() / 2 / chunks.len().max(1) as u64;
        let parts = par::par_map_with(
            &chunks,
            threads,
            || Scratch::new::<L>(dtype),
            |s, _, chunk| {
                let mut part = BitWriter::with_capacity_bits(hint);
                let report = write_groups::<L>(s, chunk, group_size, &mut part)?;
                Ok::<_, CodecError>((part, report))
            },
        );
        for (chunk, part) in chunks.iter().zip(parts) {
            let (part, part_report) = part?;
            chunk_entries.push(ChunkEntry {
                bit_offset: w.bit_len(),
                values: chunk.len() as u64,
            });
            report.add(&part_report);
            w.append_writer(part)?;
        }
    } else {
        let mut s = Scratch::new::<L>(dtype);
        for chunk in values.chunks(chunk_values) {
            chunk_entries.push(ChunkEntry {
                bit_offset: w.bit_len(),
                values: chunk.len() as u64,
            });
            report.add(&write_groups::<L>(&mut s, chunk, group_size, w)?);
        }
    }
    let index = match chunk_groups {
        Some(groups) => {
            // ss-lint: allow(truncating-cast) -- bounded by IndexPolicy::chunk_groups' u32 guard
            let index = ChunkIndex::from_parts(groups as u32, chunk_entries)?;
            checked::index_bookkeeping(&index, group_size, w.bit_len(), values.len());
            Some(index)
        }
        None => {
            *entries = chunk_entries;
            None
        }
    };
    if let Some(rec) = ss_trace::installed().filter(|_| L::TRACED) {
        rec.add(Counter::EncodeCalls, 1);
        rec.add(Counter::EncodeValues, values.len() as u64);
        rec.add(Counter::EncodeBits, w.bit_len());
        rec.add(Counter::EncodeMetadataBits, report.metadata_bits);
        rec.add(Counter::EncodePayloadBits, report.payload_bits);
        rec.add(Counter::EncodeGroups, report.groups as u64);
    }
    Ok((report, index))
}

/// The one encode group loop: appends the groups of `values` to `w` and
/// returns their accounting. The groups are assembled back to back in
/// [`Scratch::group`] and reach `w` in one store whenever the run fills
/// the space the longest group needs, and once at the end. Trace state is
/// gathered locally and submitted once, so an untraced encode pays one
/// branch per group.
fn write_groups<L: GroupLayout>(
    s: &mut Scratch,
    values: &[i32],
    group_size: usize,
    w: &mut BitWriter,
) -> Result<MeasureReport, CodecError> {
    let rec = ss_trace::installed().filter(|_| L::TRACED);
    let mut widths = WidthCounts::new();
    let mut elided = 0u64;
    let start = w.bit_len();
    let mut groups = 0usize;
    let mut payload_bits = 0u64;
    s.group.clear();
    for group in values.chunks(group_size) {
        let cost = L::write_group(s, group)?;
        if s.group.is_full() {
            s.store(w)?;
        }
        groups += 1;
        payload_bits += cost.payload_bits;
        if rec.is_some() {
            elided += u64::from(cost.elided);
            widths.observe(cost.width, 1);
        }
    }
    s.store(w)?;
    if let Some(rec) = rec {
        rec.record_widths(WidthHist::CodecGroupWidth, &widths);
        rec.add(Counter::EncodeZerosElided, elided);
    }
    Ok(MeasureReport {
        metadata_bits: w.bit_len() - start - payload_bits,
        payload_bits,
        groups,
    })
}

/// Decodes a stream written under layout `L` into `out`, replacing its
/// contents (on an error they are unspecified).
///
/// Without an index the stream is parsed sequentially and must be
/// consumed exactly ([`CodecError::TrailingBits`] otherwise). With one —
/// honoured only when `L` is indexed — the index is validated against the
/// frame and its spans are fanned out over up to `threads`
/// [`par::par_map_with`] workers, each confined to its own span, which it
/// must consume exactly ([`CodecError::IndexChunkMismatch`] otherwise).
/// Both give the same values on well-formed input.
///
/// The output is sized once per stream, after [`check_frame`] has
/// bounded the element count by the stream, and the group readers fill it
/// in place; on a fan-out each worker fills its own spans of it
/// ([`par::par_spans_mut`]). Every reader writes each slot of its group,
/// so slots `out` already holds are overwritten, not zeroed first: a
/// reused scratch buffer is zero-filled only where it grows.
pub(crate) fn read_stream<L: GroupLayout>(
    bytes: &[u8],
    frame: &StreamFrame,
    index: Option<&ChunkIndex>,
    threads: usize,
    out: &mut Vec<i32>,
) -> Result<(), CodecError> {
    checked_group_size(frame.group_size)?;
    check_frame(bytes, frame)?;
    let index = index.filter(|_| L::INDEXED);
    out.truncate(frame.len);
    out.resize(frame.len, 0);
    match index {
        None => {
            let mut r = BitReader::with_bit_len(bytes, frame.bit_len);
            let mut s = Scratch::new::<L>(frame.dtype);
            read_groups::<L>(&mut s, &mut r, frame.group_size, 0, out)?;
            if !r.is_at_end() {
                return Err(CodecError::TrailingBits {
                    remaining: r.remaining_bits(),
                });
            }
        }
        Some(index) => {
            index.validate(frame.group_size, frame.bit_len, frame.len)?;
            let entries = index.entries();
            let parts = par::par_spans_mut(
                out,
                entries,
                // ss-lint: allow(truncating-cast) -- validate() bounds each count by len: usize
                |entry| entry.values as usize,
                threads,
                || Scratch::new::<L>(frame.dtype),
                |s, chunk, entry, part| {
                    // validate() pinned the last span's end to `bit_len`.
                    let end = entries
                        .get(chunk + 1)
                        .map_or(frame.bit_len, |e| e.bit_offset);
                    let mut r = BitReader::with_bit_range(bytes, entry.bit_offset, end)?;
                    let first_group = chunk * index.chunk_groups();
                    read_groups::<L>(s, &mut r, frame.group_size, first_group, part)?;
                    if !r.is_at_end() {
                        return Err(CodecError::IndexChunkMismatch {
                            chunk,
                            expected_bits: end - entry.bit_offset,
                            consumed_bits: r.consumed_bits(),
                        });
                    }
                    Ok(())
                },
            );
            parts.into_iter().collect::<Result<(), CodecError>>()?;
        }
    }
    if let Some(rec) = ss_trace::installed().filter(|_| L::TRACED) {
        rec.add(Counter::DecodeCalls, 1);
        rec.add(Counter::DecodeValues, out.len() as u64);
        if let Some(index) = index {
            rec.add(Counter::DecodeIndexHits, 1);
            rec.add(Counter::DecodeChunksFanned, index.chunk_count() as u64);
        }
    }
    Ok(())
}

/// The one decode group loop: fills `out` with groups, the first of them
/// the stream's group `first_group`. Every chunk before `first_group`
/// holds full groups (validated for indexed spans), so a group's first
/// value sits at `group * group_size` in the stream.
fn read_groups<L: GroupLayout>(
    s: &mut Scratch,
    r: &mut BitReader<'_>,
    group_size: usize,
    first_group: usize,
    out: &mut [i32],
) -> Result<(), CodecError> {
    for (g, group) in out.chunks_mut(group_size).enumerate() {
        let index = first_group + g;
        let at = GroupAt {
            len: group.len(),
            index,
            first_value: index * group_size,
        };
        L::read_group(s, r, at, group)?;
    }
    Ok(())
}
