//! The container-scheme registry: the storage schemes behind one stable
//! wire protocol.
//!
//! Containers name their scheme by a one-byte wire id, so pack/unpack,
//! the session, the pipeline, the shard store and the SSRP wire dispatch
//! through one registry instead of each matching on a closed enum:
//!
//! * [`ContainerScheme`] — the wire half of a storage scheme, beside its
//!   [`CompressionScheme`] pricing: a stable one-byte wire id,
//!   encode-into/decode-into, and optional chunk-index participation.
//!   Each built-in scheme is one struct whose per-group layout runs
//!   through the one framing path (`crate::framing`), which gives it
//!   this trait.
//! * [`SchemeRegistry`] — resolves wire ids to scheme objects at unpack
//!   time. Unregistered ids are a typed [`CodecError::UnknownScheme`],
//!   never a panic or a misdispatch.
//! * [`SchemeId`] — the wire id newtype shared by the `SSPK` header
//!   (byte 7), the `ss-store` record metadata and the SSRP serve config.
//!
//! # Wire-id stability
//!
//! A scheme's wire id is **forever**: it is written into container
//! headers and shard files, so re-using or re-numbering an id silently
//! misdispatches old data. The four built-in ids are pinned by
//! [`SchemeId::SHAPESHIFTER`] (0), [`SchemeId::DELTA`] (1),
//! [`SchemeId::DPRED`] (2) and [`SchemeId::ADABITS`] (3) and by the
//! golden-vector suite.

use std::fmt;

use ss_bitio::BitWriter;
use ss_tensor::{FixedType, Signedness, Tensor};

use crate::checksum::fnv1a_64;
use crate::codec::IndexPolicy;
use crate::framing::{self, GroupLayout};
use crate::index::{ChunkEntry, ChunkIndex};
use crate::scheme::{
    AdaBitsScheme, CompressionScheme, DeltaShapeShifter, DpRed, ShapeShifterScheme,
};
use crate::{CodecError, MeasureReport};

/// A container scheme's one-byte wire id.
///
/// Any byte is representable — validity is a property of the registry
/// that resolves it, not of the id itself, so headers parse permissively
/// and unregistered ids surface as [`CodecError::UnknownScheme`] exactly
/// where dispatch would happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SchemeId(u8);

impl SchemeId {
    /// The paper's per-group container (zero elision + width prefix).
    pub const SHAPESHIFTER: SchemeId = SchemeId(0);
    /// The Diffy-style delta extension.
    pub const DELTA: SchemeId = SchemeId(1);
    /// DPRed per-group precision storage (no zero elision).
    pub const DPRED: SchemeId = SchemeId(2);
    /// AdaBits MSB-first bit-plane storage for multi-width serving.
    pub const ADABITS: SchemeId = SchemeId(3);

    /// Wraps a raw wire byte.
    #[must_use]
    pub const fn new(id: u8) -> Self {
        Self(id)
    }

    /// The raw wire byte.
    #[must_use]
    pub const fn as_byte(self) -> u8 {
        self.0
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u8> for SchemeId {
    fn from(b: u8) -> Self {
        Self(b)
    }
}

impl From<SchemeId> for u8 {
    fn from(id: SchemeId) -> Self {
        id.0
    }
}

/// The framing metadata a scheme needs to decode a raw stream — exactly
/// what an `SSPK` header or an `ss-store` record carries per tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFrame {
    /// Stream length in bits.
    pub bit_len: u64,
    /// Value container type.
    pub dtype: FixedType,
    /// Element count.
    pub len: usize,
    /// Grouping granularity the stream was encoded at.
    pub group_size: usize,
}

/// A container storage scheme: the wire half of a [`CompressionScheme`].
///
/// A scheme is one struct. Its [`CompressionScheme`] impl prices tensors
/// (and names the scheme); this trait adds the stream it actually writes.
/// The wire methods take the group size from the call or the frame, never
/// from the struct, so one registered instance serves every group size.
/// Every built-in scheme gets this trait from its per-group layout, so
/// all of them share one framing path. The contract, pinned by DESIGN.md
/// §16 and the golden-vector suite:
///
/// * **Wire-id stability** — [`ContainerScheme::wire_id`] never changes
///   for a shipped scheme; the byte is persisted in headers and shards.
/// * **Encode framing** — [`ContainerScheme::encode_into`] clears the
///   writer and leaves exactly the scheme's stream in it; a returned
///   [`ChunkIndex`] uses stream-relative bit offsets and takes its entry
///   storage from the caller's scratch.
/// * **Decode framing** — [`ContainerScheme::decode_into`] replaces
///   `out`'s contents, validates the frame against the stream, consumes
///   the stream exactly,
///   and fails with a typed [`CodecError`] on any disagreement — never a
///   panic, never a silently wrong tensor.
pub trait ContainerScheme: CompressionScheme + fmt::Debug + Send + Sync {
    /// The scheme's stable wire id (header byte 7 / shard record codec
    /// byte).
    fn wire_id(&self) -> SchemeId;

    /// Encodes `tensor` at `group_size` into `w` (cleared first) on up to
    /// `threads` workers, returning the stream's bit accounting and, when
    /// the scheme participates in indexing and `policy` asked for one,
    /// the chunk index. The stream, accounting and index are the same at
    /// every worker count.
    ///
    /// `entries` is index-entry scratch: an indexed encode moves its
    /// storage into the returned index, so a caller that refills it from
    /// its previous index (as `CodecSession` does) encodes without
    /// allocating.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidGroupSize`] for group sizes outside 1..=256;
    /// otherwise internal bit-packing failures (unreachable for valid
    /// tensors).
    fn encode_into(
        &self,
        tensor: &Tensor,
        group_size: usize,
        policy: IndexPolicy,
        threads: usize,
        w: &mut BitWriter,
        entries: &mut Vec<ChunkEntry>,
    ) -> Result<(MeasureReport, Option<ChunkIndex>), CodecError>;

    /// Decodes a raw stream into `out`, replacing its contents (on an
    /// error they are unspecified). `index` is the container's chunk index
    /// when one travelled with the stream; a scheme that participates in
    /// indexing fans its spans out over up to `threads` workers, and any
    /// other scheme ignores it.
    ///
    /// # Errors
    ///
    /// Typed [`CodecError`] variants for truncation, framing
    /// disagreements (including [`CodecError::TrailingBits`]), or corrupt
    /// payloads.
    fn decode_into(
        &self,
        stream: &[u8],
        frame: &StreamFrame,
        index: Option<&ChunkIndex>,
        threads: usize,
        out: &mut Vec<i32>,
    ) -> Result<(), CodecError>;
}

impl<L: GroupLayout> ContainerScheme for L {
    fn wire_id(&self) -> SchemeId {
        L::WIRE_ID
    }

    fn encode_into(
        &self,
        tensor: &Tensor,
        group_size: usize,
        policy: IndexPolicy,
        threads: usize,
        w: &mut BitWriter,
        entries: &mut Vec<ChunkEntry>,
    ) -> Result<(MeasureReport, Option<ChunkIndex>), CodecError> {
        framing::write_stream::<L>(tensor, group_size, policy, threads, w, entries)
    }

    fn decode_into(
        &self,
        stream: &[u8],
        frame: &StreamFrame,
        index: Option<&ChunkIndex>,
        threads: usize,
        out: &mut Vec<i32>,
    ) -> Result<(), CodecError> {
        framing::read_stream::<L>(stream, frame, index, threads, out)
    }
}

/// The shard-store configuration fingerprint of a record: FNV-1a over the
/// wire id, group size, container bits and signedness. `ss-store` records
/// it per tensor and compares it across processes and hosts, so the
/// recipe is frozen.
#[must_use]
pub fn fingerprint_bytes(id: SchemeId, group_size: u16, dtype: FixedType) -> u64 {
    let [gs_lo, gs_hi] = group_size.to_le_bytes();
    let signed = match dtype.signedness() {
        Signedness::Signed => 1u8,
        Signedness::Unsigned => 0,
    };
    fnv1a_64(&[id.as_byte(), gs_lo, gs_hi, dtype.bits(), signed])
}

/// The four built-in schemes. The wire methods take the group size from
/// the call or frame; the paper's group of 16 only prices.
static SHAPESHIFTER: ShapeShifterScheme = ShapeShifterScheme::new(16);
static DELTA: DeltaShapeShifter = DeltaShapeShifter::new(16);
static DPRED: DpRed = DpRed::new(16);
static ADABITS: AdaBitsScheme = AdaBitsScheme::new(16);

/// Resolves wire ids to the four built-in schemes:
/// [`SchemeRegistry::global`] is the one instance.
pub struct SchemeRegistry(());

impl fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let schemes = self.ids().filter_map(|id| self.lookup(id));
        f.debug_map()
            .entries(schemes.map(|s| (s.wire_id().as_byte(), s.name())))
            .finish()
    }
}

impl SchemeRegistry {
    /// The process-wide registry of built-in schemes.
    pub fn global() -> &'static SchemeRegistry {
        static GLOBAL: SchemeRegistry = SchemeRegistry(());
        &GLOBAL
    }

    /// Resolves a wire id, or `None` if nothing is registered under it.
    #[must_use]
    pub fn lookup(&self, id: SchemeId) -> Option<&dyn ContainerScheme> {
        match id {
            SchemeId::SHAPESHIFTER => Some(&SHAPESHIFTER),
            SchemeId::DELTA => Some(&DELTA),
            SchemeId::DPRED => Some(&DPRED),
            SchemeId::ADABITS => Some(&ADABITS),
            _ => None,
        }
    }

    /// Resolves a wire id.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnknownScheme`] carrying the offending byte — the
    /// typed error every unpack path surfaces for unregistered ids.
    pub fn get(&self, id: SchemeId) -> Result<&dyn ContainerScheme, CodecError> {
        self.lookup(id)
            .ok_or(CodecError::UnknownScheme { id: id.as_byte() })
    }

    /// The registered wire ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = SchemeId> + '_ {
        (0..=u8::MAX)
            .map(SchemeId::new)
            .filter(|&id| self.lookup(id).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeCtx;
    use crate::ShapeShifterCodec;
    use ss_tensor::Shape;

    fn t(vals: Vec<i32>) -> Tensor {
        Tensor::from_vec(Shape::flat(vals.len()), FixedType::I16, vals).unwrap()
    }

    #[test]
    fn global_registry_resolves_builtin_ids() {
        let r = SchemeRegistry::global();
        assert_eq!(
            r.get(SchemeId::SHAPESHIFTER).unwrap().name(),
            "ShapeShifter"
        );
        assert_eq!(r.get(SchemeId::DELTA).unwrap().name(), "Delta-ShapeShifter");
        assert_eq!(r.get(SchemeId::DPRED).unwrap().name(), "DPRed");
        assert_eq!(r.get(SchemeId::ADABITS).unwrap().name(), "AdaBits");
        assert_eq!(r.ids().count(), 4);
    }

    #[test]
    fn unknown_id_is_typed() {
        let r = SchemeRegistry::global();
        for id in 4..=255u8 {
            match r.get(SchemeId::new(id)) {
                Err(CodecError::UnknownScheme { id: got }) => assert_eq!(got, id),
                other => panic!("id {id}: expected UnknownScheme, got {other:?}"),
            }
        }
    }

    #[test]
    fn registry_shapeshifter_matches_one_shot_codec() {
        let vals: Vec<i32> = (0..300).map(|i| (i * 37) % 2000 - 1000).collect();
        let tensor = t(vals);
        for policy in [
            IndexPolicy::None,
            IndexPolicy::EveryGroups(3),
            IndexPolicy::Auto,
        ] {
            let one_shot = ShapeShifterCodec::new(16)
                .with_index_policy(policy)
                .encode(&tensor)
                .unwrap();
            // The wire group size is the call's, not the struct's.
            let scheme = ShapeShifterScheme::new(64);
            let mut w = BitWriter::new();
            let (report, index) = scheme
                .encode_into(&tensor, 16, policy, 1, &mut w, &mut Vec::new())
                .unwrap();
            assert_eq!(w.as_bytes(), one_shot.bytes);
            assert_eq!(w.bit_len(), one_shot.bit_len);
            assert_eq!(index, one_shot.index);
            assert_eq!(report, one_shot.report);
        }
    }

    #[test]
    fn registry_delta_matches_one_shot_scheme() {
        // The registered (group-16) instance writes, at a call group size
        // of 4, exactly the stream a group-4 struct writes and prices.
        let tensor = t(vec![1000, 1002, 1001, 999, 0, 0, 998, 30_000]);
        let group4 = DeltaShapeShifter::new(4);
        let mut expected = BitWriter::new();
        group4
            .encode_into(
                &tensor,
                4,
                IndexPolicy::None,
                1,
                &mut expected,
                &mut Vec::new(),
            )
            .unwrap();
        let mut w = BitWriter::new();
        let (_, index) = SchemeRegistry::global()
            .get(SchemeId::DELTA)
            .unwrap()
            .encode_into(&tensor, 4, IndexPolicy::Auto, 1, &mut w, &mut Vec::new())
            .unwrap();
        assert!(index.is_none());
        assert_eq!(w.as_bytes(), expected.as_bytes());
        assert_eq!(
            w.bit_len(),
            group4.compressed_bits(&tensor, &SchemeCtx::unprofiled())
        );
    }

    #[test]
    fn every_builtin_roundtrips_through_the_trait() {
        let vals: Vec<i32> = (0..200)
            .map(|i| {
                if i % 5 == 0 {
                    0
                } else {
                    (i * 91) % 3000 - 1500
                }
            })
            .collect();
        let tensor = t(vals);
        for id in SchemeRegistry::global().ids() {
            let scheme = SchemeRegistry::global().get(id).unwrap();
            let mut w = BitWriter::new();
            let (_, index) = scheme
                .encode_into(&tensor, 16, IndexPolicy::None, 1, &mut w, &mut Vec::new())
                .unwrap();
            let frame = StreamFrame {
                bit_len: w.bit_len(),
                dtype: tensor.dtype(),
                len: tensor.len(),
                group_size: 16,
            };
            let mut out = Vec::new();
            scheme
                .decode_into(w.as_bytes(), &frame, index.as_ref(), 1, &mut out)
                .unwrap();
            assert_eq!(out, tensor.values(), "scheme {}", scheme.name());
        }
    }

    #[test]
    fn every_scheme_consumes_its_frame_exactly() {
        // A frame that declares more bits than its groups consume is a
        // disagreement between framing and stream, under every scheme.
        let vals: Vec<i32> = (0..40).map(|i| (i * 37) % 2000 - 1000).collect();
        let tensor = t(vals);
        for id in SchemeRegistry::global().ids() {
            let scheme = SchemeRegistry::global().get(id).unwrap();
            let mut w = BitWriter::new();
            scheme
                .encode_into(&tensor, 16, IndexPolicy::None, 1, &mut w, &mut Vec::new())
                .unwrap();
            let bit_len = w.bit_len();
            w.write_bits(0xBEEF, 16).unwrap();
            let frame = StreamFrame {
                bit_len: bit_len + 16,
                dtype: tensor.dtype(),
                len: tensor.len(),
                group_size: 16,
            };
            assert_eq!(
                scheme.decode_into(w.as_bytes(), &frame, None, 1, &mut Vec::new()),
                Err(CodecError::TrailingBits { remaining: 16 }),
                "scheme {}",
                scheme.name()
            );
        }
    }

    #[test]
    fn invalid_group_size_is_typed_not_a_panic() {
        let tensor = t(vec![1, 2, 3]);
        for id in SchemeRegistry::global().ids() {
            let scheme = SchemeRegistry::global().get(id).unwrap();
            let mut w = BitWriter::new();
            for gs in [0usize, 257, 1 << 20] {
                assert_eq!(
                    scheme
                        .encode_into(&tensor, gs, IndexPolicy::None, 1, &mut w, &mut Vec::new())
                        .unwrap_err(),
                    CodecError::InvalidGroupSize,
                    "scheme {} gs {gs}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn fingerprints_differ_across_schemes_and_configs() {
        let a = fingerprint_bytes(SchemeId::SHAPESHIFTER, 16, FixedType::I16);
        let b = fingerprint_bytes(SchemeId::DPRED, 16, FixedType::I16);
        let c = fingerprint_bytes(SchemeId::SHAPESHIFTER, 64, FixedType::I16);
        let d = fingerprint_bytes(SchemeId::SHAPESHIFTER, 16, FixedType::U16);
        assert!(a != b && a != c && a != d && b != c);
    }
}
