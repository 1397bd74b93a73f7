//! The container-scheme plug-in registry: an open set of storage schemes
//! behind one stable wire protocol.
//!
//! Containers used to name their codec through a closed enum, so every
//! new storage scheme had to be hand-threaded through pack/unpack, the
//! session, the chunk index, the pipeline and the shard-store
//! fingerprint. This module opens that set:
//!
//! * [`ContainerScheme`] — the wire trait a storage scheme implements on
//!   top of its [`CompressionScheme`] pricing: a stable one-byte wire id,
//!   encode-into/decode-into over the shared bit-stream machinery,
//!   optional chunk-index participation, and the shard-store fingerprint
//!   hook. Each built-in scheme is one struct implementing both traits.
//! * [`SchemeRegistry`] — resolves wire ids to scheme objects at unpack
//!   time. Unregistered ids are a typed [`CodecError::UnknownScheme`],
//!   never a panic or a misdispatch; colliding registrations are a typed
//!   [`CodecError::DuplicateScheme`] at registration time.
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
//! golden-vector suite; third-party schemes should claim ids from 128 up.

use std::fmt;
use std::sync::{Arc, OnceLock};

use ss_bitio::BitWriter;
use ss_tensor::{FixedType, Signedness, Tensor};

use crate::checksum::fnv1a_64;
use crate::codec::IndexPolicy;
use crate::index::{ChunkEntry, ChunkIndex};
use crate::scheme::{AdaBitsScheme, CompressionScheme, DeltaShapeShifter, DpRed, ShapeShifterScheme};
use crate::CodecError;

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

/// A pluggable container storage scheme: the wire half of a
/// [`CompressionScheme`].
///
/// A scheme is one struct. Its [`CompressionScheme`] impl prices tensors
/// (and names the scheme); this trait adds the stream it actually writes.
/// The wire methods take the group size from the call or the frame, never
/// from the struct, so one registered instance serves every group size.
/// Implementations are `Send + Sync` and registered once under a stable
/// wire id. The contract, pinned by DESIGN.md §16 and the golden-vector
/// suite:
///
/// * **Wire-id stability** — [`ContainerScheme::wire_id`] never changes
///   for a shipped scheme; the byte is persisted in headers and shards.
/// * **Encode framing** — [`ContainerScheme::encode_into`] clears the
///   writer and leaves exactly the scheme's stream in it; a returned
///   [`ChunkIndex`] uses stream-relative bit offsets and takes its entry
///   storage from the caller's scratch.
/// * **Decode framing** — [`ContainerScheme::decode_into`] clears `out`,
///   validates the frame against the stream, and fails with a typed
///   [`CodecError`] on any disagreement — never a panic, never a silently
///   wrong tensor.
/// * **Fingerprint** — [`ContainerScheme::fingerprint`] must be a pure
///   function of `(wire id, group size, dtype)`; shard stores compare it
///   across processes and hosts.
pub trait ContainerScheme: CompressionScheme + fmt::Debug + Send + Sync {
    /// The scheme's stable wire id (header byte 7 / shard record codec
    /// byte).
    fn wire_id(&self) -> SchemeId;

    /// Encodes `tensor` at `group_size` into `w` (cleared first),
    /// returning the chunk index when the scheme participates in indexing
    /// and `policy` asked for one.
    ///
    /// `entries` is index-entry scratch: an indexed encode moves its
    /// storage into the returned index, so a caller that refills it from
    /// its previous index (as `CodecSession` does) encodes without
    /// allocating. Schemes without an index ignore it.
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
        w: &mut BitWriter,
        entries: &mut Vec<ChunkEntry>,
    ) -> Result<Option<ChunkIndex>, CodecError>;

    /// Decodes a raw stream into `out` (cleared first). `index` is the
    /// container's chunk index when one travelled with the stream; a
    /// scheme that does not participate in indexing ignores it. `threads`
    /// caps decode fan-out (1 = sequential, the session path).
    ///
    /// # Errors
    ///
    /// Typed [`CodecError`] variants for truncation, framing
    /// disagreements, or corrupt payloads.
    fn decode_into(
        &self,
        stream: &[u8],
        frame: &StreamFrame,
        index: Option<&ChunkIndex>,
        threads: usize,
        out: &mut Vec<i32>,
    ) -> Result<(), CodecError>;

    /// Whether the scheme emits and honors container-v2 chunk indexes.
    /// Schemes answering `false` always encode to a v1 (index-free)
    /// container, whatever the policy.
    fn supports_index(&self) -> bool {
        false
    }

    /// The shard-store configuration fingerprint for a record stored
    /// under this scheme: FNV-1a over the wire id, group size, container
    /// bits and signedness. The default is the historic `ss-store` recipe
    /// — override only for schemes whose decode depends on more
    /// configuration than `(id, group size, dtype)`.
    fn fingerprint(&self, group_size: u16, dtype: FixedType) -> u64 {
        fingerprint_bytes(self.wire_id(), group_size, dtype)
    }
}

/// The shared FNV-1a fingerprint recipe (also used by `ss-store` for
/// records whose scheme object is not at hand).
#[must_use]
pub fn fingerprint_bytes(id: SchemeId, group_size: u16, dtype: FixedType) -> u64 {
    let [gs_lo, gs_hi] = group_size.to_le_bytes();
    let signed = match dtype.signedness() {
        Signedness::Signed => 1u8,
        Signedness::Unsigned => 0,
    };
    fnv1a_64(&[id.as_byte(), gs_lo, gs_hi, dtype.bits(), signed])
}

/// Resolves wire ids to registered schemes.
///
/// The blessed instance is [`SchemeRegistry::global`] (the four built-in
/// schemes); custom registries compose via [`SchemeRegistry::empty`] +
/// [`SchemeRegistry::register`] for tests and embedders that restrict or
/// extend the scheme set.
pub struct SchemeRegistry {
    slots: Vec<Option<Arc<dyn ContainerScheme>>>,
}

impl fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_map();
        for s in self.slots.iter().flatten() {
            d.entry(&s.wire_id().as_byte(), &s.name());
        }
        d.finish()
    }
}

impl SchemeRegistry {
    /// A registry with no schemes.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            slots: vec![None; 256],
        }
    }

    /// A registry holding the four built-in schemes (ids 0–3).
    #[must_use]
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        for scheme in [
            Arc::new(ShapeShifterScheme::default()) as Arc<dyn ContainerScheme>,
            Arc::new(DeltaShapeShifter::default()),
            Arc::new(DpRed::default()),
            Arc::new(AdaBitsScheme::default()),
        ] {
            // The built-in ids are the distinct constants 0–3, so the
            // duplicate check cannot fire; `global_registry_resolves_builtin_ids`
            // pins that.
            let id = scheme.wire_id();
            debug_assert!(r.lookup(id).is_none());
            // ss-lint: allow(panic-freedom) -- slots has 256 entries; a u8 index is always in bounds
            r.slots[usize::from(id.as_byte())] = Some(scheme);
        }
        r
    }

    /// The process-wide registry of built-in schemes.
    pub fn global() -> &'static SchemeRegistry {
        static GLOBAL: OnceLock<SchemeRegistry> = OnceLock::new();
        GLOBAL.get_or_init(SchemeRegistry::builtin)
    }

    /// Registers a scheme under its wire id.
    ///
    /// # Errors
    ///
    /// [`CodecError::DuplicateScheme`] if the id is already claimed —
    /// wire ids are persisted in containers, so collisions are refused at
    /// registration rather than discovered at decode.
    pub fn register(&mut self, scheme: Arc<dyn ContainerScheme>) -> Result<(), CodecError> {
        let id = scheme.wire_id();
        let slot = &mut self.slots[usize::from(id.as_byte())];
        if slot.is_some() {
            return Err(CodecError::DuplicateScheme { id: id.as_byte() });
        }
        *slot = Some(scheme);
        Ok(())
    }

    /// Resolves a wire id, or `None` if nothing is registered under it.
    #[must_use]
    pub fn lookup(&self, id: SchemeId) -> Option<&dyn ContainerScheme> {
        // ss-lint: allow(panic-freedom) -- slots has 256 entries; a u8 index is always in bounds
        self.slots[usize::from(id.as_byte())].as_deref()
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
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| SchemeId::new(i as u8))
    }
}

/// Bounds-checks a wire call's group size the way every scheme
/// constructor does, as a typed error instead of a panic (wire input
/// reaches this path).
pub(crate) fn checked_group_size(group_size: usize) -> Result<(), CodecError> {
    if (1..=256).contains(&group_size) {
        Ok(())
    } else {
        Err(CodecError::InvalidGroupSize)
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
        assert_eq!(r.get(SchemeId::SHAPESHIFTER).unwrap().name(), "ShapeShifter");
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
    fn duplicate_registration_is_typed() {
        let mut r = SchemeRegistry::empty();
        r.register(Arc::new(DeltaShapeShifter::default())).unwrap();
        assert_eq!(
            r.register(Arc::new(DeltaShapeShifter::new(4))).unwrap_err(),
            CodecError::DuplicateScheme { id: 1 }
        );
    }

    #[test]
    fn registry_shapeshifter_matches_one_shot_codec() {
        let vals: Vec<i32> = (0..300).map(|i| (i * 37) % 2000 - 1000).collect();
        let tensor = t(vals);
        for policy in [IndexPolicy::None, IndexPolicy::EveryGroups(3), IndexPolicy::Auto] {
            let one_shot = ShapeShifterCodec::new(16)
                .with_index_policy(policy)
                .encode(&tensor)
                .unwrap();
            // The wire group size is the call's, not the struct's.
            let scheme = ShapeShifterScheme::new(64);
            let mut w = BitWriter::new();
            let index = scheme
                .encode_into(&tensor, 16, policy, &mut w, &mut Vec::new())
                .unwrap();
            assert_eq!(w.as_bytes(), one_shot.bytes());
            assert_eq!(w.bit_len(), one_shot.bit_len());
            assert_eq!(index.as_ref(), one_shot.index());
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
            .encode_into(&tensor, 4, IndexPolicy::None, &mut expected, &mut Vec::new())
            .unwrap();
        let mut w = BitWriter::new();
        let index = SchemeRegistry::global()
            .get(SchemeId::DELTA)
            .unwrap()
            .encode_into(&tensor, 4, IndexPolicy::Auto, &mut w, &mut Vec::new())
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
            .map(|i| if i % 5 == 0 { 0 } else { (i * 91) % 3000 - 1500 })
            .collect();
        let tensor = t(vals);
        for id in SchemeRegistry::global().ids() {
            let scheme = SchemeRegistry::global().get(id).unwrap();
            let mut w = BitWriter::new();
            let index = scheme
                .encode_into(&tensor, 16, IndexPolicy::None, &mut w, &mut Vec::new())
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
    fn invalid_group_size_is_typed_not_a_panic() {
        let tensor = t(vec![1, 2, 3]);
        for id in SchemeRegistry::global().ids() {
            let scheme = SchemeRegistry::global().get(id).unwrap();
            let mut w = BitWriter::new();
            for gs in [0usize, 257, 1 << 20] {
                assert_eq!(
                    scheme
                        .encode_into(&tensor, gs, IndexPolicy::None, &mut w, &mut Vec::new())
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
        // The trait default is the shared recipe.
        assert_eq!(ShapeShifterScheme::default().fingerprint(16, FixedType::I16), a);
    }
}
