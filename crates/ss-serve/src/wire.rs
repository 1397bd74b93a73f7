//! Body codecs for the SSRP ops: how tensors and store lookups travel
//! inside a frame body.
//!
//! The tensor body (encode requests, decode/get `Ok` responses):
//!
//! ```text
//! offset       size  field
//! 0            1     container bits (1..=16)
//! 1            1     signedness (0 unsigned, 1 signed)
//! 2            1     rank (1..=8)
//! 3            4r    dims, u32 LE each
//! 3+4r         wn    values, container width each (n = product of dims):
//!                    w = 1 byte up to 8 bits, 2 bytes LE up to 16,
//!                    two's complement when signed
//! ```
//!
//! The values are laid out as `shapeshifter::container::write_raw`
//! writes them, the raw layout `sspack` files use too: one definition of
//! the narrow form.
//!
//! The get-request body:
//!
//! ```text
//! 0      2    model name length m, u16 LE
//! 2      m    model name, UTF-8
//! 2+m    2    record name length r, u16 LE
//! 4+m    r    record name, UTF-8
//! ```
//!
//! Both decoders follow the same hostile-input posture as the frame
//! parser: every declared length is bounds-checked against the bytes
//! actually present (and against a rank/element cap) *before* any
//! allocation, and every refusal is a typed [`WireError`]. The frame CRC
//! has already vouched for transport integrity by the time a body decoder
//! runs, so these checks defend against malformed-but-intact clients.

use shapeshifter::container;
use ss_core::bytes::{ByteReader, ShortInput};
use ss_tensor::{FixedType, Shape, Tensor, TensorError};

/// Maximum tensor rank the wire form carries.
pub const MAX_RANK: usize = 8;

/// Maximum element count a wire tensor may declare (2^28 ≈ 268M values,
/// a 512 MiB body at 16 bits that decodes to 1 GiB of i32s — far past
/// any model tensor, small enough to refuse hostile dimension products
/// before allocating).
pub const MAX_ELEMENTS: u64 = 1 << 28;

/// Typed failures decoding an op body.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the declared structure requires.
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes present.
        have: usize,
    },
    /// Rank outside `1..=`[`MAX_RANK`].
    BadRank(u8),
    /// The dimension product exceeds [`MAX_ELEMENTS`] (or overflows).
    TooManyElements {
        /// The declared (possibly saturated) element count.
        declared: u64,
    },
    /// Trailing bytes after the declared structure.
    TrailingBytes(usize),
    /// A name field is not valid UTF-8.
    BadUtf8,
    /// The tensor failed `ss-tensor` validation (bad dtype bits, value
    /// outside the container range).
    Tensor(TensorError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated body: need {needed} bytes, have {have}")
            }
            WireError::BadRank(r) => write!(f, "tensor rank {r} outside 1..={MAX_RANK}"),
            WireError::TooManyElements { declared } => {
                write!(
                    f,
                    "tensor declares {declared} elements, cap is {MAX_ELEMENTS}"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the body"),
            WireError::BadUtf8 => write!(f, "name field is not valid UTF-8"),
            WireError::Tensor(e) => write!(f, "tensor validation failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for WireError {
    fn from(e: TensorError) -> Self {
        WireError::Tensor(e)
    }
}

impl From<ShortInput> for WireError {
    fn from(e: ShortInput) -> Self {
        WireError::Truncated {
            needed: e.needed,
            have: e.have,
        }
    }
}

/// Serializes a tensor into the wire body form.
#[must_use]
pub fn encode_tensor(tensor: &Tensor) -> Vec<u8> {
    encode_values(tensor.dtype(), tensor.shape().dims(), tensor.values())
}

/// Serializes a tensor given by its parts — container type, `dims`
/// (whose product must be `values.len()`) and values that fit the
/// container — into the wire body form. The body is written once into a
/// buffer of exactly its length, `3 + 4·dims.len() + w·values.len()`
/// bytes, where `w` is the container's [`container::raw_width`].
#[must_use]
pub fn encode_values(dtype: FixedType, dims: &[usize], values: &[i32]) -> Vec<u8> {
    let len = 3 + 4 * dims.len() + container::raw_width(dtype) * values.len();
    let mut out = Vec::with_capacity(len);
    out.push(dtype.bits());
    out.push(u8::from(dtype.signedness().is_signed()));
    // Rank fits u8: Shape ranks in this workspace are tiny, and the
    // decoder enforces MAX_RANK on the way back in.
    // ss-lint: allow(truncating-cast) -- workspace Shape ranks are <= 8; the decoder refuses anything past MAX_RANK
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    container::write_raw(dtype, values, &mut out);
    out
}

/// Length in bytes of the wire body of a `dtype` tensor of `rank`
/// dimensions and `values` elements: `3 + 4·rank + w·values`, where `w`
/// is the container's [`container::raw_width`]. Saturates at `u64::MAX`
/// for a hostile count.
#[must_use]
pub(crate) fn tensor_body_len(dtype: FixedType, rank: usize, values: u64) -> u64 {
    (container::raw_width(dtype) as u64)
        .saturating_mul(values)
        .saturating_add(4 * rank as u64 + 3)
}

/// Parses a tensor from the wire body form. Each value is sign-extended
/// (signed container) or zero-extended (unsigned) from its one or two
/// bytes, and must fit the container.
///
/// # Errors
///
/// Any [`WireError`]; lengths and the element cap are verified before the
/// value vector is allocated, and a value outside the container (say
/// `0x8000` in a signed 16-bit body, whose range is the symmetric
/// ±32767) is a [`WireError::Tensor`] holding
/// [`TensorError::ValueOutOfRange`], refused before a tensor is built.
pub fn decode_tensor(bytes: &[u8]) -> Result<Tensor, WireError> {
    let mut r = ByteReader::new(bytes);
    // The container type sets the value width, so it is read first.
    let [bits, signed, rank] = r.take()?;
    let dtype = if signed != 0 {
        FixedType::signed(bits)?
    } else {
        FixedType::unsigned(bits)?
    };
    if rank == 0 || usize::from(rank) > MAX_RANK {
        return Err(WireError::BadRank(rank));
    }
    let mut dim_fields = ByteReader::new(r.bytes(4 * usize::from(rank))?);
    let mut dims = Vec::with_capacity(usize::from(rank));
    let mut elements: u64 = 1;
    for _ in 0..rank {
        let dim = dim_fields.u32()?;
        elements = elements.saturating_mul(u64::from(dim));
        dims.push(dim as usize);
    }
    if elements > MAX_ELEMENTS {
        return Err(WireError::TooManyElements { declared: elements });
    }
    // Fits usize on every supported target: MAX_ELEMENTS < 2^32.
    let n = elements as usize;
    let raw = r.bytes(container::raw_width(dtype) * n)?;
    if !r.rest().is_empty() {
        return Err(WireError::TrailingBytes(r.rest().len()));
    }
    let mut values = Vec::with_capacity(n);
    container::read_raw(raw, dtype, &mut values);
    Ok(Tensor::from_vec(Shape::new(dims), dtype, values)?)
}

/// Serializes a get request's `(model, record)` name pair.
///
/// Names longer than `u16::MAX` bytes are truncated at the length field's
/// cap — no valid store name approaches that, and the server side would
/// answer `NotFound` for the truncated form rather than misbehave.
#[must_use]
pub fn encode_get(model: &str, record: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + model.len() + record.len());
    for name in [model, record] {
        let len = u16::try_from(name.len()).unwrap_or(u16::MAX);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend(name.bytes().take(usize::from(len)));
    }
    out
}

/// Parses a get request body back into `(model, record)`.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::TrailingBytes`] or
/// [`WireError::BadUtf8`].
pub fn decode_get(bytes: &[u8]) -> Result<(String, String), WireError> {
    let mut r = ByteReader::new(bytes);
    let model = take_string(&mut r)?;
    let record = take_string(&mut r)?;
    let rest = r.rest();
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes(rest.len()));
    }
    Ok((model, record))
}

/// Reads one length-prefixed UTF-8 string; a [`WireError::Truncated`]
/// counts from the start of the body, as every other body and frame
/// error does.
fn take_string(r: &mut ByteReader<'_>) -> Result<String, WireError> {
    let len = usize::from(r.u16()?);
    let s = std::str::from_utf8(r.bytes(len)?).map_err(|_| WireError::BadUtf8)?;
    Ok(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor() -> Tensor {
        Tensor::from_vec(
            Shape::new(vec![2, 3]),
            FixedType::I16,
            vec![1, -2, 0, 300, -32000, 7],
        )
        .expect("valid tensor")
    }

    #[test]
    fn tensor_round_trips_with_shape_and_dtype() {
        let t = tensor();
        let body = encode_tensor(&t);
        let back = decode_tensor(&body).expect("round trip");
        assert_eq!(back, t);
        assert_eq!(back.shape().dims(), &[2, 3]);
        assert_eq!(back.dtype(), FixedType::I16);
        // Unsigned 8-bit too.
        let u = Tensor::from_vec(Shape::flat(3), FixedType::U8, vec![0, 128, 255]).expect("u8");
        assert_eq!(decode_tensor(&encode_tensor(&u)).expect("u8 round trip"), u);
    }

    #[test]
    fn tensor_decoder_refuses_every_malformation() {
        let body = encode_tensor(&tensor());
        // Truncations at every prefix are typed, never a panic.
        for cut in 0..body.len() {
            assert!(
                matches!(
                    decode_tensor(&body[..cut]),
                    Err(WireError::Truncated { .. })
                ),
                "prefix of {cut} bytes must be Truncated"
            );
        }
        // Trailing garbage.
        let mut long = body.clone();
        long.push(0);
        assert_eq!(decode_tensor(&long), Err(WireError::TrailingBytes(1)));
        // Rank 0 and rank > MAX_RANK.
        let mut bad = body.clone();
        bad[2] = 0;
        assert_eq!(decode_tensor(&bad), Err(WireError::BadRank(0)));
        bad[2] = 9;
        assert!(matches!(decode_tensor(&bad), Err(WireError::BadRank(9))));
        // Hostile dims: 2^32-1 × 2^32-1 elements, refused before allocation.
        let mut hostile = vec![16, 1, 2];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_tensor(&hostile),
            Err(WireError::TooManyElements { .. })
        ));
        // Bad dtype bits surface as a tensor validation error.
        let mut bad_bits = body;
        bad_bits[0] = 33;
        assert!(matches!(
            decode_tensor(&bad_bits),
            Err(WireError::Tensor(_))
        ));
    }

    /// Every container type: bits 1 to 16, unsigned and signed.
    fn every_container() -> impl Iterator<Item = FixedType> {
        (1..=16u8).flat_map(|bits| {
            [FixedType::unsigned(bits), FixedType::signed(bits)].map(|d| d.expect("valid bits"))
        })
    }

    #[test]
    fn every_container_round_trips_at_its_width() {
        for dtype in every_container() {
            let max = dtype.max_magnitude();
            let values = if dtype.signedness().is_signed() {
                vec![0, max, -max, 0]
            } else {
                vec![0, max, max, 0]
            };
            let t = Tensor::from_vec(Shape::new(vec![2, 2]), dtype, values).expect("valid");
            let body = encode_tensor(&t);
            let width = if dtype.bits() <= 8 { 1 } else { 2 };
            assert_eq!(body.len(), 3 + 4 * 2 + width * 4, "{dtype}");
            assert_eq!(tensor_body_len(dtype, 2, 4), body.len() as u64, "{dtype}");
            assert_eq!(decode_tensor(&body).expect("round trip"), t, "{dtype}");
            for cut in 0..body.len() {
                assert!(
                    matches!(
                        decode_tensor(&body[..cut]),
                        Err(WireError::Truncated { .. })
                    ),
                    "{dtype}: prefix of {cut} bytes must be Truncated"
                );
            }
        }
    }

    #[test]
    fn values_outside_the_container_are_refused() {
        // A flat two-value body whose second value is `raw`.
        let body = |bits: u8, signed: bool, raw: &[u8]| {
            let mut b = vec![bits, u8::from(signed), 1, 2, 0, 0, 0];
            b.extend_from_slice(&vec![0; raw.len()]);
            b.extend_from_slice(raw);
            b
        };
        let cases = [
            // i16 holds the symmetric ±32767: 0x8000 is -32768.
            (body(16, true, &[0x00, 0x80]), -32768, FixedType::I16),
            (body(8, true, &[0x80]), -128, FixedType::I8),
            (
                body(12, false, &[0x00, 0x10]),
                4096,
                FixedType::unsigned(12).expect("u12"),
            ),
            (
                body(12, true, &[0x00, 0x08]),
                2048,
                FixedType::signed(12).expect("i12"),
            ),
            (
                body(7, false, &[0x80]),
                128,
                FixedType::unsigned(7).expect("u7"),
            ),
        ];
        for (bytes, value, dtype) in cases {
            assert_eq!(
                decode_tensor(&bytes),
                Err(WireError::Tensor(TensorError::ValueOutOfRange {
                    index: 1,
                    value,
                    dtype
                })),
                "{dtype}"
            );
        }
        // The same bodies one step inside the range decode.
        let inside = body(16, true, &[0x01, 0x80]);
        assert_eq!(decode_tensor(&inside).expect("i16").values(), &[0, -32767]);
        let inside = body(12, false, &[0xFF, 0x0F]);
        assert_eq!(decode_tensor(&inside).expect("u12").values(), &[0, 4095]);
    }

    #[test]
    fn get_names_round_trip() {
        let body = encode_get("lenet", "conv1.weight");
        assert_eq!(
            decode_get(&body).expect("round trip"),
            ("lenet".to_string(), "conv1.weight".to_string())
        );
        // Empty names are representable (the store will refuse them).
        assert_eq!(
            decode_get(&encode_get("", "")).expect("empty"),
            (String::new(), String::new())
        );
    }

    #[test]
    fn get_decoder_refuses_every_malformation() {
        let body = encode_get("m", "r");
        for cut in 0..body.len() {
            assert!(
                matches!(decode_get(&body[..cut]), Err(WireError::Truncated { .. })),
                "prefix of {cut} bytes must be Truncated"
            );
        }
        // Both names count from the start of the body: the record name's
        // length field sits at bytes 3..5.
        assert_eq!(
            decode_get(&body[..4]),
            Err(WireError::Truncated { needed: 5, have: 4 })
        );
        assert_eq!(
            decode_get(&body[..5]),
            Err(WireError::Truncated { needed: 6, have: 5 })
        );
        assert_eq!(
            decode_get(&body[..1]),
            Err(WireError::Truncated { needed: 2, have: 1 })
        );
        let mut long = body.clone();
        long.extend_from_slice(&[1, 2]);
        assert_eq!(decode_get(&long), Err(WireError::TrailingBytes(2)));
        // Invalid UTF-8 in a name.
        let mut bad = vec![2, 0, 0xFF, 0xFE];
        bad.extend_from_slice(&encode_get("", "")[..2]);
        assert_eq!(decode_get(&bad), Err(WireError::BadUtf8));
    }
}
