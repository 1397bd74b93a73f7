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
//! 3+4r         4n    values, i32 LE each (n = product of dims)
//! ```
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

// ss-lint: allow-file(panic-freedom) -- every slice index below is
// preceded by an explicit bounds check against the declared structure
// (`bytes.len() < dims_end` / `< total` / `< end`); the wire tests
// prove every prefix truncation is a typed `WireError`, never a panic.

use ss_tensor::{FixedType, Shape, Tensor, TensorError};

/// Maximum tensor rank the wire form carries.
pub const MAX_RANK: usize = 8;

/// Maximum element count a wire tensor may declare (2^28 ≈ 268M values,
/// over 1 GiB of i32s — far past any model tensor, small enough to
/// refuse hostile dimension products before allocating).
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
                write!(f, "tensor declares {declared} elements, cap is {MAX_ELEMENTS}")
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

/// Serializes a tensor into the wire body form.
#[must_use]
pub fn encode_tensor(tensor: &Tensor) -> Vec<u8> {
    encode_values(tensor.dtype(), tensor.shape().dims(), tensor.values())
}

/// Serializes a tensor given by its parts — container type, `dims`
/// (whose product must be `values.len()`) and values — into the wire
/// body form. The body is written once into a buffer of exactly its
/// length, `3 + 4·dims.len() + 4·values.len()` bytes.
#[must_use]
pub fn encode_values(dtype: FixedType, dims: &[usize], values: &[i32]) -> Vec<u8> {
    let head = 3 + 4 * dims.len();
    let mut out = Vec::with_capacity(head + 4 * values.len());
    out.push(dtype.bits());
    out.push(u8::from(dtype.signedness().is_signed()));
    // Rank fits u8: Shape ranks in this workspace are tiny, and the
    // decoder enforces MAX_RANK on the way back in.
    // ss-lint: allow(truncating-cast) -- workspace Shape ranks are <= 8; the decoder refuses anything past MAX_RANK
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    out.resize(head + 4 * values.len(), 0);
    for (slot, v) in out[head..].chunks_exact_mut(4).zip(values) {
        slot.copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// Length in bytes of the wire body for a tensor of `rank` dimensions
/// and `values` elements: `3 + 4·rank + 4·values`, saturating at
/// `u64::MAX` for a hostile count.
#[must_use]
pub(crate) fn tensor_body_len(rank: usize, values: u64) -> u64 {
    (rank as u64)
        .saturating_add(values)
        .saturating_mul(4)
        .saturating_add(3)
}

/// Parses a tensor from the wire body form.
///
/// # Errors
///
/// Any [`WireError`]; lengths and the element cap are verified before the
/// value vector is allocated.
pub fn decode_tensor(bytes: &[u8]) -> Result<Tensor, WireError> {
    if bytes.len() < 3 {
        return Err(WireError::Truncated {
            needed: 3,
            have: bytes.len(),
        });
    }
    let bits = bytes[0];
    let signed = bytes[1] != 0;
    let rank = bytes[2] as usize;
    if rank == 0 || rank > MAX_RANK {
        return Err(WireError::BadRank(bytes[2]));
    }
    let dims_end = 3 + 4 * rank;
    if bytes.len() < dims_end {
        return Err(WireError::Truncated {
            needed: dims_end,
            have: bytes.len(),
        });
    }
    let mut dims = Vec::with_capacity(rank);
    let mut elements: u64 = 1;
    for i in 0..rank {
        let mut d = [0u8; 4];
        d.copy_from_slice(&bytes[3 + 4 * i..3 + 4 * i + 4]);
        let dim = u64::from(u32::from_le_bytes(d));
        elements = elements.saturating_mul(dim);
        dims.push(u32::from_le_bytes(d) as usize);
    }
    if elements > MAX_ELEMENTS {
        return Err(WireError::TooManyElements { declared: elements });
    }
    // Fits usize on every supported target: MAX_ELEMENTS < 2^32.
    let n = elements as usize;
    let total = dims_end + 4 * n;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(WireError::TrailingBytes(bytes.len() - total));
    }
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        let mut v = [0u8; 4];
        v.copy_from_slice(&bytes[dims_end + 4 * i..dims_end + 4 * i + 4]);
        values.push(i32::from_le_bytes(v));
    }
    let dtype = if signed {
        FixedType::signed(bits)?
    } else {
        FixedType::unsigned(bits)?
    };
    Ok(Tensor::from_vec(Shape::new(dims), dtype, values)?)
}

/// Serializes a get request's `(model, record)` name pair.
///
/// Names longer than `u16::MAX` bytes are truncated at the length field's
/// cap — no valid store name approaches that, and the server side would
/// answer `NotFound` for the truncated form rather than misbehave.
#[must_use]
pub fn encode_get(model: &str, record: &str) -> Vec<u8> {
    let model = &model.as_bytes()[..model.len().min(u16::MAX as usize)];
    let record = &record.as_bytes()[..record.len().min(u16::MAX as usize)];
    let mut out = Vec::with_capacity(4 + model.len() + record.len());
    // ss-lint: allow(truncating-cast) -- the slice above caps the length at u16::MAX
    out.extend_from_slice(&(model.len() as u16).to_le_bytes());
    out.extend_from_slice(model);
    // ss-lint: allow(truncating-cast) -- the slice above caps the length at u16::MAX
    out.extend_from_slice(&(record.len() as u16).to_le_bytes());
    out.extend_from_slice(record);
    out
}

/// Parses a get request body back into `(model, record)`.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::TrailingBytes`] or
/// [`WireError::BadUtf8`].
pub fn decode_get(bytes: &[u8]) -> Result<(String, String), WireError> {
    let (model, rest) = take_string(bytes)?;
    let (record, rest) = take_string(rest)?;
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes(rest.len()));
    }
    Ok((model, record))
}

/// Splits one length-prefixed UTF-8 string off the front of `bytes`.
fn take_string(bytes: &[u8]) -> Result<(String, &[u8]), WireError> {
    if bytes.len() < 2 {
        return Err(WireError::Truncated {
            needed: 2,
            have: bytes.len(),
        });
    }
    let len = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    let end = 2 + len;
    if bytes.len() < end {
        return Err(WireError::Truncated {
            needed: end,
            have: bytes.len(),
        });
    }
    let s = std::str::from_utf8(&bytes[2..end]).map_err(|_| WireError::BadUtf8)?;
    Ok((s.to_string(), &bytes[end..]))
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
                matches!(decode_tensor(&body[..cut]), Err(WireError::Truncated { .. })),
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
        assert!(matches!(decode_tensor(&bad_bits), Err(WireError::Tensor(_))));
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
        let mut long = body.clone();
        long.extend_from_slice(&[1, 2]);
        assert_eq!(decode_get(&long), Err(WireError::TrailingBytes(2)));
        // Invalid UTF-8 in a name.
        let mut bad = vec![2, 0, 0xFF, 0xFE];
        bad.extend_from_slice(&encode_get("", "")[..2]);
        assert_eq!(decode_get(&bad), Err(WireError::BadUtf8));
    }
}
