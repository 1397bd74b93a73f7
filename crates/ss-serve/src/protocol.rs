//! SSRP — the ShapeShifter Request Protocol: length-prefixed, CRC-guarded
//! framing for the codec service.
//!
//! One frame on the wire:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SSRP"
//! 4       1     version (currently 2)
//! 5       1     kind: request op 0x01..=0x06, response op = request | 0x80
//! 6       8     request id, u64 LE (echoed verbatim in the response)
//! 14      4     body length, u32 LE
//! 18      n     body
//! 18+n    4     CRC-32 (LE) over bytes [0, 18+n)
//! ```
//!
//! Every field is validated before use, in order, and every violation is
//! a dedicated [`ProtocolError`] variant — a frame is either parsed
//! exactly or refused with a typed reason, never partially trusted. The
//! trailing CRC covers header *and* body, so any single-bit corruption
//! anywhere in the frame (including the op byte — the mis-dispatch case)
//! is caught before dispatch; the protocol fuzz suite proves this
//! exhaustively. The body length is bounded by the caller-supplied
//! `max_body` *before* any allocation, and the body buffer then grows
//! only as its bytes arrive, so hostile length metadata cannot balloon
//! memory here any more than in the container decoder.

use std::io::{ErrorKind, IoSlice, Read, Write};

use ss_core::bytes::{ByteReader, ShortInput};
use ss_core::checksum::{self, Crc32};

/// Frame magic, `b"SSRP"`.
pub const MAGIC: [u8; 4] = *b"SSRP";

/// Protocol version this implementation speaks. Version 2 carries tensor
/// bodies at the container's width (see [`crate::wire`]); a version-1
/// peer, whose bodies held 4-byte values, is refused with
/// [`ProtocolError::UnsupportedVersion`].
pub const VERSION: u8 = 2;

/// Fixed header length (magic + version + kind + id + body length).
pub const HEADER_LEN: usize = 18;

/// Trailing CRC-32 length.
pub const TRAILER_LEN: usize = 4;

/// Bit set on the kind byte of every response frame.
pub const RESPONSE_BIT: u8 = 0x80;

/// Default cap on request/response body length (64 MiB) — generous for
/// tensor payloads, small enough that a hostile length field cannot
/// exhaust memory.
pub const DEFAULT_MAX_BODY: usize = 64 << 20;

/// The service's operations. Byte values are the wire encoding and are
/// frozen: appending is fine, renumbering is a protocol break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Tensor in (wire format), SSPK container out.
    Encode,
    /// SSPK container in, tensor out (wire format).
    Decode,
    /// `(model, record)` name pair in, tensor out from the shard store.
    Get,
    /// Counter/latency snapshot out (JSON body).
    Stats,
    /// Liveness + drain state out (JSON body).
    Health,
    /// Begin graceful drain: stop admitting, flush in-flight work.
    Drain,
}

impl Op {
    /// Every operation, in wire-byte order.
    pub const ALL: &'static [Op] = &[
        Op::Encode,
        Op::Decode,
        Op::Get,
        Op::Stats,
        Op::Health,
        Op::Drain,
    ];

    /// The wire byte for a *request* frame of this op.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Op::Encode => 0x01,
            Op::Decode => 0x02,
            Op::Get => 0x03,
            Op::Stats => 0x04,
            Op::Health => 0x05,
            Op::Drain => 0x06,
        }
    }

    /// Parses a *request* wire byte.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Op> {
        match byte {
            0x01 => Some(Op::Encode),
            0x02 => Some(Op::Decode),
            0x03 => Some(Op::Get),
            0x04 => Some(Op::Stats),
            0x05 => Some(Op::Health),
            0x06 => Some(Op::Drain),
            _ => None,
        }
    }

    /// Stable lowercase name (stats JSON keys, log lines).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::Encode => "encode",
            Op::Decode => "decode",
            Op::Get => "get",
            Op::Stats => "stats",
            Op::Health => "health",
            Op::Drain => "drain",
        }
    }
}

/// Whether a frame carries a request or a response, and for which op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Client → server.
    Request(Op),
    /// Server → client, echoing the request's op.
    Response(Op),
}

impl Kind {
    /// The wire byte.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Kind::Request(op) => op.to_byte(),
            Kind::Response(op) => op.to_byte() | RESPONSE_BIT,
        }
    }

    /// Parses the kind byte; `None` for any byte that is not exactly a
    /// known request or response op (so a corrupted op can only be
    /// refused, never dispatched as a different op — and the CRC catches
    /// it first anyway).
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Kind> {
        if byte & RESPONSE_BIT == 0 {
            Op::from_byte(byte).map(Kind::Request)
        } else {
            Op::from_byte(byte & !RESPONSE_BIT).map(Kind::Response)
        }
    }

    /// The op this frame is about, request or response.
    #[must_use]
    pub fn op(self) -> Op {
        match self {
            Kind::Request(op) | Kind::Response(op) => op,
        }
    }
}

/// Response status, the first body byte of every response frame. `Ok`
/// responses carry the result in the remaining body; error responses
/// carry a UTF-8 message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; result follows.
    Ok,
    /// Refused at admission: the submission queue is at capacity.
    Overloaded,
    /// Refused at admission: the service is draining toward shutdown.
    Draining,
    /// The request body failed validation.
    BadRequest,
    /// The codec rejected the payload (corrupt container, bad config).
    CodecFailure,
    /// The shard store rejected the lookup (corrupt shard, IO failure).
    StoreFailure,
    /// The named model or record does not exist.
    NotFound,
    /// The service lost the request internally (worker died).
    Internal,
}

impl Status {
    /// The wire byte.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::Draining => 2,
            Status::BadRequest => 3,
            Status::CodecFailure => 4,
            Status::StoreFailure => 5,
            Status::NotFound => 6,
            Status::Internal => 7,
        }
    }

    /// Parses the wire byte.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Status> {
        match byte {
            0 => Some(Status::Ok),
            1 => Some(Status::Overloaded),
            2 => Some(Status::Draining),
            3 => Some(Status::BadRequest),
            4 => Some(Status::CodecFailure),
            5 => Some(Status::StoreFailure),
            6 => Some(Status::NotFound),
            7 => Some(Status::Internal),
            _ => None,
        }
    }
}

/// A parsed SSRP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request or response, and for which op.
    pub kind: Kind,
    /// Client-chosen request id; responses echo it verbatim.
    pub request_id: u64,
    /// The op payload (for responses: status byte + payload).
    pub body: Vec<u8>,
}

/// Typed framing failures. Every malformed input maps to exactly one
/// variant; none of the parse paths can panic.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Fewer bytes than a complete frame; `needed` is the next complete
    /// length the parser can make progress with.
    Truncated {
        /// Bytes required for the parser to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes were not `b"SSRP"`.
    BadMagic([u8; 4]),
    /// A version this implementation does not speak.
    UnsupportedVersion(u8),
    /// A kind byte that is no known request or response op.
    UnknownOp(u8),
    /// The declared body length exceeds the configured cap.
    BodyTooLarge {
        /// Declared body length.
        len: u64,
        /// The enforced cap.
        max: usize,
    },
    /// The trailing CRC-32 does not match header + body.
    CrcMismatch {
        /// CRC carried by the frame.
        stored: u32,
        /// CRC recomputed over the received bytes.
        computed: u32,
    },
    /// An IO failure while reading or writing a frame.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::UnsupportedVersion(v) => write!(f, "unsupported SSRP version {v}"),
            ProtocolError::UnknownOp(b) => write!(f, "unknown op byte {b:#04x}"),
            ProtocolError::BodyTooLarge { len, max } => {
                write!(f, "declared body length {len} exceeds cap {max}")
            }
            ProtocolError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "frame CRC mismatch: stored {stored:08x}, computed {computed:08x}"
                )
            }
            ProtocolError::Io(kind) => write!(f, "frame IO failure: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.kind())
    }
}

impl From<ShortInput> for ProtocolError {
    fn from(e: ShortInput) -> Self {
        ProtocolError::Truncated {
            needed: e.needed,
            have: e.have,
        }
    }
}

impl Frame {
    /// A request frame.
    #[must_use]
    pub fn request(op: Op, request_id: u64, body: Vec<u8>) -> Frame {
        Frame {
            kind: Kind::Request(op),
            request_id,
            body,
        }
    }

    /// A response frame for `op`, echoing `request_id`, with the status
    /// byte prepended to `payload`.
    #[must_use]
    pub fn response(op: Op, request_id: u64, status: Status, payload: &[u8]) -> Frame {
        let mut body = Vec::with_capacity(1 + payload.len());
        body.push(status.to_byte());
        body.extend_from_slice(payload);
        Frame {
            kind: Kind::Response(op),
            request_id,
            body,
        }
    }

    /// Serializes the frame (header + body + CRC trailer) through the
    /// frame writer.
    ///
    /// A body longer than `u32::MAX` bytes has no length field; the
    /// writer refuses it before writing anything, so such a frame
    /// encodes to an empty vector, which every parser refuses as
    /// [`ProtocolError::Truncated`].
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.body.len() + TRAILER_LEN);
        // Writing into a Vec cannot fail; only the length check can.
        let _ = write_frame(&mut out, self.kind, self.request_id, None, &self.body);
        out
    }

    /// Writes a response frame straight from its parts and flushes: the
    /// same bytes as `Frame::response(op, request_id, status,
    /// payload).write_to(w)`, without building the frame. The payload
    /// goes out as is — it is never copied into a frame buffer.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] on any write failure;
    /// [`ProtocolError::BodyTooLarge`] if the body does not fit the
    /// `u32` length field.
    pub fn write_response(
        w: &mut dyn Write,
        op: Op,
        request_id: u64,
        status: Status,
        payload: &[u8],
    ) -> Result<(), ProtocolError> {
        write_frame(w, Kind::Response(op), request_id, Some(status), payload)?;
        w.flush()?;
        Ok(())
    }

    /// Parses one frame from the front of `bytes`, returning it plus the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; [`ProtocolError::Truncated`] when `bytes`
    /// is a proper prefix of a frame.
    pub fn decode(bytes: &[u8], max_body: usize) -> Result<(Frame, usize), ProtocolError> {
        let mut r = ByteReader::new(bytes);
        let header = r.take()?;
        let (kind, request_id, body_len) = parse_header(&header, max_body)?;
        let body = check_trailer(&header, r.bytes(body_len + TRAILER_LEN)?)?;
        let frame = Frame {
            kind,
            request_id,
            body: body.to_vec(),
        };
        Ok((frame, r.position()))
    }

    /// Reads exactly one frame from `r`.
    ///
    /// The header is read and validated *before* any of the body is
    /// allocated, so a hostile length field is refused without touching
    /// memory. The body is then read and checksummed one fixed-size chunk
    /// at a time, as the frame writer sends it, so the CRC of one chunk
    /// runs while the peer is still sending the next; and the buffer grows
    /// as bytes arrive, never more than one chunk beyond what has been
    /// received, whatever the header declared.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; an EOF mid-frame surfaces as
    /// [`ProtocolError::Io`] with [`std::io::ErrorKind::UnexpectedEof`].
    pub fn read_from(r: &mut dyn Read, max_body: usize) -> Result<Frame, ProtocolError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let (kind, request_id, body_len) = parse_header(&header, max_body)?;
        let mut crc = Crc32::new();
        crc.update(&header);
        let mut body = Vec::new();
        while body.len() < body_len {
            let have = body.len();
            let take = (body_len - have).min(CHUNK);
            body.reserve_exact(take);
            body.resize(have + take, 0);
            let (_, chunk) = body.split_at_mut(have);
            r.read_exact(chunk)?;
            crc.update(chunk);
        }
        let mut trailer = [0u8; TRAILER_LEN];
        r.read_exact(&mut trailer)?;
        check_crc(u32::from_le_bytes(trailer), &crc)?;
        Ok(Frame {
            kind,
            request_id,
            body,
        })
    }

    /// Writes the frame to `w` and flushes.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] on any write failure;
    /// [`ProtocolError::BodyTooLarge`] if the body does not fit the
    /// `u32` length field.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), ProtocolError> {
        write_frame(w, self.kind, self.request_id, None, &self.body)?;
        w.flush()?;
        Ok(())
    }
}

/// The one header parser behind [`Frame::decode`] and [`Frame::read_from`]:
/// magic, version, kind, request id and body length, validated in offset
/// order, then the body length against `max_body` — all before any body
/// byte is read or allocated. The kind byte is checked here for a fast
/// refusal, and the frame CRC still covers it: a byte corrupted *into*
/// another valid op cannot sneak past.
fn parse_header(
    header: &[u8; HEADER_LEN],
    max_body: usize,
) -> Result<(Kind, u64, usize), ProtocolError> {
    let mut r = ByteReader::new(header);
    let magic = r.take()?;
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let [version, kind] = r.take()?;
    if version != VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let kind = Kind::from_byte(kind).ok_or(ProtocolError::UnknownOp(kind))?;
    let request_id = r.u64()?;
    let body_len = r.u32()? as usize;
    if body_len > max_body {
        return Err(ProtocolError::BodyTooLarge {
            len: body_len as u64,
            max: max_body,
        });
    }
    Ok((kind, request_id, body_len))
}

/// Splits the CRC-32 trailer off `rest`, the frame after its header, and
/// checks it against header and body; returns the body.
fn check_trailer<'a>(header: &[u8; HEADER_LEN], rest: &'a [u8]) -> Result<&'a [u8], ProtocolError> {
    let (body, stored) = checksum::split_trailer(rest)?;
    let mut crc = Crc32::new();
    crc.update(header);
    crc.update(body);
    check_crc(stored, &crc)?;
    Ok(body)
}

/// Checks the CRC a frame carries against the one computed over its
/// header and body.
fn check_crc(stored: u32, crc: &Crc32) -> Result<(), ProtocolError> {
    let computed = crc.finish();
    if stored != computed {
        return Err(ProtocolError::CrcMismatch { stored, computed });
    }
    Ok(())
}

/// Body bytes [`Frame::read_from`] reads, and the frame writer
/// checksums and sends, in one step: the CRC of one chunk overlaps the
/// transfer of the next. Picked by timing `get` responses of 0.2-1.2 MB
/// over loopback TCP (ss-bench's `frame` bench and the repository
/// benchmark's load): whole bodies leave nothing to overlap, smaller
/// chunks cost a blocked reader a wake-up each, and 64 or 128 KiB
/// overlapped less of a 236 KB body.
const CHUNK: usize = 32 << 10;

/// The one frame writer: the header (and `status`, which opens a
/// response body built from a payload), then `payload` as is, then the
/// CRC trailer. The payload is checksummed and sent one [`CHUNK`] at a
/// time, the header and status with the first chunk and the trailer with
/// the last, each step through [`write_all_vectored`].
fn write_frame(
    w: &mut dyn Write,
    kind: Kind,
    request_id: u64,
    status: Option<Status>,
    payload: &[u8],
) -> Result<(), ProtocolError> {
    let status = status.map(Status::to_byte);
    let body_len = usize::from(status.is_some()) + payload.len();
    let Ok(len) = u32::try_from(body_len) else {
        return Err(ProtocolError::BodyTooLarge {
            len: body_len as u64,
            max: u32::MAX as usize,
        });
    };
    let [m0, m1, m2, m3] = MAGIC;
    let kind = kind.to_byte();
    let [i0, i1, i2, i3, i4, i5, i6, i7] = request_id.to_le_bytes();
    let [l0, l1, l2, l3] = len.to_le_bytes();
    let head: [u8; HEADER_LEN] = [
        m0, m1, m2, m3, VERSION, kind, i0, i1, i2, i3, i4, i5, i6, i7, l0, l1, l2, l3,
    ];
    let status = status.as_slice();
    let mut crc = Crc32::new();
    crc.update(&head);
    crc.update(status);
    // The first step sends the header and status, the last the trailer.
    let mut lead: [&[u8]; 2] = [&head, status];
    let mut rest = payload;
    loop {
        let (chunk, after) = rest.split_at(rest.len().min(CHUNK));
        crc.update(chunk);
        let trailer = crc.finish().to_le_bytes();
        let last = after.is_empty();
        let [head, status] = lead;
        let trailer: &[u8] = if last { trailer.as_slice() } else { &[] };
        write_all_vectored(w, &mut [head, status, chunk, trailer].map(IoSlice::new))?;
        if last {
            return Ok(());
        }
        lead = [&[]; 2];
        rest = after;
    }
}

/// Writes every byte of `bufs` to `w` with vectored writes: a partial
/// write continues where it stopped, [`ErrorKind::Interrupted`] is
/// retried, and a writer that accepts nothing ends in
/// [`ErrorKind::WriteZero`] rather than a spin.
fn write_all_vectored(
    w: &mut dyn Write,
    mut bufs: &mut [IoSlice<'_>],
) -> Result<(), ProtocolError> {
    let mut left: usize = bufs.iter().map(|buf| buf.len()).sum();
    while left > 0 {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ProtocolError::Io(ErrorKind::WriteZero)),
            Ok(n) => {
                // A writer claiming more than it was given breaks the
                // `Write` contract; clamp rather than advance past the end.
                let n = n.min(left);
                left -= n;
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that takes at most 7 bytes per call.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A sink whose first write is interrupted.
    struct InterruptedOnce {
        out: Vec<u8>,
        interrupted: bool,
    }

    impl Write for InterruptedOnce {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(ErrorKind::Interrupted.into());
            }
            self.out.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A sink that accepts nothing.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Ok(0)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that returns at most 7 bytes per call.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(7);
            self.0.read(&mut buf[..n])
        }
    }

    /// Every byte `write` sends, through each sink in turn.
    fn through_every_sink(mut write: impl FnMut(&mut dyn Write)) -> [Vec<u8>; 3] {
        let mut vec = Vec::new();
        write(&mut vec);
        let mut trickle = Trickle(Vec::new());
        write(&mut trickle);
        let mut interrupted = InterruptedOnce {
            out: Vec::new(),
            interrupted: false,
        };
        write(&mut interrupted);
        assert!(interrupted.interrupted);
        [vec, trickle.0, interrupted.out]
    }

    #[test]
    fn round_trip_every_op_both_kinds() {
        let body = vec![0x5A; 40];
        for &op in Op::ALL {
            let responses: [(u64, Status, &[u8]); 3] = [
                (7, Status::Ok, &[9, 8]),
                (u64::MAX, Status::Overloaded, b"queue full"),
                (3, Status::Ok, &[]),
            ];
            let mut frames = vec![
                Frame::request(op, 0xDEAD_BEEF_0042, vec![1, 2, 3]),
                Frame::request(op, 1, body.clone()),
                Frame::request(op, 2, Vec::new()),
            ];
            frames.extend(
                responses
                    .iter()
                    .map(|&(id, status, payload)| Frame::response(op, id, status, payload)),
            );
            for frame in &frames {
                let bytes = frame.encode();
                let (back, used) = Frame::decode(&bytes, DEFAULT_MAX_BODY).expect("round trip");
                assert_eq!(&back, frame);
                assert_eq!(used, bytes.len());
                let mut cursor = std::io::Cursor::new(bytes.clone());
                let back = Frame::read_from(&mut cursor, DEFAULT_MAX_BODY).expect("stream");
                assert_eq!(&back, frame);
                // The writer is byte-identical to `encode` on every sink.
                for written in through_every_sink(|w| frame.write_to(w).expect("write_to")) {
                    assert_eq!(written, bytes);
                }
                assert_eq!(
                    frame.write_to(&mut Full),
                    Err(ProtocolError::Io(ErrorKind::WriteZero))
                );
            }
            for (id, status, payload) in responses {
                let bytes = Frame::response(op, id, status, payload).encode();
                let sinks = through_every_sink(|w| {
                    Frame::write_response(w, op, id, status, payload).expect("write_response");
                });
                for written in sinks {
                    assert_eq!(written, bytes);
                }
                assert_eq!(
                    Frame::write_response(&mut Full, op, id, status, payload),
                    Err(ProtocolError::Io(ErrorKind::WriteZero))
                );
            }
        }
    }

    /// A `get` response whose body (status byte and payload) spans three
    /// and a half chunks.
    fn chunked_response() -> Frame {
        let payload: Vec<u8> = (0..CHUNK * 7 / 2).map(|i| (i * 31 % 251) as u8).collect();
        Frame::response(Op::Get, 11, Status::Ok, &payload)
    }

    #[test]
    fn a_body_of_several_chunks_writes_and_reads_as_one_frame() {
        let frame = chunked_response();
        let bytes = frame.encode();
        assert_eq!(
            Frame::decode(&bytes, DEFAULT_MAX_BODY),
            Ok((frame.clone(), bytes.len()))
        );
        for written in through_every_sink(|w| frame.write_to(w).expect("write_to")) {
            assert_eq!(written, bytes);
        }
        let payload = &frame.body[1..];
        let sinks = through_every_sink(|w| {
            Frame::write_response(w, Op::Get, 11, Status::Ok, payload).expect("write_response");
        });
        for written in sinks {
            assert_eq!(written, bytes);
        }
        assert_eq!(
            Frame::read_from(&mut bytes.as_slice(), DEFAULT_MAX_BODY),
            Ok(frame.clone())
        );
        assert_eq!(
            Frame::read_from(&mut Dribble(&bytes), DEFAULT_MAX_BODY),
            Ok(frame)
        );
    }

    #[test]
    fn a_flipped_byte_in_each_chunk_gives_the_slice_parsers_crc_mismatch() {
        let bytes = chunked_response().encode();
        let body_len = bytes.len() - HEADER_LEN - TRAILER_LEN;
        for start in (0..body_len).step_by(CHUNK) {
            let end = (start + CHUNK).min(body_len);
            for at in [start, (start + end) / 2, end - 1] {
                let mut bad = bytes.clone();
                bad[HEADER_LEN + at] ^= 0x10;
                let want = Frame::decode(&bad, DEFAULT_MAX_BODY).map(|(frame, _)| frame);
                assert!(
                    matches!(want, Err(ProtocolError::CrcMismatch { .. })),
                    "body byte {at}: {want:?}"
                );
                assert_eq!(
                    Frame::read_from(&mut Dribble(&bad), DEFAULT_MAX_BODY),
                    want,
                    "body byte {at}"
                );
            }
        }
    }

    #[test]
    fn a_cut_at_or_beside_a_chunk_boundary_is_an_unexpected_eof() {
        let bytes = chunked_response().encode();
        let body_len = bytes.len() - HEADER_LEN - TRAILER_LEN;
        let boundaries = (0..body_len).step_by(CHUNK).chain([body_len]);
        for boundary in boundaries.map(|b| HEADER_LEN + b) {
            for cut in [boundary - 1, boundary, boundary + 1] {
                assert_eq!(
                    Frame::read_from(&mut &bytes[..cut], DEFAULT_MAX_BODY),
                    Err(ProtocolError::Io(ErrorKind::UnexpectedEof)),
                    "cut at byte {cut}"
                );
            }
        }
    }

    #[test]
    fn kind_bytes_are_involutive_and_unknown_bytes_refuse() {
        for &op in Op::ALL {
            for kind in [Kind::Request(op), Kind::Response(op)] {
                assert_eq!(Kind::from_byte(kind.to_byte()), Some(kind));
                assert_eq!(kind.op(), op);
            }
        }
        assert_eq!(Kind::from_byte(0x00), None);
        assert_eq!(Kind::from_byte(0x80), None);
        assert_eq!(Kind::from_byte(0x7F), None);
        assert_eq!(Kind::from_byte(0xFF), None);
    }

    #[test]
    fn status_bytes_round_trip() {
        for b in 0u8..=7 {
            let s = Status::from_byte(b).expect("known status");
            assert_eq!(s.to_byte(), b);
        }
        assert_eq!(Status::from_byte(8), None);
        assert_eq!(Status::from_byte(255), None);
    }

    #[test]
    fn hostile_length_is_refused_before_allocation() {
        let mut bytes = Frame::request(Op::Encode, 1, vec![0; 8]).encode();
        // Declare a 4 GiB body.
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        match Frame::decode(&bytes, DEFAULT_MAX_BODY) {
            Err(ProtocolError::BodyTooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, DEFAULT_MAX_BODY);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            Frame::read_from(&mut cursor, DEFAULT_MAX_BODY),
            Err(ProtocolError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn bad_magic_version_and_op_are_typed() {
        let good = Frame::request(Op::Stats, 3, Vec::new()).encode();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad, DEFAULT_MAX_BODY),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            Frame::decode(&bad, DEFAULT_MAX_BODY),
            Err(ProtocolError::UnsupportedVersion(9))
        ));
        let mut bad = good;
        bad[5] = 0x55;
        assert!(matches!(
            Frame::decode(&bad, DEFAULT_MAX_BODY),
            Err(ProtocolError::UnknownOp(0x55))
        ));
    }

    #[test]
    fn a_version_1_frame_is_refused_by_both_parsers() {
        let frame = Frame::request(Op::Get, 4, vec![3; 12]);
        let mut v1 = frame.encode();
        assert_eq!(v1[4], 2, "frames are written as version 2");
        // Otherwise intact: the CRC is recomputed over the v1 header.
        v1[4] = 1;
        let crc_at = v1.len() - TRAILER_LEN;
        let mut crc = Crc32::new();
        crc.update(&v1[..crc_at]);
        v1[crc_at..].copy_from_slice(&crc.finish().to_le_bytes());
        assert_eq!(
            Frame::decode(&v1, DEFAULT_MAX_BODY),
            Err(ProtocolError::UnsupportedVersion(1))
        );
        let mut cursor = std::io::Cursor::new(&v1);
        assert_eq!(
            Frame::read_from(&mut cursor, DEFAULT_MAX_BODY),
            Err(ProtocolError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn decode_and_read_from_refuse_a_header_alike_in_offset_order() {
        // Each damaged header carries two faults; both parsers must name
        // the earlier one, so the check order is one and the same.
        let good = Frame::request(Op::Get, 5, vec![1; 40]).encode();
        let cases: [(&[(usize, u8)], ProtocolError); 4] = [
            (&[(0, b'X'), (4, 9)], ProtocolError::BadMagic(*b"XSRP")),
            (&[(4, 9), (5, 0x55)], ProtocolError::UnsupportedVersion(9)),
            (&[(5, 0x55), (17, 0xFF)], ProtocolError::UnknownOp(0x55)),
            (
                &[(17, 0xFF)],
                ProtocolError::BodyTooLarge {
                    len: 0xFF00_0028,
                    max: DEFAULT_MAX_BODY,
                },
            ),
        ];
        for (faults, want) in cases {
            let mut bad = good.clone();
            for &(at, byte) in faults {
                bad[at] = byte;
            }
            assert_eq!(
                Frame::decode(&bad, DEFAULT_MAX_BODY).map(|_| ()),
                Err(want.clone())
            );
            let mut cursor = std::io::Cursor::new(&bad);
            assert_eq!(
                Frame::read_from(&mut cursor, DEFAULT_MAX_BODY).map(|_| ()),
                Err(want)
            );
        }
    }

    #[test]
    fn short_input_reports_needed_bytes() {
        let bytes = Frame::request(Op::Get, 12, vec![7; 20]).encode();
        match Frame::decode(&bytes[..5], DEFAULT_MAX_BODY) {
            Err(ProtocolError::Truncated { needed, have }) => {
                assert_eq!(needed, HEADER_LEN);
                assert_eq!(have, 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        match Frame::decode(&bytes[..bytes.len() - 1], DEFAULT_MAX_BODY) {
            Err(ProtocolError::Truncated { needed, have }) => {
                assert_eq!(needed, bytes.len());
                assert_eq!(have, bytes.len() - 1);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }
}
