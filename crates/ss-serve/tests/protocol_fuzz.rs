//! Corruption suite for SSRP frames, mirroring the `SSRD` shard suite:
//! damage anywhere in a frame must surface as a typed
//! [`ProtocolError`] — never a panic, a wrong parse, or (the dangerous
//! one for a dispatcher) a frame that decodes as a *different* op than
//! the one that was sent.
//!
//! The trailing CRC-32 covers the header *and* body, so every
//! single-bit flip — including in the op byte and the length field — is
//! guaranteed detectable; this suite proves it exhaustively for
//! representative frames of every op and both kinds, through both the
//! slice parser and the stream reader.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ss_serve::protocol::{Frame, Kind, Op, ProtocolError, Status, DEFAULT_MAX_BODY, HEADER_LEN};

/// Representative frames: every op, request and response kinds, empty
/// and non-empty bodies, edge-case ids.
fn corpus() -> Vec<Frame> {
    let mut frames = Vec::new();
    for (i, &op) in Op::ALL.iter().enumerate() {
        frames.push(Frame::request(op, i as u64, Vec::new()));
        frames.push(Frame::request(
            op,
            u64::MAX - i as u64,
            (0..64u32)
                .map(|v| (v.wrapping_mul(37) % 251) as u8)
                .collect(),
        ));
        frames.push(Frame::response(
            op,
            7 * i as u64,
            Status::Ok,
            &[1, 2, 3, 4, 5],
        ));
        frames.push(Frame::response(op, 0, Status::Overloaded, b"queue full"));
    }
    frames
}

/// Decodes damaged bytes and asserts the outcome is a typed refusal; a
/// successful parse is only tolerable if it reproduces the original
/// frame exactly (impossible for a real flip, but the harness guards
/// itself). Returns `true` when the damage was detected.
fn detects(original: &Frame, damaged: &[u8]) -> bool {
    // Slice parser.
    let slice_detected = match Frame::decode(damaged, DEFAULT_MAX_BODY) {
        Ok((frame, used)) => {
            assert_eq!(
                (&frame, used),
                (original, damaged.len()),
                "corruption silently changed the parsed frame"
            );
            false
        }
        Err(_) => true,
    };
    // Stream reader must agree with the slice parser.
    let mut cursor = std::io::Cursor::new(damaged.to_vec());
    let stream_detected = Frame::read_from(&mut cursor, DEFAULT_MAX_BODY).is_err();
    assert_eq!(
        slice_detected, stream_detected,
        "slice parser and stream reader disagree on damaged input"
    );
    slice_detected
}

#[test]
fn every_single_bit_flip_is_detected() {
    for frame in corpus() {
        let clean = frame.encode();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut damaged = clean.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    detects(&frame, &damaged),
                    "{:?}: flip of bit {bit} at byte {byte} went undetected",
                    frame.kind
                );
            }
        }
        // The clean frame must still parse (guards the harness).
        assert!(!detects(&frame, &clean));
    }
}

#[test]
fn a_flipped_op_byte_never_dispatches_as_another_op() {
    // The mis-dispatch hazard specifically: corrupt only the kind byte
    // into *every other value* — including other valid op bytes — and
    // require a typed refusal every time. A corrupted-but-valid op byte
    // is caught by the CRC; an invalid one by the kind check.
    let frame = Frame::request(Op::Encode, 42, vec![9; 16]);
    let clean = frame.encode();
    for value in 0..=255u8 {
        if value == clean[5] {
            continue;
        }
        let mut damaged = clean.clone();
        damaged[5] = value;
        match Frame::decode(&damaged, DEFAULT_MAX_BODY) {
            Err(ProtocolError::UnknownOp(b)) => assert_eq!(b, value),
            Err(ProtocolError::CrcMismatch { .. }) => {
                // A valid-but-different op byte reaches the CRC check and
                // dies there.
                assert!(
                    Kind::from_byte(value).is_some(),
                    "byte {value:#04x} should have been refused as UnknownOp"
                );
            }
            other => panic!("kind byte {value:#04x} must be refused, got {other:?}"),
        }
    }
}

#[test]
fn every_truncation_is_typed() {
    for frame in corpus() {
        let clean = frame.encode();
        for cut in 0..clean.len() {
            match Frame::decode(&clean[..cut], DEFAULT_MAX_BODY) {
                Err(ProtocolError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                    assert!(needed <= clean.len());
                }
                other => panic!("truncation to {cut} bytes must be Truncated, got {other:?}"),
            }
            // The stream reader sees the same prefix as an EOF.
            let mut cursor = std::io::Cursor::new(clean[..cut].to_vec());
            assert!(
                matches!(
                    Frame::read_from(&mut cursor, DEFAULT_MAX_BODY),
                    Err(ProtocolError::Io(std::io::ErrorKind::UnexpectedEof))
                        | Err(ProtocolError::Truncated { .. })
                ),
                "stream truncation to {cut} bytes must be typed"
            );
        }
    }
}

#[test]
fn hostile_lengths_are_refused_before_allocation() {
    let frame = Frame::request(Op::Decode, 3, vec![1; 32]);
    let clean = frame.encode();
    // Every declared length larger than the cap dies at the length
    // check, no matter what the rest of the frame claims.
    for hostile in [DEFAULT_MAX_BODY as u32 + 1, u32::MAX, u32::MAX - 1, 1 << 30] {
        let mut damaged = clean.clone();
        damaged[14..18].copy_from_slice(&hostile.to_le_bytes());
        assert!(matches!(
            Frame::decode(&damaged, DEFAULT_MAX_BODY),
            Err(ProtocolError::BodyTooLarge { len, .. }) if len == u64::from(hostile)
        ));
        let mut cursor = std::io::Cursor::new(damaged);
        assert!(matches!(
            Frame::read_from(&mut cursor, DEFAULT_MAX_BODY),
            Err(ProtocolError::BodyTooLarge { .. })
        ));
    }
    // A *small* cap is honored too: the same clean frame is refused by a
    // parser configured tighter than its body.
    assert!(matches!(
        Frame::decode(&clean, 16),
        Err(ProtocolError::BodyTooLarge { len: 32, max: 16 })
    ));
}

#[test]
fn garbage_prefixes_are_typed() {
    // Arbitrary garbage (deterministic xorshift bytes) must always be a
    // typed refusal for both parsers.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for len in [0usize, 1, 3, 4, 5, HEADER_LEN - 1, HEADER_LEN, 64, 256] {
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push((state >> 56) as u8);
        }
        assert!(Frame::decode(&bytes, DEFAULT_MAX_BODY).is_err());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(Frame::read_from(&mut cursor, DEFAULT_MAX_BODY).is_err());
    }
}

#[test]
fn frame_error_variants_map_to_their_fields() {
    let clean = Frame::request(Op::Stats, 11, vec![5; 8]).encode();

    let mut bad = clean.clone();
    bad[0..4].copy_from_slice(b"JUNK");
    assert!(matches!(
        Frame::decode(&bad, DEFAULT_MAX_BODY),
        Err(ProtocolError::BadMagic(m)) if &m == b"JUNK"
    ));

    let mut bad = clean.clone();
    bad[4] = 200;
    assert!(matches!(
        Frame::decode(&bad, DEFAULT_MAX_BODY),
        Err(ProtocolError::UnsupportedVersion(200))
    ));

    let mut bad = clean;
    let crc_at = bad.len() - 4;
    bad[crc_at] ^= 0xFF;
    match Frame::decode(&bad, DEFAULT_MAX_BODY) {
        Err(ProtocolError::CrcMismatch { stored, computed }) => assert_ne!(stored, computed),
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
}
