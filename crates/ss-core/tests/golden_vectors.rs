// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Golden-vector conformance suite for the container formats.
//!
//! Each case pins one (tensor, codec configuration) pair to three
//! checked-in artifacts under `tests/golden/`:
//!
//! * `<name>.stream.bin` — the encoded stream bytes (identical for v1 and
//!   v2: the chunk index never changes the stream);
//! * `<name>.values.bin` — the expected decoded values, little-endian
//!   i32s, so decode conformance does not depend on the test's own value
//!   generator;
//! * `<name>.index.bin` — the serialized chunk index (v2 cases only).
//!
//! On top of the file comparison, every case pins the stream's FNV-1a
//! hash and exact bit length as source constants, so the suite detects a
//! format drift even if the golden files were regenerated along with the
//! code change ("the encoder changed AND someone refreshed the files"
//! shows up as a hash-constant mismatch in review).
//!
//! Regenerate after a *deliberate* format change with:
//!
//! ```text
//! SS_GOLDEN_REGEN=1 cargo test -p ss-core --test golden_vectors
//! ```
//!
//! which rewrites the files and prints the new constants to paste here.

use std::path::PathBuf;

use ss_core::scheme::ShapeShifterScheme;
use ss_core::{
    ChunkIndex, CodecError, CodecSession, ContainerScheme, IndexPolicy, SchemeId, SchemeRegistry,
    SchemeStream, ShapeShifterCodec, StreamFrame,
};
use ss_tensor::{FixedType, Shape, Signedness, Tensor};

/// One pinned conformance case.
struct GoldenCase {
    name: &'static str,
    seed: u64,
    len: usize,
    dtype: FixedType,
    group: usize,
    policy: IndexPolicy,
    /// FNV-1a 64 of the stream bytes.
    stream_hash: u64,
    /// Exact stream length in bits.
    bit_len: u64,
    /// FNV-1a 64 of the serialized index; 0 for v1 cases (no index).
    index_hash: u64,
}

/// The pinned corpus: v1 (unindexed) and v2 (indexed) containers across
/// the paper's group sizes and both signednesses.
const CASES: &[GoldenCase] = &[
    GoldenCase {
        name: "v1_i16_g16",
        seed: 0x5353_0001,
        len: 1000,
        dtype: FixedType::I16,
        group: 16,
        policy: IndexPolicy::None,
        stream_hash: 0x8466_4598_26f8_7648,
        bit_len: 10502,
        index_hash: 0,
    },
    GoldenCase {
        name: "v1_u8_g64",
        seed: 0x5353_0002,
        len: 333,
        dtype: FixedType::U8,
        group: 64,
        policy: IndexPolicy::None,
        stream_hash: 0x46a1_b1fa_bd1e_3320,
        bit_len: 1879,
        index_hash: 0,
    },
    GoldenCase {
        name: "v2_i16_g16_cg4",
        seed: 0x5353_0003,
        len: 1000,
        dtype: FixedType::I16,
        group: 16,
        policy: IndexPolicy::EveryGroups(4),
        stream_hash: 0x4b10_7647_1be5_6886,
        bit_len: 10759,
        index_hash: 0xeb75_c8ab_eace_8ab6,
    },
    GoldenCase {
        name: "v2_u16_g64_cg2",
        seed: 0x5353_0004,
        len: 777,
        dtype: FixedType::U16,
        group: 64,
        policy: IndexPolicy::EveryGroups(2),
        stream_hash: 0x7462_6f46_6450_9e1a,
        bit_len: 8765,
        index_hash: 0x5b46_9dc8_c4e1_efd0,
    },
    GoldenCase {
        name: "v2_i8_g256_cg1",
        seed: 0x5353_0005,
        len: 600,
        dtype: FixedType::I8,
        group: 256,
        policy: IndexPolicy::EveryGroups(1),
        stream_hash: 0x2bd6_598b_b5ce_8209,
        bit_len: 3449,
        index_hash: 0x0cf3_bb4f_6ee7_b06c,
    },
];

/// One pinned plug-in scheme case, encoded through the registry
/// ([`CodecSession::encode_with_scheme`]). Stream artifacts only — none
/// of the pinned schemes emit a chunk index.
struct SchemeGoldenCase {
    name: &'static str,
    scheme: SchemeId,
    seed: u64,
    len: usize,
    dtype: FixedType,
    group: usize,
    /// FNV-1a 64 of the stream bytes.
    stream_hash: u64,
    /// Exact stream length in bits.
    bit_len: u64,
}

/// The pinned scheme corpus: the non-default built-in registrations
/// (Delta, wire id 1; DPRed, id 2; AdaBits, id 3) across both
/// signednesses. ShapeShifter (id 0) is pinned by [`CASES`] above — the
/// registry path is asserted byte-identical to it elsewhere. Delta's
/// unsigned 16-bit case holds steps of half the range or more, so some of
/// its groups declare the widest delta width, 17
/// (`delta_u16_case_declares_the_widest_delta`).
const SCHEME_CASES: &[SchemeGoldenCase] = &[
    SchemeGoldenCase {
        name: "scheme1_delta_i16_g16",
        scheme: SchemeId::DELTA,
        seed: 0x5353_0101,
        len: 1000,
        dtype: FixedType::I16,
        group: 16,
        stream_hash: 0x6d30_e683_eca9_b87b,
        bit_len: 14540,
    },
    SchemeGoldenCase {
        name: "scheme1_delta_u16_g16",
        scheme: SchemeId::DELTA,
        seed: 0x5353_0106,
        len: 1000,
        dtype: FixedType::U16,
        group: 16,
        stream_hash: 0x5dd9_4cfe_8352_b2e7,
        bit_len: 14664,
    },
    SchemeGoldenCase {
        name: "scheme1_delta_u8_g64",
        scheme: SchemeId::DELTA,
        seed: 0x5353_0107,
        len: 333,
        dtype: FixedType::U8,
        group: 64,
        stream_hash: 0xdd4c_c7eb_43c3_c7ff,
        bit_len: 2773,
    },
    SchemeGoldenCase {
        name: "scheme2_dpred_i16_g16",
        scheme: SchemeId::DPRED,
        seed: 0x5353_0102,
        len: 1000,
        dtype: FixedType::I16,
        group: 16,
        stream_hash: 0xfd4d_5f60_d4ae_86e5,
        bit_len: 15948,
    },
    SchemeGoldenCase {
        name: "scheme2_dpred_u8_g64",
        scheme: SchemeId::DPRED,
        seed: 0x5353_0103,
        len: 333,
        dtype: FixedType::U8,
        group: 64,
        stream_hash: 0xa39a_7e2d_8c45_f336,
        bit_len: 2682,
    },
    SchemeGoldenCase {
        name: "scheme3_adabits_i16_g16",
        scheme: SchemeId::ADABITS,
        seed: 0x5353_0104,
        len: 1000,
        dtype: FixedType::I16,
        group: 16,
        stream_hash: 0x3ced_6ac3_3a83_fb15,
        bit_len: 15892,
    },
    SchemeGoldenCase {
        name: "scheme3_adabits_u8_g64",
        scheme: SchemeId::ADABITS,
        seed: 0x5353_0105,
        len: 333,
        dtype: FixedType::U8,
        group: 64,
        stream_hash: 0x4ad7_808f_77a5_594d,
        bit_len: 2682,
    },
];

/// Deterministic skewed value generator (an LCG, so the corpus never
/// depends on a random-number crate): ~40% zeros, mostly small
/// magnitudes, occasional full-width values — the distribution the paper
/// exploits.
fn golden_values(seed: u64, len: usize, dtype: FixedType) -> Vec<i32> {
    let max = u64::from(dtype.max_magnitude() as u32);
    let signed = dtype.signedness() == Signedness::Signed;
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 33;
            let v = match r % 10 {
                0..=3 => 0,
                4..=7 => (r / 10 % 15.min(max) + 1) as i32,
                _ => (r / 10 % max + 1) as i32,
            };
            if signed && x & 1 == 1 {
                -v
            } else {
                v
            }
        })
        .collect()
}

/// FNV-1a 64-bit over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn values_to_le_bytes(values: &[i32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn values_from_le_bytes(bytes: &[u8]) -> Vec<i32> {
    assert_eq!(bytes.len() % 4, 0, "values file length not a multiple of 4");
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Decodes a raw golden stream under `case`'s framing through the
/// ShapeShifter scheme's `decode_into`, fanning an index out over
/// `threads` workers when one is given.
fn decode_raw(
    stream: &[u8],
    case: &GoldenCase,
    index: Option<&ChunkIndex>,
    threads: usize,
) -> Result<Vec<i32>, CodecError> {
    let frame = StreamFrame {
        bit_len: case.bit_len,
        dtype: case.dtype,
        len: case.len,
        group_size: case.group,
    };
    let mut out = Vec::new();
    ShapeShifterScheme::default().decode_into(stream, &frame, index, threads, &mut out)?;
    Ok(out)
}

#[test]
fn golden_vectors_conform() {
    let dir = golden_dir();
    let regen = std::env::var_os("SS_GOLDEN_REGEN").is_some();
    for case in CASES {
        let values = golden_values(case.seed, case.len, case.dtype);
        let tensor = Tensor::from_vec(Shape::flat(case.len), case.dtype, values.clone()).unwrap();
        let codec = ShapeShifterCodec::new(case.group).with_index_policy(case.policy);
        let enc = codec.encode(&tensor).unwrap();
        let index_blob = enc.index.as_ref().map(|i| i.to_bytes().unwrap());

        let stream_path = dir.join(format!("{}.stream.bin", case.name));
        let values_path = dir.join(format!("{}.values.bin", case.name));
        let index_path = dir.join(format!("{}.index.bin", case.name));

        if regen {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&stream_path, &enc.bytes).unwrap();
            std::fs::write(&values_path, values_to_le_bytes(&values)).unwrap();
            match &index_blob {
                Some(blob) => std::fs::write(&index_path, blob).unwrap(),
                None => {
                    let _ = std::fs::remove_file(&index_path);
                }
            }
            println!(
                "{}: stream_hash: {:#018x}, bit_len: {}, index_hash: {:#018x},",
                case.name,
                fnv1a(&enc.bytes),
                enc.bit_len,
                index_blob.as_deref().map_or(0, fnv1a)
            );
            // Freshly written files trivially match the encoder; the point
            // of regen mode is to emit the constants above for pinning.
            continue;
        }

        // Encoder conformance: today's encoder reproduces the pinned
        // stream byte-for-byte, and the source constants agree.
        let golden_stream = std::fs::read(&stream_path)
            .unwrap_or_else(|e| panic!("{}: missing golden stream ({e})", case.name));
        assert_eq!(
            enc.bytes,
            &golden_stream[..],
            "{}: encoder drifted from the golden stream",
            case.name
        );
        assert_eq!(
            fnv1a(&golden_stream),
            case.stream_hash,
            "{}: golden stream file does not match its pinned hash",
            case.name
        );
        assert_eq!(
            enc.bit_len, case.bit_len,
            "{}: bit length drifted",
            case.name
        );

        // Decoder conformance: the *file* bytes decode to the *file*
        // values, sequentially.
        let golden_values_file = values_from_le_bytes(
            &std::fs::read(&values_path)
                .unwrap_or_else(|e| panic!("{}: missing golden values ({e})", case.name)),
        );
        assert_eq!(
            golden_values_file, values,
            "{}: value corpus drifted",
            case.name
        );
        let decoded = decode_raw(&golden_stream, case, None, 1).unwrap();
        assert_eq!(
            decoded, golden_values_file,
            "{}: sequential decode",
            case.name
        );

        // v2 cases: the index file deserializes, validates against the
        // framing, matches its pinned hash, and drives a parallel decode
        // to the same values.
        match index_blob {
            Some(blob) => {
                let golden_index = std::fs::read(&index_path)
                    .unwrap_or_else(|e| panic!("{}: missing golden index ({e})", case.name));
                assert_eq!(
                    blob, golden_index,
                    "{}: encoder's index drifted from the golden index",
                    case.name
                );
                assert_eq!(
                    fnv1a(&golden_index),
                    case.index_hash,
                    "{}: golden index file does not match its pinned hash",
                    case.name
                );
                let index = ChunkIndex::from_bytes(&golden_index).unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let par = decode_raw(&golden_stream, case, Some(&index), threads).unwrap();
                    assert_eq!(
                        par, golden_values_file,
                        "{}: indexed decode at {} thread(s)",
                        case.name, threads
                    );
                }
            }
            None => {
                assert_eq!(
                    case.index_hash, 0,
                    "{}: v1 case pins an index hash",
                    case.name
                );
                assert!(
                    !index_path.exists(),
                    "{}: v1 case has a stale index file",
                    case.name
                );
            }
        }
    }
}

#[test]
fn golden_vectors_round_trip_through_session() {
    // The buffer-reusing `CodecSession` API must conform to the same
    // pinned artifacts as the one-shot API: `encode_into` reproduces each
    // golden stream byte-for-byte (index included) and `decode_into`
    // recovers each golden value corpus. One output container and one
    // output tensor are recycled across the whole corpus, so the reuse
    // path is exercised across group sizes, dtypes and index policies.
    if std::env::var_os("SS_GOLDEN_REGEN").is_some() {
        return; // files are being rewritten by the conform test this run
    }
    let dir = golden_dir();
    let mut out = SchemeStream::default();
    let mut back = Tensor::zeros(Shape::flat(0), FixedType::U8);
    for case in CASES {
        let values = golden_values(case.seed, case.len, case.dtype);
        let tensor = Tensor::from_vec(Shape::flat(case.len), case.dtype, values.clone()).unwrap();
        let config = ss_core::CodecConfig::new()
            .with_group_size(case.group)
            .with_index_policy(case.policy);
        let mut session = CodecSession::new(config).unwrap();
        // Two rounds through the same session: the second runs entirely on
        // recycled buffers and must not drift.
        for round in 0..2 {
            session
                .encode_stream(&ShapeShifterScheme::default(), &tensor, &mut out)
                .unwrap();
            let golden_stream = std::fs::read(dir.join(format!("{}.stream.bin", case.name)))
                .unwrap_or_else(|e| panic!("{}: missing golden stream ({e})", case.name));
            assert_eq!(
                out.bytes,
                &golden_stream[..],
                "{} round {round}: session stream drifted from golden",
                case.name
            );
            assert_eq!(fnv1a(&out.bytes), case.stream_hash, "{}", case.name);
            assert_eq!(out.bit_len, case.bit_len, "{}", case.name);
            let index_blob = out.index.as_ref().map(|i| i.to_bytes().unwrap());
            assert_eq!(
                index_blob.as_deref().map_or(0, fnv1a),
                case.index_hash,
                "{} round {round}: session index drifted",
                case.name
            );
            session.decode_stream(&out, &mut back).unwrap();
            assert_eq!(
                back, tensor,
                "{} round {round}: session decode drifted",
                case.name
            );
        }
    }
}

#[test]
fn scheme_golden_vectors_conform() {
    // The plug-in schemes' wire formats are pinned exactly like the
    // default container's: today's `encode_stream` reproduces each
    // checked-in stream byte-for-byte, the source constants agree with
    // the files, and the file bytes decode back to the file values
    // through a session reused across the whole corpus.
    let dir = golden_dir();
    let regen = std::env::var_os("SS_GOLDEN_REGEN").is_some();
    let mut stream = SchemeStream::default();
    let mut back = Tensor::zeros(Shape::flat(0), FixedType::U8);
    for case in SCHEME_CASES {
        let scheme = SchemeRegistry::global().get(case.scheme).unwrap();
        let values = golden_values(case.seed, case.len, case.dtype);
        let tensor = Tensor::from_vec(Shape::flat(case.len), case.dtype, values.clone()).unwrap();
        let config = ss_core::CodecConfig::new()
            .with_group_size(case.group)
            .with_index_policy(IndexPolicy::None);
        let mut session = CodecSession::new(config).unwrap();
        session.encode_stream(scheme, &tensor, &mut stream).unwrap();
        assert!(stream.index.is_none(), "{}: unexpected index", case.name);

        let stream_path = dir.join(format!("{}.stream.bin", case.name));
        let values_path = dir.join(format!("{}.values.bin", case.name));

        if regen {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&stream_path, &stream.bytes).unwrap();
            std::fs::write(&values_path, values_to_le_bytes(&values)).unwrap();
            println!(
                "{}: stream_hash: {:#018x}, bit_len: {},",
                case.name,
                fnv1a(&stream.bytes),
                stream.bit_len
            );
            continue;
        }

        let golden_stream = std::fs::read(&stream_path)
            .unwrap_or_else(|e| panic!("{}: missing golden stream ({e})", case.name));
        assert_eq!(
            stream.bytes, golden_stream,
            "{}: encoder drifted from the golden stream",
            case.name
        );
        assert_eq!(
            fnv1a(&golden_stream),
            case.stream_hash,
            "{}: golden stream file does not match its pinned hash",
            case.name
        );
        assert_eq!(
            stream.bit_len, case.bit_len,
            "{}: bit length drifted",
            case.name
        );

        let golden_values_file = values_from_le_bytes(
            &std::fs::read(&values_path)
                .unwrap_or_else(|e| panic!("{}: missing golden values ({e})", case.name)),
        );
        assert_eq!(
            golden_values_file, values,
            "{}: value corpus drifted",
            case.name
        );
        session.decode_stream(&stream, &mut back).unwrap();
        assert_eq!(back, tensor, "{}: scheme decode drifted", case.name);
    }
}

#[test]
fn delta_u16_case_declares_the_widest_delta() {
    // A step of 2^15 or more within a group is a delta whose
    // sign-magnitude form needs 17 bits, one more than the container.
    let case = SCHEME_CASES
        .iter()
        .find(|c| c.name == "scheme1_delta_u16_g16")
        .unwrap();
    let values = golden_values(case.seed, case.len, case.dtype);
    let widest = values
        .chunks(case.group)
        .filter(|g| g.windows(2).any(|w| (w[1] - w[0]).abs() >= 1 << 15))
        .count();
    assert!(widest > 0, "no group of the u16 Delta case declares P = 17");
}

#[test]
fn golden_corpus_is_complete() {
    // Every file under tests/golden/ belongs to a pinned case — a stray
    // artifact (or a case whose files were deleted without removing the
    // entry) fails loudly rather than silently shrinking coverage.
    let dir = golden_dir();
    let mut expected: Vec<String> = Vec::new();
    for case in CASES {
        expected.push(format!("{}.stream.bin", case.name));
        expected.push(format!("{}.values.bin", case.name));
        if !matches!(case.policy, IndexPolicy::None) {
            expected.push(format!("{}.index.bin", case.name));
        }
    }
    for case in SCHEME_CASES {
        expected.push(format!("{}.stream.bin", case.name));
        expected.push(format!("{}.values.bin", case.name));
    }
    let mut actual: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden/ exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".bin"))
        .collect();
    expected.sort();
    actual.sort();
    assert_eq!(actual, expected);
}
