// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property suite for [`CodecSession`] reuse: one session driven through
//! an arbitrary sequence of tensors — mixed lengths, dtypes and value
//! distributions — must produce containers **bit-identical** to a fresh
//! one-shot encode of each tensor, under every index policy, and decode
//! each container back losslessly into recycled output buffers.
//!
//! This is the contract that lets `ss-pipeline` run one long-lived
//! session per worker: no history dependence, no stale state, no drift.

use proptest::prelude::*;
use ss_core::prelude::*;
use ss_core::scheme::ShapeShifterScheme;
use ss_tensor::{FixedType, Shape, Signedness, Tensor};

/// Strategy producing a tensor with a skewed (mostly-small, some zeros,
/// rare large) value distribution over an arbitrary container.
fn arb_tensor() -> impl Strategy<Value = Tensor> {
    let dtype = prop_oneof![
        Just(FixedType::I16),
        Just(FixedType::U16),
        Just(FixedType::I8),
        Just(FixedType::U8),
    ];
    (dtype, 0usize..400).prop_flat_map(|(dt, len)| {
        let max = dt.max_magnitude();
        let value = prop_oneof![
            4 => Just(0i32),
            8 => 1i32..=15.min(max),
            3 => 1i32..=max,
        ];
        let signed = dt.signedness() == Signedness::Signed;
        prop::collection::vec((value, any::<bool>()), len).prop_map(move |pairs| {
            let vals = pairs
                .into_iter()
                .map(|(v, neg)| if signed && neg { -v } else { v })
                .collect();
            Tensor::from_vec(Shape::flat(len), dt, vals).expect("values fit container")
        })
    })
}

proptest! {
    #[test]
    fn one_session_matches_fresh_one_shot_per_tensor(
        tensors in prop::collection::vec(arb_tensor(), 1..8),
        group in 1usize..=256,
        chunk_groups in 1usize..=6,
    ) {
        let policies = [
            IndexPolicy::None,
            IndexPolicy::EveryGroups(chunk_groups),
            IndexPolicy::Auto,
        ];
        for policy in policies {
            let cfg = CodecConfig::new()
                .with_group_size(group)
                .with_index_policy(policy);
            let codec = cfg.build().unwrap();
            let mut session = CodecSession::new(cfg).unwrap();
            // One container and one tensor recycled across the whole
            // sequence — shrinking, growing and switching dtypes between
            // calls must leave no trace in the output.
            let mut out = SchemeStream::default();
            let mut back = Tensor::zeros(Shape::flat(0), FixedType::U8);
            let scheme = ShapeShifterScheme::default();
            for (i, t) in tensors.iter().enumerate() {
                session.encode_stream(&scheme, t, &mut out).unwrap();
                let one_shot = codec.encode_with(&scheme, t).unwrap();
                prop_assert_eq!(
                    &out, &one_shot,
                    "tensor {} under {:?}: session container diverged",
                    i, policy
                );
                session.decode_stream(&out, &mut back).unwrap();
                prop_assert_eq!(
                    &back, t,
                    "tensor {} under {:?}: session decode diverged",
                    i, policy
                );
            }
        }
    }

    #[test]
    fn session_measure_identity_holds_for_session_containers(
        tensors in prop::collection::vec(arb_tensor(), 1..5),
        group in 1usize..=64,
    ) {
        // The accounting identity carries over to session-built
        // containers: measure's named report equals the container the
        // session wrote.
        let cfg = CodecConfig::new().with_group_size(group);
        let codec = cfg.build().unwrap();
        let mut session = CodecSession::new(cfg).unwrap();
        let mut out = SchemeStream::default();
        for t in &tensors {
            session.encode_stream(&ShapeShifterScheme::default(), t, &mut out).unwrap();
            let report: MeasureReport = codec.measure(t);
            prop_assert_eq!(report.metadata_bits, out.report.metadata_bits);
            prop_assert_eq!(report.payload_bits, out.report.payload_bits);
            prop_assert_eq!(report.groups, out.report.groups);
            prop_assert_eq!(report.total_bits(), out.bit_len);
        }
    }

    #[test]
    fn one_session_serves_every_registered_scheme_interleaved(
        tensors in prop::collection::vec(arb_tensor(), 1..6),
        group in 1usize..=256,
    ) {
        // The registry path inherits the reuse contract: one session
        // hopping between every registered scheme (ShapeShifter, Delta,
        // DPRed, AdaBits, and anything registered later) per tensor must
        // match a fresh session's stream bit for bit — frame, bytes and
        // index alike — and decode back losslessly into recycled
        // buffers. The parallel decode inside follows `SS_THREADS`, the
        // knob the tier-1 matrix sweeps.
        let cfg = CodecConfig::new().with_group_size(group);
        let mut session = CodecSession::new(cfg).unwrap();
        let mut stream = SchemeStream::default();
        let mut back = Tensor::zeros(Shape::flat(0), FixedType::U8);
        for (i, t) in tensors.iter().enumerate() {
            for id in SchemeRegistry::global().ids() {
                let scheme = SchemeRegistry::global().get(id).unwrap();
                session.encode_stream(scheme, t, &mut stream).unwrap();
                prop_assert_eq!(stream.scheme, id);
                let mut fresh = CodecSession::new(cfg).unwrap();
                let mut reference = SchemeStream::default();
                fresh.encode_stream(scheme, t, &mut reference).unwrap();
                prop_assert_eq!(
                    &stream.bytes, &reference.bytes,
                    "tensor {} under {}: reused-session stream diverged",
                    i, id
                );
                prop_assert_eq!(stream.bit_len, reference.bit_len);
                prop_assert_eq!(&stream.index, &reference.index);
                session.decode_stream(&stream, &mut back).unwrap();
                prop_assert_eq!(
                    &back, t,
                    "tensor {} under {}: scheme decode diverged",
                    i, id
                );
            }
        }
    }
}
