// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Zero-allocation steady state for [`CodecSession`], asserted with a
//! counting global allocator.
//!
//! The session contract is that a loop re-encoding and re-decoding
//! same-shaped tensors touches the heap **zero** times per tensor once the
//! scratch buffers have grown to their high-water mark — through the
//! ShapeShifter container API and through the registry path, for every
//! registered scheme, with and without a chunk index. This file is a
//! dedicated integration-test binary holding exactly one test: the
//! counting allocator is process-global, so any concurrently running test
//! would pollute the measurement. It counts only on threads that opt in,
//! so libtest's own threads do not either; the test thread opts in, and
//! these tensors are small enough that the codec runs on it alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ss_core::prelude::*;
use ss_tensor::{FixedType, Shape, Tensor};

/// Counts every allocation and reallocation made on an opted-in thread
/// (frees are irrelevant to the steady-state claim) and forwards to the
/// system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Only the test thread
    /// opts in: libtest's main thread can allocate while the test thread
    /// measures, and those allocations are not the code under test.
    /// `const`-initialised and drop-free, so reading it from inside the
    /// allocator never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    if COUNTED.get() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// Unsafe is confined to forwarding the GlobalAlloc contract verbatim to
// the system allocator; the counter itself is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Deterministic skewed tensor (LCG; no RNG crate).
fn tensor(len: usize, seed: u64) -> Tensor {
    let mut x = seed;
    let vals: Vec<i32> = (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 33;
            match r % 10 {
                0..=3 => 0,
                4..=7 => (r % 15 + 1) as i32 - 8,
                _ => (r % 4000 + 1) as i32 - 2000,
            }
        })
        .collect();
    Tensor::from_vec(Shape::flat(len), FixedType::I16, vals).unwrap()
}

#[test]
fn steady_state_session_performs_zero_allocations_per_tensor() {
    COUNTED.set(true);
    // EveryGroups(2) keeps the chunk index in play (with group 16 any
    // tensor over 32 values is indexed), so the index-entry recycling path
    // is part of the measurement, not just the plain stream path.
    let cfg = CodecConfig::new()
        .with_group_size(16)
        .with_index_policy(IndexPolicy::EveryGroups(2));
    let mut session = CodecSession::new(cfg).unwrap();

    // Mixed sizes, fixed set: capacities ratchet to the largest and then
    // cycle. Built before the measured region.
    let tensors = [tensor(4096, 1), tensor(333, 2), tensor(1024, 3)];
    let mut out = EncodedTensor::default();
    let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);

    // Warm-up: grow every buffer to its high-water mark and verify
    // correctness while doing so.
    for _ in 0..3 {
        for t in &tensors {
            session.encode_into(t, &mut out).unwrap();
            session.decode_into(&out, &mut back).unwrap();
            assert_eq!(&back, t);
        }
    }

    // Measured region: the same traffic must not allocate at all.
    const ROUNDS: u64 = 10;
    let before = allocation_count();
    for _ in 0..ROUNDS {
        for t in &tensors {
            session.encode_into(t, &mut out).unwrap();
            session.decode_into(&out, &mut back).unwrap();
        }
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta,
        0,
        "steady-state session made {delta} allocation(s) across {ROUNDS} rounds \
         x {} tensors (expected zero)",
        tensors.len()
    );

    // The registry path — `encode_with_scheme` / `decode_with_scheme`,
    // behind every batch-codec call and every store `get` — keeps the same
    // promise for every registered scheme, indexed and unindexed. Schemes
    // without an index ignore the policy.
    let mut stream = SchemeStream::default();
    for id in SchemeRegistry::global().ids() {
        let scheme = SchemeRegistry::global().get(id).unwrap();
        for policy in [IndexPolicy::EveryGroups(2), IndexPolicy::None] {
            for _ in 0..3 {
                for t in &tensors {
                    session
                        .encode_with_scheme(scheme, t, policy, &mut stream)
                        .unwrap();
                    session
                        .decode_with_scheme(scheme, &stream, &mut back)
                        .unwrap();
                    assert_eq!(&back, t, "scheme {id} policy {policy:?}");
                }
            }
            let before = allocation_count();
            for _ in 0..ROUNDS {
                for t in &tensors {
                    session
                        .encode_with_scheme(scheme, t, policy, &mut stream)
                        .unwrap();
                    session
                        .decode_with_scheme(scheme, &stream, &mut back)
                        .unwrap();
                }
            }
            let delta = allocation_count() - before;
            assert_eq!(
                delta,
                0,
                "scheme {id} under {policy:?} made {delta} allocation(s) across {ROUNDS} \
                 rounds x {} tensors (expected zero)",
                tensors.len()
            );
        }
    }

    // The measurement itself is live: the same traffic through the
    // one-shot API must allocate (fresh container + stream per call), or
    // the counter is not counting.
    let codec = cfg.build().unwrap();
    let before = allocation_count();
    for t in &tensors {
        let enc = codec.encode(t).unwrap();
        let _ = codec.decode(&enc).unwrap();
    }
    assert!(
        allocation_count() > before,
        "counting allocator saw no allocations from the one-shot API; \
         the zero-allocation assertion above is vacuous"
    );
}
