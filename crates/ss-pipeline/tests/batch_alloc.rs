// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! What [`Pipeline::encode_batch_with`] and [`Pipeline::decode_batch_with`]
//! allocate per tensor, asserted with a counting global allocator: a
//! batch call's allocations grow with the batch only by the outputs it
//! hands back — one buffer per encoded stream (its bytes) and two per
//! decoded tensor (its shape and its values) — under every registered
//! scheme.
//!
//! A dedicated integration-test binary holding exactly one test: the
//! counting allocator is process-global, so any concurrently running test
//! would pollute the measurement. It counts only on threads that opt in,
//! so libtest's own threads do not either; the test thread opts in, and
//! at one worker both batch calls run every tensor on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ss_core::prelude::{SchemeRegistry, SchemeStream};
use ss_pipeline::{Pipeline, PipelineConfig};
use ss_tensor::{FixedType, Shape, Tensor};

/// Counts every allocation and reallocation made on an opted-in thread
/// (frees are irrelevant to the claim) and forwards to the system
/// allocator.
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
fn batch_allocations_grow_only_by_the_outputs() {
    // Same-shape tensors cycling through four contents, so both batches
    // reach every scratch buffer's high-water mark within their first
    // four tensors.
    let distinct: Vec<Tensor> = (1..=4).map(|seed| tensor(4096, seed)).collect();
    let batch = |n: usize| -> Vec<Tensor> { distinct.iter().cycle().take(n).cloned().collect() };
    let (short, long) = (batch(8), batch(64));
    let added = (long.len() - short.len()) as u64;
    COUNTED.set(true);
    let pipeline = Pipeline::new(PipelineConfig::new().with_workers(1)).unwrap();

    for id in SchemeRegistry::global().ids() {
        // Warm-up: one-time process-wide initialization (registry, trace
        // slot) happens here, outside the measurement.
        let warm = pipeline.encode_batch_with(id, &short).unwrap();
        pipeline.decode_batch_with(&warm).unwrap();

        let encode = |tensors: &[Tensor]| {
            let before = allocation_count();
            let streams = pipeline.encode_batch_with(id, tensors).unwrap();
            let made = allocation_count() - before;
            assert_eq!(streams.len(), tensors.len());
            (streams, made)
        };
        let decode = |streams: &[SchemeStream]| {
            let before = allocation_count();
            let tensors = pipeline.decode_batch_with(streams).unwrap();
            let made = allocation_count() - before;
            assert_eq!(tensors.len(), streams.len());
            made
        };
        let ((short_streams, enc_short), (long_streams, enc_long)) =
            (encode(&short), encode(&long));
        let (dec_short, dec_long) = (decode(&short_streams), decode(&long_streams));
        assert!(
            enc_short > 0 && dec_short > 0,
            "scheme {id}: the counting allocator saw nothing; the check is vacuous"
        );
        assert_eq!(
            enc_long - enc_short,
            added,
            "scheme {id}: encode_batch_with made {enc_short} allocations for {} tensors but \
             {enc_long} for {}; expected one more per tensor (its stream's bytes)",
            short.len(),
            long.len()
        );
        assert_eq!(
            dec_long - dec_short,
            2 * added,
            "scheme {id}: decode_batch_with made {dec_short} allocations for {} tensors but \
             {dec_long} for {}; expected two more per tensor (its shape and values)",
            short.len(),
            long.len()
        );
    }
}
