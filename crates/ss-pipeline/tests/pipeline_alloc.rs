// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! The engine's zero-allocation claim, asserted with a counting global
//! allocator: after warm-up the hot loop of [`Pipeline::process`] does not
//! touch the heap, so a batch costs the same number of allocations
//! whatever its length.
//!
//! A dedicated integration-test binary holding exactly one test: the
//! counting allocator is process-global, so any concurrently running test
//! would pollute the measurement. It counts only on threads that opt in,
//! so libtest's own threads do not either; the test thread opts in, and
//! at one worker `Pipeline::process` runs every tensor on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

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
fn process_allocations_do_not_grow_with_the_batch() {
    // Same-shape tensors cycling through four contents, so both batches
    // reach every scratch buffer's high-water mark within their first
    // four tensors.
    let distinct: Vec<Tensor> = (1..=4).map(|seed| tensor(4096, seed)).collect();
    let batch = |n: usize| -> Vec<Tensor> { distinct.iter().cycle().take(n).cloned().collect() };
    let (short, long) = (batch(8), batch(64));
    COUNTED.set(true);
    let pipeline = Pipeline::new(PipelineConfig::new().with_workers(1)).unwrap();

    // Warm-up: one-time process-wide initialization (registry, trace
    // slot) happens here, outside the measurement.
    pipeline.process(&short).unwrap();

    let count = |tensors: &[Tensor]| {
        let before = allocation_count();
        let report = pipeline.process(tensors).unwrap();
        let made = allocation_count() - before;
        assert_eq!(report.tensors, tensors.len() as u64);
        made
    };
    let (for_short, for_long) = (count(&short), count(&long));
    assert!(
        for_short > 0,
        "the counting allocator saw nothing; the check is vacuous"
    );
    assert_eq!(
        for_short,
        for_long,
        "process made {for_short} allocations for {} tensors but {for_long} for {}",
        short.len(),
        long.len()
    );
}
