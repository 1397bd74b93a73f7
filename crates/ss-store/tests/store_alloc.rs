// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Zero-allocation steady state for [`ModelStore::get_values`], asserted
//! with a counting global allocator.
//!
//! The borrowing store decode is the serve `get` path: one ranged read
//! into the store's block buffer, a record-block check against the index
//! entry, and a decode into the store's session scratch, which it lends
//! out. Once those buffers have grown to the largest record, a loop over
//! records of mixed sizes must touch the heap **zero** times, for every
//! registered scheme. This file is a dedicated integration-test binary
//! holding exactly one test, because the counting allocator is
//! process-global; it counts only on the test thread, which opts in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ss_core::SchemeRegistry;
use ss_store::{MemoryProvider, ModelStore, ModelWriter};
use ss_tensor::{FixedType, Shape, Tensor};

/// Counts every allocation and reallocation made on an opted-in thread
/// (frees are irrelevant to the steady-state claim) and forwards to the
/// system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. `const`-initialised
    /// and drop-free, so reading it from inside the allocator never
    /// allocates.
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
fn steady_state_store_decode_performs_zero_allocations() {
    COUNTED.set(true);
    // Mixed sizes; the largest is big enough for the default index
    // policy to write a v2 (indexed) ShapeShifter container.
    let records = [
        ("a.weight", tensor(40_000, 1)),
        ("b.weight", tensor(333, 2)),
        ("c.weight", tensor(4096, 3)),
        ("d.weight", tensor(1, 4)),
    ];
    let provider = MemoryProvider::new();
    let ids: Vec<_> = SchemeRegistry::global().ids().collect();
    for id in &ids {
        let model = format!("m{}", id.as_byte());
        // Small shards spread the records over several shard objects.
        let mut writer = ModelWriter::new(&provider, &model)
            .with_scheme(*id, 16)
            .with_shard_bytes(8_000);
        for (layer, (name, t)) in records.iter().enumerate() {
            writer.append_tensor(name, layer as u32, t).unwrap();
        }
        writer.finish().unwrap();
    }

    for id in ids {
        let mut store = ModelStore::open(&provider, &format!("m{}", id.as_byte())).unwrap();
        // Warm-up: grow every buffer to its high-water mark and verify
        // correctness while doing so.
        for _ in 0..2 {
            for (name, t) in &records {
                let (dtype, values) = store.get_values(name).unwrap();
                assert_eq!(dtype, t.dtype());
                assert_eq!(values, t.values(), "scheme {id} record {name}");
            }
        }

        // Measured region: the same traffic must not allocate at all.
        const ROUNDS: u64 = 10;
        let before = allocation_count();
        let mut decoded = 0usize;
        for _ in 0..ROUNDS {
            for (name, _) in &records {
                decoded += store.get_values(name).unwrap().1.len();
            }
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta,
            0,
            "scheme {id}: store decode made {delta} allocation(s) across {ROUNDS} rounds \
             x {} records (expected zero)",
            records.len()
        );
        assert_eq!(
            decoded as u64,
            ROUNDS * records.iter().map(|(_, t)| t.len() as u64).sum::<u64>()
        );

        // The measurement itself is live: the owning `get` builds a
        // tensor per call, so it must allocate.
        let before = allocation_count();
        let _ = store.get(records[0].0).unwrap();
        assert!(
            allocation_count() > before,
            "counting allocator saw no allocation from the owning get; \
             the zero-allocation assertion above is vacuous"
        );
    }
}
