//! Close/drain race coverage for [`BoundedQueue`]: a loom-style seeded
//! interleaving stress suite pinning the shutdown contract that
//! `ss-serve`'s graceful drain is built on:
//!
//! 1. **No silent loss** — every item a producer successfully pushed
//!    (`try_push` returned `Ok`) is popped by exactly one consumer before
//!    the drained queue goes terminal, no matter when `close` lands
//!    relative to the producers and consumers.
//! 2. **No invention** — nothing is popped twice and nothing is popped
//!    that was never admitted (checked by summing a per-item tag).
//! 3. **Typed refusal** — a push racing with close or a full queue is
//!    *refused* with the item handed back (`TryPushError`), never
//!    half-admitted.
//!
//! True loom-style model checking would need a pluggable scheduler; this
//! suite approximates it the way the rest of the workspace does — many
//! seeded schedules (seed → producer/consumer counts, per-item work
//! jitter, close timing) so a failing interleaving replays from its seed
//! printed in the panic message.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use ss_pipeline::{BoundedQueue, TryPushError};

/// Deterministic per-seed parameter pick (splitmix64 step).
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Busy-work jitter: perturbs thread timing without sleeping, so the
/// schedule space explored varies run to run within each seed's shape.
fn jitter(spins: u64) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

/// One seeded schedule: producers race consumers race one closer.
/// Returns (pushed_count, pushed_sum, popped_count, popped_sum,
/// refused_count).
fn run_schedule(seed: u64) -> (u64, u64, u64, u64, u64) {
    let r = mix(seed);
    let producers = 1 + (r % 4) as usize; // 1..=4
    let consumers = 1 + ((r >> 8) % 4) as usize; // 1..=4
    let capacity = 1 + ((r >> 16) % 8) as usize; // 1..=8
    let items_per_producer = 16 + (r >> 24) % 48; // 16..=63
    let close_after_polls = (r >> 32) % 64; // when the closer fires

    let queue: BoundedQueue<u64> = BoundedQueue::new(capacity);
    let pushed_count = AtomicU64::new(0);
    let pushed_sum = AtomicU64::new(0);
    let popped_count = AtomicU64::new(0);
    let popped_sum = AtomicU64::new(0);
    let refused = AtomicU64::new(0);
    let live_consumers = AtomicUsize::new(consumers);

    std::thread::scope(|s| {
        for p in 0..producers {
            let queue = &queue;
            let pushed_count = &pushed_count;
            let pushed_sum = &pushed_sum;
            let refused = &refused;
            s.spawn(move || {
                for i in 0..items_per_producer {
                    // Tag encodes (producer, index) so sums detect both
                    // duplication and substitution.
                    let tag = ((p as u64) << 32) | i;
                    jitter(mix(seed ^ tag) % 64);
                    match queue.try_push(tag) {
                        Ok(()) => {
                            pushed_count.fetch_add(1, Ordering::SeqCst);
                            pushed_sum.fetch_add(tag, Ordering::SeqCst);
                        }
                        Err(TryPushError::Full(t)) => {
                            assert_eq!(t, tag, "refused item handed back intact");
                            refused.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(TryPushError::Closed(t)) => {
                            assert_eq!(t, tag, "refused item handed back intact");
                            refused.fetch_add(1, Ordering::SeqCst);
                            break; // closed: stop submitting
                        }
                    }
                }
            });
        }
        for c in 0..consumers {
            let queue = &queue;
            let popped_count = &popped_count;
            let popped_sum = &popped_sum;
            let live_consumers = &live_consumers;
            s.spawn(move || {
                while let Some(tag) = queue.pop() {
                    jitter(mix(seed ^ tag ^ (c as u64) << 48) % 32);
                    popped_count.fetch_add(1, Ordering::SeqCst);
                    popped_sum.fetch_add(tag, Ordering::SeqCst);
                }
                // pop() returned None: the queue must be closed AND
                // empty — a consumer exiting with items still queued
                // would be exactly the silent drop this suite hunts.
                assert!(queue.is_closed(), "seed {seed}: consumer exited before close");
                live_consumers.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // The closer: lands at a seed-chosen point amid the traffic.
        let queue = &queue;
        s.spawn(move || {
            jitter(close_after_polls * 128);
            queue.close();
        });
    });

    assert!(queue.is_empty(), "seed {seed}: items left behind after drain");
    assert_eq!(live_consumers.load(Ordering::SeqCst), 0);
    (
        pushed_count.load(Ordering::SeqCst),
        pushed_sum.load(Ordering::SeqCst),
        popped_count.load(Ordering::SeqCst),
        popped_sum.load(Ordering::SeqCst),
        refused.load(Ordering::SeqCst),
    )
}

#[test]
fn no_admitted_item_is_lost_or_duplicated_across_seeded_shutdown_schedules() {
    let mut total_pushed = 0u64;
    let mut total_refused = 0u64;
    for seed in 0..200u64 {
        let (pushed, pushed_sum, popped, popped_sum, refused) = run_schedule(seed);
        assert_eq!(
            pushed, popped,
            "seed {seed}: {pushed} admitted items but {popped} delivered"
        );
        assert_eq!(
            pushed_sum, popped_sum,
            "seed {seed}: delivered item set differs from admitted item set"
        );
        total_pushed += pushed;
        total_refused += refused;
    }
    // Sanity: the schedule space actually exercised both outcomes.
    assert!(total_pushed > 0, "no schedule admitted anything");
    assert!(
        total_refused > 0,
        "no schedule ever refused a push — close/full never raced the producers"
    );
}

#[test]
fn drain_after_close_delivers_exactly_the_queued_backlog() {
    // Deterministic single-threaded variant: a known backlog, close,
    // then drain — the service-shutdown fast path.
    let q: BoundedQueue<u64> = BoundedQueue::new(16);
    for i in 0..10 {
        assert!(q.try_push(i).is_ok());
    }
    q.close();
    assert!(matches!(q.try_push(99), Err(TryPushError::Closed(99))));
    let drained: Vec<u64> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(drained, (0..10).collect::<Vec<_>>());
    assert_eq!(q.pop(), None, "terminal after drain");
}
